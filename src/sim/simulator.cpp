#include "sim/simulator.hpp"

#include <cmath>
#include <utility>

#include "common/simtime.hpp"

namespace ppo::sim {

void Simulator::schedule_at(Time t, EventFn fn) {
  PPO_CHECK_MSG(std::isfinite(t), "event time must be finite");
  PPO_CHECK_MSG(t >= now_, "cannot schedule into the past");
  PPO_CHECK_MSG(static_cast<bool>(fn), "event callback must be callable");
  last_ticket_ = EventTicket{kExternalActor, next_seq_};
  queue_.push(t, kExternalActor, next_seq_++, kExternalActor, std::move(fn));
}

void Simulator::restore_state(Time now, std::uint64_t next_seq,
                              std::uint64_t executed) {
  PPO_CHECK_MSG(queue_.empty(), "restore_state needs an empty queue");
  PPO_CHECK_MSG(std::isfinite(now), "restored clock must be finite");
  now_ = now;
  next_seq_ = next_seq;
  executed_ = executed;
  set_sim_time_context(now_);
}

void Simulator::restore_event(Time t, std::uint64_t seq, EventFn fn) {
  PPO_CHECK_MSG(std::isfinite(t) && t > now_,
                "restored events must lie strictly after the checkpoint");
  PPO_CHECK_MSG(seq < next_seq_, "restored seq beyond the restored counter");
  PPO_CHECK_MSG(static_cast<bool>(fn), "event callback must be callable");
  queue_.push(t, kExternalActor, seq, kExternalActor, std::move(fn));
}

void Simulator::execute_next() {
  EventQueue::Event event = queue_.pop();
  now_ = event.time;
  set_sim_time_context(now_);
  ++executed_;
  event.fn();
}

std::size_t Simulator::run_until(Time end) {
  PPO_CHECK_MSG(end >= now_, "cannot run backwards");
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().time <= end) {
    execute_next();
    ++count;
  }
  now_ = end;
  set_sim_time_context(now_);
  return count;
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t count = 0;
  while (!queue_.empty() && count < max_events) {
    execute_next();
    ++count;
  }
  PPO_CHECK_MSG(queue_.empty(), "event budget exhausted before quiescence");
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  execute_next();
  return true;
}

void Simulator::clear() { queue_.clear(); }

}  // namespace ppo::sim
