// Discrete-event simulation core. The paper's evaluation runs on "a
// custom event-based simulation environment" where events occur at
// arbitrary times within a shuffling period; this engine provides
// exactly that: a virtual clock, a stable-ordered pending-event heap
// and deterministic execution.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "sim/backend.hpp"
#include "sim/event_queue.hpp"

namespace ppo::sim {

/// The serial backend: one global queue, ties broken by scheduling
/// order. See backend.hpp for the interface contract and
/// sharded_simulator.hpp for the parallel backend.
class Simulator final : public SimulatorBackend {
 public:
  Time now() const override { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Events at equal
  /// times run in scheduling order (stable).
  void schedule_at(Time t, EventFn fn) override;

  /// The serial backend has no shards: the actor is ignored.
  void schedule_at_for(ActorId /*actor*/, Time t, EventFn fn) override {
    schedule_at(t, std::move(fn));
  }

  /// Runs events with time <= `end`, then advances the clock to
  /// `end`. Returns the number of events executed.
  std::size_t run_until(Time end);

  /// Runs until the queue drains or `max_events` executed.
  std::size_t run_all(std::size_t max_events = kDefaultEventBudget);

  /// Executes exactly the next pending event, if any; returns whether
  /// one ran.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  /// Drops all pending events; the clock is unchanged.
  void clear();

  /// --- checkpoint/restore -------------------------------------------
  /// The serial backend identifies every event by a single global
  /// sequence counter; tickets carry kExternalActor as origin.
  EventTicket last_ticket() const override { return last_ticket_; }
  std::uint64_t next_seq() const { return next_seq_; }

  /// Overwrites clock and counters from a checkpoint. Only valid on a
  /// freshly constructed (or clear()ed) simulator with an empty queue.
  void restore_state(Time now, std::uint64_t next_seq,
                     std::uint64_t executed);

  /// Re-inserts a pending event at its original position in the
  /// deterministic order: `seq` is the sequence number the event had
  /// when first scheduled (must be < the restored next_seq).
  void restore_event(Time t, std::uint64_t seq, EventFn fn);

  static constexpr std::size_t kDefaultEventBudget = 500'000'000;

 private:
  void execute_next();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventTicket last_ticket_;
  /// Every event carries origin kExternalActor, so the queue's
  /// canonical order is (time, seq): scheduling order at equal times.
  EventQueue queue_;
};

}  // namespace ppo::sim
