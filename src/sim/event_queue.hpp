// The pending-event heap both simulation engines run on. Events pop in
// the canonical (time, origin, seq) order; the serial engine schedules
// every event under one constant origin, so its order reduces to
// (time, seq).
//
// The heap is 4-ary and holds 24-byte plain keys. The callback and the
// target actor live in a per-queue table the key indexes by slot, so a
// sift moves three words instead of a type-erased callback; slots freed
// by pops are reused through a free list, which keeps the table no
// larger than the queue's high-water mark. Keys are unique (one origin
// never reuses a sequence number), so the pop order is fully determined
// by the keys — any correct heap pops the same sequence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/backend.hpp"

namespace ppo::sim {

class EventQueue {
 public:
  /// One pending event's position in the order, plus where its
  /// callback lives.
  struct Key {
    Time time = 0.0;
    std::uint64_t seq = 0;
    ActorId origin = kExternalActor;
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(Key) == 24, "heap keys stay three words");

  /// What pop() hands back: the event's time, the actor it runs as and
  /// its callback, moved out of the table so it may schedule more
  /// events (which can grow the table) while it runs.
  struct Event {
    Time time = 0.0;
    ActorId target = kExternalActor;
    EventFn fn;
  };

  /// Strict canonical order: time, then origin, then sequence number.
  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.seq < b.seq;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The earliest pending event's key. Requires !empty().
  const Key& top() const { return heap_.front(); }

  void push(Time time, ActorId origin, std::uint64_t seq, ActorId target,
            EventFn fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(table_.size());
      table_.push_back(Payload{std::move(fn), target});
    } else {
      slot = free_.back();
      free_.pop_back();
      table_[slot] = Payload{std::move(fn), target};
    }
    heap_.push_back(Key{time, seq, origin, slot});
    sift_up(heap_.size() - 1);
  }

  /// Removes the earliest pending event and returns it. Requires
  /// !empty().
  Event pop() {
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    Payload& payload = table_[top.slot];
    Event event{top.time, payload.target, std::move(payload.fn)};
    payload.fn = nullptr;
    free_.push_back(top.slot);
    return event;
  }

  void clear() {
    heap_.clear();
    table_.clear();
    free_.clear();
  }

 private:
  static constexpr std::size_t kArity = 4;

  struct Payload {
    EventFn fn;
    ActorId target = kExternalActor;
  };

  void sift_up(std::size_t i) {
    const Key key = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(key, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  /// Places `key` at the root hole and sifts it down to its level.
  void sift_down(const Key& key) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], key)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = key;
  }

  std::vector<Key> heap_;
  std::vector<Payload> table_;
  std::vector<std::uint32_t> free_;
};

}  // namespace ppo::sim
