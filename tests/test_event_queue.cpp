// The shared pending-event heap (sim/event_queue.hpp): it must pop in
// exactly the order a std::priority_queue over the canonical
// (time, origin, seq) key pops, with callbacks and targets following
// their keys through slot reuse.
#include <gtest/gtest.h>

#include <queue>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace ppo::sim {
namespace {

struct RefEntry {
  Time time;
  ActorId origin;
  std::uint64_t seq;
  ActorId target;
  int tag;
};

struct RefLater {
  bool operator()(const RefEntry& a, const RefEntry& b) const {
    return std::tie(a.time, a.origin, a.seq) > std::tie(b.time, b.origin, b.seq);
  }
};

// Interleaved pushes, pops and restores (an event popped, then put
// back under its original key, as a checkpoint restore does), on few
// distinct times and few origins so equal times and equal origins are
// the rule, not the exception.
TEST(EventQueue, PopsInReferencePriorityQueueOrder) {
  Rng rng(42);
  EventQueue queue;
  std::priority_queue<RefEntry, std::vector<RefEntry>, RefLater> reference;
  const std::vector<ActorId> origins{0, 1, 7, kExternalActor};
  std::vector<std::uint64_t> next_seq(origins.size(), 0);
  int last_tag = -1;  // set by the callback of the event just popped
  int tags = 0;
  Time floor = 0.0;

  const auto push = [&](const RefEntry& e) {
    reference.push(e);
    const int tag = e.tag;
    queue.push(e.time, e.origin, e.seq, e.target, [&last_tag, tag] {
      last_tag = tag;
    });
  };
  const auto pop_both = [&] {
    const RefEntry want = reference.top();
    reference.pop();
    if (queue.empty()) {
      ADD_FAILURE() << "queue drained before the reference";
      return want;
    }
    EXPECT_EQ(queue.top().time, want.time);
    EXPECT_EQ(queue.top().origin, want.origin);
    EXPECT_EQ(queue.top().seq, want.seq);
    EventQueue::Event got = queue.pop();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.target, want.target);
    got.fn();
    EXPECT_EQ(last_tag, want.tag);
    floor = want.time;
    return want;
  };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.uniform_u64(10);
    if (op < 5 || reference.empty()) {
      const std::size_t o = rng.uniform_u64(origins.size());
      push(RefEntry{floor + static_cast<double>(rng.uniform_u64(4)),
                    origins[o], next_seq[o]++,
                    static_cast<ActorId>(rng.uniform_u64(16)), tags++});
    } else if (op < 9) {
      pop_both();
    } else {
      push(pop_both());  // restore under the original key
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  while (!reference.empty()) pop_both();
  EXPECT_TRUE(queue.empty());
}

// A callback may push while it runs: pop() hands the callback out of
// the table first, so the table can grow under it.
TEST(EventQueue, CallbackMayPushWhileRunning) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(1.0, kExternalActor, 0, kExternalActor, [&] {
    order.push_back(0);
    for (std::uint64_t s = 1; s <= 100; ++s)
      queue.push(2.0, kExternalActor, s, kExternalActor,
                 [&order, s] { order.push_back(static_cast<int>(s)); });
  });
  while (!queue.empty()) queue.pop().fn();
  ASSERT_EQ(order.size(), 101u);
  for (int i = 0; i <= 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace ppo::sim
