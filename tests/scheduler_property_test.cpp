// Scheduler determinism sweep: the flat 4-ary KeyedTimedQueue, keyed by
// push sequence number the way EventLoop keys it, must pop in strict
// (time, seq) order under arbitrary interleavings of schedule / fire, and
// — driven by the same seeded op stream — must produce a pop-for-pop
// identical sequence to the std::priority_queue scheduler it replaced.
// Any divergence here is a golden-fingerprint break waiting to happen.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "p2p/scheduler.hpp"
#include "p2p/simnet.hpp"
#include "support/rng.hpp"

namespace forksim::p2p {
namespace {

/// The pre-heap scheduler: std::priority_queue with the same (time, key)
/// order. Kept only as the differential reference for the heap.
template <typename Payload>
class LegacyTimedQueue {
 public:
  using Entry = typename KeyedTimedQueue<Payload>::Entry;

  void push(double at, std::uint64_t key, Payload payload) {
    queue_.push(Entry{at, key, std::move(payload)});
  }

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t size() const noexcept { return queue_.size(); }

  Entry pop() {
    Entry out = queue_.top();
    queue_.pop();
    return out;
  }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.key > b.key;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

struct Pop {
  double at;
  std::uint64_t seq;
  int payload;
  bool operator==(const Pop&) const = default;
};

/// One seeded interleaving of schedule/fire driven through `q`, keyed by
/// push sequence number as EventLoop does. Returns the pop trace; sizes
/// are asserted inline.
template <typename Queue>
std::vector<Pop> drive(Queue& q, std::uint64_t seed, std::size_t ops) {
  Rng rng(seed);
  std::uint64_t next_seq = 0;
  std::size_t outstanding = 0;
  std::vector<Pop> pops;
  for (std::size_t op = 0; op < ops; ++op) {
    if (rng.uniform01() < 0.5) {  // schedule; coarse times force (seq) ties
      const double at = static_cast<double>(rng.uniform(32));
      const std::uint64_t seq = next_seq++;
      q.push(at, seq, static_cast<int>(seq));
      ++outstanding;
    } else if (!q.empty()) {  // fire
      const auto e = q.pop();
      pops.push_back(Pop{e.at, e.key, e.payload});
      --outstanding;
    }
    EXPECT_EQ(q.size(), outstanding);
  }
  while (!q.empty()) {
    const auto e = q.pop();
    pops.push_back(Pop{e.at, e.key, e.payload});
  }
  return pops;
}

TEST(SchedulerPropertyTest, PopsInTimeSeqOrderAcrossRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    KeyedTimedQueue<int> q;
    const auto pops = drive(q, seed, 300);
    for (std::size_t i = 0; i + 1 < pops.size(); ++i) {
      // (time, seq) is a strict total order over pops taken from the same
      // queue state; times may go backwards only across a later re-push
      // with an earlier deadline — drive() never does that after pops at
      // a later time, so adjacent pops popped together must be ordered.
      // What must hold unconditionally: equal times pop in push order.
      if (pops[i].at == pops[i + 1].at) {
        EXPECT_LT(pops[i].seq, pops[i + 1].seq) << "seed " << seed;
      }
    }
  }
}

TEST(SchedulerPropertyTest, DrainedTailIsFullySorted) {
  // after the drive loop stops pushing, the drain pops must be totally
  // (time, seq)-ordered
  for (std::uint64_t seed = 500; seed <= 600; ++seed) {
    KeyedTimedQueue<int> q;
    Rng rng(seed);
    for (int i = 0; i < 500; ++i)
      q.push(static_cast<double>(rng.uniform(64)), i, i);
    double prev_at = -1.0;
    std::uint64_t prev_seq = 0;
    bool first = true;
    while (!q.empty()) {
      const auto e = q.pop();
      if (!first) {
        EXPECT_TRUE(e.at > prev_at || (e.at == prev_at && e.key > prev_seq))
            << "seed " << seed;
      }
      prev_at = e.at;
      prev_seq = e.key;
      first = false;
    }
  }
}

TEST(SchedulerPropertyTest, HeapMatchesLegacyPopForPop) {
  // same seed => identical pop sequence across the heap and the legacy
  // implementation
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    KeyedTimedQueue<int> heap;
    LegacyTimedQueue<int> legacy;
    const auto a = drive(heap, seed, 400);
    const auto b = drive(legacy, seed, 400);
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i], b[i]) << "seed " << seed << " pop " << i;
  }
}

TEST(SchedulerPropertyTest, ProfileCountsHeapWork) {
  KeyedTimedQueue<int> q;
  for (int i = 0; i < 1000; ++i) q.push(1000.0 - i, i, i);
  while (!q.empty()) q.pop();
  const TimedQueueProfile& p = q.profile();
  EXPECT_EQ(p.pushes, 1000u);
  EXPECT_EQ(p.pops, 1000u);
  EXPECT_EQ(p.max_size, 1000u);
  // exact heap work: every push of a descending time sifts to the root,
  // every pop sifts back down ~log4(n) levels. Any change to the heap's
  // arity, tie-break or sift moves this number.
  EXPECT_EQ(p.sift_steps, 8095u);
}

TEST(SchedulerPropertyTest, EventLoopHeapWorkIsPinned) {
  // a seeded EventLoop schedule with many equal-time ties, where events
  // reschedule more events while the loop drains: pins the scheduler's
  // exact work so a heap rewrite must reproduce it, not just its order
  EventLoop loop;
  Rng rng(2017);
  std::size_t fired = 0;
  std::function<void(int)> fire = [&](int depth) {
    ++fired;
    if (depth < 3)
      for (std::uint64_t k = rng.uniform(3); k > 0; --k)
        loop.schedule(static_cast<double>(rng.uniform(4)),
                      [&fire, depth] { fire(depth + 1); });
  };
  for (int i = 0; i < 400; ++i)
    loop.schedule(static_cast<double>(rng.uniform(16)), [&fire] { fire(0); });
  loop.run();
  const TimedQueueProfile& p = loop.scheduler_profile();
  EXPECT_EQ(fired, 1611u);
  EXPECT_EQ(p.pushes, 1611u);
  EXPECT_EQ(p.pops, 1611u);
  EXPECT_EQ(p.sift_steps, 6013u);
  EXPECT_EQ(p.max_size, 400u);
  EXPECT_EQ(p.cancels, 0u);
}

TEST(SchedulerPropertyTest, EventLoopTiesFireInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    loop.schedule(5.0, [&order, i] { order.push_back(i); });
  loop.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace forksim::p2p
