// The discrete-event core's timed event queue.
//
// KeyedTimedQueue<Payload> is the one scheduler heap: a 4-ary min-heap
// over (time, key) stored in one contiguous vector, with a profile of its
// own heap work. The 4-ary layout halves the sift depth of a binary heap
// and keeps four children in one cache line of Entry headers — at 10^7+
// events per internet-scale run the scheduler is the hottest loop in the
// simulator, so its cost is tracked explicitly (see TimedQueueProfile).
//
// Determinism contract: entries pop in strictly increasing (time, key)
// order. The caller supplies the key, and with it the tie-break:
//   * EventLoop keys by push sequence number, so equal-time events fire in
//     schedule order. tests/scheduler_property_test.cpp checks that order
//     pop for pop against a std::priority_queue reference.
//   * ScaleSim's shards key by the event's identity (which block, which
//     edge, which mine slot) rather than by when it was pushed. Push order
//     is an execution artifact — two shard counts interleave pushes
//     differently — so only an identity key lets a K-shard run replay a
//     1-shard run fingerprint-for-fingerprint.
// Callers must make (time, key) collisions either impossible (unique
// sequence numbers) or harmless: ScaleSim encodes (kind | block |
// destination), so two entries share a key only when they are the same
// logical delivery and the second is a duplicate.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace forksim::p2p {

/// Heap-work counters for the profiled scheduler. sift_steps / pops is the
/// observed average pop depth (~log4 of live size); the topology bench
/// reports these so a scheduler regression shows up as numbers, not vibes.
struct TimedQueueProfile {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t cancels = 0;      // always 0: the queue has no cancellation
  std::uint64_t sift_steps = 0;   // up + down moves, pushes and pops
  std::uint64_t max_size = 0;     // high-water mark of stored entries
};

template <typename Payload>
class KeyedTimedQueue {
 public:
  struct Entry {
    double at = 0.0;
    std::uint64_t key = 0;
    Payload payload{};
  };

  void push(double at, std::uint64_t key, Payload payload) {
    heap_.push_back(Entry{at, key, std::move(payload)});
    sift_up(heap_.size() - 1);
    ++profile_.pushes;
    if (heap_.size() > profile_.max_size) profile_.max_size = heap_.size();
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Min entry under (time, key). Requires !empty().
  const Entry& top() const { return heap_.front(); }

  Entry pop() {
    Entry out = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    ++profile_.pops;
    return out;
  }

  const TimedQueueProfile& profile() const noexcept { return profile_; }

 private:
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
      ++profile_.sift_steps;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) return;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (earlier(heap_[c], heap_[best])) best = c;
      if (!earlier(heap_[best], heap_[i])) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
      ++profile_.sift_steps;
    }
  }

  std::vector<Entry> heap_;
  TimedQueueProfile profile_;
};

/// Reusable epoch barrier for the lock-step shard workers: all `parties`
/// threads block in arrive_and_wait() until the last one arrives, then all
/// release together. Mutex/condvar (not atomics) on purpose — every
/// release is a full happens-before edge, so block-arena writes made by
/// one shard before the barrier are visible to every shard after it, and
/// ThreadSanitizer can verify the protocol rather than trust it.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
};

/// The conservative-PDES node partition used by the ScaleSim shard engine.
struct ShardPlan {
  /// Balanced contiguous partition: nodes [s*n/k, (s+1)*n/k) land on shard
  /// s. Contiguity keeps each shard's SoA rows and bitset rows adjacent.
  static std::uint32_t shard_for(std::size_t node, std::size_t n,
                                 std::size_t k) noexcept {
    if (k <= 1 || n == 0) return 0;
    return static_cast<std::uint32_t>(node * k / n);
  }
};

}  // namespace forksim::p2p
