// Timing core::Executor decorator for the traced benchmark run: forwards
// every call to the wrapped executor unchanged and adds up the wall time
// spent inside it. It draws no randomness and touches no state of its own,
// so a run through it is bit-identical to a run through the bare executor.
#pragma once

#include <chrono>
#include <cstdint>

#include "core/receipt.hpp"

namespace perfbench {

class TimingExecutor final : public forksim::core::Executor {
 public:
  explicit TimingExecutor(forksim::core::Executor& inner) : inner_(inner) {}

  forksim::core::ExecutionResult execute(
      forksim::core::State& state, const forksim::core::Transaction& tx,
      const forksim::core::BlockContext& ctx,
      const forksim::core::ChainConfig& config,
      forksim::core::Gas block_gas_remaining) override {
    const auto start = std::chrono::steady_clock::now();
    forksim::core::ExecutionResult result =
        inner_.execute(state, tx, ctx, config, block_gas_remaining);
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ++calls_;
    return result;
  }

  /// Wall seconds spent inside the wrapped executor so far.
  double seconds() const noexcept { return seconds_; }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  forksim::core::Executor& inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

}  // namespace perfbench
