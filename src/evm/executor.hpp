// Full-EVM transaction executor: gas purchase, intrinsic gas, top-level
// message call or contract creation, refund accounting, fee payment.
// Plugs into core::Blockchain through the core::Executor interface.
#pragma once

#include <array>

#include "core/receipt.hpp"
#include "evm/vm.hpp"
#include "obs/metrics.hpp"

namespace forksim::evm {

class EvmExecutor final : public core::Executor {
 public:
  core::ExecutionResult execute(core::State& state,
                                const core::Transaction& tx,
                                const core::BlockContext& ctx,
                                const core::ChainConfig& config,
                                core::Gas block_gas_remaining) override;

  /// Register evm.* metrics in `reg`: transactions executed/failed, a
  /// gas-used histogram, and — via a snapshot-time collector — the total
  /// opcode count plus one evm.op.<NAME> counter per opcode seen. Also
  /// turns on the interpreter's per-opcode tally.
  void attach_telemetry(obs::Registry& reg);

 private:
  bool count_opcodes_ = false;
  std::array<std::uint64_t, 256> opcode_counts_{};
  std::uint64_t ops_ = 0;
  obs::Counter* tm_txs_ = nullptr;
  obs::Counter* tm_failed_ = nullptr;
  obs::Counter* tm_rejected_ = nullptr;
  obs::Histogram* tm_gas_ = nullptr;
};

}  // namespace forksim::evm
