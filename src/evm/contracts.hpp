// Canned contracts used by the fork scenario, examples, and workload
// generators.
//
// The centerpiece is a DAO-style vulnerable "bank": its withdraw() sends
// ether to the caller *before* zeroing the caller's balance, so a contract
// with a re-entering fallback can drain it — the same send-before-update
// bug class the June 2016 DAO attacker exploited (paper §2.1). The hard
// fork scenario deploys this pair, runs the drain, and then "refunds" the
// stolen balance via the DAO irregular state change on the supporting
// chain.
//
// Calling convention (deliberately simple, not Solidity ABI): the first
// 32-byte word of calldata selects the function; arguments follow as
// 32-byte words.
#pragma once

#include "evm/assembler.hpp"
#include "support/bytes.hpp"

namespace forksim::evm::contracts {

// selector values
inline constexpr std::uint64_t kBankDeposit = 1;
inline constexpr std::uint64_t kBankWithdraw = 2;
inline constexpr std::uint64_t kAttackerStart = 1;

/// Vulnerable bank runtime code.
///   deposit()  [selector 1, payable] — credits balances[caller]
///   withdraw() [selector 2] — sends balances[caller] to caller, THEN zeroes
///   it (the reentrancy hole).
Bytes vulnerable_bank_runtime();

/// Reentrancy attacker runtime code, parameterized over the victim's
/// calling convention so it drains both the simple bank (deposit=1,
/// withdraw=2) and the mini-DAO (deposit=1, withdraw=5).
///   start(victim) [selector 1, payable] — stores the victim address,
///   deposits callvalue, then calls withdraw(); the fallback re-enters
///   withdraw() up to `max_rounds` times.
Bytes reentrancy_attacker_runtime(std::uint64_t max_rounds,
                                  std::uint64_t deposit_selector = kBankDeposit,
                                  std::uint64_t withdraw_selector = kBankWithdraw);

/// A benign "counter" contract: any call increments storage slot 0. Used as
/// generic contract-call workload (the paper's Fig 2 contract-transaction
/// fraction).
Bytes counter_runtime();

// ---- the mini-DAO: a crowdfunding contract with voting -------------------
//
// The real DAO was "a decentralized crowdfunding platform... any user could
// send ether to the DAO in exchange for voting power over which projects to
// fund" (paper §2.1). This runtime implements that core loop with one
// active proposal at a time:
//   selector 1: deposit()            — payable; balance = voting power
//   selector 2: propose(recipient, amount)
//   selector 3: vote()               — weight = deposited balance, once per
//                                      proposal per account
//   selector 4: execute()            — pays out if yes-votes > half of all
//                                      deposits
//   selector 5: withdraw()           — the DAO bug: sends BEFORE zeroing
// storage: 0 = total deposits, 1 = recipient, 2 = amount, 3 = yes votes,
//          4 = proposal sequence number, caller -> balance,
//          keccak(caller) -> last proposal seq this account voted on
inline constexpr std::uint64_t kDaoDeposit = 1;
inline constexpr std::uint64_t kDaoPropose = 2;
inline constexpr std::uint64_t kDaoVote = 3;
inline constexpr std::uint64_t kDaoExecute = 4;
inline constexpr std::uint64_t kDaoWithdraw = 5;

Bytes mini_dao_runtime();

Bytes dao_deposit_calldata();
Bytes dao_propose_calldata(const Address& recipient, const U256& amount_wei);
Bytes dao_vote_calldata();
Bytes dao_execute_calldata();
Bytes dao_withdraw_calldata();

/// Calldata for bank deposit.
Bytes bank_deposit_calldata();
/// Calldata for attacker start(bank).
Bytes attacker_start_calldata(const Address& bank);

}  // namespace forksim::evm::contracts
