#include "evm/contracts.hpp"

namespace forksim::evm::contracts {

namespace {

Bytes word_calldata(std::uint64_t selector) {
  Bytes out(32, 0);
  const auto be = be_fixed64(selector);
  for (std::size_t i = 0; i < 8; ++i) out[24 + i] = be[i];
  return out;
}

void append_address_word(Bytes& out, const Address& addr) {
  Bytes word(32, 0);
  for (std::size_t i = 0; i < 20; ++i) word[12 + i] = addr[i];
  append(out, word);
}

}  // namespace

Bytes vulnerable_bank_runtime() {
  Asm a;
  const auto deposit = a.make_label();
  const auto withdraw = a.make_label();
  const auto end = a.make_label();

  // dispatch on calldata word 0
  a.push(std::uint64_t{0}).op(Op::kCalldataload);           // [sel]
  a.op(Op::kDup1).push(kBankDeposit).op(Op::kEq);           // [sel, sel==1]
  a.jumpi(deposit);                                         // [sel]
  a.push(kBankWithdraw).op(Op::kEq);                        // [sel==2]
  a.jumpi(withdraw);
  a.op(Op::kStop);

  // deposit: balances[caller] += callvalue
  a.bind(deposit);                                          // [sel]
  a.op(Op::kPop);
  a.op(Op::kCaller).op(Op::kSload);                         // [bal]
  a.op(Op::kCallvalue).op(Op::kAdd);                        // [bal+value]
  a.op(Op::kCaller).op(Op::kSstore);                        // []
  a.op(Op::kStop);

  // withdraw: send first, zero the balance afterwards — the DAO bug
  a.bind(withdraw);
  a.op(Op::kCaller).op(Op::kSload);                         // [amt]
  a.op(Op::kDup1).op(Op::kIszero);                          // [amt, amt==0]
  a.jumpi(end);                                             // [amt]
  // CALL(gas=GAS, to=caller, value=amt, in=0/0, out=0/0)
  a.push(std::uint64_t{0});   // out_len
  a.push(std::uint64_t{0});   // out_off
  a.push(std::uint64_t{0});   // in_len
  a.push(std::uint64_t{0});   // in_off                     // [amt,0,0,0,0]
  a.op(static_cast<Op>(0x84));  // DUP5: value = amt                // [...,amt]
  a.op(Op::kCaller);          // to
  // forward (remaining - 50000): pre-EIP-150 CALL faults if the requested
  // gas exceeds what is left after the call's own cost, so keep a margin
  a.push(std::uint64_t{50000}).op(Op::kGas).op(Op::kSub);
  a.op(Op::kCall).op(Op::kPop);                             // [amt]
  // only now: balances[caller] = 0
  a.push(std::uint64_t{0}).op(Op::kCaller).op(Op::kSstore); // [amt]
  a.bind(end);
  a.op(Op::kStop);
  return a.build();
}

Bytes reentrancy_attacker_runtime(std::uint64_t max_rounds,
                                  std::uint64_t deposit_selector,
                                  std::uint64_t withdraw_selector) {
  // storage: slot 0 = reentry counter, slot 1 = bank address
  Asm a;
  const auto attack = a.make_label();
  const auto stop = a.make_label();

  a.push(std::uint64_t{0}).op(Op::kCalldataload);            // [sel]
  a.op(Op::kDup1).push(kAttackerStart).op(Op::kEq);          // [sel, sel==1]
  a.jumpi(attack);                                           // [sel]
  a.op(Op::kPop);                                            // []

  // ---- fallback: re-enter while counter < max_rounds
  a.push(std::uint64_t{0}).op(Op::kSload);                   // [c]
  a.push(max_rounds).op(static_cast<Op>(0x81)).op(Op::kLt);  // DUP2              // [c, c<max]
  a.op(Op::kIszero);                                         // [c, !(c<max)]
  a.jumpi(stop);                                             // [c]
  a.push(std::uint64_t{1}).op(Op::kAdd);                     // [c+1]
  a.push(std::uint64_t{0}).op(Op::kSstore);                  // []
  // call victim.withdraw(): memory[0..32) = the withdraw selector
  a.push(withdraw_selector).push(std::uint64_t{0}).op(Op::kMstore);
  a.push(std::uint64_t{0});   // out_len
  a.push(std::uint64_t{0});   // out_off
  a.push(std::uint64_t{32});  // in_len
  a.push(std::uint64_t{0});   // in_off
  a.push(std::uint64_t{0});   // value
  a.push(std::uint64_t{1}).op(Op::kSload);  // to = bank
  a.push(std::uint64_t{50000}).op(Op::kGas).op(Op::kSub);
  a.op(Op::kCall).op(Op::kPop);
  a.bind(stop);
  a.op(Op::kStop);

  // ---- start(bank): record bank, deposit callvalue, trigger withdraw
  a.bind(attack);                                            // [sel]
  a.op(Op::kPop);
  a.push(std::uint64_t{32}).op(Op::kCalldataload);           // [bank]
  a.push(std::uint64_t{1}).op(Op::kSstore);                  // []
  // victim.deposit() with callvalue
  a.push(deposit_selector).push(std::uint64_t{0}).op(Op::kMstore);
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{32});
  a.push(std::uint64_t{0});
  a.op(Op::kCallvalue);
  a.push(std::uint64_t{1}).op(Op::kSload);
  a.push(std::uint64_t{50000}).op(Op::kGas).op(Op::kSub);
  a.op(Op::kCall).op(Op::kPop);
  // victim.withdraw()
  a.push(withdraw_selector).push(std::uint64_t{0}).op(Op::kMstore);
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{32});
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{1}).op(Op::kSload);
  a.push(std::uint64_t{50000}).op(Op::kGas).op(Op::kSub);
  a.op(Op::kCall).op(Op::kPop);
  a.op(Op::kStop);
  return a.build();
}

Bytes counter_runtime() {
  Asm a;
  a.push(std::uint64_t{0}).op(Op::kSload);
  a.push(std::uint64_t{1}).op(Op::kAdd);
  a.push(std::uint64_t{0}).op(Op::kSstore);
  a.op(Op::kStop);
  return a.build();
}

Bytes mini_dao_runtime() {
  constexpr Op kDup1 = Op::kDup1;
  constexpr auto kDup5 = static_cast<Op>(0x84);
  constexpr auto kSwap1 = static_cast<Op>(0x90);

  Asm a;
  const auto deposit = a.make_label();
  const auto propose = a.make_label();
  const auto vote = a.make_label();
  const auto already_voted = a.make_label();
  const auto execute = a.make_label();
  const auto exec_end = a.make_label();
  const auto withdraw = a.make_label();
  const auto withdraw_end = a.make_label();

  // ---- dispatch on calldata word 0
  a.push(std::uint64_t{0}).op(Op::kCalldataload);            // [sel]
  a.op(kDup1).push(kDaoDeposit).op(Op::kEq).jumpi(deposit);  // [sel]
  a.op(kDup1).push(kDaoPropose).op(Op::kEq).jumpi(propose);
  a.op(kDup1).push(kDaoVote).op(Op::kEq).jumpi(vote);
  a.op(kDup1).push(kDaoExecute).op(Op::kEq).jumpi(execute);
  a.push(kDaoWithdraw).op(Op::kEq).jumpi(withdraw);          // []
  a.op(Op::kStop);

  // ---- deposit(): voting power = deposited ether
  a.bind(deposit).op(Op::kPop);
  a.op(Op::kCaller).op(Op::kSload).op(Op::kCallvalue).op(Op::kAdd);
  a.op(Op::kCaller).op(Op::kSstore);                // balances[caller] += v
  a.push(std::uint64_t{0}).op(Op::kSload).op(Op::kCallvalue).op(Op::kAdd);
  a.push(std::uint64_t{0}).op(Op::kSstore);         // total += v
  a.op(Op::kStop);

  // ---- propose(recipient, amount): one active proposal, new sequence
  a.bind(propose).op(Op::kPop);
  a.push(std::uint64_t{32}).op(Op::kCalldataload);
  a.push(std::uint64_t{1}).op(Op::kSstore);         // recipient
  a.push(std::uint64_t{64}).op(Op::kCalldataload);
  a.push(std::uint64_t{2}).op(Op::kSstore);         // amount
  a.push(std::uint64_t{0}).push(std::uint64_t{3}).op(Op::kSstore);  // yes=0
  a.push(std::uint64_t{4}).op(Op::kSload).push(std::uint64_t{1}).op(Op::kAdd);
  a.push(std::uint64_t{4}).op(Op::kSstore);         // seq++
  a.op(Op::kStop);

  // ---- vote(): weight = balance, once per proposal sequence
  a.bind(vote).op(Op::kPop);
  a.op(Op::kCaller).push(std::uint64_t{0}).op(Op::kMstore);  // mem[0]=caller
  a.push(std::uint64_t{32}).push(std::uint64_t{0}).op(Op::kKeccak256);
  //                                                   [vkey]
  a.op(kDup1).op(Op::kSload);                        // [vkey, last_seq]
  a.push(std::uint64_t{4}).op(Op::kSload);           // [vkey, last, seq]
  a.op(Op::kEq).jumpi(already_voted);                // [vkey]
  a.push(std::uint64_t{4}).op(Op::kSload);           // [vkey, seq]
  a.op(kSwap1).op(Op::kSstore);                      // voted[vkey] = seq
  a.push(std::uint64_t{3}).op(Op::kSload);
  a.op(Op::kCaller).op(Op::kSload).op(Op::kAdd);
  a.push(std::uint64_t{3}).op(Op::kSstore);          // yes += balance
  a.op(Op::kStop);
  a.bind(already_voted).op(Op::kPop).op(Op::kStop);

  // ---- execute(): pay out if yes-votes exceed half of all deposits
  a.bind(execute).op(Op::kPop);
  a.push(std::uint64_t{3}).op(Op::kSload);
  a.push(std::uint64_t{2}).op(Op::kMul);             // [2*yes]
  a.push(std::uint64_t{0}).op(Op::kSload);           // [2*yes, total]
  a.op(Op::kLt);                                     // total < 2*yes ?
  a.op(Op::kIszero).jumpi(exec_end);
  a.push(std::uint64_t{0});                          // out_len
  a.push(std::uint64_t{0});                          // out_off
  a.push(std::uint64_t{0});                          // in_len
  a.push(std::uint64_t{0});                          // in_off
  a.push(std::uint64_t{2}).op(Op::kSload);           // value = amount
  a.push(std::uint64_t{1}).op(Op::kSload);           // to = recipient
  a.push(std::uint64_t{50000}).op(Op::kGas).op(Op::kSub);
  a.op(Op::kCall).op(Op::kPop);
  a.push(std::uint64_t{0}).push(std::uint64_t{2}).op(Op::kSstore);  // paid
  a.bind(exec_end).op(Op::kStop);

  // ---- withdraw(): the reentrancy hole (send before zero)
  a.bind(withdraw);
  a.op(Op::kCaller).op(Op::kSload);                  // [amt]
  a.op(kDup1).op(Op::kIszero).jumpi(withdraw_end);   // [amt]
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{0});
  a.push(std::uint64_t{0});
  a.op(kDup5);                                       // value = amt
  a.op(Op::kCaller);
  a.push(std::uint64_t{50000}).op(Op::kGas).op(Op::kSub);
  a.op(Op::kCall).op(Op::kPop);                      // [amt]
  a.push(std::uint64_t{0}).op(Op::kCaller).op(Op::kSstore);  // zero AFTER
  a.push(std::uint64_t{0}).op(Op::kSload);           // [amt, total]
  a.op(Op::kSub);                                    // [total - amt]
  a.push(std::uint64_t{0}).op(Op::kSstore);          // total -= amt
  a.op(Op::kStop);
  a.bind(withdraw_end).op(Op::kPop).op(Op::kStop);
  return a.build();
}

Bytes dao_deposit_calldata() { return word_calldata(kDaoDeposit); }

Bytes dao_propose_calldata(const Address& recipient, const U256& amount_wei) {
  Bytes out = word_calldata(kDaoPropose);
  append_address_word(out, recipient);
  const auto be = amount_wei.to_be();
  out.insert(out.end(), be.begin(), be.end());
  return out;
}

Bytes dao_vote_calldata() { return word_calldata(kDaoVote); }
Bytes dao_execute_calldata() { return word_calldata(kDaoExecute); }
Bytes dao_withdraw_calldata() { return word_calldata(kDaoWithdraw); }

Bytes bank_deposit_calldata() { return word_calldata(kBankDeposit); }

Bytes attacker_start_calldata(const Address& bank) {
  Bytes out = word_calldata(kAttackerStart);
  append_address_word(out, bank);
  return out;
}

}  // namespace forksim::evm::contracts
