// Parameterized EVM opcode truth tables: every binary/unary arithmetic,
// comparison, and bitwise opcode swept across edge-case operands, validated
// against U256 reference semantics; plus gas-cost sweeps per opcode class.
#include <gtest/gtest.h>

#include "evm/assembler.hpp"
#include "evm/vm.hpp"

namespace forksim::evm {
namespace {

using core::BlockContext;
using core::State;

const Address kContract = Address::left_padded(Bytes{0xc0});
const Address kCaller = Address::left_padded(Bytes{0xca});

/// Run code; returns the 32-byte return value (or nullopt on failure).
std::optional<U256> run_for_word(const Bytes& code, Gas gas = 200'000) {
  State state;
  BlockContext ctx;
  state.set_code(kContract, code);
  Vm vm(state, ctx, GasSchedule::homestead(), kCaller, core::gwei(20));
  CallParams params;
  params.caller = kCaller;
  params.address = kContract;
  params.code_address = kContract;
  params.gas = gas;
  const CallResult r = vm.call(params);
  if (!r.success || r.output.size() != 32) return std::nullopt;
  return U256::from_be(r.output);
}

/// PUSH b, PUSH a, OP, return top of stack. a ends up on top, so the
/// opcode sees (a, b) in EVM operand order.
Bytes binary_op_code(Op op, const U256& a, const U256& b) {
  Asm s;
  s.push(b).push(a).op(op);
  s.push(std::uint64_t{0}).op(Op::kMstore);
  s.push(std::uint64_t{32}).push(std::uint64_t{0}).op(Op::kReturn);
  return s.build();
}

// operand corpus: zero, one, small, max, high-bit, mixed patterns
const U256 kOperands[] = {
    U256(0),
    U256(1),
    U256(2),
    U256(255),
    U256(0xffffffffffffffffull),
    U256(1) << 128,
    U256::max(),
    U256::max() - U256(1),
    U256(1) << 255,                    // sign bit only
    U256(0xdeadbeefcafebabeull) << 64,
};

struct BinCase {
  Op op;
  const char* name;
  U256 (*reference)(const U256&, const U256&);
};

// Printed into the test name; the default raw-byte dump would include the
// addresses of `name` and `reference`, which change from build to build.
void PrintTo(const BinCase& c, std::ostream* os) { *os << c.name; }

U256 ref_add(const U256& a, const U256& b) { return a + b; }
U256 ref_sub(const U256& a, const U256& b) { return a - b; }
U256 ref_mul(const U256& a, const U256& b) { return a * b; }
U256 ref_div(const U256& a, const U256& b) { return a / b; }
U256 ref_sdiv(const U256& a, const U256& b) { return U256::sdiv(a, b); }
U256 ref_mod(const U256& a, const U256& b) { return a % b; }
U256 ref_smod(const U256& a, const U256& b) { return U256::smod(a, b); }
U256 ref_lt(const U256& a, const U256& b) { return U256(a < b ? 1 : 0); }
U256 ref_gt(const U256& a, const U256& b) { return U256(a > b ? 1 : 0); }
U256 ref_slt(const U256& a, const U256& b) {
  return U256(U256::slt(a, b) ? 1 : 0);
}
U256 ref_sgt(const U256& a, const U256& b) {
  return U256(U256::slt(b, a) ? 1 : 0);
}
U256 ref_eq(const U256& a, const U256& b) { return U256(a == b ? 1 : 0); }
U256 ref_and(const U256& a, const U256& b) { return a & b; }
U256 ref_or(const U256& a, const U256& b) { return a | b; }
U256 ref_xor(const U256& a, const U256& b) { return a ^ b; }
U256 ref_exp(const U256& a, const U256& b) { return U256::exp(a, b); }
U256 ref_signextend(const U256& a, const U256& b) {
  return U256::signextend(a, b);
}

class BinaryOpTest : public ::testing::TestWithParam<BinCase> {};

TEST_P(BinaryOpTest, MatchesReferenceAcrossOperandCorpus) {
  const BinCase& c = GetParam();
  for (const U256& a : kOperands) {
    for (const U256& b : kOperands) {
      const auto got = run_for_word(binary_op_code(c.op, a, b));
      ASSERT_TRUE(got.has_value())
          << c.name << "(" << a.to_hex() << ", " << b.to_hex() << ")";
      EXPECT_EQ(*got, c.reference(a, b))
          << c.name << "(" << a.to_hex() << ", " << b.to_hex() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinaryOpTest,
    ::testing::Values(BinCase{Op::kAdd, "ADD", ref_add},
                      BinCase{Op::kSub, "SUB", ref_sub},
                      BinCase{Op::kMul, "MUL", ref_mul},
                      BinCase{Op::kDiv, "DIV", ref_div},
                      BinCase{Op::kSdiv, "SDIV", ref_sdiv},
                      BinCase{Op::kMod, "MOD", ref_mod},
                      BinCase{Op::kSmod, "SMOD", ref_smod},
                      BinCase{Op::kExp, "EXP", ref_exp},
                      BinCase{Op::kSignextend, "SIGNEXTEND", ref_signextend}),
    [](const auto& info) { return info.param.name; });

INSTANTIATE_TEST_SUITE_P(
    CompareBitwise, BinaryOpTest,
    ::testing::Values(BinCase{Op::kLt, "LT", ref_lt},
                      BinCase{Op::kGt, "GT", ref_gt},
                      BinCase{Op::kSlt, "SLT", ref_slt},
                      BinCase{Op::kSgt, "SGT", ref_sgt},
                      BinCase{Op::kEq, "EQ", ref_eq},
                      BinCase{Op::kAnd, "AND", ref_and},
                      BinCase{Op::kOr, "OR", ref_or},
                      BinCase{Op::kXor, "XOR", ref_xor}),
    [](const auto& info) { return info.param.name; });

// ------------------------------------------------------------ shifts/unary

class ShiftOpTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShiftOpTest, ShlShrSarMatchReference) {
  const unsigned shift = GetParam();
  for (const U256& v : kOperands) {
    auto shl = run_for_word(binary_op_code(Op::kShl, U256(shift), v));
    auto shr = run_for_word(binary_op_code(Op::kShr, U256(shift), v));
    auto sar = run_for_word(binary_op_code(Op::kSar, U256(shift), v));
    ASSERT_TRUE(shl && shr && sar);
    EXPECT_EQ(*shl, shift >= 256 ? U256(0) : (v << shift));
    EXPECT_EQ(*shr, shift >= 256 ? U256(0) : (v >> shift));
    EXPECT_EQ(*sar, U256::sar(v, shift));
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftOpTest,
                         ::testing::Values(0u, 1u, 8u, 64u, 128u, 255u));

TEST(UnaryOpTest, NotAndIszero) {
  for (const U256& v : kOperands) {
    Asm s1;
    s1.push(v).op(Op::kNot);
    s1.push(std::uint64_t{0}).op(Op::kMstore);
    s1.push(std::uint64_t{32}).push(std::uint64_t{0}).op(Op::kReturn);
    EXPECT_EQ(*run_for_word(s1.build()), ~v);

    Asm s2;
    s2.push(v).op(Op::kIszero);
    s2.push(std::uint64_t{0}).op(Op::kMstore);
    s2.push(std::uint64_t{32}).push(std::uint64_t{0}).op(Op::kReturn);
    EXPECT_EQ(*run_for_word(s2.build()), U256(v.is_zero() ? 1 : 0));
  }
}

TEST(UnaryOpTest, ByteSweep) {
  const U256 value = U256::from_hex(
                         "0102030405060708090a0b0c0d0e0f10"
                         "1112131415161718191a1b1c1d1e1f20")
                         .value_or(U256(0));
  for (std::uint64_t i = 0; i < 34; ++i) {
    const auto got = run_for_word(binary_op_code(Op::kByte, U256(i), value));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, i < 32 ? U256(value.byte_be(i)) : U256(0)) << i;
  }
}

// -------------------------------------------------------------- gas sweeps

struct GasCase {
  const char* name;
  Op op;
  int pushes;        // operands to push
  std::uint64_t expected;  // Homestead cost of the op itself
};

// Printed into the test name; the default raw-byte dump would include the
// address of `name`, which changes from run to run.
void PrintTo(const GasCase& c, std::ostream* os) {
  *os << c.name << ", " << c.pushes << " operands, " << c.expected << " gas";
}

class OpGasTest : public ::testing::TestWithParam<GasCase> {};

TEST_P(OpGasTest, HomesteadCost) {
  const GasCase& c = GetParam();
  Asm with;
  for (int i = 0; i < c.pushes; ++i) with.push(std::uint64_t{1});
  with.op(c.op).op(Op::kStop);

  Asm without;
  for (int i = 0; i < c.pushes; ++i) without.push(std::uint64_t{1});
  without.op(Op::kStop);

  State state;
  BlockContext ctx;
  auto cost_of = [&](const Bytes& code) {
    state.set_code(kContract, code);
    Vm vm(state, ctx, GasSchedule::homestead(), kCaller, core::gwei(20));
    CallParams params;
    params.caller = kCaller;
    params.address = kContract;
    params.code_address = kContract;
    params.gas = 100'000;
    const CallResult r = vm.call(params);
    EXPECT_TRUE(r.success) << c.name;
    return 100'000 - r.gas_left;
  };
  EXPECT_EQ(cost_of(with.build()) - cost_of(without.build()), c.expected)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Costs, OpGasTest,
    ::testing::Values(GasCase{"ADD", Op::kAdd, 2, 3},
                      GasCase{"MUL", Op::kMul, 2, 5},
                      GasCase{"ADDMOD", Op::kAddmod, 3, 8},
                      GasCase{"EXP1byte", Op::kExp, 2, 20},  // 10 + 10*1
                      GasCase{"POP", Op::kPop, 1, 2},
                      GasCase{"CALLER", Op::kCaller, 0, 2},
                      GasCase{"JUMPDEST", Op::kJumpdest, 0, 1},
                      GasCase{"SLOAD", Op::kSload, 1, 50},
                      GasCase{"BALANCE", Op::kBalance, 1, 20}),
    [](const auto& info) { return info.param.name; });

TEST(OpGasTest, Eip150Repricing) {
  // SLOAD: 50 -> 200; BALANCE: 20 -> 400; EXTCODESIZE: 20 -> 700
  struct Repriced {
    Op op;
    std::uint64_t homestead;
    std::uint64_t eip150;
  };
  const Repriced cases[] = {{Op::kSload, 50, 200},
                            {Op::kBalance, 20, 400},
                            {Op::kExtcodesize, 20, 700}};
  for (const auto& c : cases) {
    Asm a;
    a.push(std::uint64_t{1}).op(c.op).op(Op::kStop);
    const Bytes code = a.build();
    State state;
    BlockContext ctx;
    auto cost = [&](const GasSchedule& schedule) {
      state.set_code(kContract, code);
      Vm vm(state, ctx, schedule, kCaller, core::gwei(20));
      CallParams params;
      params.caller = kCaller;
      params.address = kContract;
      params.code_address = kContract;
      params.gas = 100'000;
      return 100'000 - vm.call(params).gas_left;
    };
    EXPECT_EQ(cost(GasSchedule::eip150()) - cost(GasSchedule::homestead()),
              c.eip150 - c.homestead);
  }
}

// ------------------------------------------------------- assembler checks

TEST(AssemblerTest, PushWidthIsMinimal) {
  Asm a;
  a.push(std::uint64_t{0});
  EXPECT_EQ(a.build()[0], 0x60);  // PUSH1
  Asm b;
  b.push(std::uint64_t{0x1ff});
  EXPECT_EQ(b.build()[0], 0x61);  // PUSH2
  Asm c;
  c.push(U256::max());
  EXPECT_EQ(c.build()[0], 0x7f);  // PUSH32
}

TEST(AssemblerTest, UnboundLabelThrows) {
  Asm a;
  const auto label = a.make_label();
  a.jump(label);
  EXPECT_THROW(a.build(), std::logic_error);
}

TEST(AssemblerTest, LabelResolvesToJumpdest) {
  Asm a;
  const auto label = a.make_label();
  a.jump(label);
  a.bind(label);
  const Bytes code = a.build();
  // PUSH2 <offset> JUMP JUMPDEST: offset points at the JUMPDEST byte
  const std::size_t offset =
      (static_cast<std::size_t>(code[1]) << 8) | code[2];
  EXPECT_EQ(code[offset], 0x5b);
}

TEST(AssemblerTest, InitCodeWrapperDeploysExactRuntime) {
  const Bytes runtime = {0x60, 0x01, 0x60, 0x00, 0x55, 0x00};  // sstore(0,1)
  const Bytes init = wrap_as_init_code(runtime);

  State state;
  BlockContext ctx;
  Vm vm(state, ctx, GasSchedule::homestead(), kCaller, core::gwei(20));
  Address created;
  const CallResult r = vm.create(kCaller, core::Wei(0), init, 1'000'000, 0,
                                 created);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(state.code(created), runtime);
}

}  // namespace
}  // namespace forksim::evm
