#include <gtest/gtest.h>

#include "netlist/check.h"
#include "opt/const_prop.h"
#include "opt/dead_cells.h"
#include "opt/obfuscate.h"
#include "opt/optimizer.h"
#include "opt/rewrite.h"
#include "opt/strash.h"
#include "test_util.h"

namespace pdat {
namespace {

TEST(ConstProp, FoldsConstantCone) {
  Netlist nl;
  auto a = nl.add_input("a", 1);
  const NetId x = nl.add_cell(CellKind::And2, a[0], nl.const0());  // = 0
  const NetId y = nl.add_cell(CellKind::Or2, x, a[0]);             // = a
  nl.add_output("o", {y});
  opt::optimize(nl);
  EXPECT_EQ(nl.gate_count(), 0u);
  EXPECT_EQ(nl.outputs()[0].bits[0], nl.find_input("a")->bits[0]);
}

TEST(ConstProp, SequentialConstantFlopRemoved) {
  Netlist nl;
  // Flop with D tied to its own init value is a sequential constant.
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  auto a = nl.add_input("a", 1);
  const NetId y = nl.add_cell(CellKind::Or2, q, a[0]);
  nl.add_output("o", {y});
  opt::optimize(nl);
  EXPECT_EQ(nl.num_flops(), 0u);
  EXPECT_EQ(nl.gate_count(), 0u);
}

TEST(ConstProp, SelfLoopConstantFlop) {
  Netlist nl;
  // q <= q, init 1: constant 1 forever.
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  nl.cell(nl.driver(q)).in[0] = q;
  nl.cell(nl.driver(q)).init = Tri::T;
  auto a = nl.add_input("a", 1);
  nl.add_output("o", {nl.add_cell(CellKind::And2, q, a[0])});
  opt::optimize(nl);
  EXPECT_EQ(nl.num_flops(), 0u);
  // compact() renumbers nets: compare against the post-optimization port.
  EXPECT_EQ(nl.outputs()[0].bits[0], nl.find_input("a")->bits[0]);
}

TEST(ConstProp, ToggleFlopIsNotConstant) {
  Netlist nl;
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  const NetId d = nl.add_cell(CellKind::Inv, q);
  nl.cell(nl.driver(q)).in[0] = d;  // re-fetch: add_cell may reallocate
  nl.add_output("o", {q});
  opt::optimize(nl);
  EXPECT_EQ(nl.num_flops(), 1u);
}

TEST(ConstProp, MuxWithConstantSelect) {
  Netlist nl;
  auto a = nl.add_input("a", 1);
  auto b = nl.add_input("b", 1);
  const NetId m = nl.add_cell(CellKind::Mux2, a[0], b[0], nl.const1());
  nl.add_output("o", {m});
  opt::optimize(nl);
  EXPECT_EQ(nl.gate_count(), 0u);
  EXPECT_EQ(nl.outputs()[0].bits[0], nl.find_input("b")->bits[0]);
}

TEST(Rewrite, DoubleInverterCollapses) {
  Netlist nl;
  auto a = nl.add_input("a", 1);
  const NetId i1 = nl.add_cell(CellKind::Inv, a[0]);
  const NetId i2 = nl.add_cell(CellKind::Inv, i1);
  nl.add_output("o", {i2});
  opt::optimize(nl);
  EXPECT_EQ(nl.gate_count(), 0u);
  EXPECT_EQ(nl.outputs()[0].bits[0], nl.find_input("a")->bits[0]);
}

TEST(Rewrite, ComplementAbsorption) {
  Netlist nl;
  auto a = nl.add_input("a", 2);
  const NetId x = nl.add_cell(CellKind::And2, a[0], a[1]);
  const NetId y = nl.add_cell(CellKind::Inv, x);  // single fanout INV(AND) -> NAND
  nl.add_output("o", {y});
  opt::optimize(nl);
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.cell(nl.driver(nl.outputs()[0].bits[0])).kind, CellKind::Nand2);
}

TEST(Rewrite, XorOfSameNetIsZero) {
  Netlist nl;
  auto a = nl.add_input("a", 1);
  const NetId x = nl.add_cell(CellKind::Xor2, a[0], a[0]);
  auto b = nl.add_input("b", 1);
  nl.add_output("o", {nl.add_cell(CellKind::Or2, x, b[0])});
  opt::optimize(nl);
  EXPECT_EQ(nl.gate_count(), 0u);
  EXPECT_EQ(nl.outputs()[0].bits[0], nl.find_input("b")->bits[0]);
}

TEST(Strash, MergesIdenticalGates) {
  Netlist nl;
  auto a = nl.add_input("a", 2);
  const NetId x = nl.add_cell(CellKind::And2, a[0], a[1]);
  const NetId y = nl.add_cell(CellKind::And2, a[1], a[0]);  // commutative twin
  nl.add_output("o", {nl.add_cell(CellKind::Xor2, x, y)});
  opt::optimize(nl);
  // AND(a,b) ^ AND(b,a) == 0 once merged.
  EXPECT_EQ(nl.gate_count(), 0u);
}

TEST(DeadCells, SweepsUnreachableLogic) {
  Netlist nl;
  auto a = nl.add_input("a", 2);
  const NetId used = nl.add_cell(CellKind::And2, a[0], a[1]);
  nl.add_cell(CellKind::Or2, a[0], a[1]);  // never used
  nl.add_output("o", {used});
  EXPECT_EQ(opt::sweep_dead_cells(nl), 1u);
  EXPECT_EQ(nl.gate_count(), 1u);
}

TEST(DeadCells, KeepsSequentialFeedback) {
  Netlist nl;
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  const NetId d = nl.add_cell(CellKind::Inv, q);
  nl.cell(nl.driver(q)).in[0] = d;
  nl.add_output("o", {q});
  // Only the orphaned tie cell may be swept; the flop and its feedback
  // inverter are reachable through the sequential loop.
  opt::sweep_dead_cells(nl);
  EXPECT_EQ(nl.num_flops(), 1u);
  EXPECT_EQ(nl.gate_count(), 2u);
}

class OptimizePreservesFunction : public ::testing::TestWithParam<int> {};

TEST_P(OptimizePreservesFunction, RandomNetlists) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Netlist nl = test::random_netlist(seed, 8, 200, 16, 8);
  Netlist ref = nl;  // value copy
  opt::optimize(nl);
  EXPECT_TRUE(check_netlist(nl).empty());
  EXPECT_TRUE(test::cosim_equal(ref, nl, seed + 1, 128));
  EXPECT_LE(nl.gate_count(), ref.gate_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizePreservesFunction, ::testing::Range(1, 21));

class ObfuscatePreservesFunction : public ::testing::TestWithParam<int> {};

TEST_P(ObfuscatePreservesFunction, RandomNetlists) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Netlist nl = test::random_netlist(seed, 8, 150, 10, 8);
  Netlist ref = nl;
  opt::obfuscate(nl, seed * 13 + 5);
  EXPECT_TRUE(check_netlist(nl).empty());
  EXPECT_TRUE(test::cosim_equal(ref, nl, seed + 2, 128));
  EXPECT_GT(nl.gate_count(), ref.gate_count()) << "obfuscation must add overhead";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObfuscatePreservesFunction, ::testing::Range(1, 11));

TEST(Obfuscate, OptimizerRecoversMostOverhead) {
  Netlist nl = test::random_netlist(5, 8, 300, 16, 8);
  const std::size_t base = nl.gate_count();
  opt::obfuscate(nl);
  const std::size_t obf = nl.gate_count();
  opt::optimize(nl);
  EXPECT_GT(obf, base);
  // The optimizer can't always reach the exact original size but must
  // remove the bulk of camouflage and inverter pairs.
  EXPECT_LT(nl.gate_count(), base + (obf - base) / 2);
}

TEST(Optimizer, StatsAreConsistent) {
  Netlist nl = test::random_netlist(6);
  const std::size_t before = nl.gate_count();
  const auto st = opt::optimize(nl);
  EXPECT_EQ(st.gates_before, before);
  EXPECT_EQ(st.gates_after, nl.gate_count());
  EXPECT_GE(st.iterations, 1u);
}

}  // namespace
}  // namespace pdat
