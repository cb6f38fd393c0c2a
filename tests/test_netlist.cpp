#include <gtest/gtest.h>

#include <sstream>

#include "netlist/check.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"
#include "opt/opt_common.h"
#include "test_util.h"

namespace pdat {
namespace {

TEST(Netlist, BasicConstruction) {
  Netlist nl;
  auto in = nl.add_input("a", 2);
  const NetId x = nl.add_cell(CellKind::And2, in[0], in[1]);
  nl.add_output("y", {x});
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_GT(nl.area(), 0.0);
  EXPECT_TRUE(check_netlist(nl).empty());
}

TEST(Netlist, TieCellsAreCached) {
  Netlist nl;
  EXPECT_EQ(nl.const0(), nl.const0());
  EXPECT_EQ(nl.const1(), nl.const1());
  EXPECT_NE(nl.const0(), nl.const1());
  EXPECT_EQ(nl.gate_count(), 0u) << "tie cells do not count as gates";
}

TEST(Netlist, TieCacheSurvivesDriverDeath) {
  // Regression: if the tie cell is swept after losing all users, const0()
  // must rebuild it instead of returning a floating net.
  Netlist nl;
  auto in = nl.add_input("a", 1);
  const NetId t0 = nl.const0();
  nl.kill_cell(nl.driver(t0));  // what a dead-sweep does to an unused tie
  const NetId t0b = nl.const0();
  ASSERT_NE(nl.driver(t0b), kNoCell);
  EXPECT_FALSE(nl.cell(nl.driver(t0b)).dead);
  const NetId t1 = nl.const1();
  nl.kill_cell(nl.driver(t1));
  EXPECT_NE(nl.driver(nl.const1()), kNoCell);
  (void)in;
}

TEST(Netlist, RedriveMovesOldDriverAside) {
  Netlist nl;
  auto in = nl.add_input("a", 2);
  const NetId x = nl.add_cell(CellKind::And2, in[0], in[1]);
  const CellId old_drv = nl.driver(x);
  nl.add_output("y", {x});
  nl.redrive_net(x, CellKind::Const0);
  EXPECT_NE(nl.driver(x), old_drv);
  EXPECT_EQ(nl.cell(nl.driver(x)).kind, CellKind::Const0);
  // Old cell still exists (rewiring never deletes), driving a dangling net.
  EXPECT_FALSE(nl.cell(old_drv).dead);
}

TEST(Netlist, DetachDriverMakesNetFree) {
  Netlist nl;
  auto in = nl.add_input("a", 1);
  const NetId x = nl.add_cell(CellKind::Inv, in[0]);
  const NetId dangling = nl.detach_driver(x);
  EXPECT_EQ(nl.driver(x), kNoCell);
  EXPECT_NE(dangling, kNoNet);
  EXPECT_NE(nl.driver(dangling), kNoCell);
}

TEST(Netlist, ReplaceUsesRewritesInputsAndPorts) {
  Netlist nl;
  auto in = nl.add_input("a", 2);
  const NetId x = nl.add_cell(CellKind::And2, in[0], in[1]);
  const NetId y = nl.add_cell(CellKind::Inv, x);
  nl.add_output("o", {x, y});
  opt::ReplMap repl(nl.num_nets());
  repl.set(x, in[0]);
  opt::apply_replacements(nl, repl);
  EXPECT_EQ(nl.cell(nl.driver(y)).in[0], in[0]);
  EXPECT_EQ(nl.outputs()[0].bits[0], in[0]);
}

TEST(Netlist, CompactDropsDeadCellsAndNets) {
  Netlist nl;
  auto in = nl.add_input("a", 2);
  const NetId x = nl.add_cell(CellKind::And2, in[0], in[1]);
  const NetId y = nl.add_cell(CellKind::Or2, in[0], in[1]);
  nl.add_output("o", {x});
  nl.kill_cell(nl.driver(y));
  const std::size_t nets_before = nl.num_nets();
  nl.compact();
  EXPECT_LT(nl.num_nets(), nets_before);
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_TRUE(check_netlist(nl).empty());
}

TEST(Netlist, CheckFlagsFloatingInput) {
  Netlist nl;
  const NetId floating = nl.new_net();
  const NetId x = nl.add_cell(CellKind::Inv, floating);
  nl.add_output("o", {x});
  EXPECT_FALSE(check_netlist(nl).empty());
}

TEST(Netlist, DoubleDriveThrows) {
  Netlist nl;
  auto in = nl.add_input("a", 1);
  const NetId x = nl.add_cell(CellKind::Inv, in[0]);
  EXPECT_THROW(nl.add_cell_driving(x, CellKind::Buf, in[0]), PdatError);
}

TEST(Levelize, OrdersGatesTopologically) {
  Netlist nl;
  auto in = nl.add_input("a", 2);
  const NetId x = nl.add_cell(CellKind::And2, in[0], in[1]);
  const NetId y = nl.add_cell(CellKind::Inv, x);
  const NetId z = nl.add_cell(CellKind::Or2, y, in[0]);
  nl.add_output("o", {z});
  const Levelization lv = levelize(nl);
  EXPECT_EQ(lv.net_level[x], 1);
  EXPECT_EQ(lv.net_level[y], 2);
  EXPECT_EQ(lv.net_level[z], 3);
  EXPECT_EQ(lv.max_level, 3);
}

TEST(Levelize, DetectsCombinationalCycle) {
  Netlist nl;
  auto in = nl.add_input("a", 1);
  // Build a cycle by hand: x = AND(a, y), y = INV(x).
  const NetId x = nl.new_net();
  const NetId y = nl.add_cell(CellKind::Inv, x);
  nl.add_cell_driving(x, CellKind::And2, in[0], y);
  nl.add_output("o", {y});
  EXPECT_THROW(levelize(nl), PdatError);
}

TEST(Levelize, FlopsBreakCycles) {
  Netlist nl;
  // Toggle flop: q <= INV(q).
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  const NetId d = nl.add_cell(CellKind::Inv, q);
  nl.cell(nl.driver(q)).in[0] = d;
  nl.add_output("o", {q});
  EXPECT_NO_THROW(levelize(nl));
}

TEST(Verilog, RoundTripPreservesFunction) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Netlist nl = test::random_netlist(seed);
    const std::string text = to_verilog(nl, "dut");
    Netlist back = read_verilog_string(text);
    EXPECT_TRUE(check_netlist(back).empty());
    EXPECT_EQ(back.gate_count(), nl.gate_count());
    EXPECT_TRUE(test::cosim_equal(nl, back, seed * 17, 64));
  }
}

TEST(Verilog, PreservesFlopInitValues) {
  Netlist nl;
  const NetId q1 = nl.add_cell(CellKind::Dff, nl.const1());
  nl.cell(nl.driver(q1)).init = Tri::T;
  const NetId q2 = nl.add_cell(CellKind::Dff, nl.const0());
  nl.cell(nl.driver(q2)).init = Tri::X;
  nl.add_output("o", {q1, q2});
  Netlist back = read_verilog_string(to_verilog(nl, "dut"));
  int t = 0, x = 0;
  for (CellId id : back.live_cells()) {
    if (back.cell(id).kind != CellKind::Dff) continue;
    t += back.cell(id).init == Tri::T;
    x += back.cell(id).init == Tri::X;
  }
  EXPECT_EQ(t, 1);
  EXPECT_EQ(x, 1);
}

TEST(Verilog, RejectsGarbage) {
  EXPECT_THROW(read_verilog_string("module m (; endmodule"), PdatError);
  EXPECT_THROW(read_verilog_string("module m (a); input a; FOO_X9 U0 (.A(n0)); endmodule"),
               PdatError);
}

}  // namespace
}  // namespace pdat
