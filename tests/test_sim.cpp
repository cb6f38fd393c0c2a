#include <gtest/gtest.h>

#include <sstream>

#include "base/rng.h"
#include "sim/bitsim.h"
#include "sim/ternary.h"
#include "sim/vcd.h"
#include "synth/builder.h"
#include "test_util.h"

namespace pdat {
namespace {

TEST(BitSim, CombinationalGateSlots) {
  Netlist nl;
  auto a = nl.add_input("a", 1);
  auto b = nl.add_input("b", 1);
  const NetId x = nl.add_cell(CellKind::And2, a[0], b[0]);
  nl.add_output("y", {x});
  BitSim sim(nl);
  sim.set_input(a[0], 0b1100);
  sim.set_input(b[0], 0b1010);
  sim.eval();
  EXPECT_EQ(sim.value(x) & 0xf, 0b1000u);
}

TEST(BitSim, FlopHoldsAndClocks) {
  Netlist nl;
  auto d = nl.add_input("d", 1);
  const NetId q = nl.add_cell(CellKind::Dff, d[0]);
  nl.add_output("q", {q});
  BitSim sim(nl);
  sim.set_input(d[0], ~0ULL);
  sim.eval();
  EXPECT_EQ(sim.value(q), 0u) << "before the clock edge, q is the init value";
  sim.latch();
  sim.eval();
  EXPECT_EQ(sim.value(q), ~0ULL);
}

TEST(BitSim, InitValueRespected) {
  Netlist nl;
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  nl.cell(nl.driver(q)).init = Tri::T;
  nl.add_output("q", {q});
  BitSim sim(nl);
  sim.eval();
  EXPECT_EQ(sim.value(q), ~0ULL);
  sim.latch();
  sim.eval();
  EXPECT_EQ(sim.value(q), 0u);
}

TEST(BitSim, PortHelpers) {
  Netlist nl;
  synth::Builder bld(nl);
  auto a = bld.input("a", 8);
  bld.output("y", bld.not_(a));
  BitSim sim(nl);
  const Port& in = nl.inputs()[0];
  const Port& out = nl.outputs()[0];
  sim.set_port_uniform(in, 0x5a);
  sim.eval();
  EXPECT_EQ(sim.read_port(out, 0), 0xa5u);
  EXPECT_EQ(sim.read_port(out, 63), 0xa5u);

  std::uint64_t per_slot[64];
  for (int i = 0; i < 64; ++i) per_slot[i] = static_cast<std::uint64_t>(i);
  sim.set_port_per_slot(in, per_slot);
  sim.eval();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(sim.read_port(out, i), (~static_cast<std::uint64_t>(i)) & 0xff);
  }
}

TEST(BitSim, ReadPortPerSlotMatchesReadPort) {
  // Widths around the transpose's block sizes, up to the 64-bit maximum.
  for (const unsigned width : {1u, 5u, 32u, 37u, 64u}) {
    Netlist nl;
    synth::Builder bld(nl);
    bld.output("y", bld.not_(bld.input("a", width)));
    BitSim sim(nl);
    Rng rng(static_cast<std::uint64_t>(width));
    std::uint64_t in[64];
    for (std::uint64_t& v : in) v = rng.next();
    sim.set_port_per_slot(nl.inputs()[0], in);
    sim.eval();
    std::uint64_t out[64];
    sim.read_port_per_slot(nl.outputs()[0], out);
    const std::uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
    for (int slot = 0; slot < 64; ++slot) {
      EXPECT_EQ(out[slot], sim.read_port(nl.outputs()[0], slot)) << width << "/" << slot;
      EXPECT_EQ(out[slot], ~in[slot] & mask) << width << "/" << slot;
    }
  }
}

TEST(TernarySim, XInitFlopsProduceX) {
  Netlist nl;
  const NetId q = nl.add_cell(CellKind::Dff, nl.const0());
  nl.cell(nl.driver(q)).init = Tri::X;
  const NetId y = nl.add_cell(CellKind::And2, q, nl.const1());
  nl.add_output("y", {y});
  TernarySim sim(nl);
  sim.eval();
  EXPECT_EQ(sim.value(y), Tri::X);
  sim.step();  // D = const0 resolves the X
  sim.eval();
  EXPECT_EQ(sim.value(y), Tri::F);
}

TEST(TernarySim, AgreesWithBitSimWhenFullyDriven) {
  Netlist nl = test::random_netlist(99);
  BitSim bs(nl);
  TernarySim ts(nl);
  Rng rng(4242);
  for (int cycle = 0; cycle < 32; ++cycle) {
    for (const auto& p : nl.inputs()) {
      for (NetId n : p.bits) {
        const bool v = rng.chance(128);
        bs.set_input(n, v ? ~0ULL : 0);
        ts.set_input(n, v ? Tri::T : Tri::F);
      }
    }
    bs.eval();
    ts.eval();
    for (const auto& p : nl.outputs()) {
      for (NetId n : p.bits) {
        ASSERT_NE(ts.value(n), Tri::X);
        EXPECT_EQ(bs.value(n) != 0, ts.value(n) == Tri::T);
      }
    }
    bs.latch();
    ts.step();
  }
}

TEST(Vcd, EmitsWellFormedDumpWithChangesOnly) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect_en(r, en[0], b.add_const(r.q, 1));
  b.output("count", r.q);
  BitSim sim(nl);
  std::ostringstream os;
  {
    VcdWriter vcd(os, nl, 0, {r.q[0]});
    sim.set_port_uniform(*nl.find_input("en"), 1);
    for (int t = 0; t < 5; ++t) {
      sim.eval();
      vcd.sample(sim);
      sim.latch();
    }
  }
  const std::string text = os.str();
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(text.find("$var wire 4"), std::string::npos);
  EXPECT_NE(text.find("b0001"), std::string::npos) << "count reaches 1";
  EXPECT_NE(text.find("b0100"), std::string::npos) << "count reaches 4";
  // Change-only encoding: 'en' appears exactly once (it never toggles).
  EXPECT_EQ(text.find("$date"), 0u);
}

}  // namespace
}  // namespace pdat
