#include <gtest/gtest.h>

#include "base/rng.h"
#include "sim/bitsim.h"
#include "synth/builder.h"

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

}  // namespace
}  // namespace pdat
