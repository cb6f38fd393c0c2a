#include <gtest/gtest.h>

#include <array>
#include <map>

#include "base/rng.h"
#include "sim/bitsim.h"
#include "synth/builder.h"
#include "test_util.h"

namespace pdat {
namespace {

/// An evaluator independent of BitSim's tape: walks the levelization's
/// comb_order one cell at a time through cell_eval64, an unconnected pin
/// reading 0, and keeps its own flop state.
class ReferenceSim {
 public:
  explicit ReferenceSim(const Netlist& nl) : nl_(nl), lv_(levelize(nl)), vals_(nl.num_nets(), 0) {
    for (CellId id : lv_.flops) state_[id] = nl.cell(id).init == Tri::T ? ~0ULL : 0;
  }
  void set_input(NetId n, std::uint64_t w) { vals_[n] = w; }
  void eval() {
    for (CellId id : lv_.flops) vals_[nl_.cell(id).out] = state_[id];
    for (CellId id : lv_.comb_order) {
      const Cell& c = nl_.cell(id);
      const auto pin = [&](int i) {
        const NetId n = c.in[static_cast<std::size_t>(i)];
        return i < cell_num_inputs(c.kind) && n != kNoNet ? vals_[n] : 0;
      };
      vals_[c.out] = cell_eval64(c.kind, pin(0), pin(1), pin(2));
    }
  }
  void latch() {
    for (CellId id : lv_.flops) state_[id] = vals_[nl_.cell(id).in[0]];
  }
  std::uint64_t value(NetId n) const { return vals_[n]; }

 private:
  const Netlist& nl_;
  Levelization lv_;
  std::vector<std::uint64_t> vals_;
  std::map<CellId, std::uint64_t> state_;
};

/// Runs `cycles` random cycles on BitSim and the reference side by side and
/// checks every net after each evaluation.
void expect_matches_reference(const Netlist& nl, std::uint64_t seed, int cycles) {
  BitSim sim(nl);
  ReferenceSim ref(nl);
  Rng rng(seed);
  for (int t = 0; t < cycles; ++t) {
    for (const Port& p : nl.inputs()) {
      for (NetId n : p.bits) {
        const std::uint64_t w = rng.next();
        sim.set_input(n, w);
        ref.set_input(n, w);
      }
    }
    sim.eval();
    ref.eval();
    for (NetId n = 0; n < nl.num_nets(); ++n)
      ASSERT_EQ(sim.value(n), ref.value(n)) << "seed " << seed << " cycle " << t << " net " << n;
    sim.latch();
    ref.latch();
  }
}

/// Every combinational kind (tie cells included), X-, T- and F-init flops
/// in a loop through the logic, a dead cell, a pin on a floating net, and
/// a Nand2 whose second pin is unconnected.
Netlist every_kind_netlist() {
  Netlist nl;
  const std::vector<NetId> in = nl.add_input("in", 3);
  const NetId floating = nl.new_net();
  const NetId qx = nl.add_cell(CellKind::Dff, nl.const0());
  const NetId qt = nl.add_cell(CellKind::Dff, nl.const0());
  const NetId qf = nl.add_cell(CellKind::Dff, nl.const0());
  nl.cell(nl.driver(qx)).init = Tri::X;
  nl.cell(nl.driver(qt)).init = Tri::T;
  const NetId t0 = nl.add_cell(CellKind::Const0);
  const NetId t1 = nl.add_cell(CellKind::Const1);
  std::vector<NetId> outs = {t0, t1};
  const NetId a = nl.add_cell(CellKind::Xor2, in[0], qx);
  const NetId b = nl.add_cell(CellKind::Xnor2, in[1], qt);
  const NetId c = nl.add_cell(CellKind::Mux2, in[2], qf, a);
  for (const CellKind k : {CellKind::Buf, CellKind::Inv}) outs.push_back(nl.add_cell(k, c));
  for (const CellKind k : {CellKind::And2, CellKind::Or2, CellKind::Nand2, CellKind::Nor2})
    outs.push_back(nl.add_cell(k, a, b));
  for (const CellKind k : {CellKind::And3, CellKind::Or3, CellKind::Nand3, CellKind::Nor3,
                           CellKind::Aoi21, CellKind::Oai21})
    outs.push_back(nl.add_cell(k, a, b, c));
  outs.push_back(nl.add_cell(CellKind::Or2, floating, c));
  const NetId unconnected = nl.add_cell(CellKind::Nand2, a, b);
  nl.cell(nl.driver(unconnected)).in[1] = kNoNet;
  outs.push_back(unconnected);
  const NetId dead = nl.add_cell(CellKind::Inv, a);
  nl.kill_cell(nl.driver(dead));
  outs.push_back(nl.add_cell(CellKind::Or2, dead, b));
  // The flops close loops through the logic: each one's next state depends
  // on the others'.
  nl.cell(nl.driver(qx)).in[0] = outs[4];  // a & b
  nl.cell(nl.driver(qt)).in[0] = c;
  nl.cell(nl.driver(qf)).in[0] = outs[13];  // Oai21
  nl.add_output("out", outs);
  return nl;
}

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

TEST(BitSim, TapeMatchesReferenceOnRandomNetlists) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    expect_matches_reference(test::random_netlist(seed, 8, 300, 24, 8), seed, 64);
}

TEST(BitSim, TapeMatchesReferenceOnEveryKind) {
  const Netlist nl = every_kind_netlist();
  std::array<bool, kNumCellKinds> kinds{};
  for (CellId id : nl.live_cells()) kinds[static_cast<std::size_t>(nl.cell(id).kind)] = true;
  for (std::size_t k = 0; k < kNumCellKinds; ++k)
    EXPECT_TRUE(kinds[k]) << cell_name(static_cast<CellKind>(k)) << " missing";
  expect_matches_reference(nl, 7, 64);
}

TEST(BitSim, ConeEvalEqualsFullEval) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Netlist nl = test::random_netlist(seed, 8, 300, 24, 8);
    const std::vector<NetId>& in = nl.inputs()[0].bits;
    const std::vector<NetId> sources(in.begin(), in.begin() + 3);
    BitSim partial(nl), full(nl);
    const BitSim::Cone cone = full.cone(sources);
    EXPECT_GT(cone.size(), 0u);
    EXPECT_LT(cone.size(), full.levels().comb_order.size());
    Rng rng(seed);
    for (int t = 0; t < 64; ++t) {
      for (NetId n : in) {
        const std::uint64_t w = rng.next();
        partial.set_input(n, w);
        full.set_input(n, w);
      }
      partial.eval();
      full.eval();
      // Only the sources change between the two evaluations.
      for (NetId n : sources) {
        const std::uint64_t w = rng.next();
        partial.set_input(n, w);
        full.set_input(n, w);
      }
      partial.eval(cone);
      full.eval();
      for (NetId n = 0; n < nl.num_nets(); ++n)
        ASSERT_EQ(partial.value(n), full.value(n)) << "seed " << seed << " cycle " << t;
      partial.latch();
      full.latch();
    }
  }
}

TEST(BitSim, ConeOfNetsFeedingNoCellIsEmpty) {
  Netlist nl;
  const std::vector<NetId> used = nl.add_input("used", 2);
  const std::vector<NetId> unused = nl.add_input("unused", 2);
  nl.add_output("y", {nl.add_cell(CellKind::And2, used[0], used[1])});
  nl.add_output("passthrough", unused);
  const BitSim sim(nl);
  EXPECT_EQ(sim.cone(unused).size(), 0u);
  EXPECT_EQ(sim.cone({}).size(), 0u);
  EXPECT_EQ(sim.cone(used).size(), 1u);
}

TEST(BitSim, PortsWiderThan64BitsAreRejected) {
  Netlist nl;
  synth::Builder bld(nl);
  bld.output("y", bld.not_(bld.input("a", 65)));
  BitSim sim(nl);
  std::uint64_t slots[64] = {};
  EXPECT_THROW(sim.set_port_uniform(nl.inputs()[0], 1), PdatError);
  EXPECT_THROW(sim.set_port_per_slot(nl.inputs()[0], slots), PdatError);
  EXPECT_THROW(sim.read_port(nl.outputs()[0], 0), PdatError);
  EXPECT_THROW(sim.read_port_per_slot(nl.outputs()[0], slots), PdatError);
}

}  // namespace
}  // namespace pdat
