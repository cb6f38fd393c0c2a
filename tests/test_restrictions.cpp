#include <gtest/gtest.h>

#include "formal/bmc.h"
#include "isa/rv32_isa.h"
#include "isa/thumb_subsets.h"
#include "pdat/restrictions.h"
#include "sim/bitsim.h"
#include "synth/builder.h"

namespace pdat {
namespace {

Netlist tiny_core_like() {
  // An "instruction port" feeding a register and some decode-ish logic.
  Netlist nl;
  synth::Builder b(nl);
  auto instr = b.input("instr", 32);
  auto r = b.reg_decl(32, 0x13);
  b.connect(r, instr);
  b.output("is_lui", {b.eq_const(synth::Builder::slice(r.q, 0, 7), 0x37)});
  b.output("q", r.q);
  return nl;
}

TEST(Restrictions, PortBasedConstrainsInput) {
  Netlist nl = tiny_core_like();
  RestrictionResult r = restrict_isa_port(nl, "instr", isa::rv32_subset_named("rv32i"));
  EXPECT_TRUE(r.cut_nets.empty());
  ASSERT_EQ(r.env.assumes.size(), 1u);
  EXPECT_TRUE(env_satisfiable(nl, r.env, 3));
  // The all-zero word is illegal: with the assume in force, BMC must not be
  // able to make the port all-zero.
  GateProperty p;
  p.kind = PropKind::Const1;  // claim: "some bit of instr is set" is not a
                              // single-net property, so instead check that
                              // LUI is reachable (sanity of the env).
  p.target = nl.find_output("is_lui")->bits[0];
  p.kind = PropKind::Const0;
  const BmcResult res = bmc_check(nl, r.env, p, 3);
  EXPECT_TRUE(res.violated) << "a LUI must be fetchable under rv32i";
}

TEST(Restrictions, PortBasedRejectsMissingPort) {
  Netlist nl = tiny_core_like();
  EXPECT_THROW(restrict_isa_port(nl, "nope", isa::rv32_subset_named("rv32i")), PdatError);
}

TEST(Restrictions, ThumbPortRejectsMissingOrWrongWidthPort) {
  Netlist nl = tiny_core_like();
  const auto subset = isa::thumb_subset_interesting();
  EXPECT_THROW(restrict_thumb_port(nl, "nope", subset), PdatError);
  EXPECT_THROW(restrict_thumb_port(nl, "instr", subset), PdatError) << "instr is 32 bits wide";
}

TEST(Restrictions, ThumbPortStimulusSatisfiesAssume) {
  Netlist nl;
  synth::Builder b(nl);
  b.output("half_q", b.input("half", 16));
  RestrictionResult r = restrict_thumb_port(nl, "half", isa::thumb_subset_all());
  EXPECT_TRUE(r.cut_nets.empty());
  ASSERT_EQ(r.env.assumes.size(), 1u);
  BitSim sim(nl);
  Rng rng(11);
  for (int cyc = 0; cyc < 200; ++cyc) {
    drive_inputs(nl, r.env, sim, rng);
    sim.eval();
    ASSERT_EQ(sim.value(r.env.assumes[0]), ~0ULL) << "cycle " << cyc;
    sim.latch();
  }
}

TEST(Restrictions, CutpointFreesNetsAndConstrainsThem) {
  Netlist nl = tiny_core_like();
  const Port* q = nl.find_output("q");
  const std::vector<NetId> qbits = q->bits;
  RestrictionResult r = restrict_isa_cutpoint(nl, qbits, isa::rv32_subset_named("rv32i"));
  EXPECT_EQ(r.cut_nets.size(), 32u);
  for (NetId n : qbits) EXPECT_EQ(nl.driver(n), kNoCell) << "cut net must be free";
  EXPECT_TRUE(env_satisfiable(nl, r.env, 3));
}

TEST(Restrictions, CutToZeroPinsNets) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 2);
  const NetId x = b.xor_(a[0], a[1]);
  const NetId y = b.or_(x, a[0]);
  nl.add_output("o", {y});
  RestrictionResult r;
  restrict_cut_to_zero(nl, r, {x});
  EXPECT_EQ(nl.driver(x), kNoCell);
  EXPECT_EQ(r.env.assumes.size(), 1u);
  EXPECT_EQ(r.env.drivers.size(), 1u);
  // Simulation: the driver ties the cut net low.
  BitSim sim(nl);
  Rng rng(3);
  drive_inputs(nl, r.env, sim, rng, r.cut_nets);
  sim.eval();
  EXPECT_EQ(sim.value(x), 0u);
  for (NetId asm_net : r.env.assumes) EXPECT_EQ(sim.value(asm_net), ~0ULL);
}

TEST(Restrictions, StimulusSatisfiesAssumesForAllRv32Subsets) {
  Netlist nl = tiny_core_like();
  for (const char* name : {"rv32imcz", "rv32imc", "rv32i", "rv32e", "rv32ec"}) {
    Netlist copy = nl;
    RestrictionResult r = restrict_isa_port(copy, "instr", isa::rv32_subset_named(name));
    BitSim sim(copy);
    Rng rng(17);
    for (int cyc = 0; cyc < 200; ++cyc) {
      drive_inputs(copy, r.env, sim, rng);
      sim.eval();
      for (NetId a : r.env.assumes) {
        ASSERT_EQ(sim.value(a), ~0ULL) << name << " cycle " << cyc;
      }
      sim.latch();
    }
  }
}

TEST(Restrictions, ThumbHalfwordMatcherAcceptsSampledStream) {
  Netlist nl;
  synth::Builder b(nl);
  auto half = b.input("half", 16);
  const auto subset = isa::thumb_subset_all();
  b.output("ok", {isa::build_thumb_halfword_matcher(b, half, subset)});
  BitSim sim(nl);
  Rng rng(5);
  std::uint32_t pend = 0;
  bool has = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint16_t hw = isa::sample_thumb_halfword(subset, rng, pend, has);
    sim.set_port_uniform(*nl.find_input("half"), hw);
    sim.eval();
    ASSERT_EQ(sim.read_port(*nl.find_output("ok"), 0), 1u) << std::hex << hw;
  }
}

TEST(Restrictions, ThumbInterestingMatcherRejectsWidePrefixes) {
  Netlist nl;
  synth::Builder b(nl);
  auto half = b.input("half", 16);
  b.output("ok", {isa::build_thumb_halfword_matcher(b, half, isa::thumb_subset_interesting())});
  BitSim sim(nl);
  for (std::uint32_t hw : {0xf000u /* bl first */, 0xf800u /* bl second-ish */,
                           0x4340u /* muls */, 0xbf20u /* wfe */}) {
    sim.set_port_uniform(*nl.find_input("half"), hw);
    sim.eval();
    EXPECT_EQ(sim.read_port(*nl.find_output("ok"), 0), 0u) << std::hex << hw;
  }
  // A plain adds must pass.
  sim.set_port_uniform(*nl.find_input("half"), 0x1840);
  sim.eval();
  EXPECT_EQ(sim.read_port(*nl.find_output("ok"), 0), 1u);
}

}  // namespace
}  // namespace pdat
