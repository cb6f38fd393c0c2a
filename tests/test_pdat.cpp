#include <gtest/gtest.h>

#include "cores/ibex/ibex_core.h"
#include "formal/candidates.h"
#include "sim/bitsim.h"
#include "cores/ibex/ibex_tb.h"
#include "isa/rv32_assembler.h"
#include "netlist/check.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "pdat/property_library.h"
#include "pdat/rewire.h"
#include "synth/builder.h"
#include "test_util.h"

namespace pdat {
namespace {

// --- property library ---------------------------------------------------------

TEST(PropertyLibrary, GeneratesConstAndImplicationProps) {
  Netlist nl;
  synth::Builder b(nl);
  auto in = b.input("in", 2);
  const NetId x = b.and_(in[0], in[1]);
  const NetId y = b.xor_(in[0], in[1]);
  b.output("o", {x, y});
  const auto props = annotate_netlist(nl, nl.num_nets());
  // and gate: 2 const + 2 impl; xor gate: 2 const.
  EXPECT_EQ(props.size(), 6u);
  int impls = 0;
  for (const auto& p : props) impls += p.kind == PropKind::Implies;
  EXPECT_EQ(impls, 2);
}

TEST(PropertyLibrary, DesignNetCountBoundsCandidates) {
  Netlist nl;
  synth::Builder b(nl);
  auto in = b.input("in", 2);
  const NetId x = b.and_(in[0], in[1]);
  b.output("o", {x});
  // An analysis copy: cutting x moves the AND onto a fresh dangling net, and
  // constraint logic drives fresh nets too. Neither is a design net.
  Netlist analysis = nl;
  cut_net(analysis, x);
  synth::Builder ab(analysis);
  ab.not_(in[0]);
  EXPECT_TRUE(annotate_netlist(analysis, nl.num_nets()).empty());
  EXPECT_EQ(annotate_netlist(analysis, analysis.num_nets()).size(), 6u)
      << "and: 2 const + 2 impl; inv: 2 const";
}

// --- rewiring -------------------------------------------------------------------

TEST(Rewire, ConstRewirePreservesFunctionUnderEnv) {
  // y = a & en, env: en == 0 -> y == 0.
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  auto en = b.input("en", 1);
  const NetId y = b.and_(a[0], en[0]);
  b.output("y", {y});

  GateProperty p;
  p.kind = PropKind::Const0;
  p.target = y;
  const auto st = apply_rewiring(nl, {p});
  EXPECT_EQ(st.const_rewires, 1u);
  EXPECT_TRUE(check_netlist(nl).empty());
  opt::optimize(nl);
  EXPECT_EQ(nl.gate_count(), 0u);
  // Output now tied to constant 0.
  const CellId drv = nl.driver(nl.outputs()[0].bits[0]);
  ASSERT_NE(drv, kNoCell);
  EXPECT_EQ(nl.cell(drv).kind, CellKind::Const0);
}

TEST(Rewire, ImplicationRewireForwardsInput) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  auto c = b.input("c", 1);
  const NetId y = b.and_(a[0], c[0]);
  b.output("y", {y});
  const auto props = annotate_netlist(nl, nl.num_nets());
  // Find the a->c implication (rewire to input 0 for AND).
  const GateProperty* impl = nullptr;
  for (const auto& p : props) {
    if (p.kind == PropKind::Implies && p.a == a[0]) impl = &p;
  }
  ASSERT_NE(impl, nullptr);
  const auto st = apply_rewiring(nl, {*impl});
  EXPECT_EQ(st.impl_rewires, 1u);
  opt::optimize(nl);
  EXPECT_EQ(nl.gate_count(), 0u);
  EXPECT_EQ(nl.outputs()[0].bits[0], nl.find_input("a")->bits[0]);
}

TEST(Rewire, ConstBeatsImplicationOnSameNet) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 2);
  const NetId y = b.and_(a[0], a[1]);
  b.output("y", {y});
  const auto props = annotate_netlist(nl, nl.num_nets());
  const auto st = apply_rewiring(nl, props);  // const0+const1+2 impls on y
  EXPECT_EQ(st.const_rewires, 1u);
  EXPECT_EQ(st.impl_rewires, 0u);
  EXPECT_GE(st.skipped_conflicts, 2u);
}

// --- pipeline on toy designs ------------------------------------------------------

TEST(PdatPipeline, RemovesEnableGatedCounter) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto data = b.input("data", 8);
  auto cnt = b.reg_decl(8, 0);
  b.connect(cnt, b.mux(en[0], cnt.q, b.add_const(cnt.q, 1)));
  b.output("o", b.xor_(data, cnt.q));
  opt::optimize(nl);
  const NetId en_net = nl.find_input("en")->bits[0];

  auto res = run_pdat(nl, [&](Netlist& a) {
    RestrictionResult r;
    synth::Builder ab(a);
    r.env.add_assume(ab.not_(en_net));
    return r;
  });
  EXPECT_EQ(res.transformed.num_flops(), 0u) << "counter must be removed";
  EXPECT_EQ(res.transformed.gate_count(), 0u) << "xor with 0 collapses";
}

TEST(PdatPipeline, VacuousEnvironmentRejected) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  b.output("o", {b.not_(a[0])});
  EXPECT_THROW(run_pdat(nl,
                        [&](Netlist& an) {
                          RestrictionResult r;
                          synth::Builder ab(an);
                          const NetId x = an.find_input("a")->bits[0];
                          r.env.add_assume(x);
                          r.env.add_assume(ab.not_(x));
                          return r;
                        }),
               PdatError);
}

TEST(PdatPipeline, UnconstrainedEnvChangesNothingFunctional) {
  Netlist nl = test::random_netlist(17, 6, 120, 10, 6);
  opt::optimize(nl);
  Netlist ref = nl;
  auto res = run_pdat(nl, [](Netlist&) { return RestrictionResult{}; });
  // Whatever PDAT proves with a free environment must hold on all real
  // executions: outputs must match cycle-for-cycle.
  EXPECT_TRUE(test::cosim_equal(ref, res.transformed, 999, 256));
}

class PdatRandomEnv : public ::testing::TestWithParam<int> {};

// The fundamental PDAT contract, property-tested: for any design and any
// input-tie environment, the transformed netlist is cycle-accurate with the
// original on every environment-conforming execution.
TEST_P(PdatRandomEnv, TransformedMatchesOriginalOnConformingInputs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Netlist nl = test::random_netlist(seed, 8, 150, 12, 6);
  opt::optimize(nl);
  Netlist ref = nl;
  Rng pick(seed * 13 + 1);
  // Tie two random input bits (one low, one high).
  const Port& in = *nl.find_input("in");
  const NetId low_bit = in.bits[pick.below(in.bits.size())];
  NetId high_bit = in.bits[pick.below(in.bits.size())];
  if (high_bit == low_bit) high_bit = in.bits[(pick.below(in.bits.size() - 1) + 1 +
                                               (low_bit - in.bits[0])) % in.bits.size()];

  PdatOptions popt;
  popt.properties.equivalence_props = (seed % 2) == 0;  // alternate the extension
  const PdatResult res = run_pdat(nl, [&](Netlist& a) {
    RestrictionResult r;
    synth::Builder ab(a);
    r.env.add_assume(ab.not_(low_bit));
    r.env.add_assume(high_bit);
    r.env.drivers.push_back(
        std::make_shared<ConstantDriver>(std::vector<NetId>{low_bit}, false));
    r.env.drivers.push_back(
        std::make_shared<ConstantDriver>(std::vector<NetId>{high_bit}, true));
    return r;
  }, popt);
  EXPECT_TRUE(check_netlist(res.transformed).empty());

  // Constrained cosimulation: identical random inputs except the tied bits.
  BitSim sa(ref), sb(res.transformed);
  Rng rng(seed + 77);
  const Port& ia = *ref.find_input("in");
  const Port& ib = *res.transformed.find_input("in");
  for (int t = 0; t < 256; ++t) {
    for (std::size_t i = 0; i < ia.bits.size(); ++i) {
      std::uint64_t w = rng.next();
      if (ia.bits[i] == low_bit) w = 0;
      if (ia.bits[i] == high_bit) w = ~0ULL;
      sa.set_input(ia.bits[i], w);
      sb.set_input(ib.bits[i], w);
    }
    sa.eval();
    sb.eval();
    for (std::size_t p = 0; p < ref.outputs().size(); ++p) {
      for (std::size_t i = 0; i < ref.outputs()[p].bits.size(); ++i) {
        ASSERT_EQ(sa.value(ref.outputs()[p].bits[i]),
                  sb.value(res.transformed.outputs()[p].bits[i]))
            << "seed " << seed << " cycle " << t;
      }
    }
    sa.latch();
    sb.latch();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdatRandomEnv, ::testing::Range(1, 13));

// --- pipeline on the Ibex core (end-to-end reduced-ISA correctness) --------------

struct IbexFixture {
  cores::IbexCore core;
  IbexFixture() {
    core = cores::build_ibex();
    opt::optimize(core.netlist);
    core.refresh_handles();
  }
};

const IbexFixture& ibex() {
  static const IbexFixture f;
  return f;
}

PdatResult reduce_ibex(const isa::RvSubset& subset) {
  const auto& f = ibex();
  auto instr_q = f.core.instr_reg_q;
  return run_pdat(f.core.netlist, [&](Netlist& a) {
    return restrict_isa_cutpoint(a, instr_q, subset);
  });
}

TEST(PdatIbex, Rv32iReducedCoreRunsRv32iPrograms) {
  const PdatResult res = reduce_ibex(isa::rv32_subset_named("rv32i"));
  EXPECT_LT(res.gates_after, res.gates_before * 3 / 4);
  EXPECT_TRUE(check_netlist(res.transformed).empty());
  // A program using only RV32I must behave identically on the reduced core.
  const auto prog = isa::assemble_rv32(R"(
      li a0, 0
      li t0, 1
      li t2, 0x200
    loop:
      add a0, a0, t0
      xor t1, a0, t0
      sw t1, 0(t2)
      lw t3, 0(t2)
      add a0, a0, t3
      srai a0, a0, 1
      addi t0, t0, 1
      li t4, 12
      blt t0, t4, loop
      sb a0, 4(t2)
      lbu a1, 4(t2)
      ebreak
  )");
  EXPECT_EQ(cores::cosim_against_iss(res.transformed, prog.words), "");
}

TEST(PdatIbex, Rv32eReducedCoreDropsUpperRegisterFile) {
  const PdatResult res = reduce_ibex(isa::rv32_subset_named("rv32e"));
  // 16 registers x 32 bits must be gone (plus more).
  EXPECT_LE(res.flops_after, res.flops_before - 512);
  const auto prog = isa::assemble_rv32(R"(
      li a0, 5
      li a1, 7
      add a2, a0, a1
      sub a3, a1, a0
      sw a2, 0x40(x0)
      lw a4, 0x40(x0)
      add a0, a2, a4
      ebreak
  )");
  EXPECT_EQ(cores::cosim_against_iss(res.transformed, prog.words), "");
}

TEST(PdatIbex, ReducedCoreIsNotRequiredToRunRemovedInstructions) {
  // Sanity on semantics: the rv32i-reduced core may misbehave on an M
  // instruction — but must not be *required* to. We simply document that a
  // mul on the reduced core and the ISS can diverge; no assertion on the
  // divergence itself, only that the reduced core still halts on ebreak.
  const PdatResult res = reduce_ibex(isa::rv32_subset_named("rv32i"));
  const auto prog = isa::assemble_rv32("li a0, 3\nli a1, 4\nmul a2, a0, a1\nebreak\n");
  cores::IbexTestbench tb(res.transformed);
  tb.load_words(0, prog.words);
  tb.run(10000);
  SUCCEED();
}

TEST(PdatIbex, MonotonicSubsetsGiveMonotonicGateCounts) {
  const auto imc = reduce_ibex(isa::rv32_subset_named("rv32imc"));
  const auto i = reduce_ibex(isa::rv32_subset_named("rv32i"));
  const auto e = reduce_ibex(isa::rv32_subset_named("rv32e"));
  EXPECT_LT(i.gates_after, imc.gates_after);
  EXPECT_LT(e.gates_after, i.gates_after);
}

TEST(PdatIbex, FunnelStatsAreConsistent) {
  const auto r = reduce_ibex(isa::rv32_subset_named("rv32i"));
  EXPECT_GE(r.candidates, r.after_sim_filter);
  EXPECT_GE(r.after_sim_filter, r.proven);
  EXPECT_GT(r.proven, 0u);
  EXPECT_EQ(r.rewires.const_rewires + r.rewires.impl_rewires +
                r.rewires.skipped_conflicts,
            r.proven);
  EXPECT_LE(r.gates_after, r.gates_before);
}

// --- equivalence-property extension (signal correspondence) ------------------

TEST(EquivProps, CandidatesFindDuplicatedLogic) {
  Netlist nl;
  synth::Builder b(nl);
  auto in = b.input("in", 4);
  // Two structurally different but equivalent cones.
  const NetId x = b.and_(in[0], in[1]);
  const NetId y = b.not_(b.or_(b.not_(in[0]), b.not_(in[1])));  // same function
  const NetId z = b.xor_(in[2], in[3]);
  b.output("o", {b.or_(x, z), b.and_(y, z)});
  Environment env;
  SimFilterOptions opt;
  opt.cycles = 64;
  const auto cands = equivalence_candidates(nl, env, nl.num_nets(), opt);
  bool found = false;
  for (const auto& p : cands) {
    if ((p.a == x && p.b == y) || (p.a == y && p.b == x)) found = true;
  }
  EXPECT_TRUE(found) << "x and y share a signature";
}

TEST(EquivProps, PipelineMergesDuplicatedCones) {
  Netlist nl;
  synth::Builder b(nl);
  auto in = b.input("in", 8);
  // Two identical-function adders whose structure differs enough that
  // structural hashing alone cannot merge them.
  const synth::Bus a_lo = synth::Builder::slice(in, 0, 4);
  const synth::Bus a_hi = synth::Builder::slice(in, 4, 4);
  const synth::Bus sum1 = b.add(a_lo, a_hi);
  // sum2 = a_hi + a_lo with majority-form carries — functionally identical
  // but structurally different, so structural hashing cannot merge it.
  synth::Bus sum2;
  {
    NetId carry = b.bit(false);
    for (int i = 0; i < 4; ++i) {
      const NetId x = a_hi[static_cast<std::size_t>(i)];
      const NetId y = a_lo[static_cast<std::size_t>(i)];
      sum2.push_back(b.xor_(b.xor_(x, y), carry));
      carry = b.or_(b.or_(b.and_(x, y), b.and_(x, carry)), b.and_(y, carry));
    }
  }
  b.output("s1", sum1);
  b.output("s2", sum2);
  Netlist ref = nl;
  opt::optimize(nl);
  const std::size_t base = nl.gate_count();

  PdatOptions popt;
  popt.properties.equivalence_props = true;
  const PdatResult res = run_pdat(nl, [](Netlist&) { return RestrictionResult{}; }, popt);
  EXPECT_LT(res.gates_after, base) << "equivalent cones must merge";
  EXPECT_TRUE(test::cosim_equal(ref, res.transformed, 31, 128));
}

TEST(EquivProps, FalseEquivalencesAreKilledBySat) {
  // Nets that agree on a short simulation but differ on rare inputs.
  Netlist nl;
  synth::Builder b(nl);
  auto in = b.input("in", 16);
  const NetId rare = b.eq_const(in, 0xbeef);  // ~never hit in random sim
  const NetId zero = b.and_(in[0], b.not_(in[0]));
  b.output("o", {rare, zero});
  Netlist ref = nl;
  PdatOptions popt;
  popt.properties.equivalence_props = true;
  popt.sim.cycles = 32;  // guarantee "rare" never fires during sampling
  const PdatResult res = run_pdat(nl, [](Netlist&) { return RestrictionResult{}; }, popt);
  // rare != zero, so the merged netlist must still compute rare correctly.
  BitSim sim(res.transformed);
  sim.set_port_uniform(*res.transformed.find_input("in"), 0xbeef);
  sim.eval();
  EXPECT_EQ(sim.read_port(*res.transformed.find_output("o"), 0), 1u);
  EXPECT_TRUE(test::cosim_equal(ref, res.transformed, 77, 256));
}

TEST(EquivProps, IbexWithEquivalencesStaysCorrect) {
  const auto& f = ibex();
  auto instr_q = f.core.instr_reg_q;
  PdatOptions popt;
  popt.properties.equivalence_props = true;
  const auto subset = isa::rv32_subset_named("rv32i");
  const PdatResult res = run_pdat(
      f.core.netlist, [&](Netlist& a) { return restrict_isa_cutpoint(a, instr_q, subset); },
      popt);
  const PdatResult base = reduce_ibex(subset);
  EXPECT_LE(res.gates_after, base.gates_after) << "extension may only help";
  const auto prog = isa::assemble_rv32(R"(
      li a0, 0
      li t0, 1
    loop:
      add a0, a0, t0
      xor a1, a0, t0
      sw a1, 0x300(x0)
      lw a2, 0x300(x0)
      add a0, a0, a2
      addi t0, t0, 1
      li t1, 10
      blt t0, t1, loop
      ebreak
  )");
  EXPECT_EQ(cores::cosim_against_iss(res.transformed, prog.words), "");
}

TEST(Strengthening, NonRewireablePropsAreNotApplied) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  const NetId x = b.or_(a[0], b.not_(a[0]));  // constant-1 net
  b.output("o", {x});
  GateProperty p;
  p.kind = PropKind::Const1;
  p.target = x;
  p.rewireable = false;
  const auto st = apply_rewiring(nl, {p});
  EXPECT_EQ(st.const_rewires, 0u);
  EXPECT_EQ(st.strengthen_only, 1u);
  EXPECT_NE(nl.driver(x), kNoCell) << "net must keep its driver";
}

}  // namespace
}  // namespace pdat
