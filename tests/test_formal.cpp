#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "formal/bmc.h"
#include "formal/candidates.h"
#include "formal/cnf_encoder.h"
#include "formal/induction.h"
#include "pdat/property_library.h"
#include "sim/bitsim.h"
#include "synth/builder.h"
#include "test_util.h"

namespace pdat {
namespace {

GateProperty const0(NetId n) {
  GateProperty p;
  p.kind = PropKind::Const0;
  p.target = n;
  return p;
}

GateProperty const1(NetId n) {
  GateProperty p;
  p.kind = PropKind::Const1;
  p.target = n;
  return p;
}

GateProperty implies(NetId a, NetId b) {
  GateProperty p;
  p.kind = PropKind::Implies;
  p.a = a;
  p.b = b;
  return p;
}

// --- frame encoding consistency ---------------------------------------------

class FrameEncoding : public ::testing::TestWithParam<int> {};

TEST_P(FrameEncoding, ModelMatchesSimulator) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Netlist nl = test::random_netlist(seed, 6, 80, 8, 4);
  FrameEncoder enc(nl);
  sat::Solver s;
  const Frame f = enc.encode(s);
  // Pin primary inputs and flop outputs to random values; every other net
  // must then take exactly the simulated value.
  BitSim sim(nl);
  Rng rng(seed * 31 + 7);
  for (const auto& p : nl.inputs()) {
    for (NetId n : p.bits) {
      const bool v = rng.chance(128);
      sim.set_input(n, v ? ~0ULL : 0);
      s.add_clause(f.lit(n, v));
    }
  }
  for (CellId flop : sim.levels().flops) {
    const bool v = rng.chance(128);
    sim.set_flop_state(flop, v ? ~0ULL : 0);
    s.add_clause(f.lit(nl.cell(flop).out, v));
  }
  sim.eval();
  ASSERT_EQ(s.solve(), sat::SolveResult::Sat);
  for (CellId id : sim.levels().comb_order) {
    const NetId n = nl.cell(id).out;
    EXPECT_EQ(s.model_value(f.net_var[n]), sim.value(n) != 0) << "net " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameEncoding, ::testing::Range(1, 13));

TEST(FrameEncoding, LinkTransfersState) {
  // Counter: q <= q + 1 (2 bits). After linking two frames with q0 = 1,
  // frame 1 must show q = 2.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.add_const(r.q, 1));
  b.output("q", r.q);
  FrameEncoder enc(nl);
  sat::Solver s;
  const Frame f0 = enc.encode(s);
  const Frame f1 = enc.encode(s);
  enc.link(s, f0, f1);
  s.add_clause(f0.lit(r.q[0], true));
  s.add_clause(f0.lit(r.q[1], false));
  ASSERT_EQ(s.solve(), sat::SolveResult::Sat);
  EXPECT_FALSE(s.model_value(f1.net_var[r.q[0]]));
  EXPECT_TRUE(s.model_value(f1.net_var[r.q[1]]));
}

// --- induction ----------------------------------------------------------------

TEST(Induction, EnableConstrainedCounterStaysZero) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  // Environment: en == 0, i.e. assume NOT(en).
  Environment env;
  env.add_assume(b.not_(en[0]));

  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));
  InductionStats st;
  auto proven = prove_invariants(nl, env, cands, {}, &st);
  EXPECT_EQ(proven.size(), 4u);
  EXPECT_EQ(st.proven, 4u);
}

TEST(Induction, UnconstrainedCounterBitsKilled) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;  // no restriction
  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));
  auto proven = prove_invariants(nl, env, cands);
  EXPECT_TRUE(proven.empty());
}

TEST(Induction, MutualInductionChain) {
  // q1 <= en (en constrained to 0), q2 <= q1. "q2 == 0" is not 1-inductive
  // alone but is provable together with "q1 == 0".
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r1 = b.reg_decl(1, 0);
  b.connect(r1, synth::Bus{en[0]});
  auto r2 = b.reg_decl(1, 0);
  b.connect(r2, r1.q);
  b.output("q", r2.q);
  Environment env;
  env.add_assume(b.not_(en[0]));

  // Alone: killed (the inductive hypothesis lacks q1 == 0).
  auto alone = prove_invariants(nl, env, {const0(r2.q[0])});
  EXPECT_TRUE(alone.empty());

  // Together: both proven.
  auto both = prove_invariants(nl, env, {const0(r1.q[0]), const0(r2.q[0])});
  EXPECT_EQ(both.size(), 2u);
}

TEST(Induction, DeeperKProvesWhatOneInductionCannot) {
  // q1 <= en (env forces en == 0), q2 <= q1. With ONLY "q2 == 0" as a
  // candidate, 1-induction fails (q1 is unconstrained in the hypothesis)
  // but 2-induction succeeds: assuming q2==0 at t and t+1 pins the path
  // en@t -> q1@t+1 -> q2@t+2 through the environment.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r1 = b.reg_decl(1, 0);
  b.connect(r1, synth::Bus{en[0]});
  auto r2 = b.reg_decl(1, 0);
  b.connect(r2, r1.q);
  b.output("q", r2.q);
  Environment env;
  env.add_assume(b.not_(en[0]));

  InductionOptions k1;
  k1.k = 1;
  EXPECT_TRUE(prove_invariants(nl, env, {const0(r2.q[0])}, k1).empty());

  InductionOptions k2;
  k2.k = 2;
  EXPECT_EQ(prove_invariants(nl, env, {const0(r2.q[0])}, k2).size(), 1u);
}

TEST(Induction, DeepKStillRejectsReachableViolations) {
  // A counter with a free enable: no bit is invariant at any k.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(3, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;
  InductionOptions k3;
  k3.k = 3;
  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));
  EXPECT_TRUE(prove_invariants(nl, env, cands, k3).empty());
}

TEST(Induction, BaseCaseKillsInductiveButUnreachableInvariant) {
  // q <= q with init 1: "q == 0" is 1-inductive (0 -> 0) but fails at reset.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(1, 1);
  b.connect(r, r.q);
  b.output("q", r.q);
  Environment env;
  InductionStats st;
  auto proven = prove_invariants(nl, env, {const0(r.q[0]), const1(r.q[0])}, {}, &st);
  ASSERT_EQ(proven.size(), 1u);
  EXPECT_EQ(proven[0].kind, PropKind::Const1);
}

TEST(Induction, ImplicationPropertyProven) {
  // y = a AND b. Environment: a -> b is forced by constraining inputs:
  // assume (a implies b). Then the gate input implication a->b holds, and
  // the AND's output equals a.
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  auto bb = b.input("b", 1);
  const NetId y = b.and_(a[0], bb[0]);
  b.output("y", {y});
  Environment env;
  env.add_assume(b.implies(a[0], bb[0]));
  auto proven = prove_invariants(nl, env, {implies(a[0], bb[0]), implies(bb[0], a[0])});
  ASSERT_EQ(proven.size(), 1u);
  EXPECT_EQ(proven[0].a, a[0]);
}

TEST(Induction, XInitFlopNotProvenConstant) {
  // q <= q with X init: neither const0 nor const1 may be proven.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl_x(1);
  b.connect(r, r.q);
  b.output("q", r.q);
  Environment env;
  auto proven = prove_invariants(nl, env, {const0(r.q[0]), const1(r.q[0])});
  EXPECT_TRUE(proven.empty());
}

// --- proved invariants never have bounded counterexamples ---------------------

/// const0/const1 for every gate output plus the property library's
/// input implications.
std::vector<GateProperty> gate_candidates(const Netlist& nl) {
  std::vector<GateProperty> cands;
  for (CellId id : nl.live_cells()) {
    const auto& c = nl.cell(id);
    if (cell_is_const(c.kind)) continue;
    cands.push_back(const0(c.out));
    cands.push_back(const1(c.out));
  }
  PropertyLibraryOptions lib;
  lib.const_props = false;
  const std::vector<GateProperty> implications = annotate_netlist(nl, nl.num_nets(), lib);
  EXPECT_FALSE(implications.empty());
  cands.insert(cands.end(), implications.begin(), implications.end());
  return cands;
}

class InductionSoundness : public ::testing::TestWithParam<int> {};

TEST_P(InductionSoundness, ProvenInvariantsHoldUnderBmc) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Netlist nl = test::random_netlist(seed, 5, 60, 6, 4);
  Environment env;  // unconstrained
  const std::vector<GateProperty> cands = gate_candidates(nl);
  auto proven = prove_invariants(nl, env, cands);
  for (const auto& p : proven) {
    const BmcResult r = bmc_check(nl, env, p, 6);
    EXPECT_FALSE(r.violated) << p.describe() << " violated at frame " << r.violation_frame;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InductionSoundness, ::testing::Range(1, 9));

// --- the step schedule proves the greatest fixpoint ----------------------------

/// Asserts `p` in frame `f` as hard clauses.
void assert_holds(sat::Solver& s, const GateProperty& p, const Frame& f) {
  switch (p.kind) {
    case PropKind::Const0: s.add_clause(f.lit(p.target, false)); break;
    case PropKind::Const1: s.add_clause(f.lit(p.target, true)); break;
    case PropKind::Implies: s.add_clause(f.lit(p.a, false), f.lit(p.b, true)); break;
    case PropKind::Equiv:
      s.add_clause(f.lit(p.a, false), f.lit(p.b, true));
      s.add_clause(f.lit(p.a, true), f.lit(p.b, false));
      break;
  }
}

bool can_violate(sat::Solver& s, const GateProperty& p, const Frame& f) {
  return s.solve({make_violation_aux(s, p, f)}) == sat::SolveResult::Sat;
}

/// The greatest mutually k-inductive subset by its definition: drop every
/// candidate violated within k frames of reset, then run Jacobi rounds until
/// one kills nothing. Each round builds a fresh solver with the alive set as
/// hard clauses at frames 0..k-1 and checks every alive candidate alone at
/// frame k. No batching, replay, retraction or supervisor.
std::vector<GateProperty> reference_fixpoint(const Netlist& nl, const Environment& env,
                                             const std::vector<GateProperty>& cands, int k) {
  const FrameEncoder enc(nl);
  std::vector<bool> alive(cands.size(), true);
  {
    sat::Solver s;
    const std::vector<Frame> frames = enc.unroll(s, k, /*from_reset=*/true, env.assumes);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      for (const Frame& f : frames) {
        if (can_violate(s, cands[i], f)) alive[i] = false;
      }
    }
  }
  for (bool killed = true; killed;) {
    sat::Solver s;
    const std::vector<Frame> frames = enc.unroll(s, k + 1, /*from_reset=*/false, env.assumes);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!alive[i]) continue;
      for (int t = 0; t < k; ++t) assert_holds(s, cands[i], frames[static_cast<std::size_t>(t)]);
    }
    std::vector<bool> next = alive;
    killed = false;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (alive[i] && can_violate(s, cands[i], frames.back())) {
        next[i] = false;
        killed = true;
      }
    }
    alive = std::move(next);
  }
  std::vector<GateProperty> proven;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (alive[i]) proven.push_back(cands[i]);
  }
  return proven;
}

std::vector<std::string> describe_all(const std::vector<GateProperty>& props) {
  std::vector<std::string> out;
  for (const GateProperty& p : props) out.push_back(p.describe());
  return out;
}

class InductionFixpoint : public ::testing::TestWithParam<int> {};

TEST_P(InductionFixpoint, MatchesReferenceAtEveryBatchSizeAndThreadCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = test::random_netlist(seed, 6, 90, 10, 4);
  const std::vector<GateProperty> cands = gate_candidates(nl);
  const Environment env;
  for (const int k : {1, 2}) {
    const std::vector<std::string> want = describe_all(reference_fixpoint(nl, env, cands, k));
    for (const int batch_size : {8, 2048}) {
      for (const int threads : {1, 3}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " batch_size=" + std::to_string(batch_size) +
                     " threads=" + std::to_string(threads));
        InductionOptions opt;
        opt.k = k;
        opt.batch_size = batch_size;
        opt.threads = threads;
        InductionStats st;
        const auto proven = prove_invariants(nl, env, cands, opt, &st);
        ASSERT_EQ(st.budget_kills, 0u);
        EXPECT_EQ(describe_all(proven), want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InductionFixpoint, ::testing::Range(1, 7));

TEST(Induction, FreeRunningCounterUnravelsInsideOneRound) {
  // A free-running 16-bit counter from 0: no bit is invariant, but "bit i
  // == 0" is inductive while the bits above it are assumed 0. A schedule
  // that acts on kills only at the round barrier loses one bit per round
  // (or a few, with replay). Retracting killed hypotheses inside the job
  // kills the whole chain in the first step round.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(16, 0);
  b.connect(r, b.add_const(r.q, 1));
  b.output("q", r.q);
  const Environment env;
  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));
  for (const int cex_sim_cycles : {0, 48}) {
    SCOPED_TRACE("cex_sim_cycles=" + std::to_string(cex_sim_cycles));
    InductionOptions opt;
    opt.cex_sim_cycles = cex_sim_cycles;
    InductionStats st;
    EXPECT_TRUE(prove_invariants(nl, env, cands, opt, &st).empty());
    EXPECT_EQ(st.after_base, 16u);
    EXPECT_EQ(st.cex_kills, 16u);
    EXPECT_LE(st.rounds, 2);
  }
}

// --- the proof schedule is pinned ----------------------------------------------

TEST(InductionDeterminism, CountersMatchPinnedValues) {
  // The engine is deterministic, so every counter below is a fixed function
  // of the netlist, the candidates and the options. The table covers the
  // base case's per-member OR literal (k > 1), the no-replay path
  // (cex_sim_cycles = 0) and multi-job rounds (batch_size = 8). A change to
  // the CNF a job emits, the kill order or the batching moves these numbers
  // and must update the table on purpose.
  const Netlist nl = test::random_netlist(7, 8, 160, 14, 6);
  const std::vector<GateProperty> cands = gate_candidates(nl);

  struct Pinned {
    int k;
    int cex_sim_cycles;
    int batch_size;
    std::size_t after_base;
    int rounds;
    std::size_t sat_calls;
    std::size_t cex_kills;
    std::size_t budget_kills;
    std::size_t proven;
  };
  const Pinned table[] = {
      // k cex  batch after_base rounds sat_calls cex_kills budget_kills proven
      {1, 0, 8, 157, 4, 326, 404, 0, 26},
      {1, 0, 2048, 157, 2, 48, 404, 0, 26},
      {1, 48, 8, 157, 3, 247, 404, 0, 26},
      {1, 48, 2048, 157, 2, 20, 404, 0, 26},
      {2, 0, 8, 59, 4, 268, 404, 0, 26},
      {2, 0, 2048, 59, 2, 36, 404, 0, 26},
      {2, 48, 8, 59, 2, 239, 404, 0, 26},
      {2, 48, 2048, 59, 2, 23, 404, 0, 26},
      {3, 0, 8, 39, 3, 237, 404, 0, 26},
      {3, 0, 2048, 39, 2, 34, 404, 0, 26},
      {3, 48, 8, 39, 2, 226, 404, 0, 26},
      {3, 48, 2048, 39, 2, 28, 404, 0, 26},
  };
  const Environment env;
  for (const Pinned& want : table) {
    SCOPED_TRACE("k=" + std::to_string(want.k) + " cex_sim_cycles=" +
                 std::to_string(want.cex_sim_cycles) +
                 " batch_size=" + std::to_string(want.batch_size));
    InductionOptions opt;
    opt.k = want.k;
    opt.cex_sim_cycles = want.cex_sim_cycles;
    opt.batch_size = want.batch_size;
    InductionStats st;
    const auto proven = prove_invariants(nl, env, cands, opt, &st);
    EXPECT_EQ(st.after_base, want.after_base);
    EXPECT_EQ(st.rounds, want.rounds);
    EXPECT_EQ(st.sat_calls, want.sat_calls);
    EXPECT_EQ(st.cex_kills, want.cex_kills);
    EXPECT_EQ(st.budget_kills, want.budget_kills);
    EXPECT_EQ(st.proven, want.proven);
    EXPECT_EQ(proven.size(), st.proven);
  }
}

// --- resource exhaustion degrades conservatively ------------------------------

TEST(Induction, TinyConflictBudgetDropsCandidatesNeverProvesUnsoundly) {
  // With a one-conflict budget nearly every UNSAT certificate is out of
  // reach: the prover must drop candidates as inconclusive (budget_kills)
  // rather than claim them proved. Whatever it still proves (propagation-
  // only queries) must be genuinely invariant.
  Netlist nl = test::random_netlist(99, 8, 200, 16, 6);
  Environment env;
  std::vector<GateProperty> cands;
  for (CellId id : nl.live_cells()) {
    const auto& c = nl.cell(id);
    if (cell_is_const(c.kind)) continue;
    cands.push_back(const0(c.out));
    cands.push_back(const1(c.out));
  }
  InductionOptions opt;
  opt.conflict_budget = 1;
  opt.max_job_attempts = 1;  // no budget escalation: exhaustion must drop, not retry
  opt.cex_sim_cycles = 0;    // no replay accelerator: force the SAT-side path
  InductionStats st;
  const auto proven = prove_invariants(nl, env, cands, opt, &st);
  EXPECT_GT(st.budget_kills, 0u) << "expected inconclusive candidates to be dropped";
  EXPECT_EQ(st.proven, proven.size());
  for (const auto& p : proven) {
    const BmcResult r = bmc_check(nl, env, p, 6);
    EXPECT_FALSE(r.violated) << p.describe() << " proved under budget but violated at frame "
                             << r.violation_frame;
  }
}

TEST(Induction, InterruptAbortsProvingNothing) {
  // The counter that EnableConstrainedCounterStaysZero proves in full: with
  // the interrupt raised before the call the prover must return an empty set
  // and flag the interrupt, never a partially-checked survivor set.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;
  env.add_assume(b.not_(en[0]));
  std::vector<GateProperty> cands;
  for (NetId n : r.q) cands.push_back(const0(n));

  const std::atomic<bool> raised{true};
  InductionOptions opt;
  opt.interrupt = &raised;
  InductionStats st;
  const auto proven = prove_invariants(nl, env, cands, opt, &st);
  EXPECT_TRUE(proven.empty());
  EXPECT_TRUE(st.interrupted);
  EXPECT_EQ(st.proven, 0u);

  // Control: the same run without the interrupt proves all four bits.
  const std::string journal =
      (std::filesystem::temp_directory_path() / "pdat_formal_interrupt.jrn").string();
  InductionOptions journaled;
  journaled.journal_path = journal;
  EXPECT_EQ(prove_invariants(nl, env, cands, journaled).size(), 4u);

  // Resumed from that finished journal, the interrupt still proves nothing.
  InductionOptions resumed = opt;
  resumed.resume_from = journal;
  InductionStats rst;
  EXPECT_TRUE(prove_invariants(nl, env, cands, resumed, &rst).empty());
  EXPECT_TRUE(rst.interrupted);
  EXPECT_EQ(rst.proven, 0u);
  std::filesystem::remove(journal);
}

// --- simulation filter ----------------------------------------------------------

TEST(SimFilter, DropsEasilyFalsifiedCandidates) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  const NetId y = b.and_(a[0], b.bit(true));  // y == a: toggles
  const NetId z = b.and_(a[0], b.not_(a[0])); // z == 0 always
  b.output("o", {y, z});
  Environment env;
  SimFilterOptions opt;
  opt.cycles = 64;
  auto res = sim_filter(nl, env, {const0(y), const0(z)}, opt);
  ASSERT_EQ(res.survivors.size(), 1u);
  EXPECT_EQ(res.survivors[0].target, z);
  EXPECT_EQ(res.dropped, 1u);
}

TEST(SimFilter, RespectsEnvironmentDrivers) {
  // Instruction-style bus constrained to even values: LSB==0 must survive.
  Netlist nl;
  synth::Builder b(nl);
  auto instr = b.input("instr", 8);
  b.output("o", instr);
  Environment env;
  env.drivers.push_back(std::make_shared<SampledWordDriver>(
      instr, [](Rng& rng) { return rng.next() & 0xfe; }));
  env.add_assume(b.not_(instr[0]));
  SimFilterOptions opt;
  opt.cycles = 128;
  std::vector<GateProperty> cands = {const0(instr[0]), const0(instr[1])};
  auto res = sim_filter(nl, env, cands, opt);
  ASSERT_EQ(res.survivors.size(), 1u);
  EXPECT_EQ(res.survivors[0].target, instr[0]);
  EXPECT_EQ(res.assume_violation_cycles, 0u);
}

// --- BMC -------------------------------------------------------------------------

TEST(Bmc, FindsShallowViolation) {
  // 2-bit counter: bit1 first becomes 1 at t=2.
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.add_const(r.q, 1));
  b.output("q", r.q);
  Environment env;
  const BmcResult r0 = bmc_check(nl, env, const0(r.q[1]), 2);
  EXPECT_FALSE(r0.violated) << "not reachable within 2 frames";
  const BmcResult r1 = bmc_check(nl, env, const0(r.q[1]), 4);
  EXPECT_TRUE(r1.violated);
  EXPECT_EQ(r1.violation_frame, 2);
}

TEST(Bmc, EnvironmentBlocksViolation) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;
  env.add_assume(b.not_(en[0]));
  EXPECT_FALSE(bmc_check(nl, env, const0(r.q[0]), 8).violated);
  Environment free_env;
  EXPECT_TRUE(bmc_check(nl, free_env, const0(r.q[0]), 8).violated);
}

// --- candidate-generation determinism ----------------------------------------

TEST(Candidates, EquivalenceCandidatesAreCanonicalForASeed) {
  // The candidate list feeds proof batching and checkpoint-journal
  // fingerprints: for one seed it must be byte-identical on every run and
  // independent of hash-container iteration order. The canonical order is
  // classes ascending by representative net, members by (level, id).
  for (const std::uint64_t seed : {7ULL, 21ULL, 63ULL}) {
    Netlist nl = test::random_netlist(seed, 6, 90, 10, 4);
    Environment env;
    SimFilterOptions opt;
    opt.seed = seed;
    const auto first = equivalence_candidates(nl, env, nl.num_nets(), opt);
    const auto second = equivalence_candidates(nl, env, nl.num_nets(), opt);
    ASSERT_EQ(first.size(), second.size()) << "seed " << seed;
    NetId prev_rep = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].describe(), second[i].describe()) << "seed " << seed << " at " << i;
      EXPECT_GE(first[i].a, prev_rep) << "class order must ascend by representative";
      prev_rep = first[i].a;
    }
  }
}

TEST(Candidates, ProofOfEquivalenceListIdenticalAcrossThreadCounts) {
  Netlist nl = test::random_netlist(11, 6, 90, 10, 4);
  Environment env;
  SimFilterOptions copt;
  copt.seed = 11;
  const auto cands = equivalence_candidates(nl, env, nl.num_nets(), copt);
  ASSERT_FALSE(cands.empty());
  std::vector<std::string> reference;
  for (const int threads : {1, 2, 5}) {
    InductionOptions opt;
    opt.threads = threads;
    std::vector<std::string> proven;
    for (const auto& p : prove_invariants(nl, env, cands, opt)) proven.push_back(p.describe());
    if (threads == 1)
      reference = proven;
    else
      EXPECT_EQ(reference, proven) << "threads=" << threads;
  }
}

TEST(Bmc, EnvSatisfiableDetectsVacuous) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 1);
  b.output("o", a);
  Environment env;
  env.add_assume(a[0]);
  env.add_assume(b.not_(a[0]));  // contradictory
  EXPECT_FALSE(env_satisfiable(nl, env, 3));
  Environment ok;
  ok.add_assume(a[0]);
  EXPECT_TRUE(env_satisfiable(nl, ok, 3));
}

}  // namespace
}  // namespace pdat
