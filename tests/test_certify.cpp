// End-to-end certified solving (ISSUE 6, DESIGN.md §5.10): certification
// must change nothing but confidence (verdicts, proved sets, and reports are
// byte-identical with --certify on or off), a deliberately corrupted solver
// must be caught by the independent checker and surface as
// CertificationError / StageError — never as a silently wrong survivor set.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "formal/bmc.h"
#include "formal/induction.h"
#include "opt/optimizer.h"
#include "pdat/errors.h"
#include "pdat/pipeline.h"
#include "runtime/journal.h"
#include "synth/builder.h"
#include "test_util.h"
#include "validate/miter.h"

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

std::vector<GateProperty> gate_const_candidates(const Netlist& nl) {
  std::vector<GateProperty> cands;
  for (CellId id : nl.live_cells()) {
    const auto& c = nl.cell(id);
    if (cell_is_const(c.kind)) continue;
    cands.push_back(const0(c.out));
    cands.push_back(const1(c.out));
  }
  return cands;
}

std::string describe_all(const std::vector<GateProperty>& props) {
  std::string s;
  for (const auto& p : props) s += p.describe() + "\n";
  return s;
}

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("pdat_certify_" + name)).string();
}

// Toy pipeline design (mirrors test_validate.cpp): an enable-gated counter
// removable under "en == 0" plus logic that stays live after the reduction.
Netlist toy_design() {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto data = b.input("data", 8);
  auto cnt = b.reg_decl(8, 0);
  b.connect(cnt, b.mux(en[0], cnt.q, b.add_const(cnt.q, 1)));
  b.output("o", b.xor_(data, cnt.q));
  NetId parity = data[0];
  for (std::size_t i = 1; i < data.size(); ++i) parity = b.xor_(parity, data[i]);
  b.output("parity", {parity});
  b.output("q", cnt.q);
  opt::optimize(nl);
  return nl;
}

std::function<RestrictionResult(Netlist&)> toy_restrict(const Netlist& design) {
  const NetId en_net = design.find_input("en")->bits[0];
  return [en_net](Netlist& a) {
    RestrictionResult r;
    synth::Builder ab(a);
    r.env.add_assume(ab.not_(en_net));
    r.env.drivers.push_back(
        std::make_shared<ConstantDriver>(std::vector<NetId>{en_net}, false));
    return r;
  };
}

// --- induction engine --------------------------------------------------------

TEST(CertifyInduction, ResultsIdenticalWithAndWithoutCertification) {
  const Netlist nl = test::random_netlist(7, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);
  ASSERT_FALSE(cands.empty());

  InductionOptions plain;
  InductionStats plain_stats;
  const auto reference = prove_invariants(nl, env, cands, plain, &plain_stats);

  InductionOptions opt = plain;
  opt.certify = true;
  InductionStats stats;
  const auto proven = prove_invariants(nl, env, cands, opt, &stats);
  EXPECT_EQ(describe_all(proven), describe_all(reference));
  EXPECT_EQ(stats.rounds, plain_stats.rounds);
  EXPECT_EQ(stats.sat_calls, plain_stats.sat_calls);
  EXPECT_EQ(stats.budget_kills, plain_stats.budget_kills);
}

TEST(CertifyInduction, CorruptedSolverIsCaughtAtAnyThreadCount) {
  // Arm the solver-corruption hook (each proof-job solver mis-learns one
  // clause); under certification the independent checker must reject the
  // resulting certificate and abort the whole proof.
  const Netlist nl = test::random_netlist(7, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);
  for (const int threads : {1, 4}) {
    InductionOptions opt;
    opt.certify = true;
    opt.test_corrupt_solver = true;
    opt.threads = threads;
    EXPECT_THROW(prove_invariants(nl, env, cands, opt), CertificationError)
        << "threads=" << threads;
  }
}

TEST(CertifyInduction, WithoutCertifyTheSameCorruptionPassesSilently) {
  // The control arm: the identical corruption goes unnoticed without
  // --certify (this is precisely the hole certification closes). The run
  // must complete; its survivor set may legitimately differ.
  const Netlist nl = test::random_netlist(7, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);
  InductionOptions opt;
  opt.test_corrupt_solver = true;
  EXPECT_NO_THROW(prove_invariants(nl, env, cands, opt));
}

// --- BMC ---------------------------------------------------------------------

TEST(CertifyBmc, CertifiedVerdictMatchesPlainVerdict) {
  // 2-bit counter: bit1 first becomes 1 at t=2 (mirrors test_formal.cpp).
  Netlist nl;
  synth::Builder b(nl);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.add_const(r.q, 1));
  b.output("q", r.q);
  const Environment env;

  const BmcResult plain = bmc_check(nl, env, const0(r.q[1]), 4);
  EXPECT_TRUE(plain.violated);
  EXPECT_EQ(plain.violation_frame, 2);

  const BmcResult certified = bmc_check(nl, env, const0(r.q[1]), 4, -1, /*certify=*/true);
  EXPECT_EQ(certified.violated, plain.violated);
  EXPECT_EQ(certified.violation_frame, plain.violation_frame);
}

TEST(CertifyBmc, UnviolatedPropertyCertifiesTheUnsatFrames) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(2, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  Environment env;
  env.add_assume(b.not_(en[0]));
  EXPECT_FALSE(bmc_check(nl, env, const0(r.q[0]), 8, -1, /*certify=*/true).violated);
}

// --- pipeline + validation miter ---------------------------------------------

TEST(CertifyPipeline, CertifiedRunMatchesUncertifiedByteForByte) {
  const Netlist design = toy_design();
  const auto restrict_fn = toy_restrict(design);

  PdatOptions plain;
  const PdatResult ref = run_pdat(design, restrict_fn, plain);

  PdatOptions certify;
  certify.certify = true;
  const PdatResult cert = run_pdat(design, restrict_fn, certify);

  EXPECT_EQ(describe_all(cert.proven_props), describe_all(ref.proven_props));
  EXPECT_EQ(cert.gates_after, ref.gates_after);
  EXPECT_EQ(cert.proven, ref.proven);
  EXPECT_EQ(cert.induction.rounds, ref.induction.rounds);
  EXPECT_EQ(cert.induction.sat_calls, ref.induction.sat_calls);
}

TEST(CertifyPipeline, CorruptedSolverSurfacesAsStageError) {
  // The toy design's proof queries are decided by propagation alone (the
  // corruption hook needs a learned clause of size >= 3 to fire), so this
  // test drives the pipeline with a netlist whose induction queries are
  // known to produce substantial learned clauses.
  const Netlist design = test::random_netlist(7, 8, 160, 14, 6);
  const auto restrict_fn = [](Netlist&) { return RestrictionResult{}; };
  PdatOptions opt;
  opt.certify = true;
  opt.induction.test_corrupt_solver = true;
  // Neuter the simulation filter so the proof stage faces the full (hard)
  // candidate set rather than the 26 propagation-trivial survivors.
  opt.sim.cycles = 0;
  opt.sim.restarts = 0;
  EXPECT_THROW(run_pdat(design, restrict_fn, opt), StageError);
}

TEST(CertifyMiter, CleanTransformPassesUnderCertification) {
  const Netlist design = toy_design();
  const auto restrict_fn = toy_restrict(design);
  const PdatResult res = run_pdat(design, restrict_fn);
  validate::MiterOptions mopt;
  mopt.certify = true;
  const validate::MiterResult m = validate::check_bounded_equivalence(
      design, res.transformed, restrict_fn, res.proven_props, mopt);
  EXPECT_EQ(m.verdict, validate::Verdict::Pass) << m.detail;
}

// --- durability helpers ------------------------------------------------------

TEST(Durability, FsyncHelpersAreBestEffortAndNeverThrow) {
  const std::string path = tmp_path("fsync.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "payload";
  }
  EXPECT_NO_THROW(runtime::durable_sync_file(path));
  EXPECT_NO_THROW(runtime::durable_sync_parent(path));
  // A path that cannot be opened is ignored, not an error: durability is
  // best-effort, correctness rests on the checksummed record format.
  EXPECT_NO_THROW(runtime::durable_sync_file(tmp_path("does_not_exist.bin")));
  EXPECT_NO_THROW(runtime::durable_sync_parent(""));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pdat
