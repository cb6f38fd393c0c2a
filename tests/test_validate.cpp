#include <gtest/gtest.h>

#include "cores/ibex/ibex_core.h"
#include "cores/ibex/ibex_tb.h"
#include "netlist/check.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "synth/builder.h"
#include "test_util.h"
#include "validate/fault.h"
#include "validate/lockstep.h"
#include "validate/miter.h"
#include "validate/validate.h"

namespace pdat {
namespace {

using validate::Verdict;

// Toy campaign design: an enable-gated counter the pipeline can remove under
// "en == 0", plus a data path (o = data ^ cnt) and a parity tree that stay
// live after the reduction so gate faults have somewhere to land.
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

struct ToyFixture {
  Netlist design;
  std::function<RestrictionResult(Netlist&)> restrict_fn;
  PdatResult result;
  ToyFixture() : design(toy_design()), restrict_fn(toy_restrict(design)) {
    result = run_pdat(design, restrict_fn);
  }
};

const ToyFixture& toy() {
  static const ToyFixture f;
  return f;
}

// --- miter ---------------------------------------------------------------------

TEST(ValidateMiter, PassesOnCleanToyTransform) {
  const auto& f = toy();
  ASSERT_EQ(f.result.transformed.num_flops(), 0u) << "counter must be removed";
  const validate::MiterResult m =
      validate::check_bounded_equivalence(f.design, f.result.transformed, f.restrict_fn,
                                          f.result.proven_props);
  EXPECT_EQ(m.verdict, Verdict::Pass) << m.detail;
}

TEST(ValidateMiter, CatchesHandCorruptedTransform) {
  const auto& f = toy();
  Netlist bad = f.result.transformed;
  const NetId parity = bad.find_output("parity")->bits[0];
  bad.redrive_net(parity, CellKind::Const0);
  const validate::MiterResult m = validate::check_bounded_equivalence(
      f.design, bad, f.restrict_fn, f.result.proven_props);
  EXPECT_EQ(m.verdict, Verdict::Fail);
  EXPECT_GE(m.violation_frame, 0);
  EXPECT_NE(m.detail.find("parity"), std::string::npos) << m.detail;
}

TEST(ValidateMiter, BudgetExhaustionReportsInconclusiveNotPass) {
  const auto& f = toy();
  validate::MiterOptions mopt;
  mopt.conflict_budget = 0;  // every non-trivial query is inconclusive
  const validate::MiterResult m = validate::check_bounded_equivalence(
      f.design, f.result.transformed, f.restrict_fn, f.result.proven_props, mopt);
  EXPECT_NE(m.verdict, Verdict::Fail) << m.detail;
  // With a zero budget the verdict must not silently claim Pass unless the
  // queries really were decided by propagation alone.
  if (m.verdict == Verdict::Inconclusive) {
    EXPECT_FALSE(m.detail.empty());
  }
}

// --- fault campaign --------------------------------------------------------------

TEST(ValidateFaults, CampaignDetectsAllThreeClasses) {
  const auto& f = toy();
  ASSERT_GT(f.result.proven_props.size(), 0u);
  validate::CampaignOptions copt;
  copt.faults_per_class = 2;
  const validate::CampaignResult camp = validate::run_fault_campaign(
      f.design, f.result.transformed, f.result.proven_props, f.restrict_fn, copt);
  EXPECT_EQ(camp.injected, 3 * copt.faults_per_class) << camp.summary();
  EXPECT_TRUE(camp.all_detected()) << camp.summary();
  bool seen[validate::kNumFaultClasses] = {};
  for (const auto& o : camp.outcomes) seen[static_cast<int>(o.cls)] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]) << "all fault classes must be exercised";
}

TEST(ValidateFaults, ActivationOracleSeesInjectedDifferences) {
  const auto& f = toy();
  EXPECT_FALSE(validate::outputs_differ_random(f.result.transformed, f.result.transformed, 64, 5));
  Netlist bad = f.result.transformed;
  const NetId parity = bad.find_output("parity")->bits[0];
  bad.redrive_net(parity, CellKind::Const1);
  EXPECT_TRUE(validate::outputs_differ_random(f.result.transformed, bad, 64, 5));
}

// --- pipeline integration ---------------------------------------------------------

TEST(ValidatePipeline, CleanRunReportsPassAndKeepsReduction) {
  const auto& f = toy();
  PdatOptions opt;
  opt.validate.enabled = true;
  const PdatResult res = run_pdat(f.design, f.restrict_fn, opt);
  EXPECT_EQ(res.validation.miter, Verdict::Pass) << res.validation.summary();
  EXPECT_EQ(res.validation.lockstep, Verdict::Skipped);
  EXPECT_FALSE(res.degraded);
  EXPECT_EQ(res.flops_after, 0u) << "validation must not block the reduction";
  EXPECT_GT(res.validation.seconds, 0.0);
}

TEST(ValidatePipeline, LockstepRejectionRevertsToUnreducedDesign) {
  const auto& f = toy();
  PdatOptions opt;
  opt.validate.enabled = true;
  opt.validate.lockstep = [](const Netlist&) { return std::string("injected mismatch"); };
  const PdatResult res = run_pdat(f.design, f.restrict_fn, opt);
  EXPECT_EQ(res.validation.lockstep, Verdict::Fail);
  EXPECT_TRUE(res.degraded);
  ASSERT_FALSE(res.degradations.empty());
  EXPECT_NE(res.degradations.back().find("injected mismatch"), std::string::npos);
  // Never ship a core a validator rejected: identity transform.
  EXPECT_EQ(res.gates_after, res.gates_before);
  EXPECT_EQ(res.flops_after, res.flops_before);
}

// --- fail-fast configuration errors -----------------------------------------------

TEST(ValidatePipeline, MalformedRestrictionFailsFast) {
  const auto& f = toy();
  const NetId parity = f.design.find_output("parity")->bits[0];
  // A restriction that detaches a driver without registering the cutpoint
  // leaves the analysis netlist malformed — a configuration error that must
  // throw immediately rather than yield a silent identity run.
  EXPECT_THROW(run_pdat(f.design,
                        [parity](Netlist& a) {
                          a.detach_driver(parity);
                          return RestrictionResult{};
                        }),
               StageError);
}

TEST(ValidatePipeline, NothingProvedShipsAWellFormedIdentity) {
  const auto& f = toy();
  PdatOptions opt;
  opt.properties.const_props = false;
  opt.properties.implication_props = false;
  const PdatResult res = run_pdat(f.design, f.restrict_fn, opt);
  EXPECT_EQ(res.proven, 0u) << "a run with no candidates must prove nothing";
  // The funnel collapses but the pipeline still returns a well-formed core.
  EXPECT_TRUE(check_netlist(res.transformed).empty());
  EXPECT_TRUE(test::cosim_equal(f.design, res.transformed, 123, 128))
      << "with nothing proved the transform must be a functional identity";
}

TEST(ValidatePipeline, StageTimingsAreRecorded) {
  const auto& f = toy();
  const PdatResult& res = f.result;
  double sum = 0;
  for (double s : res.stage_seconds) sum += s;
  EXPECT_GT(sum, 0.0);
  EXPECT_GE(res.total_seconds, sum * 0.5);
}

// --- end-to-end on the Ibex core --------------------------------------------------

TEST(ValidateIbex, CleanRv32iReductionPassesMiterAndLockstep) {
  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  core.refresh_handles();
  const auto subset = isa::rv32_subset_named("rv32i");
  auto instr_q = core.instr_reg_q;
  const auto restrict_fn = [&](Netlist& a) {
    return restrict_isa_cutpoint(a, instr_q, subset);
  };
  PdatOptions opt;
  const PdatResult res = run_pdat(core.netlist, restrict_fn, opt);
  ASSERT_GT(res.proven, 0u);

  validate::MiterOptions mopt;
  mopt.depth = 2;
  const validate::MiterResult m = validate::check_bounded_equivalence(
      core.netlist, res.transformed, restrict_fn, res.proven_props, mopt);
  EXPECT_EQ(m.verdict, Verdict::Pass) << m.detail;

  const validate::LockstepResult l =
      validate::lockstep_rv32(res.transformed, validate::rv32_smoke_programs());
  EXPECT_EQ(l.verdict, Verdict::Pass) << l.detail;
  EXPECT_GE(l.programs_run, 3);
}

}  // namespace
}  // namespace pdat
