// run_pdat's failure policy: every stage error stops the run with a
// StageError naming the stage, and only a validator's rejection changes the
// result, by reverting the reduced core to the unreduced design.
#include <gtest/gtest.h>

#include "pdat/pipeline.h"
#include "synth/builder.h"

namespace pdat {
namespace {

/// An enable-gated counter that the pipeline removes under "en == 0".
struct Toy {
  Netlist design;
  NetId en = kNoNet;

  Toy() {
    synth::Builder b(design);
    en = b.input("en", 1)[0];
    auto cnt = b.reg_decl(4, 0);
    b.connect(cnt, b.mux(en, cnt.q, b.add_const(cnt.q, 1)));
    b.output("q", cnt.q);
  }

  /// Assumes en == 0, with `driver` as en's stimulus.
  std::function<RestrictionResult(Netlist&)> restrict_fn(
      std::shared_ptr<StimulusDriver> driver = nullptr) const {
    if (!driver) driver = std::make_shared<ConstantDriver>(std::vector<NetId>{en}, false);
    return [en = en, driver](Netlist& a) {
      RestrictionResult r;
      r.env.add_assume(synth::Builder(a).not_(en));
      r.env.drivers.push_back(driver);
      return r;
    };
  }
};

class ThrowingDriver final : public StimulusDriver {
 public:
  explicit ThrowingDriver(NetId net) : net_(net) {}
  void drive(BitSim&, Rng&) override { throw PdatError("stimulus source failed"); }
  std::vector<NetId> owned_nets() const override { return {net_}; }
  std::unique_ptr<StimulusDriver> clone() const override {
    return std::make_unique<ThrowingDriver>(*this);
  }

 private:
  NetId net_;
};

/// Runs `opt` on the toy and returns the stage of the StageError it must throw.
PdatStage failing_stage(const Toy& toy, const std::function<RestrictionResult(Netlist&)>& restrict,
                        const PdatOptions& opt, const std::string& why) {
  try {
    const PdatResult res = run_pdat(toy.design, restrict, opt);
    ADD_FAILURE() << "a failed stage returned a result (degraded=" << res.degraded << ")";
  } catch (const StageError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
    return e.stage();
  }
  return PdatStage::Restrict;
}

TEST(PipelineFailure, ThrowingStimulusStopsTheRunInSimFilter) {
  const Toy toy;
  const auto restrict = toy.restrict_fn(std::make_shared<ThrowingDriver>(toy.en));
  EXPECT_EQ(failing_stage(toy, restrict, {}, "stimulus source failed"), PdatStage::SimFilter);
}

TEST(PipelineFailure, ThrowingFuzzHookStopsTheRunInValidate) {
  const Toy toy;
  PdatOptions opt;
  opt.fuzz.iterations = 1;
  opt.fuzz_fn = [](const Netlist&, const Netlist&, const fuzz::FuzzOptions&) -> fuzz::FuzzStats {
    throw PdatError("subset has no halting terminator");
  };
  EXPECT_EQ(failing_stage(toy, toy.restrict_fn(), opt, "no halting terminator"),
            PdatStage::Validate);
}

TEST(PipelineFailure, FuzzDivergenceWithoutFindingsRevertsTheCore) {
  // max_divergences = 0 keeps no findings; the divergence count still rejects.
  const Toy toy;
  PdatOptions opt;
  opt.fuzz.iterations = 1;
  opt.fuzz.max_divergences = 0;
  opt.fuzz_fn = [](const Netlist&, const Netlist&, const fuzz::FuzzOptions&) {
    fuzz::FuzzStats stats;
    stats.programs = 1;
    stats.divergences = 1;
    return stats;
  };
  const PdatResult res = run_pdat(toy.design, toy.restrict_fn(), opt);
  EXPECT_GT(res.proven, 0u);
  EXPECT_TRUE(res.degraded);
  ASSERT_EQ(res.degradations.size(), 1u);
  EXPECT_EQ(res.degradations[0].rfind("fuzz: 1 diverging", 0), 0u) << res.degradations[0];
  EXPECT_EQ(res.gates_after, res.gates_before);
  EXPECT_EQ(res.flops_after, res.flops_before);
}

TEST(PipelineFailure, EveryValidatorChecksTheReducedCore) {
  const Toy toy;
  PdatOptions opt;
  opt.validate.enabled = true;
  opt.validate.lockstep = [](const Netlist&) { return std::string("injected mismatch"); };
  opt.fuzz.iterations = 1;
  std::size_t fuzzed_flops = 0;
  opt.fuzz_fn = [&](const Netlist&, const Netlist& reduced, const fuzz::FuzzOptions&) {
    fuzzed_flops = reduced.num_flops();
    return fuzz::FuzzStats{};
  };
  const PdatResult res = run_pdat(toy.design, toy.restrict_fn(), opt);
  EXPECT_EQ(fuzzed_flops, 0u) << "the fuzzer must see the reduced core, not the reverted one";
  EXPECT_TRUE(res.degraded);
  ASSERT_EQ(res.degradations.size(), 1u);
  EXPECT_EQ(res.degradations[0], "lockstep: injected mismatch");
  EXPECT_EQ(res.flops_after, res.flops_before);
}

}  // namespace
}  // namespace pdat
