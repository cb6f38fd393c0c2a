// Differential oracles: a pack of programs, three models, first divergence
// wins per program.
//
// Each oracle owns lane-packed gate-level testbenches (BitSim construction
// levelizes the netlist, which is expensive) and reuses them across packs.
// A pack runs up to 64 programs at once, one per BitSim lane, each with its
// own sparse memory. The ISS golden model runs per program; only its trace
// (and Thumb flags) is kept. The baseline pack runs first, and the reduced
// pack takes only the programs that agreed. Gate toggle coverage is
// recorded per lane from the *reduced* core when one is configured — the
// fuzzer's job is to exercise the reduced machine — and from the baseline
// otherwise.
#pragma once

#include "cores/cm0/cm0_tb.h"
#include "cores/ibex/ibex_tb.h"
#include "fuzz/generator.h"

namespace pdat::fuzz {

/// ISS + baseline Ibex bitsim (+ reduced Ibex bitsim when non-null).
class Rv32DiffOracle : public Oracle {
 public:
  Rv32DiffOracle(const Rv32Generator& gen, const Netlist& baseline, const Netlist* reduced);

  using Oracle::run;
  std::size_t coverage_nets() const override { return cov_nets_; }
  std::vector<RunOutcome> run(std::span<const AbsProgram> programs,
                              std::span<CoverageMap> covs) override;

 private:
  const Rv32Generator& gen_;
  cores::IbexTestbench base_tb_;
  std::unique_ptr<cores::IbexTestbench> red_tb_;
  std::size_t cov_nets_;
  LaneCoverage lane_cov_;
};

/// ISS + baseline CM0 bitsim (+ reduced CM0 bitsim when non-null).
class ThumbDiffOracle : public Oracle {
 public:
  ThumbDiffOracle(const ThumbGenerator& gen, const Netlist& baseline, const Netlist* reduced);

  using Oracle::run;
  std::size_t coverage_nets() const override { return cov_nets_; }
  std::vector<RunOutcome> run(std::span<const AbsProgram> programs,
                              std::span<CoverageMap> covs) override;

 private:
  const ThumbGenerator& gen_;
  cores::Cm0Testbench base_tb_;
  std::unique_ptr<cores::Cm0Testbench> red_tb_;
  std::size_t cov_nets_;
  LaneCoverage lane_cov_;
};

/// Convenience entry points: build the generator + target and run the loop.
/// `reduced` may be null (baseline-only fuzzing against the ISS alone).
/// The netlists must outlive the call.
FuzzStats fuzz_rv32(const isa::RvSubset& subset, const Netlist& baseline, const Netlist* reduced,
                    const FuzzOptions& opt);
FuzzStats fuzz_thumb(const isa::ThumbSubset& subset, const Netlist& baseline,
                     const Netlist* reduced, const FuzzOptions& opt);

}  // namespace pdat::fuzz
