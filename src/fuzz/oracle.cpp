#include "fuzz/oracle.h"

#include "base/types.h"
#include "netlist/netlist.h"
#include "trace/trace.h"

namespace pdat::fuzz {
namespace {

// Step/cycle caps. Programs are loop-free (forward-only control) and at
// most ~2 * max_ops instructions, so a well-formed run halts orders of
// magnitude below these; hitting a cap means a model wedged, which is
// reported as Inconclusive rather than a divergence.
constexpr std::uint64_t kIssSteps = 4096;
constexpr std::uint64_t kTbCycles = 8192;

/// Runs `jobs` (indices into `out`) as one pack on `tb`, job jobs[k] in lane
/// k, and settles each job's outcome the way a run of that job alone would:
/// cycles, then "did not halt" or the first divergence from the ISS. When
/// `covs` is non-empty, each job's toggle coverage goes to covs[job].
/// `load(lane, job)` loads a job's program; `compare(lane, job)` returns its
/// divergence. Returns the jobs that agreed.
template <class Tb, class Load, class Compare>
std::vector<std::size_t> run_pack(Tb& tb, const char* label, const std::vector<std::size_t>& jobs,
                                  std::span<RunOutcome> out, std::span<CoverageMap> covs,
                                  LaneCoverage& lane_cov, Load load, Compare compare) {
  std::vector<std::size_t> agreed;
  if (jobs.empty()) return agreed;
  tb.reset(static_cast<unsigned>(jobs.size()));
  for (unsigned k = 0; k < jobs.size(); ++k) load(k, jobs[k]);
  if (!covs.empty()) lane_cov.clear(tb.sim().netlist().num_nets());
  std::uint64_t packed = 0;
  while (tb.running() != 0 && packed < kTbCycles) {
    const std::uint64_t ran = tb.cycle();
    if (!covs.empty()) lane_cov.record(tb.sim(), ran);
    ++packed;
  }
  if (!covs.empty()) {
    std::vector<CoverageMap*> lanes;
    for (const std::size_t job : jobs) lanes.push_back(&covs[job]);
    lane_cov.scatter(lanes);
  }
  std::uint64_t lane_cycles = 0;
  for (unsigned k = 0; k < jobs.size(); ++k) {
    RunOutcome& o = out[jobs[k]];
    o.cycles += tb.cycles(k);
    lane_cycles += tb.cycles(k);
    if (!tb.halted(k)) {
      o.status = RunOutcome::Status::Inconclusive;
      o.detail = std::string(label) + ": did not halt";
      continue;
    }
    const std::string diff = compare(k, jobs[k]);
    if (!diff.empty()) {
      o.status = RunOutcome::Status::Diverge;
      o.detail = std::string(label) + ": " + diff;
      continue;
    }
    agreed.push_back(jobs[k]);
  }
  trace::add(trace::Counter::FuzzTbCycles, lane_cycles);
  trace::add(trace::Counter::FuzzPackedCycles, packed);
  return agreed;
}

void check_pack(std::span<const AbsProgram> programs, std::span<CoverageMap> covs,
                std::size_t coverage_nets) {
  if (programs.empty() || programs.size() > Oracle::kMaxPack)
    throw PdatError("fuzz oracle: a pack holds 1..64 programs");
  if (!covs.empty() && covs.size() != programs.size())
    throw PdatError("fuzz oracle: one coverage map per program");
  for (const CoverageMap& c : covs) {
    if (c.nets() != coverage_nets) throw PdatError("fuzz oracle: coverage map of the wrong size");
  }
}

}  // namespace

RunOutcome Oracle::run(const AbsProgram& p, CoverageMap* cov) {
  return run(std::span(&p, 1), cov != nullptr ? std::span(cov, 1) : std::span<CoverageMap>())[0];
}

// --- RV32 --------------------------------------------------------------------

Rv32DiffOracle::Rv32DiffOracle(const Rv32Generator& gen, const Netlist& baseline,
                               const Netlist* reduced)
    : gen_(gen),
      base_tb_(baseline),
      red_tb_(reduced ? std::make_unique<cores::IbexTestbench>(*reduced) : nullptr),
      cov_nets_(reduced ? reduced->num_nets() : baseline.num_nets()) {}

std::vector<RunOutcome> Rv32DiffOracle::run(std::span<const AbsProgram> programs,
                                            std::span<CoverageMap> covs) {
  check_pack(programs, covs, cov_nets_);
  std::vector<RunOutcome> out(programs.size());
  std::vector<std::vector<std::uint32_t>> words(programs.size());
  std::vector<std::vector<iss::Rv32Iss::TraceEntry>> golden(programs.size());
  std::vector<std::size_t> jobs;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    words[i] = gen_.encode_units(programs[i]);
    iss::Rv32Iss iss;
    iss.load_words(0, words[i]);
    iss.reset();
    iss.set_tracing(true);
    iss.run(kIssSteps);
    if (!iss.halted()) {
      out[i].status = RunOutcome::Status::Inconclusive;
      out[i].detail = "iss: did not halt";
      continue;
    }
    golden[i] = iss.trace();
    jobs.push_back(i);
  }

  auto on = [&](cores::IbexTestbench& tb, const char* label, std::span<CoverageMap> target) {
    return run_pack(
        tb, label, jobs, out, target, lane_cov_,
        [&](unsigned lane, std::size_t job) { tb.load_words(0, words[job], lane); },
        [&](unsigned lane, std::size_t job) {
          return iss::compare_traces(golden[job], tb.trace(lane));
        });
  };
  jobs = on(base_tb_, "baseline", red_tb_ ? std::span<CoverageMap>() : covs);
  if (red_tb_) on(*red_tb_, "reduced", covs);
  return out;
}

// --- Thumb -------------------------------------------------------------------

ThumbDiffOracle::ThumbDiffOracle(const ThumbGenerator& gen, const Netlist& baseline,
                                 const Netlist* reduced)
    : gen_(gen),
      base_tb_(baseline),
      red_tb_(reduced ? std::make_unique<cores::Cm0Testbench>(*reduced) : nullptr),
      cov_nets_(reduced ? reduced->num_nets() : baseline.num_nets()) {}

std::vector<RunOutcome> ThumbDiffOracle::run(std::span<const AbsProgram> programs,
                                             std::span<CoverageMap> covs) {
  check_pack(programs, covs, cov_nets_);
  std::vector<RunOutcome> out(programs.size());
  std::vector<std::vector<std::uint16_t>> halves(programs.size());
  std::vector<cores::ThumbGolden> golden(programs.size());
  std::vector<std::size_t> jobs;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (const std::uint32_t u : gen_.encode_units(programs[i]))
      halves[i].push_back(static_cast<std::uint16_t>(u));
    iss::ThumbIss iss;
    iss.load_halfwords(0, halves[i]);
    iss.reset();
    iss.set_tracing(true);
    iss.run(kIssSteps);
    if (!iss.halted()) {
      out[i].status = RunOutcome::Status::Inconclusive;
      out[i].detail = "iss: did not halt";
      continue;
    }
    golden[i] = cores::thumb_golden(iss);
    jobs.push_back(i);
  }

  auto on = [&](cores::Cm0Testbench& tb, const char* label, std::span<CoverageMap> target) {
    return run_pack(
        tb, label, jobs, out, target, lane_cov_,
        [&](unsigned lane, std::size_t job) { tb.load_halfwords(0, halves[job], lane); },
        [&](unsigned lane, std::size_t job) {
          return cores::compare_thumb(golden[job], tb, lane);
        });
  };
  jobs = on(base_tb_, "baseline", red_tb_ ? std::span<CoverageMap>() : covs);
  if (red_tb_) on(*red_tb_, "reduced", covs);
  return out;
}

// --- convenience entry points ------------------------------------------------

FuzzStats fuzz_rv32(const isa::RvSubset& subset, const Netlist& baseline, const Netlist* reduced,
                    const FuzzOptions& opt) {
  const Rv32Generator gen(subset);
  Target target;
  target.gen = &gen;
  target.name = "ibex";
  target.make_oracle = [&] { return std::make_unique<Rv32DiffOracle>(gen, baseline, reduced); };
  return run_fuzz(target, opt);
}

FuzzStats fuzz_thumb(const isa::ThumbSubset& subset, const Netlist& baseline,
                     const Netlist* reduced, const FuzzOptions& opt) {
  const ThumbGenerator gen(subset);
  Target target;
  target.gen = &gen;
  target.name = "cm0";
  target.make_oracle = [&] { return std::make_unique<ThumbDiffOracle>(gen, baseline, reduced); };
  return run_fuzz(target, opt);
}

}  // namespace pdat::fuzz
