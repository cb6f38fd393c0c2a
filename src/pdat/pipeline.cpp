#include "pdat/pipeline.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "base/file.h"
#include "base/log.h"
#include "formal/bmc.h"
#include "netlist/check.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace pdat {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t idx(PdatStage s) { return static_cast<std::size_t>(s); }

/// Unroll depth of the environment vacuity check: an environment with no
/// allowed execution this long would "prove" every candidate.
constexpr int kEnvCheckDepth = 3;

/// Stage span names must be literals known to the registry (registry.cpp),
/// so this is a switch rather than string concatenation.
const char* stage_span_name(PdatStage s) {
  switch (s) {
    case PdatStage::Restrict: return "pdat.stage.restrict";
    case PdatStage::EnvCheck: return "pdat.stage.env-check";
    case PdatStage::Annotate: return "pdat.stage.annotate";
    case PdatStage::SimFilter: return "pdat.stage.sim-filter";
    case PdatStage::Induction: return "pdat.stage.induction";
    case PdatStage::Rewire: return "pdat.stage.rewire";
    case PdatStage::Resynthesis: return "pdat.stage.resynthesis";
    case PdatStage::Validate: return "pdat.stage.validate";
  }
  return "pdat.stage.?";
}

/// Ordinal of env-var-driven telemetry captures in this process: run 1
/// writes the PDAT_TRACE / PDAT_METRICS path verbatim, run N > 1 appends
/// ".N" so benchmark binaries with several run_pdat calls keep every run.
std::atomic<int> g_env_capture_ordinal{0};

std::string nth_capture_path(const char* base, int n) {
  std::string p(base);
  if (n > 1) p += "." + std::to_string(n);
  return p;
}

/// Simulation drives primary inputs and the nets an environment driver
/// owns, nothing else, so a cut net no driver owns would float in every
/// stage that simulates: a malformed restriction.
void require_owned_cut_nets(const RestrictionResult& r) {
  std::unordered_set<NetId> owned;
  for (const auto& d : r.env.drivers) {
    for (NetId n : d->owned_nets()) owned.insert(n);
  }
  for (NetId n : r.cut_nets) {
    if (!owned.count(n)) {
      throw PdatError("restriction: cut net " + std::to_string(n) + " has no stimulus driver");
    }
  }
}

/// Disables collection on scope exit so a thrown stage error cannot leave
/// the process-global tracer enabled.
struct TelemetryScope {
  bool active = false;
  ~TelemetryScope() {
    if (active) trace::end_run();
  }
};

}  // namespace

PdatResult run_pdat(const Netlist& design,
                    const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                    const PdatOptions& opt) {
  PdatResult res;
  res.gates_before = design.gate_count();
  res.area_before = design.area();
  res.flops_before = design.num_flops();

  // --- telemetry setup -------------------------------------------------------
  // Explicit paths win; empty ones fall back to PDAT_TRACE / PDAT_METRICS.
  // Collection is only toggled when this call requested output, so a caller
  // (or test) that ran trace::begin_run itself keeps its own session.
  std::string trace_path = opt.trace_path;
  std::string metrics_path = opt.metrics_path;
  const char* env_trace = std::getenv("PDAT_TRACE");
  const char* env_metrics = std::getenv("PDAT_METRICS");
  if (trace_path.empty() && env_trace != nullptr && *env_trace != '\0') trace_path = env_trace;
  if (metrics_path.empty() && env_metrics != nullptr && *env_metrics != '\0') {
    metrics_path = env_metrics;
  }
  if ((!trace_path.empty() && opt.trace_path.empty()) ||
      (!metrics_path.empty() && opt.metrics_path.empty())) {
    const int n = g_env_capture_ordinal.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opt.trace_path.empty() && !trace_path.empty()) {
      trace_path = nth_capture_path(trace_path.c_str(), n);
    }
    if (opt.metrics_path.empty() && !metrics_path.empty()) {
      metrics_path = nth_capture_path(metrics_path.c_str(), n);
    }
  }
  TelemetryScope telemetry;
  telemetry.active = !trace_path.empty() || !metrics_path.empty();
  if (telemetry.active) trace::begin_run(/*events=*/!trace_path.empty());
  std::optional<trace::Span> run_span;
  run_span.emplace("pdat.run", trace::SpanArg{"gates_before",
                                              static_cast<std::int64_t>(res.gates_before)});

  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };

  PdatStage stage = PdatStage::Restrict;  // the running stage, named by any error it raises
  double stage_t0 = 0;
  std::optional<trace::Span> stage_span;
  const auto begin_stage = [&](PdatStage st) {
    stage = st;
    stage_t0 = elapsed();
    stage_span.emplace(stage_span_name(st));
  };
  const auto end_stage = [&](PdatStage st) {
    res.stage_seconds[idx(st)] = elapsed() - stage_t0;
    stage_span.reset();
  };
  // Cooperative interrupt, the only early stop: the CLI prints a resume
  // command and exits with a distinct resumable status. `raised` reports an
  // interrupt a stage saw through its own flag.
  const auto check_interrupt = [&](bool raised = false) {
    if (raised || (opt.interrupt != nullptr && opt.interrupt->load(std::memory_order_relaxed))) {
      throw PdatError("interrupted; completed proof rounds remain in the journal for --resume");
    }
  };

  // Every stage error stops the run: a weaker result built around a failed
  // stage would ship as if the run had finished.
  try {
    // --- build the analysis netlist: design + restrictions -----------------
    begin_stage(PdatStage::Restrict);
    Netlist analysis = design;
    RestrictionResult restr = restrict_fn(analysis);
    require_well_formed(analysis, restr.cut_nets);
    require_owned_cut_nets(restr);
    end_stage(PdatStage::Restrict);

    begin_stage(PdatStage::EnvCheck);
    if (!env_satisfiable(analysis, restr.env, kEnvCheckDepth)) {
      throw PdatError("environment restriction is unsatisfiable (vacuous)");
    }
    end_stage(PdatStage::EnvCheck);

    // --- annotate with the property library --------------------------------
    // Candidates name design nets only: rewiring edits the design, not the
    // analysis copy.
    begin_stage(PdatStage::Annotate);
    std::vector<GateProperty> candidates =
        annotate_netlist(analysis, design.num_nets(), opt.properties);
    candidates.insert(candidates.end(), restr.strengthen.begin(), restr.strengthen.end());
    if (opt.properties.equivalence_props) {
      const auto eq = equivalence_candidates(analysis, restr.env, design.num_nets(), opt.sim);
      candidates.insert(candidates.end(), eq.begin(), eq.end());
    }
    end_stage(PdatStage::Annotate);
    res.candidates = candidates.size();

    // --- property checking stage --------------------------------------------
    begin_stage(PdatStage::SimFilter);
    SimFilterResult filtered = sim_filter(analysis, restr.env, std::move(candidates), opt.sim);
    res.assume_violation_cycles = filtered.assume_violation_cycles;
    if (filtered.assume_violation_cycles > 0) {
      log_warn() << "PDAT: stimulus violated assumes in " << filtered.assume_violation_cycles
                 << " cycles (filtering quality reduced)";
    }
    std::vector<GateProperty> survivors = std::move(filtered.survivors);
    end_stage(PdatStage::SimFilter);
    res.after_sim_filter = survivors.size();
    log_info() << "PDAT: " << res.candidates << " candidates, " << res.after_sim_filter
               << " after simulation filtering";

    check_interrupt();

    begin_stage(PdatStage::Induction);
    std::vector<GateProperty> proven;
    InductionOptions iopt = opt.induction;
    if (opt.certify) iopt.certify = true;
    if (iopt.interrupt == nullptr) iopt.interrupt = opt.interrupt;
    if (!survivors.empty()) {
      proven = prove_invariants(analysis, restr.env, std::move(survivors), iopt, &res.induction);
    }
    end_stage(PdatStage::Induction);
    check_interrupt(res.induction.interrupted);
    if (res.induction.budget_kills > 0) {
      log_warn() << "PDAT: conflict budget dropped " << res.induction.budget_kills
                 << " candidates (inconclusive, conservatively not proved)";
    }
    if (res.induction.job_drops > 0 || res.induction.job_crashes > 0) {
      log_warn() << "PDAT: supervisor retried " << res.induction.job_retries
                 << " proof jobs, dropped " << res.induction.job_drops << ", contained "
                 << res.induction.job_crashes
                 << " crashes (dropped candidates conservatively not proved)";
    }
    if (res.induction.resumed_from_round >= -1) {
      log_info() << "PDAT: proof resumed from journal (last complete round "
                 << (res.induction.resumed_from_round == -1
                         ? std::string("base")
                         : std::to_string(res.induction.resumed_from_round))
                 << ")";
    }
    res.proven = proven.size();
    res.proven_props = proven;
    log_info() << "PDAT: proved " << res.proven << " gate invariants";

    // --- rewiring stage (on a fresh copy of the original design) ------------
    begin_stage(PdatStage::Rewire);
    res.transformed = design;
    res.rewires = apply_rewiring(res.transformed, proven);
    end_stage(PdatStage::Rewire);

    // --- logic resynthesis stage --------------------------------------------
    begin_stage(PdatStage::Resynthesis);
    check_interrupt();
    res.resynthesis = opt::optimize(res.transformed, opt.resynthesis_iterations);
    require_well_formed(res.transformed);
    end_stage(PdatStage::Resynthesis);

    // --- validation safety net -----------------------------------------------
    // Every requested validator checks the same reduced core. A rejection
    // reverts it once, so no core a validator rejected ever ships.
    const bool fuzzing = opt.fuzz.iterations > 0;
    if (opt.validate.enabled || fuzzing) {
      begin_stage(PdatStage::Validate);
      check_interrupt();
      if (opt.validate.enabled) {
        validate::ValidationOptions vopt = opt.validate;
        if (opt.certify) vopt.miter.certify = true;
        res.validation =
            validate::run_validation(design, res.transformed, restrict_fn, proven, vopt);
        if (res.validation.miter == validate::Verdict::Fail) {
          res.degradations.push_back("miter: " + res.validation.miter_detail);
        }
        if (res.validation.lockstep == validate::Verdict::Fail) {
          res.degradations.push_back("lockstep: " + res.validation.lockstep_detail);
        }
      }
      if (fuzzing) {
        if (!opt.fuzz_fn)
          throw PdatError("fuzz.iterations > 0 but no fuzz_fn installed (ISA hook missing)");
        res.fuzz = opt.fuzz_fn(design, res.transformed, opt.fuzz);
        if (res.fuzz.divergences > 0) {
          std::string why = "fuzz: " + std::to_string(res.fuzz.divergences) +
                            " diverging program(s)";
          if (!res.fuzz.findings.empty()) why += "; first: " + res.fuzz.findings.front().detail;
          res.degradations.push_back(std::move(why));
        }
      }
      res.degraded = !res.degradations.empty();
      if (res.degraded) {
        res.transformed = design;
        res.rewires = {};
        res.resynthesis = {};
      }
      for (const std::string& why : res.degradations) {
        log_warn() << "PDAT: " << why << " — reverted to unreduced design";
      }
      end_stage(PdatStage::Validate);
    }
  } catch (const StageError&) {
    throw;
  } catch (const PdatError& e) {
    throw StageError(stage, e.what(), elapsed());
  }

  res.gates_after = res.transformed.gate_count();
  res.area_after = res.transformed.area();
  res.flops_after = res.transformed.num_flops();
  res.total_seconds = elapsed();

  // --- telemetry output ------------------------------------------------------
  run_span->arg("gates_after", static_cast<std::int64_t>(res.gates_after));
  run_span->arg("proven", static_cast<std::int64_t>(res.proven));
  run_span.reset();  // close pdat.run so it lands in the trace file
  if (telemetry.active) {
    trace::end_run();
    telemetry.active = false;
    if (!metrics_path.empty()) {
      trace::MetricsInfo info;
      info.label = opt.run_label;
      info.candidates = res.candidates;
      info.after_sim_filter = res.after_sim_filter;
      info.proven = res.proven;
      info.gates_before = res.gates_before;
      info.gates_after = res.gates_after;
      info.degraded = res.degraded;
      info.resumed_from_round = res.induction.resumed_from_round;
      for (std::size_t s = 0; s < kNumPdatStages; ++s) {
        info.stages.push_back({stage_name(static_cast<PdatStage>(s)), res.stage_seconds[s]});
      }
      info.total_wall_seconds = res.total_seconds;
      std::ostringstream out;
      trace::write_metrics_json(out, info);
      write_file(metrics_path, out.str());
      log_info() << "PDAT: wrote metrics to '" << metrics_path << "'";
    }
    if (!trace_path.empty()) {
      std::ostringstream out;
      trace::write_chrome_trace(out);
      write_file(trace_path, out.str());
      log_info() << "PDAT: wrote trace to '" << trace_path << "'";
    }
  }
  return res;
}

}  // namespace pdat
