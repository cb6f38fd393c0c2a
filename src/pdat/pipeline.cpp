#include "pdat/pipeline.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>

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

/// Disables collection on scope exit so a thrown configuration error cannot
/// leave the process-global tracer enabled.
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

  double stage_t0 = 0;
  std::optional<trace::Span> stage_span;
  const auto begin_stage = [&](PdatStage st) {
    stage_t0 = elapsed();
    stage_span.emplace(stage_span_name(st));
  };
  const auto end_stage = [&](PdatStage st) {
    res.stage_seconds[idx(st)] = elapsed() - stage_t0;
    stage_span.reset();
  };
  // Degrades gracefully (note + warn) to a sound partial result.
  const auto degrade = [&](PdatStage st, const std::string& why) {
    res.degraded = true;
    res.degradations.push_back(std::string(stage_name(st)) + ": " + why);
    log_warn() << "PDAT: stage '" << stage_name(st) << "' degraded: " << why;
  };
  // Cooperative interrupt, the only early stop: always thrown (never
  // degraded) so the CLI can print a resume command and exit with a
  // distinct resumable status. `raised` reports an interrupt a stage saw
  // through its own flag.
  const auto check_interrupt = [&](PdatStage st, bool raised = false) {
    if (raised || (opt.interrupt != nullptr && opt.interrupt->load(std::memory_order_relaxed))) {
      throw StageError(st, "interrupted; completed proof rounds remain in the journal for --resume",
                       elapsed());
    }
  };

  // --- build the analysis netlist: design + restrictions -------------------
  // A malformed restriction is a configuration error: always thrown, never
  // degraded, so a bad environment cannot silently yield an identity run.
  begin_stage(PdatStage::Restrict);
  Netlist analysis = design;
  const CellId design_cells = static_cast<CellId>(design.num_cells_raw());
  RestrictionResult restr;
  try {
    restr = restrict_fn(analysis);
    require_well_formed(analysis, restr.cut_nets);
  } catch (const StageError&) {
    throw;
  } catch (const PdatError& e) {
    throw StageError(PdatStage::Restrict, e.what(), elapsed());
  }
  end_stage(PdatStage::Restrict);

  begin_stage(PdatStage::EnvCheck);
  if (!env_satisfiable(analysis, restr.env, kEnvCheckDepth)) {
    throw EnvironmentError("environment restriction is unsatisfiable (vacuous)");
  }
  end_stage(PdatStage::EnvCheck);

  // --- annotate with the property library ----------------------------------
  begin_stage(PdatStage::Annotate);
  std::vector<GateProperty> candidates;
  try {
    PropertyLibraryOptions plopt = opt.properties;
    plopt.cell_limit = design_cells;
    for (NetId n : restr.cut_nets) plopt.excluded_nets.push_back(n);
    candidates = annotate_netlist(analysis, plopt);
    candidates.insert(candidates.end(), restr.strengthen.begin(), restr.strengthen.end());
    if (plopt.equivalence_props) {
      EquivCandidateOptions eopt;
      eopt.sim = opt.sim;
      for (NetId n : restr.cut_nets) eopt.sim.free_nets.push_back(n);
      eopt.cell_limit = design_cells;
      const auto eq = equivalence_candidates(analysis, restr.env, eopt);
      candidates.insert(candidates.end(), eq.begin(), eq.end());
    }
  } catch (const PdatError& e) {
    candidates.clear();
    degrade(PdatStage::Annotate, e.what());
  }
  end_stage(PdatStage::Annotate);
  res.candidates = candidates.size();

  // --- property checking stage ----------------------------------------------
  begin_stage(PdatStage::SimFilter);
  std::vector<GateProperty> survivors;
  try {
    SimFilterOptions simopt = opt.sim;
    for (NetId n : restr.cut_nets) simopt.free_nets.push_back(n);
    SimFilterResult filtered = sim_filter(analysis, restr.env, std::move(candidates), simopt);
    res.assume_violation_cycles = filtered.assume_violation_cycles;
    if (filtered.assume_violation_cycles > 0) {
      log_warn() << "PDAT: stimulus violated assumes in " << filtered.assume_violation_cycles
                 << " cycles (filtering quality reduced)";
    }
    survivors = std::move(filtered.survivors);
  } catch (const PdatError& e) {
    survivors.clear();
    degrade(PdatStage::SimFilter, e.what());
  }
  end_stage(PdatStage::SimFilter);
  res.after_sim_filter = survivors.size();
  log_info() << "PDAT: " << res.candidates << " candidates, " << res.after_sim_filter
             << " after simulation filtering";

  check_interrupt(PdatStage::SimFilter);

  begin_stage(PdatStage::Induction);
  std::vector<GateProperty> proven;
  InductionOptions iopt = opt.induction;
  if (opt.certify) iopt.certify = true;
  if (iopt.interrupt == nullptr) iopt.interrupt = opt.interrupt;
  if (!survivors.empty()) {
    try {
      for (NetId n : restr.cut_nets) iopt.sim_free_nets.push_back(n);
      proven = prove_invariants(analysis, restr.env, std::move(survivors), iopt, &res.induction);
    } catch (const CertificationError& e) {
      // A certificate that failed to check means the solver lied somewhere:
      // degrading would keep pipeline output built on unsound verdicts, so
      // this is always a hard stop, like a configuration error.
      throw StageError(PdatStage::Induction, e.what(), elapsed());
    } catch (const PdatError& e) {
      // Two error families are always thrown, never degraded:
      //  - "resume:": a missing/corrupt/mismatched resume journal is a
      //    configuration error, like a malformed restriction — a bad
      //    --resume must not silently rerun from scratch;
      //  - "journal:": a checkpoint append that failed to persist (disk
      //    full, I/O error) means a later --resume would replay stale
      //    state, so the run must stop while its on-disk prefix is valid.
      const std::string what = e.what();
      if (what.rfind("journal:", 0) == 0 ||
          (!iopt.resume_from.empty() && what.rfind("resume:", 0) == 0)) {
        throw StageError(PdatStage::Induction, what, elapsed());
      }
      proven.clear();
      degrade(PdatStage::Induction, e.what());
    }
  }
  end_stage(PdatStage::Induction);
  check_interrupt(PdatStage::Induction, res.induction.interrupted);
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

  // --- rewiring stage (on a fresh copy of the original design) --------------
  begin_stage(PdatStage::Rewire);
  res.transformed = design;
  try {
    res.rewires = apply_rewiring(res.transformed, proven);
  } catch (const PdatError& e) {
    res.transformed = design;
    res.rewires = {};
    degrade(PdatStage::Rewire, e.what());
  }
  end_stage(PdatStage::Rewire);

  // --- logic resynthesis stage ----------------------------------------------
  check_interrupt(PdatStage::Resynthesis);
  begin_stage(PdatStage::Resynthesis);
  try {
    res.resynthesis = opt::optimize(res.transformed, opt.resynthesis_iterations);
    require_well_formed(res.transformed);
  } catch (const PdatError& e) {
    res.transformed = design;
    res.resynthesis = {};
    degrade(PdatStage::Resynthesis, std::string(e.what()) + " — reverted to unreduced design");
  }
  end_stage(PdatStage::Resynthesis);

  // --- validation safety net -------------------------------------------------
  const bool fuzzing = opt.fuzz.iterations > 0;
  if (opt.validate.enabled || fuzzing) {
    check_interrupt(PdatStage::Validate);
    begin_stage(PdatStage::Validate);
    try {
      if (opt.validate.enabled) {
        validate::ValidationOptions vopt = opt.validate;
        if (opt.certify) vopt.miter.certify = true;
        res.validation =
            validate::run_validation(design, res.transformed, restrict_fn, proven, vopt);
        if (!res.validation.ok()) {
          if (opt.validate.fail_hard) throw ValidationError(res.validation.summary());
          res.transformed = design;  // never ship a core a validator rejected
          res.rewires = {};
          res.resynthesis = {};
          degrade(PdatStage::Validate,
                  res.validation.summary() + " — reverted to unreduced design");
        }
      }
      if (fuzzing) {
        if (!opt.fuzz_fn)
          throw PdatError("fuzz.iterations > 0 but no fuzz_fn installed (ISA hook missing)");
        res.fuzz = opt.fuzz_fn(design, res.transformed, opt.fuzz);
        if (!res.fuzz.findings.empty()) {
          const std::string msg =
              "fuzz found " + std::to_string(res.fuzz.divergences) +
              " diverging program(s); first: " + res.fuzz.findings.front().detail;
          if (opt.validate.fail_hard) throw ValidationError(msg);
          res.transformed = design;  // never ship a core the fuzzer broke
          res.rewires = {};
          res.resynthesis = {};
          degrade(PdatStage::Validate, msg + " — reverted to unreduced design");
        }
      }
    } catch (const ValidationError&) {
      throw;
    } catch (const CertificationError& e) {
      // An uncertified miter Unsat must never count as a Pass.
      throw StageError(PdatStage::Validate, e.what(), elapsed());
    } catch (const PdatError& e) {
      degrade(PdatStage::Validate, e.what());
    }
    end_stage(PdatStage::Validate);
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
      std::ofstream out(metrics_path);
      if (out) {
        trace::write_metrics_json(out, info);
        log_info() << "PDAT: wrote metrics to '" << metrics_path << "'";
      } else {
        log_warn() << "PDAT: cannot open metrics path '" << metrics_path << "'";
      }
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (out) {
        trace::write_chrome_trace(out);
        log_info() << "PDAT: wrote trace to '" << trace_path << "'";
      } else {
        log_warn() << "PDAT: cannot open trace path '" << trace_path << "'";
      }
    }
  }
  return res;
}

}  // namespace pdat
