// The PDAT pipeline (paper Fig. 2): Property Checking -> Netlist Rewiring
// -> Logic Resynthesis, driven by a Property Library annotation and an
// environment restriction — plus the post-transform validation safety net
// (bounded equivalence miter, lockstep co-simulation, differential fuzzing).
// One failure policy: any stage error stops the run with a StageError, and
// only a validator's rejection changes the result, by reverting the reduced
// core to the unreduced design. The cooperative interrupt is the only early
// stop, and the SAT conflict budget the only limit: a run's result never
// depends on the host's speed.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "formal/candidates.h"
#include "formal/induction.h"
#include "fuzz/fuzz.h"
#include "opt/optimizer.h"
#include "pdat/errors.h"
#include "pdat/property_library.h"
#include "pdat/restrictions.h"
#include "pdat/rewire.h"
#include "validate/validate.h"

namespace pdat {

struct PdatOptions {
  SimFilterOptions sim;
  /// Proof-stage settings — threads, checkpoint journal and resume, process
  /// isolation and its rlimits — are set on `induction` directly. A missing,
  /// corrupt, or mismatched `induction.resume_from` journal is a
  /// configuration error, always thrown: a bad resume must never silently
  /// rerun from scratch or, worse, resume an unrelated proof.
  InductionOptions induction;
  PropertyLibraryOptions properties;
  int resynthesis_iterations = 32;
  /// Observability (src/trace/, docs/telemetry.md). When `trace_path` is
  /// set, the run records hierarchical spans and writes a Chrome-trace/
  /// Perfetto JSON there; when `metrics_path` is set, it writes a versioned
  /// "pdat-metrics" document (counters, histograms, per-round proof records,
  /// per-stage timings). Either one enables counter collection for the whole
  /// run. Empty paths fall back to the PDAT_TRACE / PDAT_METRICS environment
  /// variables (the Nth run_pdat call in the process appends ".N" for N > 1,
  /// so multi-variant benchmark binaries keep every run). Tracing is
  /// compiled in but off by default; the disabled cost per instrumentation
  /// site is one out-of-line call that reads a relaxed atomic flag, with no
  /// clock read and no allocation.
  std::string trace_path;
  std::string metrics_path;
  /// Free-form label stamped into metrics.json ("" = unlabeled).
  std::string run_label;
  /// Certified solving (paranoid mode, DESIGN.md §5.10): every SAT verdict
  /// that can let a proved property through or pass validation — the two
  /// solves of the induction engine's independent check and the
  /// equivalence miter — is DRAT-checked by the independent in-tree checker
  /// before it is acted on. Proof-job solves only schedule work and stay
  /// uncertified, as does the environment vacuity check (both of its
  /// failure directions are fail-safe).
  /// Forwards into `induction.certify` and `validate.miter.certify`. A
  /// certificate that fails to check raises StageError: no gate is ever
  /// removed on the strength of an uncertified UNSAT. Reports are
  /// byte-identical with certification on or off.
  bool certify = false;
  /// Cooperative interrupt (SIGINT/SIGTERM in the CLI), the only way to
  /// stop a run early. Checked at stage boundaries and polled inside proof
  /// solves; when it becomes true the pipeline throws StageError, with
  /// checkpoint journals retaining completed proof rounds for a later
  /// --resume. A CLI run's wall time is bounded the same way:
  /// `timeout --foreground -s INT N pdat ... --journal=J`.
  const std::atomic<bool>* interrupt = nullptr;
  /// Post-transform validation (off by default; see src/validate/).
  validate::ValidationOptions validate;
  /// Coverage-guided differential fuzzing of the reduced core (src/fuzz/,
  /// docs/fuzzing.md). When `fuzz.iterations > 0` the validation stage also
  /// hands `fuzz` to `fuzz_fn`, which runs that many random subset-constrained
  /// programs in lockstep across the ISS and the bitsims of the original and
  /// reduced cores. `fuzz_fn` is the ISA-specific hook (the CLI installs
  /// fuzz::fuzz_rv32 / fuzz::fuzz_thumb bound to its subset; src/pdat itself
  /// stays core-agnostic). It fuzzes the same reduced core the miter and
  /// lockstep check, and `divergences > 0` rejects that core like a failed
  /// validation; an error the hook throws (e.g. a subset the generator
  /// cannot use) stops the run. Artifacts land under `fuzz.out_dir` and are
  /// byte-identical for a fixed seed at any `fuzz.threads`.
  fuzz::FuzzOptions fuzz;
  fuzz::FuzzFn fuzz_fn;
};

struct PdatResult {
  Netlist transformed;
  // Property-checking funnel.
  std::size_t candidates = 0;
  std::size_t after_sim_filter = 0;
  std::size_t proven = 0;
  std::vector<GateProperty> proven_props;
  InductionStats induction;
  std::uint64_t assume_violation_cycles = 0;
  // Rewiring + resynthesis.
  RewireStats rewires;
  opt::OptimizeStats resynthesis;
  // Validation safety net.
  validate::ValidationReport validation;
  // Differential fuzzing (populated only when fuzz.iterations > 0).
  fuzz::FuzzStats fuzz;
  // A validator rejected the reduced core, so `transformed` is the
  // unreduced design; each entry in `degradations` names one rejecting
  // validator ("miter", "lockstep" or "fuzz") and its witness.
  bool degraded = false;
  std::vector<std::string> degradations;
  // Wall-clock accounting, indexed by PdatStage.
  std::array<double, kNumPdatStages> stage_seconds{};
  double total_seconds = 0;
  // Headline numbers.
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  double area_before = 0;
  double area_after = 0;
  std::size_t flops_before = 0;
  std::size_t flops_after = 0;
};

/// `restrict_fn` receives the analysis copy of `design` and installs the
/// environment restrictions (cutpoints, constraint circuits, stimulus).
///
/// Throws StageError naming the failing stage on any stage error — among
/// them a malformed restriction (Restrict), a vacuous environment
/// (EnvCheck) and the interrupt — and PdatError naming the path when a
/// requested trace or metrics file cannot be written.
PdatResult run_pdat(const Netlist& design,
                    const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                    const PdatOptions& opt = {});

}  // namespace pdat
