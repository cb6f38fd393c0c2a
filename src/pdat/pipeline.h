// The PDAT pipeline (paper Fig. 2): Property Checking -> Netlist Rewiring
// -> Logic Resynthesis, driven by a Property Library annotation and an
// environment restriction — plus the post-transform validation safety net
// (bounded equivalence miter, lockstep co-simulation) and graceful
// degradation: internal stage failures fall back to a sound partial result
// (at worst the identity transform) instead of aborting. The cooperative
// interrupt is the only early stop, and the SAT conflict budget the only
// limit: a run's result never depends on the host's speed.
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
  /// compiled in but off by default; the disabled cost is one relaxed atomic
  /// load per instrumentation site.
  std::string trace_path;
  std::string metrics_path;
  /// Free-form label stamped into metrics.json ("" = unlabeled).
  std::string run_label;
  /// Certified solving (paranoid mode, DESIGN.md §5.10): every SAT verdict
  /// that can keep a candidate alive or pass validation — induction proof
  /// jobs and the equivalence miter — is DRAT-checked by the independent
  /// in-tree checker before it is acted on. The environment vacuity check
  /// stays uncertified (both of its failure directions are fail-safe).
  /// Forwards into `induction.certify` and `validate.miter.certify`. A
  /// certificate that fails to check raises StageError, never a
  /// degradation: no gate is ever removed on the strength of an
  /// uncertified UNSAT. Reports are byte-identical with certification on
  /// or off.
  bool certify = false;
  /// Cooperative interrupt (SIGINT/SIGTERM in the CLI), the only way to
  /// stop a run early. Checked at stage boundaries and polled inside proof
  /// solves; when it becomes true the pipeline throws StageError, never a
  /// degradation, with checkpoint journals retaining completed proof rounds
  /// for a later --resume. A CLI run's wall time is bounded the same way:
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
  /// stays core-agnostic). A divergence is treated like a failed validation:
  /// revert to the unreduced design and degrade, or throw ValidationError
  /// when `validate.fail_hard` is set. Artifacts land under `fuzz.out_dir`
  /// and are byte-identical for a fixed seed at any `fuzz.threads`.
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
  // Graceful degradation: true when any stage fell back to a safe partial
  // result; each entry in `degradations` names the stage and the reason.
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
/// Throws StageError(Restrict) on a malformed restriction and
/// EnvironmentError on a vacuous one — a bad configuration must never
/// silently produce an identity transform.
PdatResult run_pdat(const Netlist& design,
                    const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                    const PdatOptions& opt = {});

}  // namespace pdat
