// SAT-based bounded sequential equivalence miter (validation safety net).
//
// Checks that a PDAT-transformed netlist agrees with the original design on
// every output for k clock frames from reset, for all input sequences that
// satisfy the environment restriction. The check decomposes along the
// pipeline's own soundness argument:
//
//   stage 1 (restricted)  : original vs rewired-original, both carrying the
//       restriction circuits (cutpoints tied across the sides, assumes
//       asserted on both). This is where an unsoundly proved property or a
//       mis-applied rewire shows up.
//   stage 2 (unrestricted): rewired-original vs final transformed netlist,
//       ports matched by name, no environment — logic resynthesis must
//       preserve equivalence for *all* inputs, so a resynthesis bug (or any
//       post-hoc gate corruption) shows up here.
//
// X-initialized flops are pinned to 0 on both sides, matching BitSim reset
// semantics, so a clean run never raises a free-X false alarm.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "formal/property.h"
#include "netlist/netlist.h"
#include "pdat/restrictions.h"
#include "validate/verdict.h"

namespace pdat::validate {

struct MiterOptions {
  /// Number of unrolled clock frames (t = 0..depth-1) per stage.
  int depth = 4;
  /// SAT conflict budget per aggregated query (one per stage); < 0 means
  /// unlimited. A stage that exhausts it is Inconclusive.
  std::int64_t conflict_budget = -1;
  /// Certified solving (DESIGN.md §5.10): DRAT-check the aggregated
  /// equivalence verdict of each stage with the independent checker. A
  /// failed check raises CertificationError — a Pass is never reported on
  /// the strength of an unchecked Unsat.
  bool certify = false;
};

struct MiterResult {
  Verdict verdict = Verdict::Skipped;
  /// Earliest frame with an output disagreement (Fail only), else -1.
  int violation_frame = -1;
  /// Human-readable description of the discrepancy or the abort reason.
  std::string detail;
  int frames = 0;                // unroll depth actually used
  std::uint64_t conflicts = 0;   // total SAT conflicts across both stages
};

/// `design` is the untransformed core, `transformed` the pipeline output,
/// `restrict_fn` the same environment builder handed to run_pdat, and
/// `proven` the property set the rewiring stage applied. The rewired
/// intermediate is reconstructed internally (apply_rewiring is cheap).
MiterResult check_bounded_equivalence(
    const Netlist& design, const Netlist& transformed,
    const std::function<RestrictionResult(Netlist&)>& restrict_fn,
    const std::vector<GateProperty>& proven, const MiterOptions& opt = {});

}  // namespace pdat::validate
