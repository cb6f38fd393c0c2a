// Post-transform validation orchestrator: glues the bounded equivalence
// miter and the lockstep co-simulation into a single report. The PDAT
// pipeline reverts the reduced core when either verdict is Fail.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "formal/property.h"
#include "netlist/netlist.h"
#include "pdat/restrictions.h"
#include "validate/lockstep.h"
#include "validate/miter.h"
#include "validate/verdict.h"

namespace pdat::validate {

struct ValidationOptions {
  /// Master switch; when false run_pdat skips validation entirely.
  bool enabled = false;
  MiterOptions miter;
  /// Optional dynamic validator (e.g. rv32_lockstep_fn()); empty = skipped.
  LockstepFn lockstep;
};

struct ValidationReport {
  Verdict miter = Verdict::Skipped;
  std::string miter_detail;
  Verdict lockstep = Verdict::Skipped;
  std::string lockstep_detail;
  double seconds = 0;

  std::string summary() const;
};

/// Runs the enabled validators against a finished transform.
ValidationReport run_validation(const Netlist& design, const Netlist& transformed,
                                const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                                const std::vector<GateProperty>& proven,
                                const ValidationOptions& opt);

}  // namespace pdat::validate
