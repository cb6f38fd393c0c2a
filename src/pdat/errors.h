// Structured pipeline errors and stage identities.
//
// Every error a stage raises stops run_pdat with a StageError that names
// the stage: configuration errors (vacuous environment, malformed
// restriction circuit, bad resume journal), the cooperative interrupt,
// failed certificates, journal write failures and any internal failure.
// A validator that rejects the reduced core is not an error: the core is
// reverted and the rejection listed in PdatResult::degradations.
#pragma once

#include <cstdio>
#include <string>

#include "base/types.h"

namespace pdat {

enum class PdatStage {
  Restrict = 0,   // restrict_fn + analysis-netlist well-formedness check
  EnvCheck,       // environment satisfiability (vacuity) check
  Annotate,       // property-library annotation + equivalence candidates
  SimFilter,      // constrained-random candidate filtering
  Induction,      // temporal-induction proof
  Rewire,         // netlist rewiring
  Resynthesis,    // logic resynthesis
  Validate,       // post-transform validation (miter / lockstep / fuzz)
};
inline constexpr std::size_t kNumPdatStages = 8;

inline const char* stage_name(PdatStage s) {
  switch (s) {
    case PdatStage::Restrict: return "restrict";
    case PdatStage::EnvCheck: return "env-check";
    case PdatStage::Annotate: return "annotate";
    case PdatStage::SimFilter: return "sim-filter";
    case PdatStage::Induction: return "induction";
    case PdatStage::Rewire: return "rewire";
    case PdatStage::Resynthesis: return "resynthesis";
    case PdatStage::Validate: return "validate";
  }
  return "?";
}

/// A pipeline stage failed. `what()` carries the stage name and, when the
/// caller supplies it, the pipeline time at which the stage failed — so a
/// failed run is diagnosable from the error message alone.
class StageError : public PdatError {
 public:
  StageError(PdatStage stage, const std::string& what, double elapsed_seconds = -1)
      : PdatError(format(stage, what, elapsed_seconds)),
        stage_(stage),
        elapsed_(elapsed_seconds) {}
  PdatStage stage() const { return stage_; }
  /// Pipeline wall clock when the stage failed; < 0 when not recorded.
  double elapsed_seconds() const { return elapsed_; }

 private:
  static std::string format(PdatStage stage, const std::string& what, double elapsed_seconds) {
    std::string msg = std::string("PDAT[") + stage_name(stage);
    if (elapsed_seconds >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " @%.2fs", elapsed_seconds);
      msg += buf;
    }
    msg += "]: ";
    msg += what;
    return msg;
  }

  PdatStage stage_;
  double elapsed_ = -1;
};

}  // namespace pdat
