// Structured pipeline errors and stage identities.
//
// run_pdat reports failures through PdatError subclasses that carry the
// failing stage: configuration errors (vacuous environment, malformed
// restriction circuit), the cooperative interrupt, failed certificates and,
// under ValidationOptions::fail_hard, validation vetoes. Every other stage
// failure degrades to a sound partial result (PdatResult::degradations)
// instead of throwing.
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
  Validate,       // post-transform validation (miter / lockstep)
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
/// degradation is diagnosable from the log line alone.
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

/// The environment restriction is unusable (vacuous / malformed).
class EnvironmentError : public StageError {
 public:
  explicit EnvironmentError(const std::string& what)
      : StageError(PdatStage::EnvCheck, what) {}
};

/// Post-transform validation rejected the transformed netlist
/// (only thrown when ValidationOptions::fail_hard is set).
class ValidationError : public StageError {
 public:
  explicit ValidationError(const std::string& what)
      : StageError(PdatStage::Validate, what) {}
};

}  // namespace pdat
