#include "validate/validate.h"

#include <chrono>

#include "base/log.h"

namespace pdat::validate {

ValidationReport run_validation(const Netlist& design, const Netlist& transformed,
                                const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                                const std::vector<GateProperty>& proven,
                                const ValidationOptions& opt) {
  ValidationReport rep;
  const auto t0 = std::chrono::steady_clock::now();

  const MiterResult m = check_bounded_equivalence(design, transformed, restrict_fn, proven,
                                                  opt.miter);
  rep.miter = m.verdict;
  rep.miter_detail = m.detail;
  if (m.verdict == Verdict::Fail) {
    log_warn() << "validation: miter FAIL: " << m.detail;
  }

  if (opt.lockstep) {
    const std::string mismatch = opt.lockstep(transformed);
    rep.lockstep = mismatch.empty() ? Verdict::Pass : Verdict::Fail;
    rep.lockstep_detail = mismatch;
    if (!mismatch.empty()) log_warn() << "validation: lockstep FAIL: " << mismatch;
  }

  rep.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return rep;
}

std::string ValidationReport::summary() const {
  std::string s = "miter ";
  s += verdict_name(miter);
  if (miter == Verdict::Fail) s += " (" + miter_detail + ")";
  s += ", lockstep ";
  s += verdict_name(lockstep);
  if (lockstep == Verdict::Fail) s += " (" + lockstep_detail + ")";
  return s;
}

}  // namespace pdat::validate
