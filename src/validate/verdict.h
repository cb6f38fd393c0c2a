// Shared verdict type for the post-transform validation safety net.
#pragma once

namespace pdat::validate {

enum class Verdict {
  Pass,          // check ran and found no discrepancy
  Fail,          // check found a concrete unsoundness witness
  Inconclusive,  // conflict budget exhausted before a verdict
  Skipped,       // check was not requested / not applicable
};

inline const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Pass: return "pass";
    case Verdict::Fail: return "FAIL";
    case Verdict::Inconclusive: return "inconclusive";
    case Verdict::Skipped: return "skipped";
  }
  return "?";
}

}  // namespace pdat::validate
