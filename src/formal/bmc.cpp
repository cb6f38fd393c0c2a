#include "formal/bmc.h"

#include <optional>

#include "formal/cnf_encoder.h"
#include "sat/dratcheck.h"
#include "trace/trace.h"

namespace pdat {

using sat::Lit;
using sat::SolveResult;

BmcResult bmc_check(const Netlist& nl, const Environment& env, const GateProperty& prop,
                    int depth, std::int64_t conflict_budget, bool certify) {
  trace::Span span("bmc.check", {"depth", depth});
  trace::add(trace::Counter::BmcChecks, 1);
  const FrameEncoder enc(nl);
  BmcResult res;
  sat::Solver s;
  // The session must exist before the first clause so the certificate
  // covers the whole unrolling (a fresh solver has nothing to snapshot).
  std::optional<sat::CertifySession> cert;
  if (certify) cert.emplace(s);
  const std::vector<Frame> frames = enc.unroll(s, depth, /*from_reset=*/true, env.assumes);
  for (int t = 0; t < depth; ++t) {
    const std::vector<Lit> assumptions{
        make_violation_aux(s, prop, frames[static_cast<std::size_t>(t)])};
    const SolveResult r = s.solve(assumptions, conflict_budget);
    if (cert.has_value()) cert->check(r, assumptions, "bmc");
    trace::add(trace::Counter::BmcFramesSolved, 1);
    if (r == SolveResult::Sat) {
      res.violated = true;
      res.violation_frame = t;
      trace::add(trace::Counter::BmcViolations, 1);
      span.arg("violation_frame", t);
      return res;
    }
    if (r == SolveResult::Unknown) res.inconclusive = true;
  }
  return res;
}

// Deliberately uncertified even in --certify runs: a wrong Unsat here aborts
// the whole run (fail-safe), and a wrong Sat merely skips the vacuity veto —
// neither can remove a gate. See DESIGN.md §5.10.
bool env_satisfiable(const Netlist& nl, const Environment& env, int depth) {
  trace::Span span("bmc.env_check", {"depth", depth});
  FrameEncoder enc(nl);
  sat::Solver s;
  enc.unroll(s, depth, /*from_reset=*/true, env.assumes);
  return s.solve({}) == SolveResult::Sat;
}

}  // namespace pdat
