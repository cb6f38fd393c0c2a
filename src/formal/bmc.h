// Bounded model checking over netlist unrollings.
//
// Used to validate the induction engine (a proved invariant must never have
// a bounded counterexample), to sanity-check that an environment is
// satisfiable (a vacuous environment would "prove" everything), and in tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "formal/environment.h"
#include "formal/property.h"
#include "netlist/netlist.h"

namespace pdat {

struct BmcResult {
  bool violated = false;       // a counterexample exists within the bound
  int violation_frame = -1;
  bool inconclusive = false;   // conflict budget exhausted
};

/// Checks a single property over frames 0..depth-1 from the initial state,
/// with the environment assumed at every frame. Frames whose query exhausts
/// `conflict_budget` are reported as inconclusive, never as "no
/// counterexample". `certify` (DESIGN.md §5.10) DRAT-checks every per-frame
/// SAT verdict with the independent checker before reporting it; a failed
/// check raises CertificationError.
BmcResult bmc_check(const Netlist& nl, const Environment& env, const GateProperty& prop,
                    int depth, std::int64_t conflict_budget = -1, bool certify = false);

/// True iff there exists an allowed execution of length `depth` from the
/// initial state (i.e. the environment is non-vacuous up to the bound).
bool env_satisfiable(const Netlist& nl, const Environment& env, int depth);

}  // namespace pdat
