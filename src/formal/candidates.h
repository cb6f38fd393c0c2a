// Simulation-based candidate filtering.
//
// Constrained random simulation (the cheap half of the property checker):
// any gate property violated on a simulated allowed execution cannot be an
// invariant, so it is dropped before the expensive SAT phase. 64 simulation
// slots run in parallel per cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "formal/environment.h"
#include "formal/property.h"
#include "netlist/netlist.h"

namespace pdat {

/// True iff every environment assume-net is 1 in all 64 slots of the
/// current cycle, i.e. the cycle is an allowed execution in every slot.
inline bool assumes_hold(const BitSim& sim, const Environment& env) {
  for (NetId a : env.assumes) {
    if (sim.value(a) != ~0ULL) return false;
  }
  return true;
}

/// True iff `p` is violated in at least one of the 64 simulation slots.
inline bool violated_in_sim(const BitSim& sim, const GateProperty& p) {
  switch (p.kind) {
    case PropKind::Const0: return sim.value(p.target) != 0;
    case PropKind::Const1: return ~sim.value(p.target) != 0;
    case PropKind::Implies: return (sim.value(p.a) & ~sim.value(p.b)) != 0;
    case PropKind::Equiv: return (sim.value(p.a) ^ sim.value(p.b)) != 0;
  }
  return false;
}

struct SimFilterOptions {
  int cycles = 512;     // cycles per restart
  int restarts = 4;     // independent reset/run repetitions
  std::uint64_t seed = 0x5eed;
};

struct SimFilterResult {
  std::vector<GateProperty> survivors;
  std::size_t dropped = 0;
  /// Cycles in which some environment assume-net evaluated 0 in some slot;
  /// nonzero indicates an imprecise stimulus driver (harmless but noisy).
  std::size_t assume_violation_cycles = 0;
};

SimFilterResult sim_filter(const Netlist& nl, const Environment& env,
                           std::vector<GateProperty> candidates, const SimFilterOptions& opt);

/// Signal-correspondence candidate generation (van Eijk): nets that carry
/// identical values throughout a constrained-random simulation are grouped
/// by signature; each non-representative member yields an Equiv candidate
/// against the class representative. Representatives are chosen at minimal
/// logic level, which guarantees that replacing members by representatives
/// can never create a combinational cycle (every new consumer edge points
/// to a strictly lower original level). Only cell outputs with a net id
/// below `design_nets` take part: on an analysis copy those are the nets of
/// the design it was copied from, so constraint logic and the dangling old
/// output of a cut net never become candidates.
std::vector<GateProperty> equivalence_candidates(const Netlist& nl, const Environment& env,
                                                 std::size_t design_nets,
                                                 const SimFilterOptions& opt);

}  // namespace pdat
