// Shared pieces of the testbenches (ibex_tb, cm0_tb, ride_tb).
//
// A lane-packed testbench (ibex_tb, cm0_tb) runs up to 64 programs at once,
// one per BitSim slot ("lane"). Lanes never interact: every cell evaluates
// bitwise, and each lane has its own memory (a lane of a util::PagedMemory)
// and architectural state, so a lane's results are exactly those of running
// its program alone.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "netlist/netlist.h"
#include "sim/bitsim.h"
#include "util/paged_memory.h"

namespace pdat::cores {

/// Calls f(lane) for every lane in `mask`, lowest first.
template <class F>
void for_each_lane(std::uint64_t mask, F f) {
  for (; mask != 0; mask &= mask - 1) f(static_cast<unsigned>(std::countr_zero(mask)));
}

/// Mask of the slots in which `port` is non-zero.
inline std::uint64_t lanes_nonzero(const BitSim& sim, const Port& port) {
  std::uint64_t m = 0;
  for (const NetId n : port.bits) m |= sim.value(n);
  return m;
}

/// The cone of a testbench's memory-data inputs: everything a cycle must
/// re-evaluate after serving the words the first evaluation asked for.
inline BitSim::Cone memory_cone(const BitSim& sim, std::initializer_list<const Port*> ports) {
  std::vector<NetId> sources;
  for (const Port* p : ports) sources.insert(sources.end(), p->bits.begin(), p->bits.end());
  return sim.cone(sources);
}

}  // namespace pdat::cores
