// The Property Library (paper §IV.1, Listing 1).
//
// For every cell in the netlist this generates the gate-level invariant
// properties that, when proved under the environment restrictions, license
// a rewiring:
//   *_out_ZN_0 / *_out_ZN_1 : the output is constant          -> tie cell
//   and_in_A1_A2 (etc.)     : one input implies the other     -> forward an
//                             input (possibly inverted) to the output net
// Implication properties are generated for the 2-input AND/OR/NAND/NOR
// cells, in both directions, exactly like the and2_properties module in the
// paper's listing.
#pragma once

#include <vector>

#include "formal/property.h"
#include "netlist/netlist.h"

namespace pdat {

struct PropertyLibraryOptions {
  bool const_props = true;
  bool implication_props = true;
  /// Extension beyond the paper's library: signal-correspondence (net
  /// equivalence) properties generated from simulation signatures. Off by
  /// default so the reproduction benches measure the paper's library.
  bool equivalence_props = false;
};

/// Annotates the netlist: one property set per live cell (paper §IV.2)
/// whose output net id is below `design_nets`. On an analysis copy those
/// are the nets of the design it was copied from, so constraint logic and
/// the dangling old output of a cut net get no candidates: a proved
/// property must name a net the design has.
std::vector<GateProperty> annotate_netlist(const Netlist& nl, std::size_t design_nets,
                                           const PropertyLibraryOptions& opt = {});

}  // namespace pdat
