// Topological ordering of the combinational portion of a netlist.
//
// DFF outputs, primary inputs, unconnected pins (kNoNet), and tie cells are
// sources. The returned order lists every live combinational cell such that
// each cell appears after all cells driving its inputs. Combinational cycles
// are reported as errors.
#pragma once

#include <vector>

#include "netlist/netlist.h"

namespace pdat {

struct Levelization {
  /// Live combinational cells in topological order (tie cells first).
  std::vector<CellId> comb_order;
  /// Live Dff cells (any order).
  std::vector<CellId> flops;
  /// Level (longest path from a source) per net; 0 for sources.
  std::vector<int> net_level;
  int max_level = 0;
};

/// Throws PdatError on a combinational cycle.
Levelization levelize(const Netlist& nl);

}  // namespace pdat
