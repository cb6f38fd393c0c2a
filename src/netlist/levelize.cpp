#include "netlist/levelize.h"

#include <algorithm>

namespace pdat {

Levelization levelize(const Netlist& nl) {
  Levelization out;
  out.net_level.assign(nl.num_nets(), 0);

  // Kahn's algorithm over combinational cells.
  const std::vector<CellId> live = nl.live_cells();
  std::vector<int> pending(nl.num_cells_raw(), 0);  // unresolved inputs per cell
  std::vector<std::vector<CellId>> fanout(nl.num_nets());

  std::vector<CellId> ready;
  for (CellId id : live) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::Dff) {
      out.flops.push_back(id);
      continue;
    }
    int unresolved = 0;
    const int n = cell_num_inputs(c.kind);
    for (int i = 0; i < n; ++i) {
      const NetId in = c.in[static_cast<std::size_t>(i)];
      if (in == kNoNet) continue;  // an unconnected pin is a source
      const CellId drv = nl.driver(in);
      if (drv != kNoCell && !nl.cell(drv).dead && nl.cell(drv).kind != CellKind::Dff) {
        ++unresolved;
        fanout[in].push_back(id);
      }
    }
    pending[id] = unresolved;
    if (unresolved == 0) ready.push_back(id);
  }

  std::size_t head = 0;
  std::vector<CellId>& order = out.comb_order;
  order = std::move(ready);
  while (head < order.size()) {
    const CellId id = order[head++];
    const Cell& c = nl.cell(id);
    int lvl = 0;
    const int n = cell_num_inputs(c.kind);
    for (int i = 0; i < n; ++i) {
      const NetId in = c.in[static_cast<std::size_t>(i)];
      if (in != kNoNet) lvl = std::max(lvl, out.net_level[in]);
    }
    out.net_level[c.out] = lvl + 1;
    out.max_level = std::max(out.max_level, lvl + 1);
    for (CellId user : fanout[c.out]) {
      if (--pending[user] == 0) order.push_back(user);
    }
  }

  std::size_t comb_count = 0;
  for (CellId id : live) {
    if (nl.cell(id).kind != CellKind::Dff) ++comb_count;
  }
  if (order.size() != comb_count) throw PdatError("combinational cycle in netlist");
  return out;
}

}  // namespace pdat
