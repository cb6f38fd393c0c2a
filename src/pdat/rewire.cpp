#include "pdat/rewire.h"

#include <unordered_set>

#include "opt/opt_common.h"

namespace pdat {

RewireStats apply_rewiring(Netlist& nl, const std::vector<GateProperty>& proven) {
  RewireStats st;
  std::unordered_set<NetId> rewired_nets;
  std::unordered_set<CellId> rewired_cells;
  // Every use redirection, applied in one sweep after pass 2. Chasing sends
  // the uses of an equivalence whose representative became a tie to the tie.
  opt::ReplMap repl(nl.num_nets());

  // Pass 1: constants (they subsume any implication on the same cell).
  for (const auto& p : proven) {
    if (!p.rewireable) {
      ++st.strengthen_only;
      continue;
    }
    if (p.kind != PropKind::Const0 && p.kind != PropKind::Const1) continue;
    if (!rewired_nets.insert(p.target).second) {
      ++st.skipped_conflicts;
      continue;
    }
    // Make sure the tie nets exist before detaching (const0() adds a cell).
    const NetId tie = p.kind == PropKind::Const0 ? nl.const0() : nl.const1();
    const CellId drv = nl.driver(p.target);
    if (drv != kNoCell) rewired_cells.insert(drv);
    nl.detach_driver(p.target);
    repl.set(p.target, tie);
    ++st.const_rewires;
  }

  // Pass 1b: equivalences (extension library). Every use of the deeper net
  // is redirected to the class representative; acyclicity is guaranteed by
  // the representative's strictly lower original logic level (see
  // equivalence_candidates).
  for (const auto& p : proven) {
    if (!p.rewireable || p.kind != PropKind::Equiv) continue;
    if (!rewired_nets.insert(p.b).second) {
      ++st.skipped_conflicts;
      continue;
    }
    repl.set(p.b, p.a);
    if (p.cell != kNoCell) rewired_cells.insert(p.cell);
    ++st.equiv_rewires;
  }

  // Pass 2: implications.
  for (const auto& p : proven) {
    if (!p.rewireable) continue;
    if (p.kind != PropKind::Implies || p.cell == kNoCell || p.rewire_to_input < 0) continue;
    const Cell& c = nl.cell(p.cell);
    if (c.dead || !rewired_cells.insert(p.cell).second) {
      ++st.skipped_conflicts;
      continue;
    }
    const NetId out = c.out;
    if (!rewired_nets.insert(out).second) {
      ++st.skipped_conflicts;
      continue;
    }
    const NetId src = c.in[static_cast<std::size_t>(p.rewire_to_input)];
    nl.redrive_net(out, p.rewire_inverted ? CellKind::Inv : CellKind::Buf, src);
    ++st.impl_rewires;
  }
  repl.grow(nl.num_nets());  // tie, dangling and re-driven nets added above
  opt::apply_replacements(nl, repl);
  return st;
}

}  // namespace pdat
