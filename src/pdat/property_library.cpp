#include "pdat/property_library.h"

namespace pdat {
namespace {

GateProperty make_const(PropKind kind, NetId net, CellId cell) {
  GateProperty p;
  p.kind = kind;
  p.target = net;
  p.cell = cell;
  return p;
}

/// a -> b on a 2-input cell: when proved, the cell's output equals a single
/// input (possibly inverted):
///   AND : A1->A2  =>  ZN = A1          (forward the antecedent)
///   OR  : A1->A2  =>  ZN = A2          (forward the consequent)
///   NAND: A1->A2  =>  ZN = ~A1
///   NOR : A1->A2  =>  ZN = ~A2
GateProperty make_impl(const Cell& c, CellId id, int antecedent) {
  GateProperty p;
  p.kind = PropKind::Implies;
  p.cell = id;
  p.a = c.in[static_cast<std::size_t>(antecedent)];
  p.b = c.in[static_cast<std::size_t>(1 - antecedent)];
  switch (c.kind) {
    case CellKind::And2:
      p.rewire_to_input = antecedent;
      p.rewire_inverted = false;
      break;
    case CellKind::Or2:
      p.rewire_to_input = 1 - antecedent;
      p.rewire_inverted = false;
      break;
    case CellKind::Nand2:
      p.rewire_to_input = antecedent;
      p.rewire_inverted = true;
      break;
    case CellKind::Nor2:
      p.rewire_to_input = 1 - antecedent;
      p.rewire_inverted = true;
      break;
    default:
      throw PdatError("make_impl: unsupported cell kind");
  }
  return p;
}

}  // namespace

std::vector<GateProperty> annotate_netlist(const Netlist& nl, std::size_t design_nets,
                                           const PropertyLibraryOptions& opt) {
  std::vector<GateProperty> props;
  for (CellId id : nl.live_cells()) {
    const Cell& c = nl.cell(id);
    if (cell_is_const(c.kind) || c.out >= design_nets) continue;
    if (opt.const_props) {
      props.push_back(make_const(PropKind::Const0, c.out, id));
      props.push_back(make_const(PropKind::Const1, c.out, id));
    }
    if (opt.implication_props) {
      switch (c.kind) {
        case CellKind::And2:
        case CellKind::Or2:
        case CellKind::Nand2:
        case CellKind::Nor2:
          if (c.in[0] != c.in[1]) {
            props.push_back(make_impl(c, id, 0));
            props.push_back(make_impl(c, id, 1));
          }
          break;
        default:
          break;
      }
    }
  }
  return props;
}

}  // namespace pdat
