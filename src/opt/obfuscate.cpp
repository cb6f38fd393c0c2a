#include "opt/obfuscate.h"

#include "base/rng.h"
#include "netlist/levelize.h"

namespace pdat::opt {
namespace {

// Replaces the driver of `out` (cell `id`) with a small gate network that
// computes the same function from the same inputs.
void decompose(Netlist& nl, CellId id, Rng& rng) {
  const Cell c = nl.cell(id);
  const NetId a = c.in[0], b = c.in[1], s = c.in[2];
  const NetId out = c.out;
  nl.kill_cell(id);
  auto finish = [&](CellKind kind, NetId x, NetId y = kNoNet, NetId z = kNoNet) {
    nl.add_cell_driving(out, kind, x, y, z);
  };
  switch (c.kind) {
    case CellKind::And2: finish(CellKind::Inv, nl.add_cell(CellKind::Nand2, a, b)); break;
    case CellKind::Or2: finish(CellKind::Inv, nl.add_cell(CellKind::Nor2, a, b)); break;
    case CellKind::Xor2: {
      const NetId nab = nl.add_cell(CellKind::Nand2, a, b);
      const NetId l = nl.add_cell(CellKind::Nand2, a, nab);
      const NetId r = nl.add_cell(CellKind::Nand2, b, nab);
      finish(CellKind::Nand2, l, r);
      break;
    }
    case CellKind::Xnor2: {
      const NetId nab = nl.add_cell(CellKind::Nand2, a, b);
      const NetId l = nl.add_cell(CellKind::Nand2, a, nab);
      const NetId r = nl.add_cell(CellKind::Nand2, b, nab);
      finish(CellKind::Inv, nl.add_cell(CellKind::Nand2, l, r));
      break;
    }
    case CellKind::And3: {
      const NetId ab = nl.add_cell(CellKind::Inv, nl.add_cell(CellKind::Nand2, a, b));
      finish(CellKind::Inv, nl.add_cell(CellKind::Nand2, ab, s));
      break;
    }
    case CellKind::Or3: {
      const NetId ab = nl.add_cell(CellKind::Inv, nl.add_cell(CellKind::Nor2, a, b));
      finish(CellKind::Inv, nl.add_cell(CellKind::Nor2, ab, s));
      break;
    }
    case CellKind::Nand3: {
      const NetId ab = nl.add_cell(CellKind::Inv, nl.add_cell(CellKind::Nand2, a, b));
      finish(CellKind::Nand2, ab, s);
      break;
    }
    case CellKind::Nor3: {
      const NetId ab = nl.add_cell(CellKind::Inv, nl.add_cell(CellKind::Nor2, a, b));
      finish(CellKind::Nor2, ab, s);
      break;
    }
    case CellKind::Aoi21: {
      const NetId ab = nl.add_cell(CellKind::And2, a, b);
      finish(CellKind::Nor2, ab, s);
      break;
    }
    case CellKind::Oai21: {
      const NetId ab = nl.add_cell(CellKind::Or2, a, b);
      finish(CellKind::Nand2, ab, s);
      break;
    }
    case CellKind::Mux2: {
      const NetId ns = nl.add_cell(CellKind::Inv, s);
      const NetId l = nl.add_cell(CellKind::And2, a, ns);
      const NetId r = nl.add_cell(CellKind::And2, b, s);
      finish(CellKind::Or2, l, r);
      break;
    }
    default:
      // Inv/Buf/Dff/const: put the cell back unchanged.
      nl.add_cell_driving(out, c.kind, a, b, s);
      nl.cell(nl.driver(out)).init = c.init;
      break;
  }
  (void)rng;
}

/// Builds an opaque always-0 net from an arbitrary existing net.
NetId opaque_zero(Netlist& nl, NetId seed_net, Rng& rng) {
  switch (rng.below(3)) {
    case 0: return nl.add_cell(CellKind::Xor2, seed_net, seed_net);
    case 1: {
      const NetId inv = nl.add_cell(CellKind::Inv, seed_net);
      return nl.add_cell(CellKind::And2, seed_net, inv);
    }
    default: {
      const NetId inv = nl.add_cell(CellKind::Inv, seed_net);
      return nl.add_cell(CellKind::Inv, nl.add_cell(CellKind::Nand2, seed_net, inv));
    }
  }
}

}  // namespace

void obfuscate(Netlist& nl, std::uint64_t seed) {
  // Per-cell chances, out of 256: split AND/OR/XOR into NAND/NOR/INV,
  // insert a double inverter on a net, wrap a gate output in a mux camo.
  constexpr unsigned kDecomposeChance = 40, kInvPairChance = 8, kCamoChance = 4;
  Rng rng(seed);
  nl.clear_net_names();

  // Pass 1: gate decomposition.
  for (CellId id : nl.live_cells()) {
    const CellKind k = nl.cell(id).kind;
    if (k == CellKind::Dff || cell_is_const(k) || k == CellKind::Inv || k == CellKind::Buf)
      continue;
    if (rng.chance(kDecomposeChance)) decompose(nl, id, rng);
  }

  // Pass 2: inverter-pair insertion. Snapshot cells first so the new
  // inverters are not rewritten onto themselves.
  {
    const std::vector<CellId> snapshot = nl.live_cells();
    std::vector<std::pair<NetId, NetId>> pairs;  // (original, doubly-inverted)
    for (CellId id : snapshot) {
      const Cell& c = nl.cell(id);
      if (c.kind == CellKind::Dff || cell_is_const(c.kind)) continue;
      if (!rng.chance(kInvPairChance)) continue;
      const NetId n = c.out;
      const NetId i2 = nl.add_cell(CellKind::Inv, nl.add_cell(CellKind::Inv, n));
      pairs.emplace_back(n, i2);
    }
    for (CellId id : snapshot) {
      Cell& c = nl.cell(id);
      if (c.dead) continue;
      const int ni = cell_num_inputs(c.kind);
      for (const auto& [from, to] : pairs) {
        for (int i = 0; i < ni; ++i) {
          if (c.in[static_cast<std::size_t>(i)] == from) c.in[static_cast<std::size_t>(i)] = to;
        }
      }
    }
  }

  // Pass 3: mux camouflage on random gate outputs. The decoy branch must
  // not depend on the camouflaged net, or a combinational cycle appears;
  // restricting decoys to nets at a lower-or-equal logic level guarantees
  // they are not in the fanout cone.
  {
    const Levelization lv = levelize(nl);
    const std::vector<CellId> snapshot = nl.live_cells();
    for (CellId id : snapshot) {
      const Cell& c = nl.cell(id);
      if (c.dead || c.kind == CellKind::Dff || cell_is_const(c.kind)) continue;
      if (!rng.chance(kCamoChance)) continue;
      const NetId out = c.out;
      const int out_level = lv.net_level[out];
      NetId decoy = kNoNet;
      for (int tries = 0; tries < 8 && decoy == kNoNet; ++tries) {
        const Cell& dc = nl.cell(snapshot[rng.below(snapshot.size())]);
        if (dc.dead) continue;
        const NetId cand = dc.out;
        if (cand == out) continue;
        // Strictly lower level: rules out mutual-decoy cycles between nets
        // camouflaged at the same level.
        if (cand < lv.net_level.size() && lv.net_level[cand] < out_level) decoy = cand;
      }
      const NetId moved = nl.detach_driver(out);
      if (decoy == kNoNet) decoy = moved;
      const NetId sel = opaque_zero(nl, moved, rng);
      nl.add_cell_driving(out, CellKind::Mux2, moved, decoy, sel);
    }
  }
}

}  // namespace pdat::opt
