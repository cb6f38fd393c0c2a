// Flat gate-level netlist.
//
// A Netlist is the central IR of the PDAT pipeline: cores elaborate into it,
// the property checker analyzes it, rewiring mutates it, and the optimizer
// (resynthesis) shrinks it. Nets are single-bit; buses exist only at the
// builder level (src/synth). There is a single implicit global clock.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "cell/cell_library.h"

namespace pdat {

struct Cell {
  CellKind kind = CellKind::Const0;
  std::array<NetId, 3> in = {kNoNet, kNoNet, kNoNet};
  NetId out = kNoNet;
  Tri init = Tri::F;   // power-on value; meaningful only for Dff
  bool dead = false;   // tombstone set by the optimizer
};

struct Port {
  std::string name;
  std::vector<NetId> bits;  // LSB first
};

class Netlist {
 public:
  // --- construction -------------------------------------------------------
  NetId new_net();
  std::vector<NetId> new_nets(std::size_t n);

  /// Adds a cell and returns the id of its (fresh) output net.
  NetId add_cell(CellKind kind, NetId a = kNoNet, NetId b = kNoNet, NetId c = kNoNet);
  /// Adds a cell driving an existing net (used by parsers and rewiring).
  CellId add_cell_driving(NetId out, CellKind kind, NetId a = kNoNet, NetId b = kNoNet,
                          NetId c = kNoNet);

  /// Tie cells are cached: repeated calls return the same net.
  NetId const0();
  NetId const1();
  NetId const_net(bool v) { return v ? const1() : const0(); }

  /// Declares a (multi-bit) primary input; returns its nets, LSB first.
  std::vector<NetId> add_input(const std::string& name, std::size_t width);
  /// Declares a (multi-bit) primary output over existing nets.
  void add_output(const std::string& name, const std::vector<NetId>& bits);

  /// Optional debug name for a net.
  void name_net(NetId net, const std::string& name);
  /// Drops all internal net names (obfuscation); port names survive.
  void clear_net_names() { net_names_.clear(); }
  /// Reverse name lookup (linear); kNoNet when absent. Names survive
  /// compact(), so this is how stable handles are re-resolved after
  /// optimization passes renumber nets.
  NetId find_net(const std::string& name) const;

  // --- access --------------------------------------------------------------
  std::size_t num_nets() const { return net_driver_.size(); }
  std::size_t num_cells_raw() const { return cells_.size(); }
  const Cell& cell(CellId id) const { return cells_[id]; }
  Cell& cell(CellId id) { return cells_[id]; }

  /// Driving cell of a net, or kNoCell for primary inputs / floating nets.
  CellId driver(NetId net) const { return net_driver_[net]; }

  const std::vector<Port>& inputs() const { return inputs_; }
  const std::vector<Port>& outputs() const { return outputs_; }
  /// Mutable port access for optimizer passes that retarget output bits.
  std::vector<Port>& outputs_mut() { return outputs_; }
  const Port* find_input(const std::string& name) const;
  const Port* find_output(const std::string& name) const;

  // --- mutation (rewiring / optimization) ----------------------------------
  /// Detaches `net` from its current driver (if any) and re-drives it with
  /// a fresh cell. The old driver keeps its inputs but its output is moved
  /// to a fresh dangling net (so resynthesis can sweep it). This is the
  /// paper's "rewiring" primitive: no cell is deleted here.
  void redrive_net(NetId net, CellKind kind, NetId a = kNoNet, NetId b = kNoNet,
                   NetId c = kNoNet);

  /// Detaches `net` from its driver without adding a new one: the old
  /// driver's output moves to a fresh dangling net, and `net` becomes free
  /// (cutpoint semantics, paper §V). Returns the dangling net, or kNoNet if
  /// `net` had no driver.
  NetId detach_driver(NetId net);

  /// Marks a cell dead and clears its driver entry. Used by the optimizer.
  void kill_cell(CellId id);

  // --- statistics ----------------------------------------------------------
  /// Number of live cells excluding tie cells (the paper's "gate count").
  std::size_t gate_count() const;
  /// Sum of live-cell areas in um^2.
  double area() const;
  std::size_t num_flops() const;
  /// Live cells per kind.
  std::array<std::size_t, kNumCellKinds> kind_histogram() const;

  /// All live cell ids.
  std::vector<CellId> live_cells() const;

  /// Compacts tombstoned cells and unused nets; preserves port structure.
  /// Returns old-net -> new-net mapping (kNoNet for dropped nets).
  std::vector<NetId> compact();

 private:
  std::vector<Cell> cells_;
  std::vector<CellId> net_driver_;
  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
  std::unordered_map<NetId, std::string> net_names_;
  NetId const0_ = kNoNet;
  NetId const1_ = kNoNet;
};

}  // namespace pdat
