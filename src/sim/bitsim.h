// 64-way bit-parallel two-valued netlist simulator.
//
// Each net carries a 64-bit word: bit i is the net's value in simulation
// slot i. One step() evaluates the combinational logic and clocks the flops.
// This is the workhorse behind candidate generation (constrained random
// simulation), counterexample filtering, and netlist co-simulation.
//
// Construction compiles the levelized netlist into a tape: one {a, b, c,
// out} entry of net indices per combinational cell, sorted by (level, kind)
// and cut into runs of one kind, so that eval() runs one branch-free loop
// per run. A pin that is unconnected, or that the kind does not read, reads
// a constant-zero slot past the last net. Cells of one level never feed
// each other, so any order within a level computes the same values.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace pdat {

/// Transposes a 64x64 bit matrix in place: bit j of a[i] swaps with bit i
/// of a[j].
void transpose64(std::uint64_t* a);

class BitSim {
 public:
  /// A compiled, topologically ordered list of combinational cells: the
  /// whole netlist's (run by eval()) or the cone of cells fed by a set of
  /// source nets (from cone(), run by eval(const Cone&)).
  class Cone {
   public:
    /// Cells in the cone.
    std::size_t size() const { return cells_.size(); }

   private:
    friend class BitSim;
    struct Entry {
      NetId a, b, c, out;
    };
    struct Run {
      CellKind kind;
      std::uint32_t end;  // one past the run's last index into cells_
    };
    std::vector<Entry> cells_;  // sorted by (level, kind)
    std::vector<Run> runs_;

    void push(CellKind kind, const Entry& cell);
  };

  explicit BitSim(const Netlist& nl);

  /// Resets all flops to their init values (X treated as 0) in every slot.
  void reset();

  /// Sets a primary-input net value for all 64 slots.
  void set_input(NetId net, std::uint64_t word);
  /// Drives a port (at most 64 bits) with the same value in all slots.
  void set_port_uniform(const Port& port, std::uint64_t value);
  /// Drive a multi-bit port (at most 64 bits) with a per-slot value
  /// (values[slot]).
  void set_port_per_slot(const Port& port, const std::uint64_t* values);

  /// Evaluates combinational logic with current inputs and flop states.
  void eval();
  /// Re-evaluates only `cone`. After an eval(), when nothing but the
  /// cone's source nets changed, every net ends as a full eval() would
  /// leave it: a cell outside the cone reads only unchanged nets.
  void eval(const Cone& cone);
  /// The combinational cells that `sources` feed, directly or through
  /// other such cells. The sources are nets no cell drives (primary inputs
  /// or cut nets). Valid for any BitSim of the same netlist.
  Cone cone(const std::vector<NetId>& sources) const;
  /// Clocks the flops using already-evaluated values (call after eval()).
  void latch();
  /// eval() then latch().
  void step();

  std::uint64_t value(NetId net) const { return vals_[net]; }
  /// Reads a port (at most 64 bits) in one slot as an integer (LSB-first).
  std::uint64_t read_port(const Port& port, int slot) const;
  /// Reads a port (at most 64 bits) in every slot at once: values[slot]
  /// receives the slot's integer, as read_port would return it. One 64x64
  /// bit transpose instead of 64 read_port calls.
  void read_port_per_slot(const Port& port, std::uint64_t* values) const;

  /// Loads a flop's state (formal counterexamples).
  void set_flop_state(CellId flop, std::uint64_t word);

  const Netlist& netlist() const { return nl_; }
  const Levelization& levels() const { return lv_; }

 private:
  struct Flop {
    CellId cell;
    NetId d, q;
  };

  /// The kernel: evaluates one run of kind K.
  template <CellKind K>
  static void eval_run(const Cone::Entry* first, const Cone::Entry* last, std::uint64_t* vals);

  const Netlist& nl_;
  Levelization lv_;
  Cone tape_;                            // every live combinational cell
  std::vector<Flop> flops_;              // every live flop
  std::vector<std::uint64_t> vals_;      // per net, then the constant-zero slot
  std::vector<std::uint64_t> flop_q_;    // per cell id (sparse; indexed by CellId)
};

}  // namespace pdat
