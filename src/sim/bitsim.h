// 64-way bit-parallel two-valued netlist simulator.
//
// Each net carries a 64-bit word: bit i is the net's value in simulation
// slot i. One step() evaluates the combinational logic and clocks the flops.
// This is the workhorse behind candidate generation (constrained random
// simulation), counterexample filtering, and netlist co-simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/levelize.h"
#include "netlist/netlist.h"

namespace pdat {

class BitSim {
 public:
  explicit BitSim(const Netlist& nl);

  /// Resets all flops to their init values (X treated as 0) in every slot.
  void reset();

  /// Sets a primary-input net value for all 64 slots.
  void set_input(NetId net, std::uint64_t word);
  /// Convenience: drive a multi-bit port with the same value in all slots.
  void set_port_uniform(const Port& port, std::uint64_t value);
  /// Drive a multi-bit port (at most 64 bits) with a per-slot value
  /// (values[slot]).
  void set_port_per_slot(const Port& port, const std::uint64_t* values);

  /// Evaluates combinational logic with current inputs and flop states.
  void eval();
  /// Clocks the flops using already-evaluated values (call after eval()).
  void latch();
  /// eval() then latch().
  void step();

  std::uint64_t value(NetId net) const { return vals_[net]; }
  /// Reads a multi-bit port in one slot as an integer (LSB-first).
  std::uint64_t read_port(const Port& port, int slot) const;
  /// Reads a port (at most 64 bits) in every slot at once: values[slot]
  /// receives the slot's integer, as read_port would return it. One 64x64
  /// bit transpose instead of 64 read_port calls.
  void read_port_per_slot(const Port& port, std::uint64_t* values) const;

  /// Direct access to flop state (for loading formal counterexamples).
  void set_flop_state(CellId flop, std::uint64_t word);
  std::uint64_t flop_state(CellId flop) const;

  const Netlist& netlist() const { return nl_; }
  const Levelization& levels() const { return lv_; }

 private:
  const Netlist& nl_;
  Levelization lv_;
  std::vector<std::uint64_t> vals_;      // per net
  std::vector<std::uint64_t> flop_q_;    // per cell id (sparse; indexed by CellId)
};

}  // namespace pdat
