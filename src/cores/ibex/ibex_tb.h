// Gate-level testbench for the Ibex-like core: drives a netlist through
// BitSim with a combinational unified memory, collects the architectural
// trace (register writebacks, memory writes), and compares against the ISS
// golden model. Used by tests, examples, the fuzz oracle, and the
// end-to-end equivalence checks of reduced cores.
//
// The testbench is lane-packed: it runs a pack of up to 64 programs at
// once, one per BitSim slot ("lane"). Every lane has its own memory (a
// lane of a util::PagedMemory), trace, pending-store state and halt flag,
// and a lane's results are exactly those of running its program alone. A
// single-program run is a pack of one; the per-lane accessors default to
// lane 0.
//
// A cycle evaluates the core twice: once in full to learn the fetch and
// data addresses, and once more, only over the cone of the memory-data
// inputs, after serving every lane its words.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cores/lane_pack.h"
#include "iss/rv32_iss.h"
#include "netlist/netlist.h"
#include "sim/bitsim.h"

namespace pdat::cores {

class IbexTestbench {
 public:
  static constexpr unsigned kMaxLanes = 64;  // one program per BitSim slot

  /// The netlist must expose the Ibex port list (see ibex_core.cpp).
  explicit IbexTestbench(const Netlist& nl);

  /// Starts a pack of `lanes` programs (1..kMaxLanes): resets the core in
  /// every slot and empties every lane's memory and trace. Load the
  /// programs afterwards.
  void reset(unsigned lanes = 1);
  void load_words(std::uint32_t addr, const std::vector<std::uint32_t>& words,
                  unsigned lane = 0);

  /// Runs one clock cycle of every lane that has not halted yet. Returns the
  /// mask of lanes that ran (a lane runs in its halting cycle, too).
  std::uint64_t cycle();

  /// Runs until every lane halted or the cycle limit; returns the cycles
  /// executed (the longest lane's).
  std::uint64_t run(std::uint64_t max_cycles);

  /// Mask of the pack's lanes that have not halted.
  std::uint64_t running() const { return running_; }
  bool halted(unsigned lane = 0) const { return ((running_ >> lane) & 1) == 0; }
  const std::vector<iss::Rv32Iss::TraceEntry>& trace(unsigned lane = 0) const {
    return lanes_[lane].trace;
  }
  std::uint64_t retired(unsigned lane = 0) const { return lanes_[lane].retired; }
  /// Cycles the lane ran, its halting cycle included.
  std::uint64_t cycles(unsigned lane = 0) const { return lanes_[lane].cycles; }
  const BitSim& sim() const { return sim_; }  // gate toggle coverage source

 private:
  struct Lane {
    std::vector<iss::Rv32Iss::TraceEntry> trace;
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    // First half of an in-flight word-boundary-crossing store.
    std::uint32_t pending_store_addr = 0;
    unsigned pending_store_count = 0;
  };

  const Netlist& nl_;
  BitSim sim_;
  BitSim::Cone mem_cone_;  // re-evaluated once the memory words are served
  util::PagedMemory mem_{kMaxLanes};
  std::array<Lane, kMaxLanes> lanes_;
  std::uint64_t running_ = 0;

  const Port* in_imem_;
  const Port* in_dmem_;
  const Port* out_imem_addr_;
  const Port* out_dmem_addr_;
  const Port* out_dmem_wdata_;
  const Port* out_dmem_be_;
  const Port* out_dmem_re_;
  const Port* out_dmem_we_;
  const Port* out_retire_;
  const Port* out_retire_pc_;
  const Port* out_rd_we_;
  const Port* out_rd_addr_;
  const Port* out_rd_wdata_;
  const Port* out_halted_;
};

/// Runs the same program on the netlist and the ISS and compares the
/// full architectural traces. Returns an empty string on success or a
/// human-readable mismatch description.
std::string cosim_against_iss(const Netlist& nl, const std::vector<std::uint32_t>& program,
                              std::uint64_t max_cycles = 200000);

}  // namespace pdat::cores
