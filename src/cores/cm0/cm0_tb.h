// Gate-level testbench for the Cortex-M0-like core, with architectural
// effect capture (register-write and memory-write streams) for lockstep
// validation against ThumbIss.
//
// The testbench is lane-packed: it runs a pack of up to 64 programs at
// once, one per BitSim slot ("lane"). Every lane has its own memory (a
// lane of a util::PagedMemory), write streams, final flags and halt flag,
// and a lane's results are exactly those of running its program alone. A
// single-program run is a pack of one; the per-lane accessors default to
// lane 0.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cores/lane_pack.h"
#include "iss/thumb_iss.h"
#include "netlist/netlist.h"
#include "sim/bitsim.h"

namespace pdat::cores {

class Cm0Testbench {
 public:
  static constexpr unsigned kMaxLanes = 64;  // one program per BitSim slot

  explicit Cm0Testbench(const Netlist& nl);

  /// Starts a pack of `lanes` programs (1..kMaxLanes): resets the core in
  /// every slot and empties every lane's memory and write streams. Load the
  /// programs afterwards.
  void reset(unsigned lanes = 1);
  void load_halfwords(std::uint32_t addr, const std::vector<std::uint16_t>& halves,
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
  const std::vector<iss::ThumbIss::RegWrite>& reg_writes(unsigned lane = 0) const {
    return lanes_[lane].reg_writes;
  }
  const std::vector<iss::ThumbIss::MemWrite>& mem_writes(unsigned lane = 0) const {
    return lanes_[lane].mem_writes;
  }
  /// NZCV packed as bits 3..0: as the lane halted, or now if it still runs.
  unsigned final_flags(unsigned lane = 0) const;
  /// Cycles the lane ran, its halting cycle included.
  std::uint64_t cycles(unsigned lane = 0) const { return lanes_[lane].cycles; }
  const BitSim& sim() const { return sim_; }  // gate toggle coverage source

 private:
  struct Lane {
    std::vector<iss::ThumbIss::RegWrite> reg_writes;
    std::vector<iss::ThumbIss::MemWrite> mem_writes;
    std::uint64_t cycles = 0;
    unsigned flags = 0;  // captured in the halting cycle
  };

  const Netlist& nl_;
  BitSim sim_;
  BitSim::Cone mem_cone_;  // re-evaluated once the memory words are served
  util::PagedMemory mem_{kMaxLanes};
  std::array<Lane, kMaxLanes> lanes_;
  std::uint64_t running_ = 0;

  const Port *in_imem_, *in_dmem_;
  const Port *out_imem_addr_, *out_dmem_addr_, *out_dmem_wdata_, *out_dmem_be_, *out_dmem_re_,
      *out_dmem_we_, *out_reg_we_, *out_reg_waddr_, *out_reg_wdata_, *out_halted_, *out_flags_;

  std::uint32_t fetch_half(unsigned lane, std::uint32_t addr) const;  // imem + chaos hook
};

/// What a Thumb ISS run leaves for the comparison with a core.
struct ThumbGolden {
  std::vector<iss::ThumbIss::RegWrite> regs;
  std::vector<iss::ThumbIss::MemWrite> mems;
  unsigned flags = 0;  // N, Z, C, V as bits 0..3 (Cm0Testbench::final_flags)
};
ThumbGolden thumb_golden(const iss::ThumbIss& iss);

/// The first difference between `g` and lane `lane` of `tb`: the register
/// write stream, the memory write stream, then the final flags, worded as
/// the fuzz oracle reports it. Empty when they agree.
std::string compare_thumb(const ThumbGolden& g, const Cm0Testbench& tb, unsigned lane = 0);

/// Runs the program on the netlist and on ThumbIss; compares the register
/// and memory write streams plus final flags. Empty string = match.
std::string cm0_cosim_against_iss(const Netlist& nl, const std::vector<std::uint16_t>& program,
                                  std::uint64_t max_cycles = 400000);

}  // namespace pdat::cores
