// Gate-level testbench for the RIDECORE-like core (dual-ported instruction
// fetch, two retire channels) with lockstep comparison against Rv32Iss.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "iss/rv32_iss.h"
#include "netlist/netlist.h"
#include "sim/bitsim.h"
#include "util/paged_memory.h"

namespace pdat::cores {

class RideTestbench {
 public:
  explicit RideTestbench(const Netlist& nl);

  void load_words(std::uint32_t addr, const std::vector<std::uint32_t>& words);
  void reset();
  bool cycle();
  std::uint64_t run(std::uint64_t max_cycles);

  const std::vector<iss::Rv32Iss::TraceEntry>& trace() const { return trace_; }
  std::uint64_t retired() const { return retired_; }
  std::uint64_t cycles() const { return cycles_; }

 private:
  const Netlist& nl_;
  BitSim sim_;
  BitSim::Cone mem_cone_;  // re-evaluated once the memory words are served
  util::PagedMemory mem_;
  std::vector<iss::Rv32Iss::TraceEntry> trace_;
  std::uint64_t retired_ = 0;
  std::uint64_t cycles_ = 0;

  const Port *in_i0_, *in_i1_, *in_dmem_;
  const Port *out_imem_addr_, *out_dmem_addr_, *out_dmem_wdata_, *out_dmem_be_, *out_dmem_we_,
      *out_halted_, *out_mem_slot1_;
  const Port *r0_valid_, *r0_we_, *r0_rd_, *r0_data_, *r0_pc_;
  const Port *r1_valid_, *r1_we_, *r1_rd_, *r1_data_, *r1_pc_;
};

/// Empty string on matching traces (register writebacks + memory writes in
/// program order, with PCs).
std::string ride_cosim_against_iss(const Netlist& nl, const std::vector<std::uint32_t>& program,
                                   std::uint64_t max_cycles = 400000);

}  // namespace pdat::cores
