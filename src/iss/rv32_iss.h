// RV32IMC+Zicsr instruction-set simulator — the golden model used to
// validate the gate-level cores by trace comparison and to run the
// MiBench-like workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/rv32_encoding.h"
#include "util/paged_memory.h"

namespace pdat::iss {

/// Memory is a util::PagedMemory: 1 MiB wrap-around, unwritten bytes read
/// 0, and constructing an ISS allocates no page.
class Rv32Iss {
 public:
  /// Loads 32-bit words at a byte address.
  void load_words(std::uint32_t addr, const std::vector<std::uint32_t>& words);

  void reset(std::uint32_t pc = 0);

  /// Executes one instruction. Returns false when halted (ebreak/ecall or an
  /// illegal instruction).
  bool step();

  /// Runs until halt or the instruction limit; returns instructions retired.
  std::uint64_t run(std::uint64_t max_instructions);

  // State access.
  std::uint32_t pc() const { return pc_; }
  std::uint32_t reg(unsigned i) const { return regs_[i]; }
  bool halted() const { return halted_; }
  bool illegal() const { return illegal_; }

  std::uint32_t load_word(std::uint32_t addr) const;
  std::uint8_t load_byte(std::uint32_t addr) const { return mem_.read(addr); }
  void store_word(std::uint32_t addr, std::uint32_t value);
  void store_byte(std::uint32_t addr, std::uint8_t value) { mem_.write(addr, value); }

  /// Architectural trace entry: one per retired instruction that writes a
  /// register or memory (used for lockstep core validation).
  struct TraceEntry {
    std::uint32_t pc = 0;
    unsigned rd = 0;            // 0 when no register write
    std::uint32_t rd_value = 0;
    bool mem_write = false;
    std::uint32_t mem_addr = 0;
    std::uint32_t mem_value = 0;  // value of the written bytes, LSB-aligned
    unsigned mem_size = 0;        // bytes
  };
  void set_tracing(bool on) { tracing_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

 private:
  util::PagedMemory mem_;
  std::uint32_t regs_[32] = {};
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  bool illegal_ = false;
  bool tracing_ = false;
  std::vector<TraceEntry> trace_;
  std::map<unsigned, std::uint32_t> csrs_;
  std::uint64_t instret_ = 0;

  std::uint32_t csr_read(unsigned addr);
  void csr_write(unsigned addr, std::uint32_t value);
};

/// The first difference between an ISS trace and a core's, worded as the
/// fuzz oracle reports it ("trace entry i: ..." or "trace length: ...");
/// empty when the traces agree. Shared by the fuzz oracle and the Ibex and
/// RIDECORE lockstep checks.
std::string compare_traces(const std::vector<Rv32Iss::TraceEntry>& iss,
                           const std::vector<Rv32Iss::TraceEntry>& core);

}  // namespace pdat::iss
