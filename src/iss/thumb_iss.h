// ARMv6-M (Thumb) instruction-set simulator — golden model for the
// Cortex-M0-like core. Executes one halfword per step (BL and the other
// 32-bit encodings consume two steps), mirroring the core's fetch pattern.
#pragma once

#include <cstdint>
#include <vector>

#include "util/paged_memory.h"

namespace pdat::iss {

/// Memory is a util::PagedMemory: 1 MiB wrap-around, unwritten bytes read
/// 0, and constructing an ISS allocates no page.
class ThumbIss {
 public:
  void load_halfwords(std::uint32_t addr, const std::vector<std::uint16_t>& halves);
  void reset(std::uint32_t pc = 0, std::uint32_t sp = 0x10000);

  /// Executes one fetch-unit (halfword). Returns false when halted.
  bool step();
  std::uint64_t run(std::uint64_t max_steps);

  std::uint32_t reg(unsigned i) const { return regs_[i]; }
  std::uint32_t pc() const { return regs_[15]; }
  bool halted() const { return halted_; }
  bool undefined() const { return undefined_; }
  bool flag_n() const { return n_; }
  bool flag_z() const { return z_; }
  bool flag_c() const { return c_; }
  bool flag_v() const { return v_; }

  std::uint8_t load_byte(std::uint32_t a) const { return mem_.read(a); }
  void store_byte(std::uint32_t a, std::uint8_t v) { mem_.write(a, v); }
  std::uint32_t load_word(std::uint32_t a) const;
  void store_word(std::uint32_t a, std::uint32_t v);

  // Architectural effect streams for lockstep core validation. Register and
  // memory writes are compared as separate ordered streams so that the
  // core's multi-cycle LDM/STM/PUSH/POP sequencing does not need to match
  // the ISS's atomic execution cycle-for-cycle.
  struct RegWrite {
    unsigned reg;
    std::uint32_t value;
  };
  struct MemWrite {
    std::uint32_t addr;
    std::uint32_t value;
    unsigned size;
  };
  void set_tracing(bool on) { tracing_ = on; }
  const std::vector<RegWrite>& reg_writes() const { return reg_writes_; }
  const std::vector<MemWrite>& mem_writes() const { return mem_writes_; }

 private:
  util::PagedMemory mem_;
  std::uint32_t regs_[16] = {};
  bool n_ = false, z_ = false, c_ = false, v_ = false;
  bool halted_ = false;
  bool undefined_ = false;
  bool tracing_ = false;
  // Pending first halfword of a 32-bit encoding.
  bool wide_pending_ = false;
  std::uint16_t wide_first_ = 0;
  std::vector<RegWrite> reg_writes_;
  std::vector<MemWrite> mem_writes_;

  std::uint16_t fetch16(std::uint32_t a) const;
};

}  // namespace pdat::iss
