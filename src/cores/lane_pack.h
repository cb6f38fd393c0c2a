// Shared pieces of the lane-packed testbenches (ibex_tb, cm0_tb).
//
// A testbench runs up to 64 programs at once, one per BitSim slot ("lane").
// Lanes never interact: every cell evaluates bitwise, and each lane has its
// own memory and architectural state, so a lane's results are exactly those
// of running its program alone.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.h"
#include "sim/bitsim.h"

namespace pdat::cores {

/// Calls f(lane) for every lane in `mask`, lowest first.
template <class F>
void for_each_lane(std::uint64_t mask, F f) {
  for (; mask != 0; mask &= mask - 1) f(static_cast<unsigned>(std::countr_zero(mask)));
}

/// Mask of the slots in which `port` is non-zero.
inline std::uint64_t lanes_nonzero(const BitSim& sim, const Port& port) {
  std::uint64_t m = 0;
  for (const NetId n : port.bits) m |= sim.value(n);
  return m;
}

/// One unified memory per lane. Each is byte-addressed and wraps at kBytes.
/// It is sparse: a page is allocated on its first write, and unwritten
/// bytes read as 0. A flat kBytes per lane would cost 64 MiB; a program
/// touches a handful of pages.
class LaneMemory {
 public:
  static constexpr unsigned kLanes = 64;
  static constexpr std::uint32_t kBytes = 1u << 20;
  static constexpr std::uint32_t kPageBytes = 1u << 12;
  static constexpr std::uint32_t kPages = kBytes / kPageBytes;

  LaneMemory() : page_of_(kLanes * kPages, kUnmapped) {}

  /// Empties every lane. Pages go back to a pool for reuse, so clearing
  /// costs one page-table fill, not a memory fill.
  void clear() {
    std::fill(page_of_.begin(), page_of_.end(), kUnmapped);
    used_ = 0;
  }

  std::uint8_t read(unsigned lane, std::uint32_t addr) const {
    const std::uint32_t p = page_of_[slot(lane, addr)];
    return p == kUnmapped ? 0 : (*pool_[p])[addr % kPageBytes];
  }

  void write(unsigned lane, std::uint32_t addr, std::uint8_t value) {
    std::uint32_t& p = page_of_[slot(lane, addr)];
    if (p == kUnmapped) {
      if (used_ == pool_.size()) pool_.push_back(std::make_unique<Page>());
      p = static_cast<std::uint32_t>(used_++);
      pool_[p]->fill(0);
    }
    (*pool_[p])[addr % kPageBytes] = value;
  }

  /// Little-endian word at a byte address; each byte wraps independently.
  std::uint32_t read_word(unsigned lane, std::uint32_t addr) const {
    std::uint32_t v = 0;
    for (std::uint32_t k = 0; k < 4; ++k)
      v |= static_cast<std::uint32_t>(read(lane, addr + k)) << (8 * k);
    return v;
  }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;
  static constexpr std::uint32_t kUnmapped = ~0u;

  static std::size_t slot(unsigned lane, std::uint32_t addr) {
    return static_cast<std::size_t>(lane) * kPages + (addr % kBytes) / kPageBytes;
  }

  std::vector<std::uint32_t> page_of_;  // (lane, page) -> pool index or kUnmapped
  std::vector<std::unique_ptr<Page>> pool_;
  std::size_t used_ = 0;  // pool_[0, used_) are mapped
};

}  // namespace pdat::cores
