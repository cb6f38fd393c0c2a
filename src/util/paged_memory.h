// Sparse byte-addressed memory with one address space per lane.
//
// Every lane's memory wraps at kBytes, and unwritten bytes read 0. A page
// is allocated on its first write, so a program that touches a handful of
// pages costs a handful of pages, not kBytes: the lane-packed testbenches
// keep 64 lanes (a flat 1 MiB each would be 64 MiB), and the ISSs, which
// the fuzz oracle builds once per program, keep one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace pdat::util {

class PagedMemory {
 public:
  static constexpr std::uint32_t kBytes = 1u << 20;
  static constexpr std::uint32_t kPageBytes = 1u << 12;
  static constexpr std::uint32_t kPages = kBytes / kPageBytes;

  explicit PagedMemory(unsigned lanes = 1)
      : page_of_(static_cast<std::size_t>(lanes) * kPages, kUnmapped) {}

  /// Empties every lane. Pages go back to a pool for reuse, so clearing
  /// costs one page-table fill, not a memory fill.
  void clear() {
    std::fill(page_of_.begin(), page_of_.end(), kUnmapped);
    used_ = 0;
  }

  std::uint8_t read(std::uint32_t addr, unsigned lane = 0) const {
    const std::uint32_t p = page_of_[slot(addr, lane)];
    return p == kUnmapped ? 0 : pool_[p][addr % kPageBytes];
  }

  void write(std::uint32_t addr, std::uint8_t value, unsigned lane = 0) {
    std::uint32_t& p = page_of_[slot(addr, lane)];
    if (p == kUnmapped) {
      if (used_ == pool_.size()) pool_.emplace_back();
      p = static_cast<std::uint32_t>(used_++);
      pool_[p].fill(0);
    }
    pool_[p][addr % kPageBytes] = value;
  }

  /// Little-endian word at a byte address; each byte wraps independently.
  std::uint32_t read_word(std::uint32_t addr, unsigned lane = 0) const {
    std::uint32_t v = 0;
    for (std::uint32_t k = 0; k < 4; ++k)
      v |= static_cast<std::uint32_t>(read(addr + k, lane)) << (8 * k);
    return v;
  }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;
  static constexpr std::uint32_t kUnmapped = ~0u;

  static std::size_t slot(std::uint32_t addr, unsigned lane) {
    return static_cast<std::size_t>(lane) * kPages + (addr % kBytes) / kPageBytes;
  }

  std::vector<std::uint32_t> page_of_;  // (lane, page) -> pool index or kUnmapped
  std::vector<Page> pool_;
  std::size_t used_ = 0;  // pool_[0, used_) are mapped
};

}  // namespace pdat::util
