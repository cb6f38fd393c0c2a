#include "cores/cm0/cm0_tb.h"

#include <algorithm>
#include <sstream>

#include "base/types.h"
#include "util/failpoint.h"

namespace pdat::cores {

Cm0Testbench::Cm0Testbench(const Netlist& nl) : nl_(nl), sim_(nl) {
  auto in = [&](const char* n) {
    const Port* p = nl_.find_input(n);
    if (p == nullptr) throw PdatError(std::string("cm0 tb: missing input ") + n);
    return p;
  };
  auto out = [&](const char* n) {
    const Port* p = nl_.find_output(n);
    if (p == nullptr) throw PdatError(std::string("cm0 tb: missing output ") + n);
    return p;
  };
  in_imem_ = in("imem_rdata");
  in_dmem_ = in("dmem_rdata");
  out_imem_addr_ = out("imem_addr");
  out_dmem_addr_ = out("dmem_addr");
  out_dmem_wdata_ = out("dmem_wdata");
  out_dmem_be_ = out("dmem_be");
  out_dmem_re_ = out("dmem_re");
  out_dmem_we_ = out("dmem_we");
  out_reg_we_ = out("reg_we");
  out_reg_waddr_ = out("reg_waddr");
  out_reg_wdata_ = out("reg_wdata");
  out_halted_ = out("halted");
  out_flags_ = out("flags");
  mem_cone_ = memory_cone(sim_, {in_imem_, in_dmem_});
  reset();
}

void Cm0Testbench::load_halfwords(std::uint32_t addr, const std::vector<std::uint16_t>& halves,
                                  unsigned lane) {
  for (std::size_t i = 0; i < halves.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(2 * i);
    mem_.write(a, static_cast<std::uint8_t>(halves[i]), lane);
    mem_.write(a + 1, static_cast<std::uint8_t>(halves[i] >> 8), lane);
  }
}

void Cm0Testbench::reset(unsigned lanes) {
  if (lanes == 0 || lanes > kMaxLanes) throw PdatError("cm0 tb: pack of 1..64 programs");
  sim_.reset();
  // Memory inputs start at 0 so that a pack never sees the previous pack's.
  sim_.set_port_uniform(*in_imem_, 0);
  sim_.set_port_uniform(*in_dmem_, 0);
  mem_.clear();
  for (Lane& l : lanes_) l = Lane{};
  running_ = lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;
}

std::uint32_t Cm0Testbench::fetch_half(unsigned lane, std::uint32_t addr) const {
  std::uint32_t hw = mem_.read_word(addr, lane) & 0xffff;
  // Chaos hook emulating a decoder fault: corrupt the Rm index of fetched
  // data-processing-register halfwords. The fuzzer's mutation self-check
  // arms this and must find + shrink the resulting ISS/core divergence.
  if ((hw & 0xfc00) == 0x4000 && util::failpoint("cm0_tb.fetch_fault") != 0) hw ^= 1u << 3;
  return hw;
}

std::uint64_t Cm0Testbench::cycle() {
  const std::uint64_t ran = running_;
  if (ran == 0) return 0;
  sim_.eval();
  std::array<std::uint64_t, kMaxLanes> imem_addr, dmem_addr;
  sim_.read_port_per_slot(*out_imem_addr_, imem_addr.data());
  sim_.read_port_per_slot(*out_dmem_addr_, dmem_addr.data());
  std::array<std::uint64_t, kMaxLanes> ihalf{}, dword{};
  for_each_lane(ran, [&](unsigned l) {
    ihalf[l] = fetch_half(l, static_cast<std::uint32_t>(imem_addr[l]));
    dword[l] = mem_.read_word(static_cast<std::uint32_t>(dmem_addr[l]) & ~3u, l);
  });
  sim_.set_port_per_slot(*in_imem_, ihalf.data());
  sim_.set_port_per_slot(*in_dmem_, dword.data());
  sim_.eval(mem_cone_);
  // pop {.., pc} makes the next fetch address depend on the loaded data —
  // re-serve the instruction word of every lane whose address moved and
  // settle again. Lanes that did not move see the same inputs, so the extra
  // eval leaves them unchanged.
  std::array<std::uint64_t, kMaxLanes> imem_addr2;
  sim_.read_port_per_slot(*out_imem_addr_, imem_addr2.data());
  std::uint64_t moved = 0;
  for_each_lane(ran, [&](unsigned l) {
    const auto addr2 = static_cast<std::uint32_t>(imem_addr2[l]);
    if (addr2 != static_cast<std::uint32_t>(imem_addr[l])) {
      moved |= 1ULL << l;
      ihalf[l] = fetch_half(l, addr2);
    }
  });
  if (moved != 0) {
    sim_.set_port_per_slot(*in_imem_, ihalf.data());
    sim_.eval(mem_cone_);
  }
  const std::uint64_t halted_now = lanes_nonzero(sim_, *out_halted_) & ran;
  const std::uint64_t reg_we = lanes_nonzero(sim_, *out_reg_we_) & ran;
  const std::uint64_t writing = lanes_nonzero(sim_, *out_dmem_we_) & ran;
  if (reg_we != 0) {
    std::array<std::uint64_t, kMaxLanes> waddr, wdata;
    sim_.read_port_per_slot(*out_reg_waddr_, waddr.data());
    sim_.read_port_per_slot(*out_reg_wdata_, wdata.data());
    for_each_lane(reg_we, [&](unsigned l) {
      lanes_[l].reg_writes.push_back(
          {static_cast<unsigned>(waddr[l]), static_cast<std::uint32_t>(wdata[l])});
    });
  }
  if (writing != 0) {
    std::array<std::uint64_t, kMaxLanes> be, wdata;
    sim_.read_port_per_slot(*out_dmem_be_, be.data());
    sim_.read_port_per_slot(*out_dmem_wdata_, wdata.data());
    for_each_lane(writing, [&](unsigned l) {
      const std::uint32_t base = static_cast<std::uint32_t>(dmem_addr[l]) & ~3u;
      unsigned first = 4, count = 0;
      for (unsigned k = 0; k < 4; ++k) {
        if ((be[l] >> k) & 1) {
          mem_.write(base + k, static_cast<std::uint8_t>(wdata[l] >> (8 * k)), l);
          if (first == 4) first = k;
          ++count;
        }
      }
      std::uint32_t value = 0;
      for (unsigned k = 0; k < count; ++k)
        value |= static_cast<std::uint32_t>(mem_.read(base + first + k, l)) << (8 * k);
      lanes_[l].mem_writes.push_back({base + first, value, count});
    });
  }
  sim_.latch();
  if (halted_now != 0) {
    std::array<std::uint64_t, kMaxLanes> flags;
    sim_.read_port_per_slot(*out_flags_, flags.data());
    for_each_lane(halted_now, [&](unsigned l) {
      lanes_[l].flags = static_cast<unsigned>(flags[l]);
    });
  }
  for_each_lane(ran, [&](unsigned l) { ++lanes_[l].cycles; });
  running_ &= ~halted_now;
  return ran;
}

std::uint64_t Cm0Testbench::run(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (n < max_cycles && running_ != 0) {
    cycle();
    ++n;
  }
  return n;
}

unsigned Cm0Testbench::final_flags(unsigned lane) const {
  if (halted(lane)) return lanes_[lane].flags;
  return static_cast<unsigned>(sim_.read_port(*out_flags_, static_cast<int>(lane)));
}

ThumbGolden thumb_golden(const iss::ThumbIss& iss) {
  return {iss.reg_writes(), iss.mem_writes(),
          (iss.flag_n() ? 1u : 0) | (iss.flag_z() ? 2u : 0) | (iss.flag_c() ? 4u : 0) |
              (iss.flag_v() ? 8u : 0)};
}

std::string compare_thumb(const ThumbGolden& g, const Cm0Testbench& tb, unsigned lane) {
  std::ostringstream os;
  const auto& ra = g.regs;
  const auto& rb = tb.reg_writes(lane);
  for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
    if (ra[i].reg != rb[i].reg || ra[i].value != rb[i].value) {
      os << "reg stream entry " << i << ": iss r" << ra[i].reg << "=0x" << std::hex
         << ra[i].value << " core r" << std::dec << rb[i].reg << "=0x" << std::hex
         << rb[i].value;
      return os.str();
    }
  }
  if (ra.size() != rb.size()) {
    os << "reg stream length: iss " << ra.size() << " core " << rb.size();
    return os.str();
  }
  const auto& ma = g.mems;
  const auto& mb = tb.mem_writes(lane);
  for (std::size_t i = 0; i < std::min(ma.size(), mb.size()); ++i) {
    if (ma[i].addr != mb[i].addr || ma[i].value != mb[i].value || ma[i].size != mb[i].size) {
      os << "mem stream entry " << i << ": iss [0x" << std::hex << ma[i].addr << "]=0x"
         << ma[i].value << "/" << std::dec << ma[i].size << " core [0x" << std::hex
         << mb[i].addr << "]=0x" << mb[i].value << "/" << std::dec << mb[i].size;
      return os.str();
    }
  }
  if (ma.size() != mb.size()) {
    os << "mem stream length: iss " << ma.size() << " core " << mb.size();
    return os.str();
  }
  const unsigned core_flags = tb.final_flags(lane);
  if (core_flags != g.flags) {
    os << "final flags: iss " << g.flags << " core " << core_flags;
    return os.str();
  }
  return {};
}

std::string cm0_cosim_against_iss(const Netlist& nl, const std::vector<std::uint16_t>& program,
                                  std::uint64_t max_cycles) {
  iss::ThumbIss iss;
  iss.load_halfwords(0, program);
  iss.reset();
  iss.set_tracing(true);
  iss.run(max_cycles);
  if (!iss.halted()) return "ISS did not halt";
  if (iss.undefined()) return "ISS hit an undefined instruction";

  Cm0Testbench tb(nl);
  tb.load_halfwords(0, program);
  tb.run(max_cycles);
  return compare_thumb(thumb_golden(iss), tb);
}

}  // namespace pdat::cores
