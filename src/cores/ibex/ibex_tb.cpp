#include "cores/ibex/ibex_tb.h"

#include <algorithm>

#include "base/types.h"
#include "util/failpoint.h"

namespace pdat::cores {

IbexTestbench::IbexTestbench(const Netlist& nl) : nl_(nl), sim_(nl) {
  auto need_in = [&](const char* n) {
    const Port* p = nl_.find_input(n);
    if (p == nullptr) throw PdatError(std::string("testbench: missing input ") + n);
    return p;
  };
  auto need_out = [&](const char* n) {
    const Port* p = nl_.find_output(n);
    if (p == nullptr) throw PdatError(std::string("testbench: missing output ") + n);
    return p;
  };
  in_imem_ = need_in("imem_rdata");
  in_dmem_ = need_in("dmem_rdata");
  out_imem_addr_ = need_out("imem_addr");
  out_dmem_addr_ = need_out("dmem_addr");
  out_dmem_wdata_ = need_out("dmem_wdata");
  out_dmem_be_ = need_out("dmem_be");
  out_dmem_re_ = need_out("dmem_re");
  out_dmem_we_ = need_out("dmem_we");
  out_retire_ = need_out("retire_valid");
  out_retire_pc_ = need_out("retire_pc");
  out_rd_we_ = need_out("rd_we");
  out_rd_addr_ = need_out("rd_addr");
  out_rd_wdata_ = need_out("rd_wdata");
  out_halted_ = need_out("halted");
  mem_cone_ = memory_cone(sim_, {in_imem_, in_dmem_});
  reset();
}

void IbexTestbench::load_words(std::uint32_t addr, const std::vector<std::uint32_t>& words,
                               unsigned lane) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(4 * i);
    for (std::uint32_t k = 0; k < 4; ++k)
      mem_.write(a + k, static_cast<std::uint8_t>(words[i] >> (8 * k)), lane);
  }
}

void IbexTestbench::reset(unsigned lanes) {
  if (lanes == 0 || lanes > kMaxLanes) throw PdatError("testbench: pack of 1..64 programs");
  sim_.reset();
  // Memory inputs start at 0 so that a pack never sees the previous pack's.
  sim_.set_port_uniform(*in_imem_, 0);
  sim_.set_port_uniform(*in_dmem_, 0);
  mem_.clear();
  for (Lane& l : lanes_) l = Lane{};
  running_ = lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;
}

std::uint64_t IbexTestbench::cycle() {
  const std::uint64_t ran = running_;
  if (ran == 0) return 0;
  // Phase 1: evaluate with stale memory inputs to observe the addresses.
  sim_.eval();
  std::array<std::uint64_t, kMaxLanes> imem_addr, dmem_addr;
  sim_.read_port_per_slot(*out_imem_addr_, imem_addr.data());
  sim_.read_port_per_slot(*out_dmem_addr_, dmem_addr.data());
  // Instruction fetch serves the word starting at the (halfword-aligned)
  // PC; the data port serves the aligned word containing the address and
  // the core extracts the selected bytes itself.
  std::array<std::uint64_t, kMaxLanes> iword{}, dword{};
  for_each_lane(ran, [&](unsigned l) {
    std::uint32_t iw = mem_.read_word(static_cast<std::uint32_t>(imem_addr[l]), l);
    // Chaos hook emulating a decoder fault: corrupt the rs2 index of fetched
    // R-type OP words. The fuzzer's mutation self-check arms this and must
    // find + shrink the resulting ISS/core divergence.
    if ((iw & 0x7f) == 0x33 && util::failpoint("ibex_tb.fetch_fault") != 0) iw ^= 1u << 20;
    iword[l] = iw;
    dword[l] = mem_.read_word(static_cast<std::uint32_t>(dmem_addr[l]) & ~3u, l);
  });
  sim_.set_port_per_slot(*in_imem_, iword.data());
  sim_.set_port_per_slot(*in_dmem_, dword.data());
  // Phase 2: evaluate with memory data present, then observe side effects.
  sim_.eval(mem_cone_);
  const std::uint64_t halted_now = lanes_nonzero(sim_, *out_halted_) & ran;
  const std::uint64_t retiring = lanes_nonzero(sim_, *out_retire_) & ran;
  const std::uint64_t writing = lanes_nonzero(sim_, *out_dmem_we_) & ran;

  std::array<std::uint64_t, kMaxLanes> be{}, wdata{}, pc{}, rd{}, rd_value{};
  std::uint64_t rd_we = 0;
  if (writing != 0) {
    sim_.read_port_per_slot(*out_dmem_be_, be.data());
    sim_.read_port_per_slot(*out_dmem_wdata_, wdata.data());
  }
  if (retiring != 0) {
    sim_.read_port_per_slot(*out_retire_pc_, pc.data());
    sim_.read_port_per_slot(*out_rd_addr_, rd.data());
    sim_.read_port_per_slot(*out_rd_wdata_, rd_value.data());
    rd_we = lanes_nonzero(sim_, *out_rd_we_);
  }

  for_each_lane(writing | retiring, [&](unsigned l) {
    Lane& lane = lanes_[l];
    const bool retires = ((retiring >> l) & 1) != 0;
    // Apply any data-memory write this cycle (crossing accesses write in
    // two cycles; only the second one retires).
    const bool wrote = ((writing >> l) & 1) != 0;
    std::uint32_t wr_first = 0;
    unsigned wr_count = 0;
    if (wrote) {
      const std::uint32_t word_base = static_cast<std::uint32_t>(dmem_addr[l]) & ~3u;
      unsigned first = 4;
      for (unsigned k = 0; k < 4; ++k) {
        if ((be[l] >> k) & 1) {
          mem_.write(word_base + k, static_cast<std::uint8_t>(wdata[l] >> (8 * k)), l);
          if (first == 4) first = k;
          ++wr_count;
        }
      }
      wr_first = word_base + first;
    }
    if (wrote && !retires) {
      // First half of a crossing store: remember it for the retiring half.
      lane.pending_store_addr = wr_first;
      lane.pending_store_count = wr_count;
    }
    if (!retires) return;

    ++lane.retired;
    iss::Rv32Iss::TraceEntry te;
    te.pc = static_cast<std::uint32_t>(pc[l]);
    bool any = false;
    if ((rd_we >> l) & 1) {
      te.rd = static_cast<unsigned>(rd[l]);
      te.rd_value = static_cast<std::uint32_t>(rd_value[l]);
      any = te.rd != 0;
    }
    if (wrote) {
      te.mem_write = true;
      std::uint32_t addr = wr_first;
      unsigned count = wr_count;
      if (lane.pending_store_count != 0) {
        addr = lane.pending_store_addr;
        count += lane.pending_store_count;
        lane.pending_store_count = 0;
      }
      te.mem_addr = addr;
      te.mem_size = count;
      std::uint32_t value = 0;
      for (unsigned k = 0; k < count; ++k)
        value |= static_cast<std::uint32_t>(mem_.read(addr + k, l)) << (8 * k);
      te.mem_value = value;
      any = true;
    }
    if (any) lane.trace.push_back(te);
  });
  sim_.latch();
  for_each_lane(ran, [&](unsigned l) { ++lanes_[l].cycles; });
  running_ &= ~halted_now;
  return ran;
}

std::uint64_t IbexTestbench::run(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (n < max_cycles && running_ != 0) {
    cycle();
    ++n;
  }
  return n;
}

std::string cosim_against_iss(const Netlist& nl, const std::vector<std::uint32_t>& program,
                              std::uint64_t max_cycles) {
  iss::Rv32Iss iss;
  iss.load_words(0, program);
  iss.reset();
  iss.set_tracing(true);
  iss.run(max_cycles);
  if (!iss.halted()) return "ISS did not halt within the cycle limit";

  IbexTestbench tb(nl);
  tb.load_words(0, program);
  tb.run(max_cycles);
  return iss::compare_traces(iss.trace(), tb.trace());
}

}  // namespace pdat::cores
