#include "cores/ridecore/ride_tb.h"

#include "base/types.h"
#include "cores/lane_pack.h"

namespace pdat::cores {

RideTestbench::RideTestbench(const Netlist& nl) : nl_(nl), sim_(nl) {
  auto in = [&](const char* n) {
    const Port* p = nl_.find_input(n);
    if (p == nullptr) throw PdatError(std::string("ride tb: missing input ") + n);
    return p;
  };
  auto out = [&](const char* n) {
    const Port* p = nl_.find_output(n);
    if (p == nullptr) throw PdatError(std::string("ride tb: missing output ") + n);
    return p;
  };
  in_i0_ = in("imem_rdata0");
  in_i1_ = in("imem_rdata1");
  in_dmem_ = in("dmem_rdata");
  out_imem_addr_ = out("imem_addr");
  out_dmem_addr_ = out("dmem_addr");
  out_dmem_wdata_ = out("dmem_wdata");
  out_dmem_be_ = out("dmem_be");
  out_dmem_we_ = out("dmem_we");
  out_halted_ = out("halted");
  out_mem_slot1_ = out("mem_slot1");
  r0_valid_ = out("retire0_valid");
  r0_we_ = out("retire0_we");
  r0_rd_ = out("retire0_rd");
  r0_data_ = out("retire0_data");
  r0_pc_ = out("retire0_pc");
  r1_valid_ = out("retire1_valid");
  r1_we_ = out("retire1_we");
  r1_rd_ = out("retire1_rd");
  r1_data_ = out("retire1_data");
  r1_pc_ = out("retire1_pc");
  mem_cone_ = memory_cone(sim_, {in_i0_, in_i1_, in_dmem_});
}

void RideTestbench::load_words(std::uint32_t addr, const std::vector<std::uint32_t>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(4 * i);
    for (std::uint32_t k = 0; k < 4; ++k)
      mem_.write(a + k, static_cast<std::uint8_t>(words[i] >> (8 * k)));
  }
}

void RideTestbench::reset() {
  sim_.reset();
  trace_.clear();
  retired_ = 0;
  cycles_ = 0;
}

bool RideTestbench::cycle() {
  ++cycles_;
  sim_.eval();
  const auto ia = static_cast<std::uint32_t>(sim_.read_port(*out_imem_addr_, 0));
  const auto da = static_cast<std::uint32_t>(sim_.read_port(*out_dmem_addr_, 0));
  sim_.set_port_uniform(*in_i0_, mem_.read_word(ia));
  sim_.set_port_uniform(*in_i1_, mem_.read_word(ia + 4));
  sim_.set_port_uniform(*in_dmem_, mem_.read_word(da & ~3u));
  sim_.eval(mem_cone_);
  const bool halted_now = sim_.read_port(*out_halted_, 0) != 0;

  // Memory write (at most one per cycle). The core reports which slot owns
  // the memory port, so stores are attributed to the right program-order
  // position between the two retire channels.
  bool mem_pending = sim_.read_port(*out_dmem_we_, 0) != 0;
  const bool mem_slot1 = sim_.read_port(*out_mem_slot1_, 0) != 0;
  auto emit_mem = [&](std::uint32_t pc) {
    const auto be = static_cast<unsigned>(sim_.read_port(*out_dmem_be_, 0));
    const auto wdata = static_cast<std::uint32_t>(sim_.read_port(*out_dmem_wdata_, 0));
    const std::uint32_t base = da & ~3u;
    unsigned first = 4, count = 0;
    for (unsigned k = 0; k < 4; ++k) {
      if ((be >> k) & 1) {
        mem_.write(base + k, static_cast<std::uint8_t>(wdata >> (8 * k)));
        if (first == 4) first = k;
        ++count;
      }
    }
    iss::Rv32Iss::TraceEntry te;
    te.pc = pc;
    te.mem_write = true;
    te.mem_addr = base + first;
    te.mem_size = count;
    std::uint32_t value = 0;
    for (unsigned k = 0; k < count; ++k)
      value |= static_cast<std::uint32_t>(mem_.read(base + first + k)) << (8 * k);
    te.mem_value = value;
    trace_.push_back(te);
  };

  auto slot = [&](const Port* valid, const Port* we, const Port* rd, const Port* data,
                  const Port* pc, bool owns_mem) {
    if (sim_.read_port(*valid, 0) == 0) return;
    ++retired_;
    const auto pcv = static_cast<std::uint32_t>(sim_.read_port(*pc, 0));
    if (sim_.read_port(*we, 0) != 0) {
      iss::Rv32Iss::TraceEntry te;
      te.pc = pcv;
      te.rd = static_cast<unsigned>(sim_.read_port(*rd, 0));
      te.rd_value = static_cast<std::uint32_t>(sim_.read_port(*data, 0));
      trace_.push_back(te);
    } else if (mem_pending && owns_mem) {
      emit_mem(pcv);
      mem_pending = false;
    }
  };
  slot(r0_valid_, r0_we_, r0_rd_, r0_data_, r0_pc_, !mem_slot1);
  slot(r1_valid_, r1_we_, r1_rd_, r1_data_, r1_pc_, mem_slot1);
  sim_.latch();
  return !halted_now;
}

std::uint64_t RideTestbench::run(std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (n < max_cycles) {
    ++n;
    if (!cycle()) break;
  }
  return n;
}

std::string ride_cosim_against_iss(const Netlist& nl, const std::vector<std::uint32_t>& program,
                                   std::uint64_t max_cycles) {
  iss::Rv32Iss iss;
  iss.load_words(0, program);
  iss.reset();
  iss.set_tracing(true);
  iss.run(max_cycles);
  if (!iss.halted()) return "ISS did not halt";

  RideTestbench tb(nl);
  tb.load_words(0, program);
  tb.reset();
  tb.run(max_cycles);
  return iss::compare_traces(iss.trace(), tb.trace());
}

}  // namespace pdat::cores
