#include "iss/rv32_iss.h"

#include <algorithm>
#include <sstream>

#include "base/types.h"
#include "isa/rv32_isa.h"

namespace pdat::iss {

using isa::RvFields;
using isa::RvInstrSpec;

void Rv32Iss::load_words(std::uint32_t addr, const std::vector<std::uint32_t>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    store_word(addr + static_cast<std::uint32_t>(4 * i), words[i]);
  }
}

void Rv32Iss::reset(std::uint32_t pc) {
  for (auto& r : regs_) r = 0;
  pc_ = pc;
  halted_ = false;
  illegal_ = false;
  trace_.clear();
  csrs_.clear();
  instret_ = 0;
}

std::uint32_t Rv32Iss::load_word(std::uint32_t addr) const { return mem_.read_word(addr); }

void Rv32Iss::store_word(std::uint32_t addr, std::uint32_t value) {
  for (std::uint32_t i = 0; i < 4; ++i)
    mem_.write(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

std::uint32_t Rv32Iss::csr_read(unsigned addr) {
  switch (addr) {
    case 0xc00:  // cycle
    case 0xb00:  // mcycle
    case 0xc02:  // instret
    case 0xb02:  // minstret
      return static_cast<std::uint32_t>(instret_);
    case 0xc80:
    case 0xb80:
    case 0xc82:
    case 0xb82:
      return static_cast<std::uint32_t>(instret_ >> 32);
    default: {
      auto it = csrs_.find(addr);
      return it == csrs_.end() ? 0 : it->second;
    }
  }
}

void Rv32Iss::csr_write(unsigned addr, std::uint32_t value) { csrs_[addr] = value; }

bool Rv32Iss::step() {
  if (halted_) return false;
  const std::uint32_t raw = load_word(pc_);
  const bool compressed = (raw & 3) != 3;
  std::uint32_t word = raw;
  if (compressed) {
    if (isa::rv32_decode_spec(raw & 0xffff) == nullptr) {
      illegal_ = true;
      halted_ = true;
      return false;
    }
    word = isa::rvc_expand(static_cast<std::uint16_t>(raw & 0xffff));
    if (word == 0) {
      illegal_ = true;
      halted_ = true;
      return false;
    }
  }
  const RvInstrSpec* spec = isa::rv32_decode_spec(word);
  if (spec == nullptr) {
    illegal_ = true;
    halted_ = true;
    return false;
  }
  const RvFields f = isa::rv32_extract(*spec, word);
  const std::uint32_t next_pc_seq = pc_ + (compressed ? 2 : 4);
  std::uint32_t next_pc = next_pc_seq;
  const std::uint32_t rs1 = regs_[f.rs1];
  const std::uint32_t rs2 = regs_[f.rs2];
  const auto simm = static_cast<std::uint32_t>(f.imm);
  std::uint32_t rd_val = 0;
  bool rd_write = false;
  TraceEntry te;
  te.pc = pc_;

  const std::string_view n = spec->name;
  auto wr = [&](std::uint32_t v) {
    rd_val = v;
    rd_write = true;
  };
  if (n == "lui") wr(simm);
  else if (n == "auipc") wr(pc_ + simm);
  else if (n == "jal") { wr(next_pc_seq); next_pc = pc_ + simm; }
  else if (n == "jalr") { wr(next_pc_seq); next_pc = (rs1 + simm) & ~1u; }
  else if (n == "beq") { if (rs1 == rs2) next_pc = pc_ + simm; }
  else if (n == "bne") { if (rs1 != rs2) next_pc = pc_ + simm; }
  else if (n == "blt") { if (static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2)) next_pc = pc_ + simm; }
  else if (n == "bge") { if (static_cast<std::int32_t>(rs1) >= static_cast<std::int32_t>(rs2)) next_pc = pc_ + simm; }
  else if (n == "bltu") { if (rs1 < rs2) next_pc = pc_ + simm; }
  else if (n == "bgeu") { if (rs1 >= rs2) next_pc = pc_ + simm; }
  else if (n == "lb") wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(load_byte(rs1 + simm)))));
  else if (n == "lbu") wr(load_byte(rs1 + simm));
  else if (n == "lh") {
    const std::uint32_t a = rs1 + simm;
    const std::uint16_t h = static_cast<std::uint16_t>(load_byte(a) | (load_byte(a + 1) << 8));
    wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(h))));
  } else if (n == "lhu") {
    const std::uint32_t a = rs1 + simm;
    wr(static_cast<std::uint32_t>(load_byte(a) | (load_byte(a + 1) << 8)));
  } else if (n == "lw") wr(load_word(rs1 + simm));
  else if (n == "sb" || n == "sh" || n == "sw") {
    const std::uint32_t a = rs1 + simm;
    const unsigned size = n == "sb" ? 1 : (n == "sh" ? 2 : 4);
    for (unsigned i = 0; i < size; ++i) store_byte(a + i, static_cast<std::uint8_t>(rs2 >> (8 * i)));
    te.mem_write = true;
    te.mem_addr = a;
    te.mem_size = size;
    te.mem_value = size == 4 ? rs2 : (rs2 & ((1u << (8 * size)) - 1));
  }
  else if (n == "addi") wr(rs1 + simm);
  else if (n == "slti") wr(static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(simm) ? 1 : 0);
  else if (n == "sltiu") wr(rs1 < simm ? 1 : 0);
  else if (n == "xori") wr(rs1 ^ simm);
  else if (n == "ori") wr(rs1 | simm);
  else if (n == "andi") wr(rs1 & simm);
  else if (n == "slli") wr(rs1 << f.shamt);
  else if (n == "srli") wr(rs1 >> f.shamt);
  else if (n == "srai") wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> f.shamt));
  else if (n == "add") wr(rs1 + rs2);
  else if (n == "sub") wr(rs1 - rs2);
  else if (n == "sll") wr(rs1 << (rs2 & 31));
  else if (n == "slt") wr(static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2) ? 1 : 0);
  else if (n == "sltu") wr(rs1 < rs2 ? 1 : 0);
  else if (n == "xor") wr(rs1 ^ rs2);
  else if (n == "srl") wr(rs1 >> (rs2 & 31));
  else if (n == "sra") wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> (rs2 & 31)));
  else if (n == "or") wr(rs1 | rs2);
  else if (n == "and") wr(rs1 & rs2);
  else if (n == "fence" || n == "fence.i") { /* no-op on this simple system */ }
  else if (n == "ecall" || n == "ebreak") { halted_ = true; }
  else if (n == "mul") wr(rs1 * rs2);
  else if (n == "mulh") wr(static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) * static_cast<std::int64_t>(static_cast<std::int32_t>(rs2))) >> 32));
  else if (n == "mulhsu") wr(static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) * static_cast<std::int64_t>(rs2)) >> 32));
  else if (n == "mulhu") wr(static_cast<std::uint32_t>((static_cast<std::uint64_t>(rs1) * rs2) >> 32));
  else if (n == "div") {
    if (rs2 == 0) wr(0xffffffff);
    else if (rs1 == 0x80000000 && rs2 == 0xffffffff) wr(0x80000000);
    else wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) / static_cast<std::int32_t>(rs2)));
  } else if (n == "divu") {
    wr(rs2 == 0 ? 0xffffffff : rs1 / rs2);
  } else if (n == "rem") {
    if (rs2 == 0) wr(rs1);
    else if (rs1 == 0x80000000 && rs2 == 0xffffffff) wr(0);
    else wr(static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) % static_cast<std::int32_t>(rs2)));
  } else if (n == "remu") {
    wr(rs2 == 0 ? rs1 : rs1 % rs2);
  }
  else if (n == "csrrw") { const std::uint32_t old = csr_read(f.csr); csr_write(f.csr, rs1); wr(old); }
  else if (n == "csrrs") { const std::uint32_t old = csr_read(f.csr); if (f.rs1 != 0) csr_write(f.csr, old | rs1); wr(old); }
  else if (n == "csrrc") { const std::uint32_t old = csr_read(f.csr); if (f.rs1 != 0) csr_write(f.csr, old & ~rs1); wr(old); }
  else if (n == "csrrwi") { const std::uint32_t old = csr_read(f.csr); csr_write(f.csr, f.zimm); wr(old); }
  else if (n == "csrrsi") { const std::uint32_t old = csr_read(f.csr); if (f.zimm != 0) csr_write(f.csr, old | f.zimm); wr(old); }
  else if (n == "csrrci") { const std::uint32_t old = csr_read(f.csr); if (f.zimm != 0) csr_write(f.csr, old & ~f.zimm); wr(old); }
  else {
    illegal_ = true;
    halted_ = true;
    return false;
  }

  if (rd_write && f.rd != 0) regs_[f.rd] = rd_val;
  ++instret_;
  if (tracing_ && ((rd_write && f.rd != 0) || te.mem_write)) {
    te.rd = rd_write ? f.rd : 0;
    te.rd_value = rd_write ? rd_val : 0;
    trace_.push_back(te);
  }
  pc_ = next_pc;
  return !halted_;
}

std::uint64_t Rv32Iss::run(std::uint64_t max_instructions) {
  std::uint64_t n = 0;
  while (n < max_instructions && !halted_) {
    step();
    ++n;
  }
  return n;
}

std::string compare_traces(const std::vector<Rv32Iss::TraceEntry>& a,
                           const std::vector<Rv32Iss::TraceEntry>& b) {
  std::ostringstream os;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].pc != b[i].pc || a[i].rd != b[i].rd || a[i].rd_value != b[i].rd_value ||
        a[i].mem_write != b[i].mem_write || a[i].mem_addr != b[i].mem_addr ||
        a[i].mem_value != b[i].mem_value || a[i].mem_size != b[i].mem_size) {
      os << "trace entry " << i << ": iss pc=0x" << std::hex << a[i].pc << " rd=x" << std::dec
         << a[i].rd << "=0x" << std::hex << a[i].rd_value << " vs core pc=0x" << b[i].pc
         << " rd=x" << std::dec << b[i].rd << "=0x" << std::hex << b[i].rd_value;
      if (a[i].mem_write || b[i].mem_write) {
        os << " | mem iss [0x" << a[i].mem_addr << "]=0x" << a[i].mem_value << "/" << std::dec
           << a[i].mem_size << " core [0x" << std::hex << b[i].mem_addr << "]=0x"
           << b[i].mem_value << "/" << std::dec << b[i].mem_size;
      }
      return os.str();
    }
  }
  if (a.size() != b.size()) {
    os << "trace length: iss " << a.size() << " vs core " << b.size();
    return os.str();
  }
  return {};
}

}  // namespace pdat::iss
