#include "iss/thumb_iss.h"

#include "base/types.h"
#include "isa/thumb_encoding.h"

namespace pdat::iss {

using isa::ThumbFields;
using isa::ThumbInstrSpec;

namespace {

struct AddResult {
  std::uint32_t value;
  bool carry;
  bool overflow;
};

AddResult add_with_carry(std::uint32_t a, std::uint32_t b, bool cin) {
  const std::uint64_t u = static_cast<std::uint64_t>(a) + b + (cin ? 1 : 0);
  const std::int64_t s = static_cast<std::int64_t>(static_cast<std::int32_t>(a)) +
                         static_cast<std::int32_t>(b) + (cin ? 1 : 0);
  AddResult r;
  r.value = static_cast<std::uint32_t>(u);
  r.carry = (u >> 32) != 0;
  r.overflow = s != static_cast<std::int32_t>(r.value);
  return r;
}

}  // namespace

void ThumbIss::load_halfwords(std::uint32_t addr, const std::vector<std::uint16_t>& halves) {
  for (std::size_t i = 0; i < halves.size(); ++i) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(2 * i);
    mem_.write(a, static_cast<std::uint8_t>(halves[i]));
    mem_.write(a + 1, static_cast<std::uint8_t>(halves[i] >> 8));
  }
}

void ThumbIss::reset(std::uint32_t pc, std::uint32_t sp) {
  for (auto& r : regs_) r = 0;
  regs_[13] = sp;
  regs_[15] = pc;
  n_ = z_ = c_ = v_ = false;
  halted_ = undefined_ = wide_pending_ = false;
  reg_writes_.clear();
  mem_writes_.clear();
}

std::uint32_t ThumbIss::load_word(std::uint32_t a) const { return mem_.read_word(a); }

void ThumbIss::store_word(std::uint32_t a, std::uint32_t v) {
  for (std::uint32_t i = 0; i < 4; ++i) mem_.write(a + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t ThumbIss::fetch16(std::uint32_t a) const {
  return static_cast<std::uint16_t>(mem_.read(a) | (mem_.read(a + 1) << 8));
}

bool ThumbIss::step() {
  if (halted_) return false;
  const std::uint32_t pc = regs_[15];
  const std::uint16_t half = fetch16(pc);
  std::uint32_t next_pc = pc + 2;

  // 32-bit encodings: consume the prefix, act on the second half.
  if (!wide_pending_ && isa::thumb_is_wide_prefix(half)) {
    wide_pending_ = true;
    wide_first_ = half;
    regs_[15] = next_pc;
    return true;
  }

  const ThumbInstrSpec* spec;
  std::uint32_t word;
  std::uint32_t instr_pc;  // address of the (first halfword of the) instruction
  if (wide_pending_) {
    wide_pending_ = false;
    word = static_cast<std::uint32_t>(wide_first_) | (static_cast<std::uint32_t>(half) << 16);
    spec = isa::thumb_decode(wide_first_, half);
    instr_pc = pc - 2;
  } else {
    word = half;
    spec = isa::thumb_decode(half);
    instr_pc = pc;
  }
  if (spec == nullptr) {
    undefined_ = true;
    halted_ = true;
    return false;
  }
  const ThumbFields f = isa::thumb_extract(*spec, word);
  const std::string_view n = spec->name;
  const std::uint32_t pc_read = instr_pc + 4;

  auto wr = [&](unsigned r, std::uint32_t v) {
    regs_[r] = v;
    if (tracing_) reg_writes_.push_back({r, v});
  };
  auto set_nz = [&](std::uint32_t v) {
    n_ = (v >> 31) != 0;
    z_ = v == 0;
  };
  auto set_add = [&](const AddResult& r) {
    set_nz(r.value);
    c_ = r.carry;
    v_ = r.overflow;
  };
  auto trace_store = [&](std::uint32_t addr, std::uint32_t value, unsigned size) {
    if (tracing_) {
      mem_writes_.push_back({addr, size == 4 ? value : (value & ((1u << (8 * size)) - 1)), size});
    }
  };

  const std::uint32_t rm = regs_[f.rm];
  const std::uint32_t rn = regs_[f.rn];
  const auto imm = static_cast<std::uint32_t>(f.imm);

  if (n == "lsls") {
    const unsigned amt = static_cast<unsigned>(f.imm);
    std::uint32_t v = rm;
    if (amt != 0) {
      c_ = ((rm >> (32 - amt)) & 1) != 0;
      v = rm << amt;
    }
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "lsrs") {
    unsigned amt = static_cast<unsigned>(f.imm);
    if (amt == 0) amt = 32;  // encoding imm5=0 means 32
    const std::uint32_t v = amt >= 32 ? 0 : rm >> amt;
    c_ = ((amt <= 32 ? (rm >> (amt - 1)) : 0) & 1) != 0;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "asrs") {
    unsigned amt = static_cast<unsigned>(f.imm);
    if (amt == 0) amt = 32;
    const std::int32_t sv = static_cast<std::int32_t>(rm);
    const std::uint32_t v =
        amt >= 32 ? static_cast<std::uint32_t>(sv >> 31) : static_cast<std::uint32_t>(sv >> amt);
    c_ = amt >= 32 ? (rm >> 31) != 0 : ((rm >> (amt - 1)) & 1) != 0;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "adds") {
    const AddResult r = add_with_carry(rn, rm, false);
    wr(f.rd, r.value);
    set_add(r);
  } else if (n == "subs") {
    const AddResult r = add_with_carry(rn, ~rm, true);
    wr(f.rd, r.value);
    set_add(r);
  } else if (n == "adds.i3") {
    const AddResult r = add_with_carry(rn, imm, false);
    wr(f.rd, r.value);
    set_add(r);
  } else if (n == "subs.i3") {
    const AddResult r = add_with_carry(rn, ~imm, true);
    wr(f.rd, r.value);
    set_add(r);
  } else if (n == "movs.i8") {
    wr(f.rd, imm);
    set_nz(imm);
  } else if (n == "cmp.i8") {
    set_add(add_with_carry(regs_[f.rd], ~imm, true));
  } else if (n == "adds.i8") {
    const AddResult r = add_with_carry(regs_[f.rd], imm, false);
    set_add(r);
    wr(f.rd, r.value);
  } else if (n == "subs.i8") {
    const AddResult r = add_with_carry(regs_[f.rd], ~imm, true);
    set_add(r);
    wr(f.rd, r.value);
  } else if (n == "ands") {
    const std::uint32_t v = rn & rm;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "eors") {
    const std::uint32_t v = rn ^ rm;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "lsls.r" || n == "lsrs.r" || n == "asrs.r" || n == "rors") {
    const unsigned amt = rm & 0xff;
    std::uint32_t v = regs_[f.rd];
    if (n == "lsls.r") {
      if (amt != 0) {
        c_ = amt <= 32 ? ((v >> (32 - amt)) & 1) != 0 : false;
        v = amt >= 32 ? 0 : v << amt;
      }
    } else if (n == "lsrs.r") {
      if (amt != 0) {
        c_ = amt <= 32 ? ((v >> (amt - 1)) & 1) != 0 : false;
        v = amt >= 32 ? 0 : v >> amt;
      }
    } else if (n == "asrs.r") {
      if (amt != 0) {
        const std::int32_t sv = static_cast<std::int32_t>(v);
        c_ = amt >= 32 ? (v >> 31) != 0 : ((v >> (amt - 1)) & 1) != 0;
        v = amt >= 32 ? static_cast<std::uint32_t>(sv >> 31)
                      : static_cast<std::uint32_t>(sv >> amt);
      }
    } else {  // rors
      if (amt != 0) {
        const unsigned r5 = amt & 31;
        if (r5 != 0) v = (v >> r5) | (v << (32 - r5));
        c_ = (v >> 31) != 0;
      }
    }
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "adcs") {
    const AddResult r = add_with_carry(regs_[f.rd], rm, c_);
    wr(f.rd, r.value);
    set_add(r);
  } else if (n == "sbcs") {
    const AddResult r = add_with_carry(regs_[f.rd], ~rm, c_);
    wr(f.rd, r.value);
    set_add(r);
  } else if (n == "tst") {
    set_nz(regs_[f.rd] & rm);
  } else if (n == "rsbs") {
    const AddResult r = add_with_carry(~rm, 0, true);
    wr(f.rd, r.value);
    set_add(r);
  } else if (n == "cmp.r") {
    set_add(add_with_carry(regs_[f.rd], ~rm, true));
  } else if (n == "cmn") {
    set_add(add_with_carry(regs_[f.rd], rm, false));
  } else if (n == "orrs") {
    const std::uint32_t v = rn | rm;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "muls") {
    const std::uint32_t v = regs_[f.rd] * rm;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "bics") {
    const std::uint32_t v = rn & ~rm;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "mvns") {
    const std::uint32_t v = ~rm;
    wr(f.rd, v);
    set_nz(v);
  } else if (n == "add.hi") {
    const std::uint32_t a = f.rd == 15 ? pc_read : regs_[f.rd];
    const std::uint32_t b = f.rm == 15 ? pc_read : rm;
    const std::uint32_t v = a + b;
    if (f.rd == 15) {
      next_pc = v & ~1u;
    } else {
      wr(f.rd, v);
    }
  } else if (n == "cmp.hi") {
    set_add(add_with_carry(regs_[f.rd], ~rm, true));
  } else if (n == "mov.hi") {
    const std::uint32_t v = f.rm == 15 ? pc_read : rm;
    if (f.rd == 15) {
      next_pc = v & ~1u;
    } else {
      wr(f.rd, v);
    }
  } else if (n == "bx") {
    next_pc = rm & ~1u;
  } else if (n == "blx") {
    wr(14, (instr_pc + 2) | 1);
    next_pc = rm & ~1u;
  } else if (n == "ldr.lit") {
    const std::uint32_t a = (pc_read & ~3u) + imm;
    wr(f.rt, load_word(a));
  } else if (n == "str.r" || n == "strh.r" || n == "strb.r" || n == "str.i" || n == "strh.i" ||
             n == "strb.i" || n == "str.sp") {
    std::uint32_t a;
    if (n == "str.sp") a = regs_[13] + imm;
    else if (n.ends_with(".r")) a = rn + rm;
    else a = rn + imm;
    const std::uint32_t v = regs_[f.rt];
    unsigned size = 4;
    if (n.starts_with("strh")) size = 2;
    else if (n.starts_with("strb")) size = 1;
    for (unsigned i = 0; i < size; ++i) store_byte(a + i, static_cast<std::uint8_t>(v >> (8 * i)));
    trace_store(a, v, size);
  } else if (n == "ldr.r" || n == "ldrh.r" || n == "ldrb.r" || n == "ldrsb" || n == "ldrsh" ||
             n == "ldr.i" || n == "ldrh.i" || n == "ldrb.i" || n == "ldr.sp") {
    std::uint32_t a;
    if (n == "ldr.sp") a = regs_[13] + imm;
    else if (n.ends_with(".r") || n == "ldrsb" || n == "ldrsh") a = rn + rm;
    else a = rn + imm;
    std::uint32_t v;
    if (n.starts_with("ldrb") ) v = load_byte(a);
    else if (n == "ldrsb") v = static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(load_byte(a))));
    else if (n.starts_with("ldrh")) v = load_byte(a) | (load_byte(a + 1) << 8);
    else if (n == "ldrsh") {
      const std::uint16_t h = static_cast<std::uint16_t>(load_byte(a) | (load_byte(a + 1) << 8));
      v = static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(h)));
    } else v = load_word(a);
    wr(f.rt, v);
  } else if (n == "adr") {
    wr(f.rd, (pc_read & ~3u) + imm);
  } else if (n == "add.spi8") {
    wr(f.rd, regs_[13] + imm);
  } else if (n == "add.sp7") {
    wr(13, regs_[13] + imm);
  } else if (n == "sub.sp7") {
    wr(13, regs_[13] - imm);
  } else if (n == "sxth") {
    wr(f.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(rm))));
  } else if (n == "sxtb") {
    wr(f.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(rm))));
  } else if (n == "uxth") {
    wr(f.rd, rm & 0xffff);
  } else if (n == "uxtb") {
    wr(f.rd, rm & 0xff);
  } else if (n == "rev") {
    wr(f.rd, ((rm & 0xff) << 24) | ((rm & 0xff00) << 8) | ((rm >> 8) & 0xff00) | (rm >> 24));
  } else if (n == "rev16") {
    wr(f.rd, ((rm & 0x00ff00ff) << 8) | ((rm >> 8) & 0x00ff00ff));
  } else if (n == "revsh") {
    const std::uint16_t h = static_cast<std::uint16_t>(((rm & 0xff) << 8) | ((rm >> 8) & 0xff));
    wr(f.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(h))));
  } else if (n == "push") {
    unsigned count = 0;
    for (unsigned b = 0; b < 9; ++b) count += (f.reglist >> b) & 1;
    std::uint32_t a = regs_[13] - 4 * count;
    wr(13, regs_[13] - 4 * count);
    for (unsigned b = 0; b < 8; ++b) {
      if ((f.reglist >> b) & 1) {
        store_word(a, regs_[b]);
        trace_store(a, regs_[b], 4);
        a += 4;
      }
    }
    if ((f.reglist >> 8) & 1) {
      store_word(a, regs_[14]);
      trace_store(a, regs_[14], 4);
    }
  } else if (n == "pop") {
    // Base-register writeback happens at sequencer setup (first), matching
    // the core's transfer FSM; loads then walk the captured address.
    std::uint32_t a = regs_[13];
    unsigned count = 0;
    for (unsigned b = 0; b < 9; ++b) count += (f.reglist >> b) & 1;
    wr(13, a + 4 * count);
    for (unsigned b = 0; b < 8; ++b) {
      if ((f.reglist >> b) & 1) {
        wr(b, load_word(a));
        a += 4;
      }
    }
    if ((f.reglist >> 8) & 1) {
      next_pc = load_word(a) & ~1u;
    }
  } else if (n == "stm") {
    std::uint32_t a = regs_[f.rn];
    unsigned count = 0;
    for (unsigned b = 0; b < 8; ++b) count += (f.reglist >> b) & 1;
    wr(f.rn, a + 4 * count);
    for (unsigned b = 0; b < 8; ++b) {
      if ((f.reglist >> b) & 1) {
        store_word(a, regs_[b]);
        trace_store(a, regs_[b], 4);
        a += 4;
      }
    }
  } else if (n == "ldm") {
    std::uint32_t a = regs_[f.rn];
    const bool rn_in_list = ((f.reglist >> f.rn) & 1) != 0;
    unsigned count = 0;
    for (unsigned b = 0; b < 8; ++b) count += (f.reglist >> b) & 1;
    if (!rn_in_list) wr(f.rn, a + 4 * count);
    for (unsigned b = 0; b < 8; ++b) {
      if ((f.reglist >> b) & 1) {
        wr(b, load_word(a));
        a += 4;
      }
    }
  } else if (n == "b.cond") {
    bool take = false;
    switch (f.cond) {
      case 0: take = z_; break;
      case 1: take = !z_; break;
      case 2: take = c_; break;
      case 3: take = !c_; break;
      case 4: take = n_; break;
      case 5: take = !n_; break;
      case 6: take = v_; break;
      case 7: take = !v_; break;
      case 8: take = c_ && !z_; break;
      case 9: take = !c_ || z_; break;
      case 10: take = n_ == v_; break;
      case 11: take = n_ != v_; break;
      case 12: take = !z_ && n_ == v_; break;
      case 13: take = z_ || n_ != v_; break;
      default: break;
    }
    if (take) next_pc = pc_read + imm;
  } else if (n == "b") {
    next_pc = pc_read + imm;
  } else if (n == "bl") {
    // instr_pc points at the first halfword; return address after the pair.
    wr(14, (instr_pc + 4) | 1);
    next_pc = instr_pc + 4 + static_cast<std::uint32_t>(f.imm);
  } else if (n == "bkpt" || n == "svc" || n == "udf") {
    halted_ = true;
  } else if (n == "nop" || n == "yield" || n == "wfe" || n == "wfi" || n == "sev" ||
             n == "cps" || n == "dmb" || n == "dsb" || n == "isb" || n == "msr" || n == "mrs") {
    // Architectural no-ops on this single-core, interrupt-free model.
  } else {
    undefined_ = true;
    halted_ = true;
    return false;
  }

  regs_[15] = next_pc;
  return !halted_;
}

std::uint64_t ThumbIss::run(std::uint64_t max_steps) {
  std::uint64_t s = 0;
  while (s < max_steps && !halted_) {
    step();
    ++s;
  }
  return s;
}

}  // namespace pdat::iss
