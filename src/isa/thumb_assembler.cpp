#include "isa/thumb_assembler.h"

#include <cctype>
#include <sstream>

#include "base/types.h"
#include "isa/thumb_encoding.h"

namespace pdat::isa {
namespace {

unsigned parse_reg(const std::string& s) {
  if (s == "sp") return 13;
  if (s == "lr") return 14;
  if (s == "pc") return 15;
  if (s.size() >= 2 && s[0] == 'r') {
    const int v = std::stoi(s.substr(1));
    if (v >= 0 && v <= 15) return static_cast<unsigned>(v);
  }
  throw PdatError("bad thumb register: " + s);
}

struct Operand {
  enum class Kind { Reg, Imm, Label, Mem, RegList } kind;
  unsigned reg = 0;
  std::int64_t imm = 0;
  std::string label;
  unsigned base = 0;        // Mem: [base, #imm] or [base, index]
  bool mem_has_index = false;
  unsigned index = 0;
  unsigned reglist = 0;     // bit 8 = lr/pc marker
};

std::vector<std::string> split_top(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : s) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  for (auto& o : out) {
    while (!o.empty() && std::isspace(static_cast<unsigned char>(o.front()))) o.erase(o.begin());
    while (!o.empty() && std::isspace(static_cast<unsigned char>(o.back()))) o.pop_back();
  }
  // Blank tokens (e.g. the whitespace left before a stripped comment) carry
  // no operand; parse_operand must never see an empty string.
  std::erase_if(out, [](const std::string& o) { return o.empty(); });
  return out;
}

bool parse_int(std::string s, std::int64_t& v) {
  if (!s.empty() && s[0] == '#') s.erase(s.begin());
  if (s.empty()) return false;
  std::size_t pos = 0;
  try {
    v = std::stoll(s, &pos, 0);
  } catch (...) {
    return false;
  }
  return pos == s.size();
}

Operand parse_operand(const std::string& s) {
  Operand op;
  if (s.front() == '[') {
    op.kind = Operand::Kind::Mem;
    const std::string inner = s.substr(1, s.size() - 2);
    const auto parts = split_top(inner);
    op.base = parse_reg(parts.at(0));
    if (parts.size() > 1) {
      if (!parts[1].empty() && (parts[1][0] == '#' || std::isdigit(static_cast<unsigned char>(parts[1][0])) || parts[1][0] == '-')) {
        if (!parse_int(parts[1], op.imm)) throw PdatError("bad mem offset: " + s);
      } else {
        op.mem_has_index = true;
        op.index = parse_reg(parts[1]);
      }
    }
    return op;
  }
  if (s.front() == '{') {
    op.kind = Operand::Kind::RegList;
    for (const auto& r : split_top(s.substr(1, s.size() - 2))) {
      if (r == "lr" || r == "pc") {
        op.reglist |= 1u << 8;
      } else {
        const unsigned idx = parse_reg(r);
        if (idx > 7) throw PdatError("reglist registers must be r0-r7/lr/pc");
        op.reglist |= 1u << idx;
      }
    }
    return op;
  }
  if (s.front() == '#' || parse_int(s, op.imm)) {
    std::int64_t v;
    if (!parse_int(s, v)) throw PdatError("bad immediate: " + s);
    op.kind = Operand::Kind::Imm;
    op.imm = v;
    return op;
  }
  if (s == "sp" || s == "lr" || s == "pc" || (s[0] == 'r' && std::isdigit(static_cast<unsigned char>(s[1])))) {
    op.kind = Operand::Kind::Reg;
    op.reg = parse_reg(s);
    return op;
  }
  op.kind = Operand::Kind::Label;
  op.label = s;
  return op;
}

const std::map<std::string, unsigned>& cond_codes() {
  static const std::map<std::string, unsigned> m = {
      {"eq", 0}, {"ne", 1}, {"cs", 2}, {"hs", 2}, {"cc", 3}, {"lo", 3}, {"mi", 4},
      {"pl", 5}, {"vs", 6}, {"vc", 7}, {"hi", 8}, {"ls", 9}, {"ge", 10}, {"lt", 11},
      {"gt", 12}, {"le", 13}};
  return m;
}

struct Pending {
  std::string mn;
  std::vector<Operand> ops;
  std::uint32_t addr;
  int line;
  int size = 2;  // bytes (bl = 4)
};

}  // namespace

ThumbProgram assemble_thumb(const std::string& source) {
  ThumbProgram prog;
  std::vector<Pending> insts;
  std::uint32_t addr = 0;
  std::istringstream in(source);
  std::string raw;
  int line_no = 0;

  auto emit = [&](const std::string& mn, std::vector<Operand> ops, int size = 2) {
    insts.push_back(Pending{mn, std::move(ops), addr, line_no, size});
    addr += static_cast<std::uint32_t>(size);
  };
  auto imm_op = [](std::int64_t v) {
    Operand o;
    o.kind = Operand::Kind::Imm;
    o.imm = v;
    return o;
  };

  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    const auto hash = line.find('#');
    // '#' is also the immediate sigil; only strip when preceded by whitespace
    // at position 0 or after "  # comment" style. We use '@' and ';' as
    // comment markers instead to avoid ambiguity.
    (void)hash;
    for (const char marker : {'@', ';'}) {
      const auto at = line.find(marker);
      if (at != std::string::npos) line.resize(at);
    }
    const auto colon = line.find(':');
    if (colon != std::string::npos && line.find('[') > colon) {
      std::string label = line.substr(0, colon);
      while (!label.empty() && std::isspace(static_cast<unsigned char>(label.front())))
        label.erase(label.begin());
      while (!label.empty() && std::isspace(static_cast<unsigned char>(label.back())))
        label.pop_back();
      if (!label.empty()) prog.labels[label] = addr;
      line = line.substr(colon + 1);
    }
    std::istringstream ls(line);
    std::string mn;
    if (!(ls >> mn)) continue;
    std::string rest;
    std::getline(ls, rest);
    std::vector<Operand> ops;
    for (const auto& tok : split_top(rest)) ops.push_back(parse_operand(tok));

    if (mn == "li") {
      // li rd, imm32 -> movs + (lsls+adds)*: builds the value byte by byte.
      if (ops.size() != 2) throw PdatError("line " + std::to_string(line_no) + ": li rd, imm");
      const auto v = static_cast<std::uint32_t>(ops[1].imm);
      if (v < 256) {
        emit("movs", {ops[0], imm_op(v)});
      } else {
        emit("movs", {ops[0], imm_op((v >> 24) & 0xff)});
        for (int shift = 16; shift >= 0; shift -= 8) {
          emit("lsls", {ops[0], ops[0], imm_op(8)});
          const std::uint32_t byte = (v >> shift) & 0xff;
          if (byte != 0) emit("adds", {ops[0], imm_op(byte)});
        }
      }
    } else if (mn == "bl") {
      emit("bl", std::move(ops), 4);
    } else {
      emit(mn, std::move(ops));
    }
  }

  auto resolve = [&](const Operand& o, std::uint32_t cur, int line) -> std::int64_t {
    if (o.kind == Operand::Kind::Imm) return o.imm;
    if (o.kind == Operand::Kind::Label) {
      auto it = prog.labels.find(o.label);
      if (it == prog.labels.end())
        throw PdatError("line " + std::to_string(line) + ": unknown label " + o.label);
      // Branch offsets are relative to PC+4.
      return static_cast<std::int64_t>(it->second) - (static_cast<std::int64_t>(cur) + 4);
    }
    throw PdatError("line " + std::to_string(line) + ": expected imm or label");
  };

  for (const auto& p : insts) {
    const auto& ops = p.ops;
    auto is_imm = [&](std::size_t i) {
      return i < ops.size() &&
             (ops[i].kind == Operand::Kind::Imm || ops[i].kind == Operand::Kind::Label);
    };
    ThumbFields f;
    std::string spec_name;

    auto encode_now = [&]() {
      const ThumbInstrSpec& spec = thumb_instr(spec_name);
      const std::uint32_t w = thumb_encode(spec, f);
      if (spec.wide) {
        prog.halves.push_back(static_cast<std::uint16_t>(w));
        prog.halves.push_back(static_cast<std::uint16_t>(w >> 16));
      } else {
        prog.halves.push_back(static_cast<std::uint16_t>(w));
      }
      ++prog.static_profile[spec_name];
    };

    const std::string& mn = p.mn;
    if (mn == "movs") { spec_name = "movs.i8"; f.rd = ops.at(0).reg; f.imm = static_cast<std::int32_t>(ops.at(1).imm); }
    else if (mn == "mov") { spec_name = "mov.hi"; f.rd = ops.at(0).reg; f.rm = ops.at(1).reg; }
    else if (mn == "adds" && ops.size() == 3 && !is_imm(2)) { spec_name = "adds"; f.rd = ops[0].reg; f.rn = ops[1].reg; f.rm = ops[2].reg; }
    else if (mn == "adds" && ops.size() == 3) { spec_name = "adds.i3"; f.rd = ops[0].reg; f.rn = ops[1].reg; f.imm = static_cast<std::int32_t>(ops[2].imm); }
    else if (mn == "adds" && ops.size() == 2) { spec_name = "adds.i8"; f.rd = ops[0].reg; f.imm = static_cast<std::int32_t>(ops[1].imm); }
    else if (mn == "add" && ops.size() == 3 && ops[1].kind == Operand::Kind::Reg && ops[1].reg == 13) { spec_name = "add.spi8"; f.rd = ops[0].reg; f.imm = static_cast<std::int32_t>(ops[2].imm); }
    else if (mn == "add" && ops.size() == 2 && ops[0].reg == 13 && is_imm(1)) { spec_name = "add.sp7"; f.imm = static_cast<std::int32_t>(ops[1].imm); }
    else if (mn == "add" && ops.size() == 2) { spec_name = "add.hi"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "sub" && ops.size() == 2 && ops[0].reg == 13) { spec_name = "sub.sp7"; f.imm = static_cast<std::int32_t>(ops[1].imm); }
    else if (mn == "subs" && ops.size() == 3 && !is_imm(2)) { spec_name = "subs"; f.rd = ops[0].reg; f.rn = ops[1].reg; f.rm = ops[2].reg; }
    else if (mn == "subs" && ops.size() == 3) { spec_name = "subs.i3"; f.rd = ops[0].reg; f.rn = ops[1].reg; f.imm = static_cast<std::int32_t>(ops[2].imm); }
    else if (mn == "subs" && ops.size() == 2) { spec_name = "subs.i8"; f.rd = ops[0].reg; f.imm = static_cast<std::int32_t>(ops[1].imm); }
    else if (mn == "cmp" && is_imm(1)) { spec_name = "cmp.i8"; f.rd = ops[0].reg; f.imm = static_cast<std::int32_t>(ops[1].imm); }
    else if (mn == "cmp") { spec_name = "cmp.r"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "lsls" && ops.size() == 3 && is_imm(2)) { spec_name = "lsls"; f.rd = ops[0].reg; f.rm = ops[1].reg; f.imm = static_cast<std::int32_t>(ops[2].imm); }
    else if (mn == "lsls") { spec_name = "lsls.r"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "lsrs" && ops.size() == 3 && is_imm(2)) { spec_name = "lsrs"; f.rd = ops[0].reg; f.rm = ops[1].reg; f.imm = static_cast<std::int32_t>(ops[2].imm); }
    else if (mn == "lsrs") { spec_name = "lsrs.r"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "asrs" && ops.size() == 3 && is_imm(2)) { spec_name = "asrs"; f.rd = ops[0].reg; f.rm = ops[1].reg; f.imm = static_cast<std::int32_t>(ops[2].imm); }
    else if (mn == "asrs") { spec_name = "asrs.r"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "rors") { spec_name = "rors"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "ands") { spec_name = "ands"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "eors") { spec_name = "eors"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "orrs") { spec_name = "orrs"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "bics") { spec_name = "bics"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "mvns") { spec_name = "mvns"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "adcs") { spec_name = "adcs"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "sbcs") { spec_name = "sbcs"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "muls") { spec_name = "muls"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "tst") { spec_name = "tst"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "cmn") { spec_name = "cmn"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "rsbs") { spec_name = "rsbs"; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "sxth" || mn == "sxtb" || mn == "uxth" || mn == "uxtb" || mn == "rev" ||
             mn == "rev16" || mn == "revsh") { spec_name = mn; f.rd = ops[0].reg; f.rm = ops[1].reg; }
    else if (mn == "ldr" || mn == "str" || mn == "ldrb" || mn == "strb" || mn == "ldrh" ||
             mn == "strh" || mn == "ldrsb" || mn == "ldrsh") {
      const Operand& m = ops.at(1);
      if (m.kind != Operand::Kind::Mem) throw PdatError("line " + std::to_string(p.line) + ": expected [..]");
      f.rt = ops[0].reg;
      if (m.mem_has_index) {
        spec_name = (mn == "ldrsb" || mn == "ldrsh") ? mn : mn + ".r";
        f.rn = m.base;
        f.rm = m.index;
      } else if (m.base == 13) {
        spec_name = mn + ".sp";
        f.imm = static_cast<std::int32_t>(m.imm);
      } else if (m.base == 15) {
        spec_name = "ldr.lit";
        f.imm = static_cast<std::int32_t>(m.imm);
      } else {
        spec_name = mn + ".i";
        f.rn = m.base;
        f.imm = static_cast<std::int32_t>(m.imm);
      }
    }
    else if (mn == "adr") {
      spec_name = "adr";
      f.rd = ops[0].reg;
      if (ops.at(1).kind == Operand::Kind::Label) {
        auto it = prog.labels.find(ops[1].label);
        if (it == prog.labels.end())
          throw PdatError("line " + std::to_string(p.line) + ": unknown label " + ops[1].label);
        const std::int64_t base = (static_cast<std::int64_t>(p.addr) + 4) & ~std::int64_t{3};
        const std::int64_t off = static_cast<std::int64_t>(it->second) - base;
        if (off < 0 || off > 1020 || (off & 3))
          throw PdatError("line " + std::to_string(p.line) + ": adr target out of range");
        f.imm = static_cast<std::int32_t>(off);
      } else {
        f.imm = static_cast<std::int32_t>(ops[1].imm);
      }
    }
    else if (mn == "push" || mn == "pop") { spec_name = mn; f.reglist = ops.at(0).reglist; }
    else if (mn == "stm" || mn == "ldm") { spec_name = mn; f.rn = ops.at(0).reg; f.reglist = ops.at(1).reglist & 0xff; }
    else if (mn == "b") { spec_name = "b"; f.imm = static_cast<std::int32_t>(resolve(ops.at(0), p.addr, p.line)); }
    else if (mn.size() == 3 && mn[0] == 'b' && cond_codes().count(mn.substr(1))) {
      spec_name = "b.cond";
      f.cond = cond_codes().at(mn.substr(1));
      f.imm = static_cast<std::int32_t>(resolve(ops.at(0), p.addr, p.line));
    }
    else if (mn == "bl") { spec_name = "bl"; f.imm = static_cast<std::int32_t>(resolve(ops.at(0), p.addr, p.line)); }
    else if (mn == "bx") { spec_name = "bx"; f.rm = ops.at(0).reg; }
    else if (mn == "blx") { spec_name = "blx"; f.rm = ops.at(0).reg; }
    else if (mn == "nop" || mn == "wfe" || mn == "wfi" || mn == "sev" || mn == "yield" ||
             mn == "dmb" || mn == "dsb" || mn == "isb") { spec_name = mn; }
    else if (mn == "bkpt" || mn == "svc" || mn == "udf") {
      spec_name = mn;
      f.imm = ops.empty() ? 0 : static_cast<std::int32_t>(ops[0].imm);
    }
    else { throw PdatError("line " + std::to_string(p.line) + ": unknown mnemonic " + mn); }

    encode_now();
  }
  return prog;
}

}  // namespace pdat::isa
