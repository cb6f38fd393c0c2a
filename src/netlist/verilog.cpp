#include "netlist/verilog.h"

#include <cctype>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace pdat {
namespace {

std::string wire_name(NetId n) { return "n" + std::to_string(n); }

}  // namespace

void write_verilog(std::ostream& os, const Netlist& nl, const std::string& module_name) {
  os << "module " << module_name << " (";
  bool first = true;
  for (const auto& p : nl.inputs()) {
    os << (first ? "" : ", ") << p.name;
    first = false;
  }
  for (const auto& p : nl.outputs()) {
    os << (first ? "" : ", ") << p.name;
    first = false;
  }
  os << ");\n";
  for (const auto& p : nl.inputs()) {
    if (p.bits.size() == 1)
      os << "  input " << p.name << ";\n";
    else
      os << "  input [" << p.bits.size() - 1 << ":0] " << p.name << ";\n";
  }
  for (const auto& p : nl.outputs()) {
    if (p.bits.size() == 1)
      os << "  output " << p.name << ";\n";
    else
      os << "  output [" << p.bits.size() - 1 << ":0] " << p.name << ";\n";
  }
  os << "  wire clk;\n";
  for (NetId n = 0; n < nl.num_nets(); ++n) os << "  wire " << wire_name(n) << ";\n";

  // Port aliasing.
  for (const auto& p : nl.inputs()) {
    for (std::size_t i = 0; i < p.bits.size(); ++i) {
      os << "  assign " << wire_name(p.bits[i]) << " = " << p.name;
      if (p.bits.size() > 1) os << "[" << i << "]";
      os << ";\n";
    }
  }
  for (const auto& p : nl.outputs()) {
    for (std::size_t i = 0; i < p.bits.size(); ++i) {
      os << "  assign " << p.name;
      if (p.bits.size() > 1) os << "[" << i << "]";
      os << " = " << wire_name(p.bits[i]) << ";\n";
    }
  }

  std::size_t inst = 0;
  for (CellId id : nl.live_cells()) {
    const Cell& c = nl.cell(id);
    os << "  " << cell_name(c.kind) << " U" << inst++ << " (";
    const int n = cell_num_inputs(c.kind);
    for (int i = 0; i < n; ++i) {
      os << "." << cell_input_pin(c.kind, i) << "(" << wire_name(c.in[static_cast<std::size_t>(i)])
         << "), ";
    }
    if (c.kind == CellKind::Dff) os << ".CK(clk), ";
    os << "." << cell_output_pin(c.kind) << "(" << wire_name(c.out) << "));";
    if (c.kind == CellKind::Dff) os << "  // init=" << tri_char(c.init);
    os << "\n";
  }
  os << "endmodule\n";
}

std::string to_verilog(const Netlist& nl, const std::string& module_name) {
  std::ostringstream os;
  write_verilog(os, nl, module_name);
  return os.str();
}

namespace {

// --- tiny tokenizer for the structural subset ------------------------------
struct Lexer {
  std::string text;
  std::size_t pos = 0;
  Tri pending_init = Tri::F;
  bool saw_init = false;

  void skip_space() {
    while (pos < text.size()) {
      if (std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      } else if (text.compare(pos, 2, "//") == 0) {
        std::size_t eol = text.find('\n', pos);
        std::string comment = text.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
        auto at = comment.find("init=");
        if (at != std::string::npos && at + 5 < comment.size()) {
          const char v = comment[at + 5];
          pending_init = v == '1' ? Tri::T : (v == 'x' ? Tri::X : Tri::F);
          saw_init = true;
        }
        pos = eol == std::string::npos ? text.size() : eol;
      } else {
        break;
      }
    }
  }

  bool eof() {
    skip_space();
    return pos >= text.size();
  }

  std::string next() {
    skip_space();
    if (pos >= text.size()) throw PdatError("verilog parse: unexpected EOF");
    const char c = text[pos];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      std::size_t start = pos;
      while (pos < text.size() && (std::isalnum(static_cast<unsigned char>(text[pos])) ||
                                   text[pos] == '_' || text[pos] == '$')) {
        ++pos;
      }
      return text.substr(start, pos - start);
    }
    ++pos;
    return std::string(1, c);
  }

  std::string peek() {
    const std::size_t save = pos;
    const Tri save_init = pending_init;
    const bool save_saw = saw_init;
    std::string t = next();
    pos = save;
    pending_init = save_init;
    saw_init = save_saw;
    return t;
  }

  void expect(const std::string& tok) {
    std::string t = next();
    if (t != tok) throw PdatError("verilog parse: expected '" + tok + "' got '" + t + "'");
  }
};

}  // namespace

Netlist read_verilog_string(const std::string& text) {
  Lexer lx{text};
  Netlist nl;

  lx.expect("module");
  lx.next();  // module name
  lx.expect("(");
  while (lx.peek() != ")") lx.next();
  lx.expect(")");
  lx.expect(";");

  struct PendingPort {
    std::string name;
    std::size_t width;
    bool is_input;
  };
  std::vector<PendingPort> ports;
  std::unordered_map<std::string, NetId> wires;  // "nK" -> net id
  // name[idx] -> net for port bits
  std::unordered_map<std::string, std::vector<NetId>> in_port_bits, out_port_bits;

  auto parse_width = [&](std::size_t& width) {
    width = 1;
    if (lx.peek() == "[") {
      lx.expect("[");
      width = static_cast<std::size_t>(std::stoul(lx.next())) + 1;
      lx.expect(":");
      lx.next();  // 0
      lx.expect("]");
    }
  };

  auto wire_net = [&](const std::string& name) -> NetId {
    auto it = wires.find(name);
    if (it != wires.end()) return it->second;
    const NetId id = nl.new_net();
    wires.emplace(name, id);
    return id;
  };

  // Pass 1: declarations and instances.
  struct Instance {
    CellKind kind;
    std::map<std::string, std::string> pins;  // pin -> wire token
    Tri init;
  };
  std::vector<Instance> instances;
  struct Assign {
    std::string lhs, lhs_idx, rhs, rhs_idx;
  };
  std::vector<Assign> assigns;

  while (!lx.eof()) {
    std::string tok = lx.next();
    if (tok == "endmodule") break;
    if (tok == "input" || tok == "output") {
      std::size_t width;
      parse_width(width);
      std::string name = lx.next();
      lx.expect(";");
      ports.push_back({name, width, tok == "input"});
      continue;
    }
    if (tok == "wire") {
      std::string name = lx.next();
      lx.expect(";");
      if (name != "clk") wire_net(name);
      continue;
    }
    if (tok == "assign") {
      Assign a;
      a.lhs = lx.next();
      if (lx.peek() == "[") {
        lx.expect("[");
        a.lhs_idx = lx.next();
        lx.expect("]");
      }
      lx.expect("=");
      a.rhs = lx.next();
      if (lx.peek() == "[") {
        lx.expect("[");
        a.rhs_idx = lx.next();
        lx.expect("]");
      }
      lx.expect(";");
      assigns.push_back(a);
      continue;
    }
    // Otherwise: a cell instance "<CELL> <inst> ( .PIN(wire), ... );"
    Instance inst;
    inst.kind = cell_kind_from_name(tok);
    lx.next();  // instance name
    lx.expect("(");
    lx.saw_init = false;
    while (true) {
      lx.expect(".");
      std::string pin = lx.next();
      lx.expect("(");
      std::string w = lx.next();
      lx.expect(")");
      inst.pins[pin] = w;
      std::string sep = lx.next();
      if (sep == ")") break;
      if (sep != ",") throw PdatError("verilog parse: bad pin list");
    }
    lx.expect(";");
    // The init comment trails the ');' — consume whitespace so it is seen.
    lx.skip_space();
    inst.init = lx.saw_init ? lx.pending_init : Tri::F;
    instances.push_back(std::move(inst));
  }

  // Create ports.
  for (const auto& p : ports) {
    if (p.is_input) {
      auto bits = nl.add_input(p.name, p.width);
      in_port_bits[p.name] = bits;
    }
  }

  // Resolve assigns: input aliases drive internal wires with buffers is
  // wasteful; instead we union the nets. We process "wireN = port[bit]" by
  // mapping wireN's token to the port net, and "port[bit] = wireN" by
  // recording output bits.
  std::unordered_map<std::string, std::vector<NetId>> out_bits_accum;
  for (const auto& p : ports) {
    if (!p.is_input) out_bits_accum[p.name] = std::vector<NetId>(p.width, kNoNet);
  }
  for (const auto& a : assigns) {
    const bool lhs_is_port = out_bits_accum.count(a.lhs) || in_port_bits.count(a.lhs);
    if (!lhs_is_port) {
      // nX = inport[i]
      auto it = in_port_bits.find(a.rhs);
      if (it == in_port_bits.end()) throw PdatError("verilog parse: assign from unknown port");
      const std::size_t idx = a.rhs_idx.empty() ? 0 : std::stoul(a.rhs_idx);
      // Re-point the wire token at the port net.
      wires[a.lhs] = it->second[idx];
    } else {
      // outport[i] = nX
      auto it = out_bits_accum.find(a.lhs);
      if (it == out_bits_accum.end()) throw PdatError("verilog parse: assign to input port");
      const std::size_t idx = a.lhs_idx.empty() ? 0 : std::stoul(a.lhs_idx);
      it->second[idx] = wire_net(a.rhs);
    }
  }

  // Instantiate cells.
  for (const auto& inst : instances) {
    const int n = cell_num_inputs(inst.kind);
    std::array<NetId, 3> in = {kNoNet, kNoNet, kNoNet};
    for (int i = 0; i < n; ++i) {
      auto pin = std::string(cell_input_pin(inst.kind, i));
      auto it = inst.pins.find(pin);
      if (it == inst.pins.end()) throw PdatError("verilog parse: missing pin " + pin);
      in[static_cast<std::size_t>(i)] = wire_net(it->second);
    }
    auto out_pin = std::string(cell_output_pin(inst.kind));
    auto it = inst.pins.find(out_pin);
    if (it == inst.pins.end()) throw PdatError("verilog parse: missing output pin");
    const NetId out = wire_net(it->second);
    const CellId cid = nl.add_cell_driving(out, inst.kind, in[0], in[1], in[2]);
    nl.cell(cid).init = inst.init;
  }

  for (const auto& p : ports) {
    if (!p.is_input) {
      auto& bits = out_bits_accum[p.name];
      for (auto& b : bits) {
        if (b == kNoNet) throw PdatError("verilog parse: output bit of " + p.name + " unassigned");
      }
      nl.add_output(p.name, bits);
    }
  }
  return nl;
}

}  // namespace pdat
