#include "formal/cnf_encoder.h"

namespace pdat {

using sat::Lit;

namespace {

// out <-> AND(ins): (¬out ∨ in_i) for all i;  (out ∨ ¬in_1 ∨ ... ∨ ¬in_n)
void enc_and(sat::Solver& s, Lit out, const std::vector<Lit>& ins) {
  std::vector<Lit> big{out};
  for (Lit in : ins) {
    s.add_clause(~out, in);
    big.push_back(~in);
  }
  s.add_clause(big);
}

void enc_or(sat::Solver& s, Lit out, const std::vector<Lit>& ins) {
  std::vector<Lit> big{~out};
  for (Lit in : ins) {
    s.add_clause(out, ~in);
    big.push_back(in);
  }
  s.add_clause(big);
}

void enc_xor(sat::Solver& s, Lit out, Lit a, Lit b) {
  s.add_clause(~out, a, b);
  s.add_clause(~out, ~a, ~b);
  s.add_clause(out, ~a, b);
  s.add_clause(out, a, ~b);
}

void enc_mux(sat::Solver& s, Lit out, Lit a, Lit b, Lit sel) {
  // sel=0 -> out=a ; sel=1 -> out=b
  s.add_clause(sel, ~a, out);
  s.add_clause(sel, a, ~out);
  s.add_clause(~sel, ~b, out);
  s.add_clause(~sel, b, ~out);
}

void enc_eq(sat::Solver& s, Lit x, Lit y) {
  s.add_clause(~x, y);
  s.add_clause(x, ~y);
}

}  // namespace

void encode_cell_cnf(sat::Solver& s, CellKind kind, Lit out, Lit a, Lit b, Lit c) {
  switch (kind) {
    case CellKind::Const0: s.add_clause(~out); break;
    case CellKind::Const1: s.add_clause(out); break;
    case CellKind::Buf: enc_eq(s, out, a); break;
    case CellKind::Inv: enc_eq(s, out, ~a); break;
    case CellKind::And2: enc_and(s, out, {a, b}); break;
    case CellKind::Or2: enc_or(s, out, {a, b}); break;
    case CellKind::Nand2: enc_and(s, ~out, {a, b}); break;
    case CellKind::Nor2: enc_or(s, ~out, {a, b}); break;
    case CellKind::Xor2: enc_xor(s, out, a, b); break;
    case CellKind::Xnor2: enc_xor(s, ~out, a, b); break;
    case CellKind::And3: enc_and(s, out, {a, b, c}); break;
    case CellKind::Or3: enc_or(s, out, {a, b, c}); break;
    case CellKind::Nand3: enc_and(s, ~out, {a, b, c}); break;
    case CellKind::Nor3: enc_or(s, ~out, {a, b, c}); break;
    case CellKind::Mux2: enc_mux(s, out, a, b, c); break;
    case CellKind::Aoi21:
      // ZN = ~((A1&A2) | B), a=A1 b=A2 c=B
      s.add_clause(~out, ~c);
      s.add_clause(~out, ~a, ~b);
      s.add_clause(out, a, c);
      s.add_clause(out, b, c);
      break;
    case CellKind::Oai21:
      // ZN = ~((A1|A2) & B)
      s.add_clause(~out, ~a, ~c);
      s.add_clause(~out, ~b, ~c);
      s.add_clause(out, a, b);
      s.add_clause(out, c);
      break;
    case CellKind::Dff: break;  // handled by link()/fix_initial()
    default: throw PdatError("encode_cell_cnf: bad kind");
  }
}

FrameEncoder::FrameEncoder(const Netlist& nl) : nl_(nl), lv_(levelize(nl)) {}

Frame FrameEncoder::encode(sat::Solver& s) const {
  Frame f;
  f.net_var.assign(nl_.num_nets(), -1);
  for (NetId n = 0; n < nl_.num_nets(); ++n) f.net_var[n] = s.new_var();
  for (CellId id : lv_.comb_order) {
    const Cell& c = nl_.cell(id);
    const Lit out = f.lit(c.out);
    const Lit a = c.in[0] == kNoNet ? Lit() : f.lit(c.in[0]);
    const Lit b = c.in[1] == kNoNet ? Lit() : f.lit(c.in[1]);
    const Lit d = c.in[2] == kNoNet ? Lit() : f.lit(c.in[2]);
    encode_cell_cnf(s, c.kind, out, a, b, d);
  }
  return f;
}

void FrameEncoder::link(sat::Solver& s, const Frame& prev, const Frame& next) const {
  for (CellId id : lv_.flops) {
    const Cell& c = nl_.cell(id);
    const Lit q_next = next.lit(c.out);
    const Lit d_prev = prev.lit(c.in[0]);
    s.add_clause(~q_next, d_prev);
    s.add_clause(q_next, ~d_prev);
  }
}

void FrameEncoder::fix_initial(sat::Solver& s, const Frame& f) const {
  for (CellId id : lv_.flops) {
    const Cell& c = nl_.cell(id);
    if (c.init == Tri::X) continue;
    s.add_clause(f.lit(c.out, c.init == Tri::T));
  }
}

std::vector<Frame> FrameEncoder::unroll(sat::Solver& s, int frames, bool from_reset,
                                        const std::vector<NetId>& assumes) const {
  std::vector<Frame> out;
  for (int t = 0; t < frames; ++t) {
    out.push_back(encode(s));
    if (t > 0) {
      link(s, out[static_cast<std::size_t>(t - 1)], out.back());
    } else if (from_reset) {
      fix_initial(s, out.back());
    }
    for (NetId a : assumes) s.add_clause(out.back().lit(a, true));
  }
  return out;
}

Lit make_violation_aux(sat::Solver& s, const GateProperty& p, const Frame& f) {
  const Lit aux = sat::mk_lit(s.new_var());
  switch (p.kind) {
    case PropKind::Const0: s.add_clause(~aux, f.lit(p.target, true)); break;
    case PropKind::Const1: s.add_clause(~aux, f.lit(p.target, false)); break;
    case PropKind::Implies:  // violation: a && !b
      s.add_clause(~aux, f.lit(p.a, true));
      s.add_clause(~aux, f.lit(p.b, false));
      break;
    case PropKind::Equiv:  // violation: a != b
      s.add_clause(~aux, f.lit(p.a, true), f.lit(p.b, true));
      s.add_clause(~aux, f.lit(p.a, false), f.lit(p.b, false));
      break;
  }
  return aux;
}

std::vector<Lit> make_hypothesis(sat::Solver& s, const GateProperty& p,
                                 std::span<const Frame> frames) {
  std::vector<Lit> hyp;
  if (p.kind == PropKind::Const0 || p.kind == PropKind::Const1) {
    for (const Frame& f : frames) hyp.push_back(f.lit(p.target, p.kind == PropKind::Const1));
    return hyp;
  }
  const Lit act = sat::mk_lit(s.new_var());
  for (const Frame& f : frames) {
    s.add_clause(~act, f.lit(p.a, false), f.lit(p.b, true));
    if (p.kind == PropKind::Equiv) s.add_clause(~act, f.lit(p.a, true), f.lit(p.b, false));
  }
  hyp.push_back(act);
  return hyp;
}

bool violated_in_model(const sat::Solver& s, const GateProperty& p, const Frame& f) {
  auto val = [&](NetId n) { return s.model_value(f.net_var[n]); };
  switch (p.kind) {
    case PropKind::Const0: return val(p.target);
    case PropKind::Const1: return !val(p.target);
    case PropKind::Implies: return val(p.a) && !val(p.b);
    case PropKind::Equiv: return val(p.a) != val(p.b);
  }
  return false;
}

}  // namespace pdat
