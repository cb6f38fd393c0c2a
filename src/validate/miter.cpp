#include "validate/miter.h"

#include <optional>

#include "formal/cnf_encoder.h"
#include "pdat/rewire.h"
#include "sat/dratcheck.h"
#include "sat/solver.h"

namespace pdat::validate {

namespace {

using sat::Lit;

void tie(sat::Solver& s, Lit x, Lit y) {
  s.add_clause(~x, y);
  s.add_clause(x, ~y);
}

/// Pins every flop to its power-on value; X is pinned to 0 (BitSim reset
/// semantics), unlike FrameEncoder::fix_initial which leaves X free.
void pin_initial_zero(sat::Solver& s, const Netlist& nl, const Frame& f) {
  for (CellId id : nl.live_cells()) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::Dff) continue;
    s.add_clause(f.lit(c.out, c.init == Tri::T));
  }
}

struct StageOutcome {
  Verdict verdict = Verdict::Pass;
  int violation_frame = -1;
  std::string detail;
  std::uint64_t conflicts = 0;
};

/// One bounded miter between netlists A and B. Inputs are tied by port name
/// every frame; `tie_nets` (net ids valid in both sides — the shared
/// cutpoints of stage 1) are tied as well; environment assumes, when given,
/// are asserted per side per frame. All output-bit XOR differences across
/// all frames go into a single aggregated SAT query.
StageOutcome run_miter(const Netlist& A, const Netlist& B, const Environment* env_a,
                       const Environment* env_b, const std::vector<NetId>& tie_nets,
                       const MiterOptions& opt, const char* tag) {
  StageOutcome out;
  sat::Solver s;
  std::optional<sat::CertifySession> cert;
  if (opt.certify) cert.emplace(s);

  FrameEncoder ea(A);
  FrameEncoder eb(B);
  std::vector<Frame> fa;
  std::vector<Frame> fb;

  struct DiffBit {
    sat::Var var;
    int frame;
    std::string where;
  };
  std::vector<DiffBit> diffs;

  const int depth = opt.depth < 1 ? 1 : opt.depth;
  for (int t = 0; t < depth; ++t) {
    fa.push_back(ea.encode(s));
    fb.push_back(eb.encode(s));
    if (t == 0) {
      pin_initial_zero(s, A, fa[0]);
      pin_initial_zero(s, B, fb[0]);
    } else {
      ea.link(s, fa[static_cast<std::size_t>(t - 1)], fa[static_cast<std::size_t>(t)]);
      eb.link(s, fb[static_cast<std::size_t>(t - 1)], fb[static_cast<std::size_t>(t)]);
    }
    const Frame& va = fa[static_cast<std::size_t>(t)];
    const Frame& vb = fb[static_cast<std::size_t>(t)];

    for (const Port& p : A.inputs()) {
      const Port* q = B.find_input(p.name);
      if (q == nullptr || q->bits.size() != p.bits.size()) {
        out.verdict = Verdict::Fail;
        out.detail = std::string(tag) + " miter: input port '" + p.name +
                     "' missing or resized in transformed netlist";
        return out;
      }
      for (std::size_t i = 0; i < p.bits.size(); ++i) tie(s, va.lit(p.bits[i]), vb.lit(q->bits[i]));
    }
    for (NetId n : tie_nets) tie(s, va.lit(n), vb.lit(n));
    if (env_a != nullptr) {
      for (NetId n : env_a->assumes) s.add_clause(va.lit(n));
    }
    if (env_b != nullptr) {
      for (NetId n : env_b->assumes) s.add_clause(vb.lit(n));
    }

    for (const Port& p : A.outputs()) {
      const Port* q = B.find_output(p.name);
      if (q == nullptr || q->bits.size() != p.bits.size()) {
        out.verdict = Verdict::Fail;
        out.detail = std::string(tag) + " miter: output port '" + p.name +
                     "' missing or resized in transformed netlist";
        return out;
      }
      for (std::size_t i = 0; i < p.bits.size(); ++i) {
        const sat::Var d = s.new_var();
        encode_cell_cnf(s, CellKind::Xor2, sat::mk_lit(d), va.lit(p.bits[i]),
                        vb.lit(q->bits[i]), Lit());
        diffs.push_back({d, t, p.name + "[" + std::to_string(i) + "]"});
      }
    }
  }

  if (diffs.empty()) return out;  // no outputs: vacuously equivalent
  std::vector<Lit> any_diff;
  any_diff.reserve(diffs.size());
  for (const DiffBit& d : diffs) any_diff.push_back(sat::mk_lit(d.var));
  s.add_clause(std::move(any_diff));

  const sat::SolveResult r = s.solve({}, opt.conflict_budget);
  if (cert.has_value()) cert->check(r, {}, tag);
  out.conflicts = s.num_conflicts();
  switch (r) {
    case sat::SolveResult::Unsat:
      return out;  // Pass
    case sat::SolveResult::Sat: {
      out.verdict = Verdict::Fail;
      for (const DiffBit& d : diffs) {
        if (!s.model_value(d.var)) continue;
        if (out.violation_frame < 0 || d.frame < out.violation_frame) {
          out.violation_frame = d.frame;
          out.detail = std::string(tag) + " miter: outputs diverge at frame " +
                       std::to_string(d.frame) + " (" + d.where + ")";
        }
      }
      return out;
    }
    case sat::SolveResult::Unknown:
      out.verdict = Verdict::Inconclusive;
      out.detail = std::string(tag) + " miter: SAT conflict budget exhausted";
      return out;
  }
  return out;
}

}  // namespace

MiterResult check_bounded_equivalence(
    const Netlist& design, const Netlist& transformed,
    const std::function<RestrictionResult(Netlist&)>& restrict_fn,
    const std::vector<GateProperty>& proven, const MiterOptions& opt) {
  MiterResult res;
  res.frames = opt.depth < 1 ? 1 : opt.depth;

  // --- stage 1: environment-restricted, original vs rewired ----------------
  // apply_rewiring never renumbers, so both analysis copies share net ids and
  // restrict_fn cuts/constrains the same points in each; the cutpoints are
  // tied across the sides so both cores see identical (constrained) stimulus.
  Netlist side_a = design;
  const RestrictionResult ra = restrict_fn(side_a);
  Netlist side_b = design;
  apply_rewiring(side_b, proven);
  const RestrictionResult rb = restrict_fn(side_b);

  StageOutcome s1 =
      run_miter(side_a, side_b, &ra.env, &rb.env, ra.cut_nets, opt, "restricted");
  res.conflicts += s1.conflicts;
  if (s1.verdict == Verdict::Fail) {
    res.verdict = Verdict::Fail;
    res.violation_frame = s1.violation_frame;
    res.detail = s1.detail;
    return res;
  }

  // --- stage 2: unrestricted, rewired vs final transformed -----------------
  // Resynthesis must preserve equivalence for all inputs, so no environment
  // is assumed: any net/gate corruption downstream of rewiring shows here.
  Netlist rewired = design;
  apply_rewiring(rewired, proven);
  StageOutcome s2 = run_miter(rewired, transformed, nullptr, nullptr, {}, opt, "resynthesis");
  res.conflicts += s2.conflicts;
  if (s2.verdict == Verdict::Fail) {
    res.verdict = Verdict::Fail;
    res.violation_frame = s2.violation_frame;
    res.detail = s2.detail;
    return res;
  }

  if (s1.verdict == Verdict::Inconclusive || s2.verdict == Verdict::Inconclusive) {
    res.verdict = Verdict::Inconclusive;
    res.detail = s1.verdict == Verdict::Inconclusive ? s1.detail : s2.detail;
    return res;
  }
  res.verdict = Verdict::Pass;
  return res;
}

}  // namespace pdat::validate
