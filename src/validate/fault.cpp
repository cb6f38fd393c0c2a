#include "validate/fault.h"

#include <algorithm>

#include "base/log.h"
#include "formal/environment.h"
#include "opt/optimizer.h"
#include "pdat/rewire.h"
#include "sim/bitsim.h"

namespace pdat::validate {

const char* fault_class_name(FaultClass cls) {
  switch (cls) {
    case FaultClass::Property: return "property";
    case FaultClass::Rewire: return "rewire";
    case FaultClass::Gate: return "gate";
  }
  return "?";
}

namespace {

/// Seeds the campaign's injection choices and activation stimulus.
constexpr std::uint64_t kCampaignSeed = 0xFA017;

/// Rebuilds the pipeline tail (rewiring + resynthesis at the pipeline's
/// default effort) from a property set.
Netlist rebuild_transformed(const Netlist& design, const std::vector<GateProperty>& proven) {
  Netlist t = design;
  apply_rewiring(t, proven);
  opt::optimize(t);
  return t;
}

/// Net ids already claimed as rewire victims by the clean proof set.
std::vector<bool> rewire_targets(const Netlist& nl, const std::vector<GateProperty>& proven) {
  std::vector<bool> taken(nl.num_nets(), false);
  for (const GateProperty& p : proven) {
    if (p.target != kNoNet && p.target < nl.num_nets()) taken[p.target] = true;
  }
  return taken;
}

CellKind dual_kind(CellKind k) {
  switch (k) {
    case CellKind::Buf: return CellKind::Inv;
    case CellKind::Inv: return CellKind::Buf;
    case CellKind::And2: return CellKind::Or2;
    case CellKind::Or2: return CellKind::And2;
    case CellKind::Nand2: return CellKind::Nor2;
    case CellKind::Nor2: return CellKind::Nand2;
    case CellKind::Xor2: return CellKind::Xnor2;
    case CellKind::Xnor2: return CellKind::Xor2;
    case CellKind::And3: return CellKind::Or3;
    case CellKind::Or3: return CellKind::And3;
    case CellKind::Nand3: return CellKind::Nor3;
    case CellKind::Nor3: return CellKind::Nand3;
    case CellKind::Aoi21: return CellKind::Oai21;
    case CellKind::Oai21: return CellKind::Aoi21;
    default: return k;
  }
}

std::vector<NetId> primary_input_bits(const Netlist& nl) {
  std::vector<NetId> bits;
  for (const Port& p : nl.inputs()) bits.insert(bits.end(), p.bits.begin(), p.bits.end());
  return bits;
}

/// Activation horizon: a divergence within the miter's unrolling depth is a
/// concrete counterexample the bounded miter is guaranteed to find (its
/// inputs are free, its initial state matches BitSim reset). The cosim is
/// capped at 128 cycles however deep the miter unrolls.
int activation_horizon(const CampaignOptions& opt) {
  constexpr int kMaxActivationCycles = 128;
  const int depth = opt.miter.depth < 1 ? 1 : opt.miter.depth;
  return std::max(1, std::min(kMaxActivationCycles, depth));
}

/// Stage-1 activation oracle for property faults: simulates the restricted
/// original (`a`/`ra`, built once by the caller) against the restricted
/// mis-rewired analysis copy (mirroring the stage-1 miter's construction,
/// including the rewire-then-restrict order) under identical environment
/// stimulus. A divergence within `cycles` of reset is a trace the restricted
/// miter must also find.
bool restricted_differ_random(const Netlist& a, const RestrictionResult& ra,
                              const Netlist& design, const std::vector<GateProperty>& corrupted,
                              const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                              int cycles, std::uint64_t seed) {
  Netlist b = design;
  apply_rewiring(b, corrupted);
  const RestrictionResult rb = restrict_fn(b);
  BitSim sa(a);
  BitSim sb(b);
  // Same seed on both sides: the restriction structure is identical on the
  // id-aligned copies, so the draws line up and the cutpoints see the same
  // stimulus — exactly what the miter's cross-side cutpoint ties enforce.
  Rng rng_a(seed);
  Rng rng_b(seed);
  const std::vector<NetId> free_a = free_inputs(a, ra.env);
  const std::vector<NetId> free_b = free_inputs(b, rb.env);
  sa.reset();
  sb.reset();
  for (int t = 0; t < cycles; ++t) {
    drive_inputs(free_a, ra.env, sa, rng_a);
    drive_inputs(free_b, rb.env, sb, rng_b);
    sa.eval();
    sb.eval();
    for (const Port& p : a.outputs()) {
      const Port* q = b.find_output(p.name);
      for (std::size_t i = 0; i < p.bits.size(); ++i) {
        if (sa.value(p.bits[i]) != sb.value(q->bits[i])) return true;
      }
    }
    sa.latch();
    sb.latch();
  }
  return false;
}

}  // namespace

bool outputs_differ_random(const Netlist& a, const Netlist& b, int cycles, std::uint64_t seed) {
  BitSim sa(a);
  BitSim sb(b);
  Rng rng(seed);
  sa.reset();
  sb.reset();
  for (int t = 0; t < cycles; ++t) {
    for (const Port& p : a.inputs()) {
      const Port* q = b.find_input(p.name);
      if (q == nullptr || q->bits.size() != p.bits.size()) return true;
      for (std::size_t i = 0; i < p.bits.size(); ++i) {
        const std::uint64_t w = rng.next();
        sa.set_input(p.bits[i], w);
        sb.set_input(q->bits[i], w);
      }
    }
    sa.eval();
    sb.eval();
    for (const Port& p : a.outputs()) {
      const Port* q = b.find_output(p.name);
      if (q == nullptr || q->bits.size() != p.bits.size()) return true;
      for (std::size_t i = 0; i < p.bits.size(); ++i) {
        if (sa.value(p.bits[i]) != sb.value(q->bits[i])) return true;
      }
    }
    sa.latch();
    sb.latch();
  }
  return false;
}

bool inject_property_fault(const Netlist& design, const Netlist& clean_transformed,
                           const std::vector<GateProperty>& proven,
                           const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                           Rng& rng, const CampaignOptions& opt, InjectedFault* out) {
  (void)clean_transformed;
  std::vector<std::size_t> flippable;
  for (std::size_t i = 0; i < proven.size(); ++i) {
    const GateProperty& p = proven[i];
    if (!p.rewireable) continue;
    if (p.kind == PropKind::Const0 || p.kind == PropKind::Const1) flippable.push_back(i);
    else if (p.kind == PropKind::Implies && p.rewire_to_input >= 0) flippable.push_back(i);
  }
  if (flippable.empty()) return false;

  Netlist side_a = design;
  const RestrictionResult ra = restrict_fn(side_a);

  for (int attempt = 0; attempt < opt.max_attempts; ++attempt) {
    const std::size_t idx = flippable[rng.below(flippable.size())];
    std::vector<GateProperty> corrupted = proven;
    GateProperty& p = corrupted[idx];
    std::string what;
    if (p.kind == PropKind::Const0) {
      p.kind = PropKind::Const1;
      what = "flipped proof net" + std::to_string(p.target) + "==0 to ==1";
    } else if (p.kind == PropKind::Const1) {
      p.kind = PropKind::Const0;
      what = "flipped proof net" + std::to_string(p.target) + "==1 to ==0";
    } else {
      p.rewire_inverted = !p.rewire_inverted;
      what = "inverted rewire polarity of " + p.describe();
    }
    // Cheap restricted oracle first (no resynthesis); only a confirmed
    // activation pays for the full pipeline-tail rebuild.
    if (!restricted_differ_random(side_a, ra, design, corrupted, restrict_fn,
                                  activation_horizon(opt),
                                  kCampaignSeed + static_cast<std::uint64_t>(attempt) * 977))
      continue;  // masked; retry another proof
    out->cls = FaultClass::Property;
    out->description = what;
    out->transformed = rebuild_transformed(design, corrupted);
    out->proven = std::move(corrupted);  // the unsound prover reports this set
    return true;
  }
  return false;
}

bool inject_rewire_fault(const Netlist& design, const Netlist& clean_transformed,
                         const std::vector<GateProperty>& proven,
                         const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                         Rng& rng, const CampaignOptions& opt, InjectedFault* out) {
  (void)restrict_fn;
  std::vector<std::size_t> const_proofs;
  for (std::size_t i = 0; i < proven.size(); ++i) {
    const GateProperty& p = proven[i];
    if (p.rewireable && (p.kind == PropKind::Const0 || p.kind == PropKind::Const1))
      const_proofs.push_back(i);
  }
  if (const_proofs.empty()) return false;
  const std::vector<bool> taken = rewire_targets(design, proven);

  for (int attempt = 0; attempt < opt.max_attempts; ++attempt) {
    const std::size_t idx = const_proofs[rng.below(const_proofs.size())];
    // Wrong victim: any driven, non-input net that no real proof claims.
    const NetId victim = static_cast<NetId>(rng.below(design.num_nets()));
    if (design.driver(victim) == kNoCell || taken[victim]) continue;
    if (design.cell(design.driver(victim)).kind == CellKind::Const0 ||
        design.cell(design.driver(victim)).kind == CellKind::Const1)
      continue;
    std::vector<GateProperty> misapplied = proven;
    misapplied[idx].target = victim;
    misapplied[idx].cell = design.driver(victim);
    // Oracle against the un-resynthesized mis-rewiring: resynthesis preserves
    // equivalence, so a divergence here survives into the final netlist, and
    // the rebuild cost is only paid for a confirmed activation.
    Netlist t = design;
    apply_rewiring(t, misapplied);
    if (!outputs_differ_random(clean_transformed, t, activation_horizon(opt),
                               kCampaignSeed + static_cast<std::uint64_t>(attempt) * 1223))
      continue;
    out->cls = FaultClass::Rewire;
    out->description = "constant proof for net" + std::to_string(proven[idx].target) +
                       " applied to wrong net" + std::to_string(victim);
    out->proven = proven;  // the proofs themselves were correct
    out->transformed = rebuild_transformed(design, misapplied);
    return true;
  }
  return false;
}

bool inject_gate_fault(const Netlist& design, const Netlist& clean_transformed,
                       const std::vector<GateProperty>& proven,
                       const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                       Rng& rng, const CampaignOptions& opt, InjectedFault* out) {
  (void)design;
  (void)restrict_fn;
  const std::vector<NetId> pi_bits = primary_input_bits(clean_transformed);

  for (int attempt = 0; attempt < opt.max_attempts; ++attempt) {
    Netlist t = clean_transformed;
    const std::vector<CellId> cells = t.live_cells();
    if (cells.empty()) return false;
    const CellId id = cells[rng.below(cells.size())];
    Cell& c = t.cell(id);
    if (cell_is_sequential(c.kind) || cell_is_const(c.kind)) continue;

    std::string what;
    const std::uint64_t mode = rng.below(3);
    if (mode == 0 && dual_kind(c.kind) != c.kind) {
      // Wrong gate function, same arity (And<->Or, Xor<->Xnor, ...).
      what = std::string("cell ") + std::to_string(id) + ": " +
             std::string(cell_name(c.kind)) + " replaced by " +
             std::string(cell_name(dual_kind(c.kind)));
      c.kind = dual_kind(c.kind);
    } else if (mode == 1) {
      // Stuck-at output.
      const bool v = rng.chance(128);
      const NetId net = c.out;
      what = "net" + std::to_string(net) + " stuck-at-" + (v ? "1" : "0");
      t.redrive_net(net, v ? CellKind::Const1 : CellKind::Const0);
    } else {
      // Input swapped to a foreign (primary-input) net — never forms a cycle.
      if (pi_bits.empty()) continue;
      const int n_in = cell_num_inputs(c.kind);
      if (n_in == 0) continue;
      const int pin = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_in)));
      const NetId foreign = pi_bits[rng.below(pi_bits.size())];
      if (c.in[static_cast<std::size_t>(pin)] == foreign) continue;
      what = "cell " + std::to_string(id) + " input " + std::to_string(pin) +
             " swapped to net" + std::to_string(foreign);
      c.in[static_cast<std::size_t>(pin)] = foreign;
    }
    if (!outputs_differ_random(clean_transformed, t, activation_horizon(opt),
                               kCampaignSeed + static_cast<std::uint64_t>(attempt) * 1733))
      continue;
    out->cls = FaultClass::Gate;
    out->description = what;
    out->proven = proven;
    out->transformed = std::move(t);
    return true;
  }
  return false;
}

CampaignResult run_fault_campaign(const Netlist& design, const Netlist& clean_transformed,
                                  const std::vector<GateProperty>& proven,
                                  const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                                  const CampaignOptions& opt) {
  CampaignResult res;
  Rng rng(kCampaignSeed);
  using Injector = bool (*)(const Netlist&, const Netlist&, const std::vector<GateProperty>&,
                            const std::function<RestrictionResult(Netlist&)>&, Rng&,
                            const CampaignOptions&, InjectedFault*);
  const Injector injectors[kNumFaultClasses] = {inject_property_fault, inject_rewire_fault,
                                                inject_gate_fault};
  for (int cls = 0; cls < kNumFaultClasses; ++cls) {
    for (int k = 0; k < opt.faults_per_class; ++k) {
      InjectedFault f;
      if (!injectors[cls](design, clean_transformed, proven, restrict_fn, rng, opt, &f)) {
        log_warn() << "fault campaign: could not activate a "
                   << fault_class_name(static_cast<FaultClass>(cls)) << " fault (attempt " << k
                   << ")";
        continue;
      }
      ++res.injected;
      FaultOutcome o;
      o.cls = f.cls;
      o.description = f.description;
      const MiterResult m =
          check_bounded_equivalence(design, f.transformed, restrict_fn, f.proven, opt.miter);
      o.miter = m.verdict;
      if (m.verdict == Verdict::Fail) o.detail = m.detail;
      if (opt.lockstep) {
        const std::string mismatch = opt.lockstep(f.transformed);
        o.lockstep = mismatch.empty() ? Verdict::Pass : Verdict::Fail;
        if (o.detail.empty() && !mismatch.empty()) o.detail = mismatch;
      }
      o.detected = o.miter == Verdict::Fail || o.lockstep == Verdict::Fail;
      if (o.detected) ++res.detected;
      log_info() << "fault campaign: [" << fault_class_name(o.cls) << "] " << o.description
                 << " -> " << (o.detected ? "DETECTED" : "MISSED");
      res.outcomes.push_back(std::move(o));
    }
  }
  return res;
}

std::string CampaignResult::summary() const {
  std::string s = "fault campaign: " + std::to_string(detected) + "/" + std::to_string(injected) +
                  " injected faults detected";
  for (const FaultOutcome& o : outcomes) {
    s += "\n  [";
    s += fault_class_name(o.cls);
    s += "] ";
    s += o.description;
    s += " -> miter ";
    s += verdict_name(o.miter);
    s += ", lockstep ";
    s += verdict_name(o.lockstep);
  }
  return s;
}

}  // namespace pdat::validate
