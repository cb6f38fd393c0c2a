// Fault-injection engine for the validation safety net.
//
// Deliberately corrupts each stage of the PDAT pipeline's output and checks
// that at least one validator (the bounded equivalence miter, the lockstep
// co-simulation) flags the resulting unsound core:
//
//   Property : a proved invariant is flipped (Const0 <-> Const1, or an
//              implication's rewire polarity inverted) before rewiring —
//              models an unsound prover.
//   Rewire   : a correct constant proof is applied to the wrong victim net
//              ("swapped net") — models a rewiring-stage bug.
//   Gate     : the final netlist is mutated directly (wrong gate function,
//              stuck-at output, input swapped to a foreign net) — models a
//              resynthesis or emission bug.
//
// Each injector retries with derived seeds until a short random co-simulation
// confirms the fault is *activated* (observably changes behavior); masked
// faults are discarded, so every campaign entry is a genuine unsoundness.
// The activation horizon is clamped to the miter depth and the oracle mirrors
// the detecting miter stage (restricted original-vs-rewired for property
// faults, unrestricted vs the clean transform for rewire/gate faults), so a
// simulated divergence within the horizon is a concrete witness the bounded
// miter must also find: detection is guaranteed by construction, even on
// deep cores where an arbitrary activated fault could outrun the unrolling.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "formal/property.h"
#include "netlist/netlist.h"
#include "pdat/restrictions.h"
#include "validate/lockstep.h"
#include "validate/miter.h"
#include "validate/verdict.h"

namespace pdat::validate {

enum class FaultClass { Property = 0, Rewire = 1, Gate = 2 };
inline constexpr int kNumFaultClasses = 3;
const char* fault_class_name(FaultClass cls);

struct InjectedFault {
  FaultClass cls = FaultClass::Property;
  std::string description;
  /// The property set as the (possibly unsound) pipeline would report it.
  std::vector<GateProperty> proven;
  /// The corrupted pipeline output.
  Netlist transformed;
};

struct CampaignOptions {
  MiterOptions miter;
  LockstepFn lockstep;             // optional dynamic validator
  int faults_per_class = 2;
  int max_attempts = 32;           // injection retries per fault
};

struct FaultOutcome {
  FaultClass cls = FaultClass::Property;
  std::string description;
  Verdict miter = Verdict::Skipped;
  Verdict lockstep = Verdict::Skipped;
  bool detected = false;
  std::string detail;  // first detecting validator's witness
};

struct CampaignResult {
  std::vector<FaultOutcome> outcomes;
  int injected = 0;
  int detected = 0;
  bool all_detected() const { return injected > 0 && detected == injected; }
  std::string summary() const;
};

/// True when `a` and `b` produce different output values under identical
/// random stimulus within `cycles` clock cycles (ports matched by name).
/// This is the campaign's fault-activation oracle.
bool outputs_differ_random(const Netlist& a, const Netlist& b, int cycles, std::uint64_t seed);

/// Individual injectors; return false when no activated fault of the class
/// could be constructed within opt.max_attempts tries. `restrict_fn` is only
/// consulted by the property injector (its activation oracle runs under the
/// environment restriction, like the stage-1 miter that must catch it).
bool inject_property_fault(const Netlist& design, const Netlist& clean_transformed,
                           const std::vector<GateProperty>& proven,
                           const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                           Rng& rng, const CampaignOptions& opt, InjectedFault* out);
bool inject_rewire_fault(const Netlist& design, const Netlist& clean_transformed,
                         const std::vector<GateProperty>& proven,
                         const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                         Rng& rng, const CampaignOptions& opt, InjectedFault* out);
bool inject_gate_fault(const Netlist& design, const Netlist& clean_transformed,
                       const std::vector<GateProperty>& proven,
                       const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                       Rng& rng, const CampaignOptions& opt, InjectedFault* out);

/// Runs faults_per_class injections of every class and validates each with
/// the miter (always) and the lockstep hook (when provided).
CampaignResult run_fault_campaign(const Netlist& design, const Netlist& clean_transformed,
                                  const std::vector<GateProperty>& proven,
                                  const std::function<RestrictionResult(Netlist&)>& restrict_fn,
                                  const CampaignOptions& opt = {});

}  // namespace pdat::validate
