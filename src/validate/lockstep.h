// Lockstep co-simulation validator (validation safety net, dynamic half).
//
// Runs the transformed core gate-level against the instruction-set
// simulator's architectural-effect stream on a battery of smoke programs.
// Programs are written against the *reduced* ISA contract (e.g. RV32E-safe:
// registers x0..x15 only, base-subset opcodes), so a sound reduction must
// reproduce the ISS trace exactly; any divergence is an unsoundness witness.
//
// The pipeline consumes this through a `std::function<std::string(const
// Netlist&)>` hook (empty string = pass), so core-specific testbenches stay
// out of the generic validation layer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "validate/verdict.h"

namespace pdat::validate {

/// Signature of a core-specific lockstep hook: run the netlist against the
/// ISS and return "" on agreement or a human-readable mismatch description.
using LockstepFn = std::function<std::string(const Netlist&)>;

struct LockstepResult {
  Verdict verdict = Verdict::Skipped;
  int programs_run = 0;
  std::string detail;  // first mismatch description (Fail only)
};

/// Canned RV32 smoke programs (assembled words, based at 0, ending in
/// ebreak). They touch only x0..x15 and RV32I base ops that every paper
/// subset retains, so they remain valid on reduced cores.
std::vector<std::vector<std::uint32_t>> rv32_smoke_programs();

/// Runs every program through cores::cosim_against_iss on `nl`.
LockstepResult lockstep_rv32(const Netlist& nl,
                             const std::vector<std::vector<std::uint32_t>>& programs,
                             std::uint64_t max_cycles = 200000);

/// Pipeline hook: binds the canned program battery to the cosim harness.
LockstepFn rv32_lockstep_fn(std::uint64_t max_cycles = 200000);

}  // namespace pdat::validate
