// Shared helpers for the reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "cores/ibex/ibex_core.h"
#include "cores/ridecore/ridecore.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "pdat/report.h"

namespace pdat::bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Builds and synthesizes the Ibex-like baseline once.
inline cores::IbexCore make_ibex_baseline() {
  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  core.refresh_handles();
  return core;
}

/// Runs PDAT on the Ibex baseline with a cutpoint-based ISA restriction. An
/// `aligned_mem` subset (Fig. 5 "Aligned") also cuts the data address low
/// bits (paper Fig. 3): the checker drives them, the environment pins them 0.
inline PdatResult pdat_ibex(const cores::IbexCore& core, const isa::RvSubset& subset,
                            const PdatOptions& opt = {}) {
  return run_pdat(core.netlist, [&](Netlist& a) {
    RestrictionResult r = restrict_isa_cutpoint(a, core.instr_reg_q, subset);
    if (subset.aligned_mem) restrict_cut_to_zero(a, r, {core.dmem_addr[0], core.dmem_addr[1]});
    return r;
  }, opt);
}

/// Port-based environment over both RIDECORE fetch ports, plus subset-
/// membership strengthening candidates over the fetch registers (Questa's
/// reachability gets this for free; our 1-induction needs the invariant
/// spelled out as a candidate — see DESIGN.md §5.5).
inline RestrictionResult restrict_ride_ports(Netlist& a, const isa::RvSubset& subset,
                                             const cores::RideCore* core = nullptr) {
  RestrictionResult r0 = restrict_isa_port(a, "imem_rdata0", subset);
  RestrictionResult r1 = restrict_isa_port(a, "imem_rdata1", subset);
  for (NetId n : r1.env.assumes) r0.env.add_assume(n);
  for (auto& d : r1.env.drivers) r0.env.drivers.push_back(d);
  if (core != nullptr) {
    strengthen_subset_membership(a, r0, core->instr_q0, subset);
    strengthen_subset_membership(a, r0, core->instr_q1, subset);
  }
  return r0;
}

}  // namespace pdat::bench
