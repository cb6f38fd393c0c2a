// Reproduces the §VII-C scalability claim: unlike verification, PDAT never
// needs conclusive answers — a SAT-call conflict budget bounds runtime, and
// exhausting it merely keeps gates (less optimization, never wrong results).
// Sweeps the conflict budget on the Ibex RV32i reduction and reports the
// optimization-quality/runtime trade-off, plus property-checking runtime
// across the three design sizes. Exits 1 when the sweep does not show the
// claimed shape. Budgets of 10 conflicts and more drop nothing on Ibex, so
// the sweep reaches down to 1.
#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "cores/cm0/cm0_core.h"
#include "isa/rv32_subsets.h"

using namespace pdat;
using namespace pdat::bench;

int main() {
  const cores::IbexCore core = make_ibex_baseline();
  const isa::RvSubset subset = isa::rv32_subset_named("rv32i");

  std::cout << "== Scalability: conflict-budget sweep (Ibex, RV32i subset) ==\n";
  std::cout << "budget      proven   budget_kills   gates_after   seconds\n";
  // The shape holds when, as the budget shrinks, proofs never increase and
  // drops never decrease, and some budget drops candidates.
  bool drops = false;
  bool monotone = true;
  std::size_t prev_proven = 0, prev_kills = SIZE_MAX;
  for (std::int64_t budget : {1L, 2L, 5L, 10L, 200L, 200000L}) {
    PdatOptions opt;
    opt.induction.conflict_budget = budget;
    Timer t;
    const PdatResult res = pdat_ibex(core, subset, opt);
    std::printf("%-10lld %7zu %14zu %13zu %9.1f\n", static_cast<long long>(budget), res.proven,
                res.induction.budget_kills, res.gates_after, t.seconds());
    if (res.proven < prev_proven || res.induction.budget_kills > prev_kills) monotone = false;
    drops = drops || res.induction.budget_kills > 0;
    prev_proven = res.proven;
    prev_kills = res.induction.budget_kills;
  }
  if (!drops || !monotone) {
    std::cout << "FAIL: the sweep above does not show the shape\n";
    return 1;
  }
  std::cout << "(shape: smaller budgets -> more inconclusive candidates dropped ->\n"
               " fewer gates removed, but always a correct netlist)\n\n";

  std::cout << "== Property-checking runtime vs design size (full-ISA env) ==\n";
  {
    Timer t;
    const PdatResult res = pdat_ibex(core, isa::rv32_subset_all());
    std::printf("ibex     %8zu gates: %6.1fs, %zu candidates, %zu proven\n", res.gates_before,
                t.seconds(), res.candidates, res.proven);
  }
  {
    cores::RideCore ride = cores::build_ridecore();
    opt::optimize(ride.netlist);
    ride.refresh_handles();
    PdatOptions opt;
    opt.sim.cycles = 1024;
    opt.sim.restarts = 2;
    Timer t;
    isa::RvSubset ride_isa = isa::rv32_subset_named("rv32im").without({"div", "divu", "rem",
                                                                       "remu"});
    const PdatResult res = run_pdat(
        ride.netlist, [&](Netlist& a) { return restrict_ride_ports(a, ride_isa, &ride); }, opt);
    std::printf("ridecore %8zu gates: %6.1fs, %zu candidates, %zu proven\n", res.gates_before,
                t.seconds(), res.candidates, res.proven);
  }
  return 0;
}
