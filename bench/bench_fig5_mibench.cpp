// Reproduces Figure 5 (middle): Ibex cores reduced to the instructions used
// by each MiBench benchmark group. Each reduced core is additionally
// validated by running the group's kernels against the ISS in lockstep.
#include <iostream>

#include "bench_util.h"
#include "cores/ibex/ibex_tb.h"
#include "workload/mibench.h"

using namespace pdat;
using namespace pdat::bench;

int main() {
  const cores::IbexCore core = make_ibex_baseline();
  std::vector<VariantRow> rows;
  rows.push_back(make_row("Ibex Full (no PDAT)", core.netlist));
  {
    Timer t;
    const PdatResult res = pdat_ibex(core, isa::rv32_subset_all());
    rows.push_back(make_row("Ibex ISA (rv32imcz)", res, t.seconds()));
  }

  for (const char* group : {"networking", "security", "automotive", "all"}) {
    const isa::RvSubset subset = workload::group_subset(group);
    Timer t;
    const PdatResult res = pdat_ibex(core, subset);
    rows.push_back(make_row(std::string("MiBench ") + group, res, t.seconds()));

    // Correctness: every kernel of the group must run identically on the
    // reduced netlist.
    for (const auto& k : workload::mibench_kernels()) {
      if (std::string(group) != "all" && k.group != group) continue;
      const auto prog = isa::assemble_rv32(k.source);
      const std::string err = cores::cosim_against_iss(res.transformed, prog.words, 2000000);
      if (!err.empty()) {
        std::cout << "!! kernel " << k.name << " diverged on reduced core: " << err << "\n";
        return 1;
      }
    }
  }
  print_variant_table(std::cout, rows, "Figure 5 (middle): Ibex MiBench variants",
                      "Ibex Full (no PDAT)");
  std::cout << "All group kernels verified in lockstep on their reduced cores.\n"
            << "Paper shape: 'MiBench All' has ~14% fewer gates than Ibex Full and\n"
               "~18% fewer than the PDAT Ibex ISA variant.\n";
  return 0;
}
