// Cross-module integration tests: the "firm IP" delivery path (structural
// Verilog round-trips of whole cores), PDAT on netlists loaded from Verilog,
// and determinism of the whole pipeline.
#include <gtest/gtest.h>

#include <sstream>

#include "cores/cm0/cm0_core.h"
#include "cores/cm0/cm0_tb.h"
#include "cores/ibex/ibex_core.h"
#include "cores/ibex/ibex_tb.h"
#include "isa/rv32_assembler.h"
#include "isa/thumb_assembler.h"
#include "netlist/check.h"
#include "netlist/verilog.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "workload/mibench.h"

namespace pdat {
namespace {

TEST(FirmIp, IbexSurvivesVerilogRoundTrip) {
  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  const std::string text = to_verilog(core.netlist, "ibex");
  Netlist back = read_verilog_string(text);
  EXPECT_TRUE(check_netlist(back).empty());
  EXPECT_EQ(back.gate_count(), core.netlist.gate_count());
  EXPECT_EQ(back.num_flops(), core.netlist.num_flops());
  // The re-imported netlist must still execute programs correctly.
  const auto prog = isa::assemble_rv32(R"(
      li a0, 3
      li a1, 4
      mul a2, a0, a1
      sw a2, 0x80(x0)
      lw a3, 0x80(x0)
      ebreak
  )");
  EXPECT_EQ(cores::cosim_against_iss(back, prog.words), "");
}

TEST(FirmIp, Cm0SurvivesVerilogRoundTrip) {
  cores::Cm0Core core = cores::build_cm0();
  opt::optimize(core.netlist);
  Netlist back = read_verilog_string(to_verilog(core.netlist, "cm0"));
  EXPECT_TRUE(check_netlist(back).empty());
  const auto prog = isa::assemble_thumb(R"(
      movs r0, #9
      movs r1, #5
      muls r0, r1
      bkpt #0
  )");
  EXPECT_EQ(cores::cm0_cosim_against_iss(back, prog.halves), "");
}

TEST(FirmIp, PdatRunsOnReimportedNetlist) {
  // The full firm-IP flow: export Verilog, re-import, run PDAT with a
  // port-based restriction, verify the reduced core.
  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  core.refresh_handles();
  Netlist firm = read_verilog_string(to_verilog(core.netlist, "ip"));
  // Port-based environment on the fetch port (no netlist knowledge needed).
  const auto subset = isa::rv32_subset_named("rv32i");
  const PdatResult res = run_pdat(firm, [&](Netlist& a) {
    return restrict_isa_port(a, "imem_rdata", subset);
  });
  EXPECT_LT(res.gates_after, res.gates_before);
  const auto prog = isa::assemble_rv32(R"(
      li a0, 1
      li a1, 2
      add a2, a0, a1
      ebreak
  )");
  EXPECT_EQ(cores::cosim_against_iss(res.transformed, prog.words), "");
}

TEST(Determinism, PdatIsBitExactAcrossRuns) {
  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  core.refresh_handles();
  const auto subset = isa::rv32_subset_named("rv32im");
  auto instr_q = core.instr_reg_q;
  auto run_once = [&]() {
    return run_pdat(core.netlist,
                    [&](Netlist& a) { return restrict_isa_cutpoint(a, instr_q, subset); });
  };
  const PdatResult a = run_once();
  const PdatResult b = run_once();
  EXPECT_EQ(a.gates_after, b.gates_after);
  EXPECT_EQ(a.proven, b.proven);
  EXPECT_EQ(a.area_after, b.area_after);
  EXPECT_EQ(to_verilog(a.transformed, "m"), to_verilog(b.transformed, "m"));
}

TEST(Workloads, AllKernelsRunOnGateLevelIbex) {
  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  for (const auto& k : workload::mibench_kernels()) {
    const auto prog = isa::assemble_rv32(k.source);
    EXPECT_EQ(cores::cosim_against_iss(core.netlist, prog.words, 2000000), "") << k.name;
  }
}

TEST(Environment, ConstantDriverTiesNets) {
  Netlist nl;
  synth::Builder b(nl);
  auto a = b.input("a", 2);
  b.output("o", a);
  Environment env;
  env.drivers.push_back(
      std::make_shared<ConstantDriver>(std::vector<NetId>{a[0]}, true));
  env.drivers.push_back(
      std::make_shared<ConstantDriver>(std::vector<NetId>{a[1]}, false));
  BitSim sim(nl);
  Rng rng(1);
  drive_inputs(free_inputs(nl, env), env, sim, rng);
  sim.eval();
  EXPECT_EQ(sim.value(a[0]), ~0ULL);
  EXPECT_EQ(sim.value(a[1]), 0ULL);
}

TEST(Netlist, FindNetResolvesNamesAfterCompact) {
  Netlist nl;
  synth::Builder b(nl);
  auto in = b.input("x", 4);
  const NetId y = b.parity(in);
  nl.name_net(y, "parity_out");
  // Add some garbage that compact() will renumber around.
  for (int i = 0; i < 10; ++i) b.and_(in[0], in[1]);
  b.output("o", {y});
  opt::optimize(nl);
  const NetId found = nl.find_net("parity_out");
  // The named net may have been merged into an equivalent net by the
  // optimizer; if it survives it must drive the output.
  if (found != kNoNet) {
    EXPECT_EQ(found, nl.outputs()[0].bits[0]);
  }
  EXPECT_EQ(nl.find_net("no_such_name"), kNoNet);
}

}  // namespace
}  // namespace pdat
