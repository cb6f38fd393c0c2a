// Microbenchmarks (google-benchmark) of the substrate components: the
// bit-parallel netlist simulator, the SAT solver on netlist equivalence
// obligations, and the logic optimizer.
#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "cores/ibex/ibex_core.h"
#include "formal/cnf_encoder.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "opt/optimizer.h"
#include "sat/solver.h"
#include "sim/bitsim.h"
#include "trace/trace.h"

namespace {

const pdat::Netlist& ibex_netlist() {
  static const pdat::cores::IbexCore core = [] {
    pdat::cores::IbexCore c = pdat::cores::build_ibex();
    pdat::opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

void BM_BitSimCycle(benchmark::State& state) {
  const pdat::Netlist& nl = ibex_netlist();
  pdat::BitSim sim(nl);
  pdat::Rng rng(7);
  for (auto _ : state) {
    for (const auto& p : nl.inputs()) {
      for (pdat::NetId n : p.bits) sim.set_input(n, rng.next());
    }
    sim.step();
    benchmark::DoNotOptimize(sim.value(nl.outputs()[0].bits[0]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nl.gate_count()) * 64);
}
BENCHMARK(BM_BitSimCycle);

void BM_FrameEncode(benchmark::State& state) {
  const pdat::Netlist& nl = ibex_netlist();
  for (auto _ : state) {
    pdat::sat::Solver s;
    pdat::FrameEncoder enc(nl);
    const pdat::Frame f = enc.encode(s);
    benchmark::DoNotOptimize(f.net_var.back());
  }
}
BENCHMARK(BM_FrameEncode);

void BM_SatCombinationalQuery(benchmark::State& state) {
  // One frame of the core; repeatedly ask for an instruction decoding to a
  // store with a particular address bit pattern (satisfiable each time).
  const pdat::Netlist& nl = ibex_netlist();
  pdat::sat::Solver s;
  pdat::FrameEncoder enc(nl);
  const pdat::Frame f = enc.encode(s);
  const pdat::Port* out = nl.find_output("dmem_addr");
  int bit = 0;
  for (auto _ : state) {
    const auto r = s.solve({f.lit(out->bits[static_cast<std::size_t>(bit)], true)}, 100000);
    benchmark::DoNotOptimize(r);
    bit = (bit + 1) % 32;
  }
}
BENCHMARK(BM_SatCombinationalQuery);

// Baseline for the observability layer's disabled-cost acceptance bar
// (< 2% regression, docs/telemetry.md "Overhead"): a realistic incremental
// SAT workload with telemetry off — the product default. Compare captures of
// this benchmark across commits when touching instrumented hot paths.
void sat_baseline(benchmark::State& state) {
  pdat::trace::end_run();
  const pdat::Netlist& nl = ibex_netlist();
  pdat::sat::Solver s;
  pdat::FrameEncoder enc(nl);
  const pdat::Frame f = enc.encode(s);
  const pdat::Port* out = nl.find_output("dmem_addr");
  int bit = 0;
  for (auto _ : state) {
    const auto r = s.solve({f.lit(out->bits[static_cast<std::size_t>(bit)], true)}, 100000);
    benchmark::DoNotOptimize(r);
    bit = (bit + 1) % 32;
  }
}
BENCHMARK(sat_baseline);

// The disabled instrumentation fast path in isolation: one span construction
// plus one counter add plus one histogram observe per iteration, everything
// off. Each op should cost a relaxed atomic load and nothing else — compare
// per-iteration time against sat_baseline's to bound the call-site overhead.
void trace_disabled_overhead(benchmark::State& state) {
  pdat::trace::end_run();
  std::int64_t i = 0;
  for (auto _ : state) {
    pdat::trace::Span span("runtime.job", {"job", i}, {"attempt", 1});
    pdat::trace::add(pdat::trace::Counter::SatConflicts, 1);
    pdat::trace::observe(pdat::trace::Histogram::SatConflictsPerCall, 42);
    ++i;
  }
  benchmark::DoNotOptimize(i);
}
BENCHMARK(trace_disabled_overhead);

void BM_OptimizeIbex(benchmark::State& state) {
  for (auto _ : state) {
    pdat::cores::IbexCore core = pdat::cores::build_ibex();
    pdat::opt::optimize(core.netlist);
    benchmark::DoNotOptimize(core.netlist.gate_count());
  }
}
BENCHMARK(BM_OptimizeIbex)->Unit(benchmark::kMillisecond);

void BM_FuzzGenerateEncode(benchmark::State& state) {
  const pdat::fuzz::Rv32Generator gen(pdat::isa::rv32_subset_named("rv32imc"));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto p = gen.generate(seed++);
    benchmark::DoNotOptimize(gen.encode_units(p));
  }
}
BENCHMARK(BM_FuzzGenerateEncode);

void BM_FuzzOracleProgram(benchmark::State& state) {
  const pdat::Netlist& nl = ibex_netlist();
  const pdat::fuzz::Rv32Generator gen(pdat::isa::rv32_subset_named("rv32imc"));
  pdat::fuzz::Rv32DiffOracle oracle(gen, nl, nullptr);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto p = gen.generate(seed++);
    const auto out = oracle.run(p, nullptr);
    if (out.status == pdat::fuzz::RunOutcome::Status::Diverge)
      state.SkipWithError("healthy core diverged from the ISS");
    benchmark::DoNotOptimize(out.cycles);
  }
}
BENCHMARK(BM_FuzzOracleProgram)->Unit(benchmark::kMillisecond);

// One fuzz round's worth of programs (FuzzOptions.batch = 32) as one
// lane-packed oracle pass; items/s is programs/s, comparable to the
// single-program bench above.
void BM_FuzzOracleBatch(benchmark::State& state) {
  const pdat::Netlist& nl = ibex_netlist();
  const pdat::fuzz::Rv32Generator gen(pdat::isa::rv32_subset_named("rv32imc"));
  pdat::fuzz::Rv32DiffOracle oracle(gen, nl, nullptr);
  std::vector<pdat::fuzz::AbsProgram> programs(32);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (pdat::fuzz::AbsProgram& p : programs) p = gen.generate(seed++);
    const auto outs = oracle.run(programs, {});
    for (const auto& out : outs) {
      if (out.status == pdat::fuzz::RunOutcome::Status::Diverge)
        state.SkipWithError("healthy core diverged from the ISS");
    }
    benchmark::DoNotOptimize(outs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(programs.size()));
}
BENCHMARK(BM_FuzzOracleBatch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
