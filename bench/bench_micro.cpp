// Microbenchmarks (google-benchmark) of the substrate components: the
// bit-parallel netlist simulator, the SAT solver on netlist equivalence
// obligations, and the logic optimizer.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>

#include "base/rng.h"
#include "cores/cm0/cm0_core.h"
#include "cores/ibex/ibex_core.h"
#include "formal/cnf_encoder.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "formal/coi.h"
#include "formal/induction.h"
#include "opt/optimizer.h"
#include "pdat/property_library.h"
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

const pdat::Netlist& cm0_netlist() {
  static const pdat::cores::Cm0Core core = [] {
    pdat::cores::Cm0Core c = pdat::cores::build_cm0();
    pdat::opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

// Pure cost of cone-of-influence localization on the CM0 core: partitioning
// the full property-library candidate set into support-closed cones plus one
// canonical fingerprint per cone — everything ISSUE 4's localized rounds do
// besides solving. This is the per-round overhead COI adds when every solve
// still has to happen (cold cache); compare against the induction stage's
// solve time to see why localization wins anyway.
void coi_localize_overhead(benchmark::State& state) {
  pdat::trace::end_run();
  const pdat::Netlist& nl = cm0_netlist();
  const pdat::Levelization lv = pdat::levelize(nl);
  const std::vector<pdat::GateProperty> cands = pdat::annotate_netlist(nl);
  const std::vector<bool> alive(cands.size(), true);
  const std::vector<pdat::NetId> no_assumes;
  for (auto _ : state) {
    const pdat::ConePartition part =
        pdat::partition_cones(nl, lv, cands, alive, no_assumes);
    std::uint64_t folded = 0;
    for (const pdat::Cone& cone : part.cones) {
      const pdat::CacheKey fp = pdat::cone_fingerprint(nl, cone, cands);
      folded ^= fp.lo ^ fp.hi;
    }
    benchmark::DoNotOptimize(folded);
    state.counters["cones"] = static_cast<double>(part.cones.size());
    state.counters["candidates"] = static_cast<double>(cands.size());
  }
}
BENCHMARK(coi_localize_overhead)->Unit(benchmark::kMillisecond);

// Warm-cache proof of the CM0 property-library candidates, with the one-off
// cold (cache-populating) prove reported as the "cold_ms" counter. The
// warm/cold ratio is the headline number behind ISSUE 4's ">= 5x less
// induction wall time on a warm rerun" acceptance bar.
void proof_cache_warm_vs_cold(benchmark::State& state) {
  pdat::trace::end_run();
  const pdat::Netlist& nl = cm0_netlist();
  const pdat::Environment env;
  const std::vector<pdat::GateProperty> cands = pdat::annotate_netlist(nl);
  const std::string cache =
      (std::filesystem::temp_directory_path() / "pdat_bench_warm_vs_cold.pdatpc").string();
  std::filesystem::remove(cache);
  pdat::InductionOptions opt;
  opt.cex_sim_cycles = 0;  // align the arms: localized jobs never replay
  opt.coi_localize = true;
  opt.proof_cache_path = cache;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t cold_proven = pdat::prove_invariants(nl, env, cands, opt).size();
  const double cold_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  for (auto _ : state) {
    const auto proven = pdat::prove_invariants(nl, env, cands, opt);
    if (proven.size() != cold_proven) state.SkipWithError("warm/cold verdict divergence");
    benchmark::DoNotOptimize(proven.size());
  }
  state.counters["cold_ms"] = cold_ms;
  state.counters["proven"] = static_cast<double>(cold_proven);
  std::filesystem::remove(cache);
}
BENCHMARK(proof_cache_warm_vs_cold)->Unit(benchmark::kMillisecond);

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
