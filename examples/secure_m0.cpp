// Security-motivated reduction of an obfuscated firm IP (paper §III, §VII-B):
// a Cortex-M0-like netlist is delivered obfuscated, and we preventively
// remove instructions considered risky for the deployment — here the
// "interesting subset" (no multiply, no hint/signaling instructions, no
// 32-bit encodings, so every reachable instruction is 2-byte aligned).
//
// The example demonstrates the black-box property of the framework: no
// microarchitectural knowledge is used, only the fetch port constraint.
//
//   ./secure_m0 [flags]
//     --certify           DRAT-check every gate-removing SAT verdict
//     --threads=N         proof-job worker threads (bit-identical results)
//     --isolation=MODE    thread (default) or process: fork-per-attempt
//                         crash containment (byte-identical reports for
//                         crash-free runs in either mode)
//     --job-rlimit-mb=N   process mode: RLIMIT_AS cap per child, MiB
//     --job-rlimit-cpu=N  process mode: RLIMIT_CPU cap per child, seconds
//     --report=PATH       timing-free result report (byte-comparable runs)
//     --metrics=PATH      versioned pdat-metrics JSON (docs/telemetry.md)
//     --fuzz=N            differential fuzzing: N random subset-constrained
//                         programs in lockstep across ThumbIss and the
//                         bitsims of both cores (docs/fuzzing.md)
//     --fuzz-seed=S       master fuzzing seed (default 1)
//     --fuzz-threads=N    fuzzing worker threads (deterministic for any N)
//     --fuzz-dir=PATH     corpus + coverage + shrunk-reproducer artifacts
//     --fuzz-baseline     with --fuzz=N: skip the reduction and fuzz the
//                         unmodified (obfuscated) core against the ISS alone
#include <fstream>
#include <iostream>
#include <string>

#include "cores/cm0/cm0_core.h"
#include "cores/cm0/cm0_tb.h"
#include "fuzz/oracle.h"
#include "isa/thumb_assembler.h"
#include "isa/thumb_subsets.h"
#include "opt/obfuscate.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"

using namespace pdat;

int main(int argc, char** argv) {
  bool certify = false;
  int threads = 1;
  runtime::Isolation isolation = runtime::Isolation::Thread;
  std::size_t job_rlimit_mb = 0;
  long job_rlimit_cpu = 0;
  std::string report_path, metrics_path;
  std::size_t fuzz_iterations = 0;
  std::uint64_t fuzz_seed = 1;
  int fuzz_threads = 1;
  std::string fuzz_dir;
  bool fuzz_baseline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--certify") {
      certify = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::stoi(arg.substr(10));
    } else if (arg.rfind("--isolation=", 0) == 0) {
      const std::string mode = arg.substr(12);
      if (mode == "thread") {
        isolation = runtime::Isolation::Thread;
      } else if (mode == "process") {
        isolation = runtime::Isolation::Process;
      } else {
        std::cerr << "unknown --isolation mode '" << mode << "' (thread|process)\n";
        return 2;
      }
    } else if (arg.rfind("--job-rlimit-mb=", 0) == 0) {
      job_rlimit_mb = std::stoul(arg.substr(16));
    } else if (arg.rfind("--job-rlimit-cpu=", 0) == 0) {
      job_rlimit_cpu = std::stol(arg.substr(17));
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--fuzz=", 0) == 0) {
      fuzz_iterations = std::stoul(arg.substr(7));
    } else if (arg.rfind("--fuzz-seed=", 0) == 0) {
      fuzz_seed = std::stoull(arg.substr(12));
    } else if (arg.rfind("--fuzz-threads=", 0) == 0) {
      fuzz_threads = std::stoi(arg.substr(15));
    } else if (arg.rfind("--fuzz-dir=", 0) == 0) {
      fuzz_dir = arg.substr(11);
    } else if (arg == "--fuzz-baseline") {
      fuzz_baseline = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  // The IP vendor's flow: build, synthesize, obfuscate.
  cores::Cm0Core core = cores::build_cm0();
  opt::optimize(core.netlist);
  const std::size_t clear = core.netlist.gate_count();
  opt::obfuscate(core.netlist);
  std::cout << "delivered obfuscated M0: " << core.netlist.gate_count() << " gates ("
            << clear << " before obfuscation — the structure is hidden)\n";

  // The integrator's flow: constrain the instruction port to the vetted
  // subset and run PDAT. No netlist understanding required.
  const isa::ThumbSubset subset = isa::thumb_subset_interesting();
  std::cout << "target subset: " << subset.size() << " of "
            << isa::thumb_subset_all().size() << " ARMv6-M instructions (all 16-bit)\n";

  if (fuzz_baseline) {
    // Baseline arm: differential-fuzz the unmodified core against the ISS
    // golden model, no reduction at all.
    fuzz::FuzzOptions fopt;
    fopt.seed = fuzz_seed;
    fopt.iterations = fuzz_iterations;
    fopt.threads = fuzz_threads;
    fopt.out_dir = fuzz_dir;
    const fuzz::FuzzStats stats = fuzz::fuzz_thumb(subset, core.netlist, nullptr, fopt);
    std::cout << "fuzz (baseline): " << stats.programs << " programs, " << stats.divergences
              << " divergences, corpus " << stats.corpus_retained << ", coverage "
              << stats.covered_pairs << "/" << 2 * stats.coverage_nets << " toggle pairs\n";
    for (std::size_t i = 0; i < stats.findings.size(); ++i) {
      std::cout << "fuzz finding " << i << " (" << stats.findings[i].shrunk.size()
                << " ops, from " << stats.findings[i].original_ops
                << "): " << stats.findings[i].detail << "\n";
    }
    return stats.divergences > 0 ? 1 : 0;
  }

  PdatOptions opt;
  opt.certify = certify;
  opt.induction.threads = threads;
  opt.induction.isolation = isolation;
  opt.induction.job_rlimit_bytes = job_rlimit_mb << 20;
  opt.induction.job_rlimit_cpu_seconds = job_rlimit_cpu;
  opt.metrics_path = metrics_path;
  opt.run_label = "secure_m0";
  opt.fuzz_iterations = fuzz_iterations;
  opt.fuzz_seed = fuzz_seed;
  opt.fuzz_threads = fuzz_threads;
  opt.fuzz_dir = fuzz_dir;
  opt.fuzz_fn = [subset](const Netlist& design, const Netlist& reduced,
                         const fuzz::FuzzOptions& fo) {
    return fuzz::fuzz_thumb(subset, design, &reduced, fo);
  };

  const PdatResult res = run_pdat(core.netlist, [&](Netlist& a) {
    const Port* port = a.find_input("imem_rdata");
    RestrictionResult r;
    synth::Builder b(a);
    r.env.add_assume(isa::build_thumb_halfword_matcher(b, port->bits, subset));
    struct Driver final : StimulusDriver {
      std::vector<NetId> bits;
      isa::ThumbSubset s;
      std::uint32_t pend[64] = {};
      bool has[64] = {};
      Driver(std::vector<NetId> n, isa::ThumbSubset ss) : bits(std::move(n)), s(std::move(ss)) {}
      void drive(BitSim& sim, Rng& rng) override {
        std::uint64_t slots[64];
        for (int i = 0; i < 64; ++i) slots[i] = isa::sample_thumb_halfword(s, rng, pend[i], has[i]);
        Port tmp;
        tmp.bits = bits;
        sim.set_port_per_slot(tmp, slots);
      }
      std::vector<NetId> owned_nets() const override { return bits; }
      std::unique_ptr<StimulusDriver> clone() const override {
        return std::make_unique<Driver>(*this);
      }
    };
    r.env.drivers.push_back(std::make_shared<Driver>(port->bits, subset));
    return r;
  }, opt);

  if (!report_path.empty()) {
    // Deterministic fields only (no wall clock): byte-comparable between
    // certified and uncertified runs — certification must change nothing.
    std::ofstream rep(report_path);
    rep << "candidates " << res.candidates << "\n";
    rep << "after_sim_filter " << res.after_sim_filter << "\n";
    rep << "proven " << res.proven << "\n";
    rep << "gates_before " << res.gates_before << "\n";
    rep << "gates_after " << res.gates_after << "\n";
    rep << "proof_rounds " << res.induction.rounds << "\n";
    rep << "proof_sat_calls " << res.induction.sat_calls << "\n";
    rep << "proof_cex_kills " << res.induction.cex_kills << "\n";
    rep << "proof_budget_kills " << res.induction.budget_kills << "\n";
    for (const auto& p : res.proven_props) rep << "prop " << p.describe() << "\n";
    if (res.fuzz.programs > 0) {
      rep << "fuzz_programs " << res.fuzz.programs << "\n";
      rep << "fuzz_divergences " << res.fuzz.divergences << "\n";
      rep << "fuzz_corpus " << res.fuzz.corpus_retained << "\n";
      rep << "fuzz_covered_pairs " << res.fuzz.covered_pairs << "\n";
    }
    std::cout << "wrote report " << report_path << "\n";
  }

  if (res.fuzz.programs > 0) {
    std::cout << "fuzz: " << res.fuzz.programs << " programs, " << res.fuzz.divergences
              << " divergences, corpus " << res.fuzz.corpus_retained << ", coverage "
              << res.fuzz.covered_pairs << "/" << 2 * res.fuzz.coverage_nets
              << " toggle pairs\n";
    if (res.fuzz.divergences > 0) return 1;
  }

  std::cout << "reduced core: " << res.gates_after << " gates ("
            << 100.0 * (1.0 - static_cast<double>(res.gates_after) /
                                  static_cast<double>(res.gates_before))
            << "% fewer), " << res.proven << " gate invariants proved\n";

  // The vetted firmware still runs bit-exact.
  const auto prog = isa::assemble_thumb(R"(
      movs r0, #0
      movs r1, #10
    loop:
      adds r0, r0, r1
      subs r1, #1
      bne loop
      bkpt #0
  )");
  const std::string err = cores::cm0_cosim_against_iss(res.transformed, prog.halves);
  std::cout << (err.empty() ? "vetted firmware lockstep: PASS\n" : "DIVERGED: " + err + "\n");
  return err.empty() ? 0 : 1;
}
