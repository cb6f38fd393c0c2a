// Generates a reduced-ISA Ibex variant from the command line, verifies it in
// lockstep against the ISS on a smoke-test program, and writes the reduced
// netlist as structural Verilog.
//
//   ./reduce_ibex [subset] [out.v] [flags]
//
// subset: rv32imcz rv32imc rv32im rv32ic rv32i rv32e rv32ec (default rv32i),
// or one of: reduced-addressing safety-critical no-parallelism aligned risc16,
// or mibench-networking mibench-security mibench-automotive mibench-all.
//
// flags:
//   --threads=N     proof-job worker threads (results are bit-identical
//                   for any N)
//   --journal=PATH  checkpoint each proof round to PATH (crash-tolerant
//                   write-ahead journal)
//   --resume=PATH   resume the proof from PATH's last complete round (may
//                   equal --journal to continue the same file in place)
//   --report=PATH   write a timing-free result report (funnel numbers,
//                   proved invariants, gate/area counts) — byte-comparable
//                   across interrupted-and-resumed and uninterrupted runs
//   --trace[=PATH]  record hierarchical spans and write a Chrome-trace /
//                   Perfetto JSON (default trace.json); open in
//                   chrome://tracing or https://ui.perfetto.dev
//   --metrics[=PATH] write the versioned "pdat-metrics" document (solver /
//                   induction / runtime counters, per-stage timings; default
//                   metrics.json) — schema in docs/telemetry.md
//   --certify       paranoid mode (DESIGN.md §5.10): DRAT-check every SAT
//                   verdict that can remove a gate with the independent
//                   in-tree checker; a failed certificate aborts the run.
//                   Reports are byte-identical with or without this flag
//   --isolation=MODE  thread (default) or process: run every proof-job
//                   attempt in a forked child so a solver crash or runaway
//                   allocation is contained by the OS and retried/dropped
//                   by the supervisor instead of killing the run. Reports
//                   are byte-identical across modes for crash-free runs
//   --job-rlimit-mb=N   with --isolation=process: cap each child's address
//                   space (RLIMIT_AS) at N MiB; an allocation past the cap
//                   fails in the child, not the run
//   --job-rlimit-cpu=N  with --isolation=process: cap each child's CPU time
//                   (RLIMIT_CPU) at N seconds; expiry delivers SIGXCPU
//   --list-failpoints   print the registered fault-injection sites (armed
//                   via PDAT_FAILPOINTS; see README) and exit
//   --fuzz=N        after reduction, run N random subset-constrained
//                   programs in lockstep across the ISS and the bitsims of
//                   the original and reduced cores (docs/fuzzing.md); any
//                   divergence is shrunk to a minimal reproducer and the
//                   reduced core is rejected. Deterministic: a fixed seed
//                   yields byte-identical corpus/coverage/reproducers at
//                   any --fuzz-threads
//   --fuzz-seed=S   master fuzzing seed (default 1)
//   --fuzz-threads=N  fuzzing worker threads (default 1)
//   --fuzz-dir=PATH write the retained corpus, the coverage report, and
//                   shrunk reproducers (.prog replay files + self-contained
//                   gtest .cpp) under PATH
//   --fuzz-replay=FILE  replay one .prog reproducer through the differential
//                   oracles after reduction and report the outcome
//   --fuzz-baseline with --fuzz=N: skip the reduction entirely and fuzz the
//                   *original* core against the ISS alone (the nightly CI
//                   baseline arm — catches core-model/ISS drift without
//                   paying for a reduction)
//
// SIGINT/SIGTERM interrupt the run cooperatively: the proof journal keeps
// every completed round, a resume command is printed, and the process exits
// with status 75 (resumable) instead of 1. A second signal exits
// immediately with the conventional 128+signo status.
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cores/ibex/ibex_core.h"
#include "cores/ibex/ibex_tb.h"
#include "fuzz/oracle.h"
#include "isa/rv32_assembler.h"
#include "isa/rv32_subsets.h"
#include "netlist/verilog.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "runtime/procworker.h"
#include "util/failpoint.h"
#include "workload/mibench.h"

using namespace pdat;

namespace {

/// Tripped by SIGINT/SIGTERM; polled by the pipeline at stage boundaries and
/// inside SAT solves. The handler body is strictly async-signal-safe: one
/// lock-free atomic load/store pair and (on a second signal) _Exit — no
/// stream I/O, no allocation; the resume hint is printed from the main
/// thread once the pipeline unwinds.
std::atomic<bool> g_interrupt{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler stores to g_interrupt must be lock-free");

extern "C" void on_interrupt(int sig) {
  // Second signal: the user is done waiting. _Exit without unwinding —
  // running destructors from a handler is not async-signal-safe.
  if (g_interrupt.load(std::memory_order_relaxed)) std::_Exit(128 + sig);
  g_interrupt.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
#if defined(__unix__) || defined(__APPLE__)
  // SA_RESTART so a signal mid-read doesn't surface as a spurious EINTR
  // I/O failure somewhere unrelated; the run stops at the next poll point.
  struct sigaction sa = {};
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);
#endif
}

/// Exit status for a run stopped by SIGINT/SIGTERM with its journal intact
/// (EX_TEMPFAIL: rerunning with --resume will continue the work).
constexpr int kExitResumable = 75;

isa::RvSubset pick_subset(const std::string& name) {
  if (name == "reduced-addressing") return isa::rv32_subset_reduced_addressing();
  if (name == "safety-critical") return isa::rv32_subset_safety_critical();
  if (name == "no-parallelism") return isa::rv32_subset_no_parallelism();
  if (name == "aligned") return isa::rv32_subset_aligned();
  if (name == "risc16") return isa::rv32_subset_risc16();
  if (name.rfind("mibench-", 0) == 0) return workload::group_subset(name.substr(8));
  return isa::rv32_subset_named(name);
}

/// Everything deterministic about a run — deliberately no wall-clock fields,
/// so an interrupted-and-resumed run produces a byte-identical report.
void write_report(std::ostream& os, const std::string& subset_name, const PdatResult& res) {
  os << "subset " << subset_name << "\n";
  os << "candidates " << res.candidates << "\n";
  os << "after_sim_filter " << res.after_sim_filter << "\n";
  os << "proven " << res.proven << "\n";
  os << "gates_before " << res.gates_before << "\n";
  os << "gates_after " << res.gates_after << "\n";
  os << "area_before " << res.area_before << "\n";
  os << "area_after " << res.area_after << "\n";
  os << "flops_before " << res.flops_before << "\n";
  os << "flops_after " << res.flops_after << "\n";
  // Telemetry summary: only journaled (resume-stable) InductionStats fields,
  // never the trace-layer counters — wall-budget and scheduling effects must
  // not leak into a byte-compared report.
  os << "proof_rounds " << res.induction.rounds << "\n";
  os << "proof_sat_calls " << res.induction.sat_calls << "\n";
  os << "proof_cex_kills " << res.induction.cex_kills << "\n";
  os << "proof_budget_kills " << res.induction.budget_kills << "\n";
  os << "proof_job_retries " << res.induction.job_retries << "\n";
  os << "proof_job_drops " << res.induction.job_drops << "\n";
  os << "proof_job_crashes " << res.induction.job_crashes << "\n";
  for (const auto& p : res.proven_props) os << "prop " << p.describe() << "\n";
  // Fuzzing summary, present only when fuzzing ran: deterministic for a
  // fixed seed at any thread count, so the report stays byte-comparable.
  if (res.fuzz.programs > 0) {
    os << "fuzz_programs " << res.fuzz.programs << "\n";
    os << "fuzz_divergences " << res.fuzz.divergences << "\n";
    os << "fuzz_corpus " << res.fuzz.corpus_retained << "\n";
    os << "fuzz_covered_pairs " << res.fuzz.covered_pairs << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string journal_path, resume_path, report_path, trace_path, metrics_path;
  bool certify = false;
  int threads = 1;
  std::size_t fuzz_iterations = 0;
  std::uint64_t fuzz_seed = 1;
  int fuzz_threads = 1;
  std::string fuzz_dir, fuzz_replay;
  bool fuzz_baseline = false;
  runtime::Isolation isolation = runtime::Isolation::Thread;
  std::size_t job_rlimit_mb = 0;
  long job_rlimit_cpu = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
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
    } else if (arg == "--list-failpoints") {
      for (const std::string& site : util::failpoint_sites()) std::cout << site << "\n";
      return 0;
    } else if (arg.rfind("--journal=", 0) == 0) {
      journal_path = arg.substr(10);
    } else if (arg.rfind("--resume=", 0) == 0) {
      resume_path = arg.substr(9);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else if (arg == "--trace") {
      trace_path = "trace.json";
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg == "--metrics") {
      metrics_path = "metrics.json";
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
    } else if (arg.rfind("--fuzz-replay=", 0) == 0) {
      fuzz_replay = arg.substr(14);
    } else if (arg == "--fuzz-baseline") {
      fuzz_baseline = true;
    } else if (arg == "--certify") {
      certify = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  const std::string subset_name = !positional.empty() ? positional[0] : "rv32i";
  const std::string out_path = positional.size() > 1 ? positional[1] : "";

  const isa::RvSubset subset = pick_subset(subset_name);
  std::cout << "subset '" << subset.name << "': " << subset.size() << " instructions"
            << (subset.rve ? " (x0-x15 only)" : "") << "\n";

  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  core.refresh_handles();
  std::cout << "baseline Ibex: " << core.netlist.gate_count() << " gates, "
            << core.netlist.area() << " um^2\n";

  if (fuzz_baseline) {
    // Baseline arm: differential-fuzz the unmodified core against the ISS
    // golden model, no reduction at all.
    fuzz::FuzzOptions fopt;
    fopt.seed = fuzz_seed;
    fopt.iterations = fuzz_iterations;
    fopt.threads = fuzz_threads;
    fopt.out_dir = fuzz_dir;
    const fuzz::FuzzStats stats = fuzz::fuzz_rv32(subset, core.netlist, nullptr, fopt);
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
  opt.induction.threads = threads;
  opt.induction.isolation = isolation;
  opt.induction.job_rlimit_bytes = job_rlimit_mb << 20;
  opt.induction.job_rlimit_cpu_seconds = job_rlimit_cpu;
  opt.induction.journal_path = journal_path;
  opt.induction.resume_from = resume_path;
  opt.trace_path = trace_path;
  opt.metrics_path = metrics_path;
  opt.run_label = "reduce_ibex:" + subset_name;
  opt.certify = certify;
  opt.interrupt = &g_interrupt;
  opt.fuzz_iterations = fuzz_iterations;
  opt.fuzz_seed = fuzz_seed;
  opt.fuzz_threads = fuzz_threads;
  opt.fuzz_dir = fuzz_dir;
  opt.fuzz_fn = [subset](const Netlist& design, const Netlist& reduced,
                         const fuzz::FuzzOptions& fo) {
    return fuzz::fuzz_rv32(subset, design, &reduced, fo);
  };
  install_signal_handlers();

  const auto instr_q = core.instr_reg_q;
  PdatResult res;
  try {
    res = run_pdat(core.netlist,
                   [&](Netlist& a) { return restrict_isa_cutpoint(a, instr_q, subset); }, opt);
  } catch (const PdatError& e) {
    if (g_interrupt.load(std::memory_order_relaxed)) {
      // Journal appends are fsynced record by record, so everything proved
      // before the signal is already durable on disk.
      std::cerr << "interrupted: " << e.what() << "\n";
      if (!journal_path.empty()) {
        std::cerr << "resume with: " << argv[0] << " " << subset_name
                  << " --journal=" << journal_path << " --resume=" << journal_path << "\n";
      }
      return kExitResumable;
    }
    std::cerr << "PDAT failed: " << e.what() << "\n";
    return 1;
  }
  if (res.induction.resumed_from_round >= -1) {
    std::cout << "resumed proof from journal (last complete round "
              << res.induction.resumed_from_round << ")\n";
  }
  std::cout << "reduced core:  " << res.gates_after << " gates, " << res.area_after
            << " um^2  (" << res.proven << " invariants proved, "
            << 100.0 * (1.0 - static_cast<double>(res.gates_after) /
                                  static_cast<double>(res.gates_before))
            << "% fewer gates)\n";

  if (res.fuzz.programs > 0) {
    std::cout << "fuzz: " << res.fuzz.programs << " programs, " << res.fuzz.divergences
              << " divergences, corpus " << res.fuzz.corpus_retained << ", coverage "
              << res.fuzz.covered_pairs << "/" << 2 * res.fuzz.coverage_nets
              << " toggle pairs\n";
    for (std::size_t i = 0; i < res.fuzz.findings.size(); ++i) {
      std::cout << "fuzz finding " << i << " (" << res.fuzz.findings[i].shrunk.size()
                << " ops, from " << res.fuzz.findings[i].original_ops
                << "): " << res.fuzz.findings[i].detail << "\n";
    }
    if (res.fuzz.divergences > 0) return 1;
  }

  if (!fuzz_replay.empty()) {
    std::ifstream in(fuzz_replay);
    if (!in) {
      std::cerr << "cannot read " << fuzz_replay << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const fuzz::AbsProgram prog = fuzz::parse_program(text.str(), "rv32");
    const fuzz::Rv32Generator gen(subset);
    fuzz::Rv32DiffOracle oracle(gen, core.netlist, &res.transformed);
    const fuzz::RunOutcome outcome = oracle.run(prog, nullptr);
    if (outcome.status == fuzz::RunOutcome::Status::Agree) {
      std::cout << "fuzz replay: AGREE (" << prog.size() << " ops)\n";
    } else {
      std::cout << "fuzz replay: " << outcome.detail << "\n";
      return 1;
    }
  }

  // Smoke-test in lockstep with the ISS, when the subset can express it.
  if (subset.contains("addi") && subset.contains("add") && subset.contains("bne") &&
      !subset.rve) {
    const auto prog = isa::assemble_rv32(R"(
        li a0, 0
        li t0, 1
      loop:
        add a0, a0, t0
        addi t0, t0, 1
        li t1, 10
        bne t0, t1, loop
        ebreak
    )");
    const std::string err = cores::cosim_against_iss(res.transformed, prog.words);
    std::cout << (err.empty() ? "lockstep smoke test: PASS\n"
                              : "lockstep smoke test: " + err + "\n");
    if (!err.empty()) return 1;
  }

  if (!report_path.empty()) {
    std::ofstream rep(report_path);
    write_report(rep, subset.name, res);
    std::cout << "wrote report " << report_path << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    write_verilog(out, res.transformed, "ibex_" + subset.name);
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
