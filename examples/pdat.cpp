// Reduces a core to an ISA subset from the command line (paper §VII),
// verifies the result in lockstep against the ISS on a smoke-test program,
// and writes the reduced netlist as structural Verilog.
//
//   ./pdat <core> [subset] [out.v] [flags]
//
//   ibex  Ibex under a cutpoint restriction on its fetch-decode register
//         (§VII-A). subset: rv32imcz rv32imc rv32im rv32ic rv32i (default)
//         rv32e rv32ec, reduced-addressing safety-critical no-parallelism
//         aligned risc16, or mibench-{networking,security,automotive,all}.
//   cm0   a Cortex-M0-like firm IP, delivered obfuscated, under a port
//         restriction on its fetched halfwords (§III, §VII-B): no
//         microarchitectural knowledge is used. subset: interesting (default;
//         no multiply, hint/signaling or 32-bit instructions), armv6m, or
//         mibench-<group>.
//
// flags:
//   --threads=N         proof-job worker threads (bit-identical results for any N)
//   --journal=PATH      checkpoint each proof round to a crash-tolerant journal
//   --resume=PATH       resume from PATH's last complete round (may equal --journal
//                       to continue the same file in place)
//   --report=PATH       timing-free result report: byte-comparable across
//                       interrupted-and-resumed and uninterrupted runs
//   --trace[=PATH]      Chrome-trace / Perfetto span JSON (default trace.json)
//   --metrics[=PATH]    pdat-metrics JSON (default metrics.json; docs/telemetry.md)
//   --certify           DRAT-check every SAT verdict that can remove a gate (DESIGN.md
//                       §5.10); a failed check aborts the run, a report never changes
//   --isolation=MODE    thread (default) or process: each proof-job attempt runs in
//                       a forked child, so a solver crash or runaway allocation
//                       costs a retry, not the run (reports stay byte-identical)
//   --job-rlimit-mb=N   process mode: cap each child's address space (RLIMIT_AS) at
//                       N MiB, so a runaway allocation fails the child, not the run
//   --job-rlimit-cpu=N  process mode: cap each child's CPU time (RLIMIT_CPU) at N s
//   --list-failpoints   print the fault-injection sites (PDAT_FAILPOINTS) and exit
//   --fuzz=N            after reduction, run N programs in lockstep on the ISS and
//                       both cores (docs/fuzzing.md); a divergence rejects the core
//   --fuzz-seed=S       master fuzzing seed (default 1); artifacts are
//                       byte-identical for a fixed seed at any --fuzz-threads
//   --fuzz-threads=N    fuzzing worker threads (default 1)
//   --fuzz-dir=PATH     write the corpus, coverage report and shrunk reproducers
//   --fuzz-replay=FILE  replay one .prog reproducer after reduction
//   --fuzz-baseline     with --fuzz=N: skip the reduction and fuzz the original core
//                       against the ISS alone (catches core-model/ISS drift cheaply)
//
// Malformed input (an unknown core, subset or flag, a malformed number, an
// unreadable or wrong-ISA --fuzz-replay file) exits with status 2 before
// any reduction work. SIGINT/SIGTERM interrupt the run cooperatively: the
// proof journal keeps every completed round, a resume command is printed,
// and the process exits with status 75 (resumable) instead of 1. A second
// signal exits immediately with the conventional 128+signo status.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cores/cm0/cm0_core.h"
#include "cores/cm0/cm0_tb.h"
#include "cores/ibex/ibex_core.h"
#include "cores/ibex/ibex_tb.h"
#include "fuzz/oracle.h"
#include "isa/rv32_assembler.h"
#include "isa/rv32_subsets.h"
#include "isa/thumb_assembler.h"
#include "isa/thumb_subsets.h"
#include "netlist/verilog.h"
#include "opt/obfuscate.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "runtime/supervisor.h"
#include "util/failpoint.h"
#include "workload/mibench.h"
#include "workload/mibench_thumb.h"

using namespace pdat;

namespace {

// --- the core table ----------------------------------------------------------

/// One core, synthesized and bound to one ISA subset: every per-core hook
/// the core-agnostic driver in main() calls.
struct Flow {
  std::string subset;  // canonical subset name (report, metrics label)
  Netlist design;
  std::function<RestrictionResult(Netlist&)> restrict_fn;
  /// Differential fuzzing of `design` against the ISS, and against
  /// `reduced` as well when non-null.
  std::function<fuzz::FuzzStats(const Netlist& design, const Netlist* reduced,
                                const fuzz::FuzzOptions&)>
      fuzz;
  /// Runs one .prog reproducer through the ISS, `design` and `reduced`.
  std::function<fuzz::RunOutcome(const Netlist& design, const Netlist& reduced,
                                 const fuzz::AbsProgram&)>
      replay;
  /// Lockstep smoke program against the ISS: "" on a match. Unset when the
  /// subset cannot express the program.
  std::function<std::string(const Netlist& reduced)> smoke;
};

/// Binds `f`'s fuzz hooks to `subset`: `entry` is the ISA's fuzz entry
/// point, `Generator` and `Oracle` its generator and differential oracle.
template <class Generator, class Oracle, class Subset>
void bind_fuzz(Flow& f, const Subset& subset,
               fuzz::FuzzStats (*entry)(const Subset&, const Netlist&, const Netlist*,
                                        const fuzz::FuzzOptions&, const fuzz::GenOptions&)) {
  f.fuzz = [subset, entry](const Netlist& design, const Netlist* reduced,
                           const fuzz::FuzzOptions& fo) {
    return entry(subset, design, reduced, fo, {});
  };
  f.replay = [subset](const Netlist& design, const Netlist& reduced, const fuzz::AbsProgram& p) {
    const Generator gen(subset);
    Oracle oracle(gen, design, &reduced);
    return oracle.run(p, nullptr);
  };
}

struct Core {
  std::string_view name;
  std::string_view default_subset;
  std::string_view prog_isa;  // `isa` header of this core's .prog files
  /// Parses `subset` (PdatError when unknown), then builds and synthesizes
  /// the core.
  Flow (*make)(const std::string& subset);
};

isa::RvSubset ibex_subset(const std::string& name) {
  if (name == "reduced-addressing") return isa::rv32_subset_reduced_addressing();
  if (name == "safety-critical") return isa::rv32_subset_safety_critical();
  if (name == "no-parallelism") return isa::rv32_subset_no_parallelism();
  if (name == "aligned") return isa::rv32_subset_aligned();
  if (name == "risc16") return isa::rv32_subset_risc16();
  if (name.rfind("mibench-", 0) == 0) return workload::group_subset(name.substr(8));
  return isa::rv32_subset_named(name);
}

Flow ibex_flow(const std::string& name) {
  const isa::RvSubset subset = ibex_subset(name);
  std::cout << "subset '" << subset.name << "': " << subset.size() << " instructions"
            << (subset.rve ? " (x0-x15 only)" : "") << "\n";
  cores::IbexCore core = cores::build_ibex();
  opt::optimize(core.netlist);
  core.refresh_handles();
  std::cout << "baseline Ibex: " << core.netlist.gate_count() << " gates, "
            << core.netlist.area() << " um^2\n";

  Flow f;
  f.subset = subset.name;
  f.restrict_fn = [subset, instr_q = core.instr_reg_q, addr = core.dmem_addr](Netlist& a) {
    RestrictionResult r = restrict_isa_cutpoint(a, instr_q, subset);
    // The Fig. 5 "Aligned" variant is a cutpoint-based I/O-protocol
    // restriction on the data address low bits (paper Fig. 3): the property
    // checker drives them and the environment pins them to zero.
    if (subset.aligned_mem) restrict_cut_to_zero(a, r, {addr[0], addr[1]});
    return r;
  };
  f.design = std::move(core.netlist);
  bind_fuzz<fuzz::Rv32Generator, fuzz::Rv32DiffOracle>(f, subset, fuzz::fuzz_rv32);
  if (subset.contains("addi") && subset.contains("add") && subset.contains("bne") &&
      !subset.rve) {
    f.smoke = [](const Netlist& reduced) {
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
      return cores::cosim_against_iss(reduced, prog.words);
    };
  }
  return f;
}

isa::ThumbSubset cm0_subset(const std::string& name) {
  if (name == "interesting") return isa::thumb_subset_interesting();
  if (name == "armv6m") return isa::thumb_subset_all();
  if (name.rfind("mibench-", 0) == 0) return workload::thumb_group_subset(name.substr(8));
  throw PdatError("unknown cm0 subset: " + name + " (interesting, armv6m, mibench-<group>)");
}

Flow cm0_flow(const std::string& name) {
  const isa::ThumbSubset subset = cm0_subset(name);
  // The IP vendor's flow: build, synthesize, obfuscate.
  cores::Cm0Core core = cores::build_cm0();
  opt::optimize(core.netlist);
  const std::size_t clear = core.netlist.gate_count();
  opt::obfuscate(core.netlist);
  std::cout << "delivered obfuscated M0: " << core.netlist.gate_count() << " gates (" << clear
            << " before obfuscation — the structure is hidden)\n";
  std::cout << "target subset '" << subset.name << "': " << subset.size() << " of "
            << isa::thumb_subset_all().size() << " ARMv6-M instructions"
            << (subset.has_wide() ? "" : " (all 16-bit)") << "\n";

  Flow f;
  f.subset = subset.name;
  f.design = std::move(core.netlist);
  // The integrator's flow: constrain the instruction port to the vetted
  // subset. No netlist understanding required.
  f.restrict_fn = [subset](Netlist& a) { return restrict_thumb_port(a, "imem_rdata", subset); };
  bind_fuzz<fuzz::ThumbGenerator, fuzz::ThumbDiffOracle>(f, subset, fuzz::fuzz_thumb);
  // The vetted firmware must still run bit-exact, on every subset that
  // contains its instructions.
  const auto firmware = isa::assemble_thumb(R"(
      movs r0, #0
      movs r1, #10
    loop:
      adds r0, r0, r1
      subs r1, #1
      bne loop
      bkpt #0
  )");
  if (std::ranges::all_of(firmware.static_profile,
                          [&](const auto& instr) { return subset.contains(instr.first); })) {
    f.smoke = [halves = firmware.halves](const Netlist& reduced) {
      return cores::cm0_cosim_against_iss(reduced, halves);
    };
  }
  return f;
}

const Core kCores[] = {
    {"ibex", "rv32i", "rv32", ibex_flow},
    {"cm0", "interesting", "thumb", cm0_flow},
};

// --- everything below is core-agnostic ---------------------------------------

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

/// Parses a whole non-negative decimal number; false on a sign, junk,
/// or overflow (std::stoul would wrap "-5" to 2^64-5).
template <class T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty() || text[0] == '-') return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
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

void print_fuzz(const char* label, const fuzz::FuzzStats& stats) {
  std::cout << label << ": " << stats.programs << " programs, " << stats.divergences
            << " divergences, corpus " << stats.corpus_retained << ", coverage "
            << stats.covered_pairs << "/" << 2 * stats.coverage_nets << " toggle pairs\n";
  for (std::size_t i = 0; i < stats.findings.size(); ++i) {
    std::cout << "fuzz finding " << i << " (" << stats.findings[i].shrunk.size()
              << " ops, from " << stats.findings[i].original_ops
              << "): " << stats.findings[i].detail << "\n";
  }
}

/// Reports malformed input; returns its exit status.
int usage(const std::string& problem) {
  std::cerr << "pdat: " << problem << "\nusage: pdat <core> [subset] [out.v] [flags]   (core:";
  for (const Core& c : kCores) std::cerr << " " << c.name;
  std::cerr << "; flags are listed at the top of examples/pdat.cpp)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  PdatOptions opt;
  std::vector<std::string> positional;
  std::string report_path, fuzz_replay;
  bool fuzz_baseline = false;
  // A flag ending in '=' takes a value; its action returns false when the
  // value is malformed.
  const auto text = [](std::string& out) {
    return [&out](std::string_view v) {
      out = v;
      return true;
    };
  };
  const auto number = [](auto& out) {
    return [&out](std::string_view v) { return parse_number(v, out); };
  };
  const auto set = [](auto& out, auto value) {
    return [&out, value](std::string_view) {
      out = value;
      return true;
    };
  };
  const std::pair<std::string_view, std::function<bool(std::string_view)>> flags[] = {
      {"--threads=", number(opt.induction.threads)},
      {"--isolation=",
       [&](std::string_view v) {
         opt.induction.isolation =
             v == "process" ? runtime::Isolation::Process : runtime::Isolation::Thread;
         return v == "process" || v == "thread";
       }},
      {"--job-rlimit-mb=",
       [&](std::string_view v) {
         // A MiB count whose byte count wraps size_t is malformed, not a
         // tiny cap.
         std::size_t mb = 0;
         if (!parse_number(v, mb) || mb > (SIZE_MAX >> 20)) return false;
         opt.induction.job_rlimit_bytes = mb << 20;
         return true;
       }},
      {"--job-rlimit-cpu=", number(opt.induction.job_rlimit_cpu_seconds)},
      {"--journal=", text(opt.induction.journal_path)},
      {"--resume=", text(opt.induction.resume_from)},
      {"--report=", text(report_path)},
      {"--trace", set(opt.trace_path, "trace.json")},
      {"--trace=", text(opt.trace_path)},
      {"--metrics", set(opt.metrics_path, "metrics.json")},
      {"--metrics=", text(opt.metrics_path)},
      {"--certify", set(opt.certify, true)},
      {"--fuzz=", number(opt.fuzz.iterations)},
      {"--fuzz-seed=", number(opt.fuzz.seed)},
      {"--fuzz-threads=", number(opt.fuzz.threads)},
      {"--fuzz-dir=", text(opt.fuzz.out_dir)},
      {"--fuzz-replay=", text(fuzz_replay)},
      {"--fuzz-baseline", set(fuzz_baseline, true)},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-failpoints") {
      for (const std::string& site : util::failpoint_sites()) std::cout << site << "\n";
      return 0;
    }
    if (!arg.starts_with("--")) {
      positional.emplace_back(arg);
      continue;
    }
    const auto flag = std::find_if(std::begin(flags), std::end(flags), [&](const auto& f) {
      return f.first.ends_with('=') ? arg.starts_with(f.first) : arg == f.first;
    });
    if (flag == std::end(flags)) return usage("unknown flag " + std::string(arg));
    if (!flag->second(arg.substr(std::min(flag->first.size(), arg.size())))) {
      return usage("malformed value in " + std::string(arg));
    }
  }
  if (positional.empty() || positional.size() > 3) return usage("expected <core> [subset] [out.v]");
  const Core* core = std::find_if(std::begin(kCores), std::end(kCores),
                                  [&](const Core& c) { return c.name == positional[0]; });
  if (core == std::end(kCores)) return usage("unknown core " + positional[0]);
  const std::string out_path = positional.size() > 2 ? positional[2] : "";

  fuzz::AbsProgram replay_prog;
  Flow flow;
  try {
    // Read the reproducer before any reduction work: a missing or wrong-ISA
    // file is malformed input, reported in milliseconds.
    if (!fuzz_replay.empty()) {
      std::ifstream in(fuzz_replay);
      if (!in) return usage("cannot read " + fuzz_replay);
      std::ostringstream text;
      text << in.rdbuf();
      replay_prog = fuzz::parse_program(text.str(), std::string(core->prog_isa));
    }
    flow = core->make(positional.size() > 1 ? positional[1] : std::string(core->default_subset));
  } catch (const PdatError& e) {
    return usage(e.what());
  }

  if (fuzz_baseline) {
    // Baseline arm: differential-fuzz the unmodified core against the ISS
    // golden model, no reduction at all.
    const fuzz::FuzzStats stats = flow.fuzz(flow.design, nullptr, opt.fuzz);
    print_fuzz("fuzz (baseline)", stats);
    return stats.divergences > 0 ? 1 : 0;
  }

  opt.run_label = std::string(core->name) + ":" + flow.subset;
  opt.interrupt = &g_interrupt;
  opt.fuzz_fn = [&flow](const Netlist& design, const Netlist& reduced,
                        const fuzz::FuzzOptions& fo) { return flow.fuzz(design, &reduced, fo); };
  install_signal_handlers();

  PdatResult res;
  try {
    res = run_pdat(flow.design, flow.restrict_fn, opt);
  } catch (const PdatError& e) {
    if (g_interrupt.load(std::memory_order_relaxed)) {
      // Journal appends are fsynced record by record, so everything proved
      // before the signal is already durable on disk.
      std::cerr << "interrupted: " << e.what() << "\n";
      const std::string& journal = opt.induction.journal_path;
      if (!journal.empty()) {
        // The original command line, resuming from the journal once one
        // exists (an interrupt before the proof stage leaves none).
        std::cerr << "resume with:";
        for (int i = 0; i < argc; ++i) {
          if (!std::string_view(argv[i]).starts_with("--resume=")) std::cerr << " " << argv[i];
        }
        if (std::filesystem::exists(journal)) std::cerr << " --resume=" << journal;
        std::cerr << "\n";
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
    print_fuzz("fuzz", res.fuzz);
    if (res.fuzz.divergences > 0) return 1;
  }

  if (!fuzz_replay.empty()) {
    const fuzz::RunOutcome outcome = flow.replay(flow.design, res.transformed, replay_prog);
    if (outcome.status != fuzz::RunOutcome::Status::Agree) {
      std::cout << "fuzz replay: " << outcome.detail << "\n";
      return 1;
    }
    std::cout << "fuzz replay: AGREE (" << replay_prog.size() << " ops)\n";
  }

  if (flow.smoke) {
    const std::string err = flow.smoke(res.transformed);
    std::cout << "lockstep smoke test: " << (err.empty() ? "PASS" : err) << "\n";
    if (!err.empty()) return 1;
  }

  if (!report_path.empty()) {
    std::ofstream rep(report_path);
    write_report(rep, flow.subset, res);
    std::cout << "wrote report " << report_path << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    write_verilog(out, res.transformed, std::string(core->name) + "_" + flow.subset);
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
