// Reduction benchmark harness. Runs one workload of the PDAT benchmark for a
// fixed measuring time and prints its raw samples as one JSON object on the
// last line of stdout; perfbench/run.py builds this program, turns the
// samples into the benchmark's metrics and checks them. Workloads, metrics
// and the reasons behind them are in perfbench/NOTES.md.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// The harness drives the library only through public entry points:
// cores::build_* + opt::optimize (+ opt::obfuscate) for set-up,
// pdat::run_pdat for a reduction, fuzz::fuzz_rv32 for a fuzz campaign, and
// BitSim / FrameEncoder / sat::Solver for the per-layer probes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "cores/cm0/cm0_core.h"
#include "cores/cm0/cm0_tb.h"
#include "cores/ibex/ibex_core.h"
#include "cores/ibex/ibex_tb.h"
#include "cores/ridecore/ride_tb.h"
#include "cores/ridecore/ridecore.h"
#include "formal/cnf_encoder.h"
#include "fuzz/oracle.h"
#include "isa/rv32_assembler.h"
#include "isa/rv32_subsets.h"
#include "isa/thumb_assembler.h"
#include "isa/thumb_subsets.h"
#include "netlist/verilog.h"
#include "opt/obfuscate.h"
#include "opt/optimizer.h"
#include "pdat/pipeline.h"
#include "sat/solver.h"
#include "sim/bitsim.h"
#include "synth/builder.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "workload/mibench.h"

using namespace pdat;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- output -----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Ordered name -> number map, printed as a flat JSON object.
using Fields = std::vector<std::pair<std::string, double>>;

std::string json_object(const Fields& f) {
  std::string out = "{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(f[i].first) + ": " + json_number(f[i].second);
  }
  return out + "}";
}

/// The benchmark's own spans: set-up, each library call, the correctness
/// check and each probe. Kept in memory and written as a Chrome trace at the
/// end of a traced run, next to the library's own trace.json/metrics.json.
class Spans {
 public:
  /// Runs `fn` as span `name`; returns its wall seconds.
  template <class F>
  double time(const std::string& name, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double dur = seconds_since(t0);
    events_.push_back({name, std::chrono::duration<double>(t0 - origin_).count(), dur});
    return dur;
  }

  void write_chrome_trace(std::ostream& os) const {
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      os << (i > 0 ? ",\n" : "\n") << "{\"name\": " << json_string(e.name)
         << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << json_number(e.start_s * 1e6)
         << ", \"dur\": " << json_number(e.dur_s * 1e6) << "}";
    }
    os << "\n]}\n";
  }

 private:
  struct Event {
    std::string name;
    double start_s;
    double dur_s;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
};

// --- workloads --------------------------------------------------------------

enum class Kind { Reduce, Fuzz };

struct Workload {
  const char* name;
  Kind kind;
  int threads;     // induction.threads of a reduction
  int sim_cycles;  // sim.cycles / sim.restarts of a reduction; 0 = library default
  int sim_restarts;
};

// Programs per fuzz campaign: one campaign is one operation of the fuzz
// workload, so its size sets how many campaigns fit in a run.
constexpr std::size_t kFuzzPrograms = 250;

const Workload kWorkloads[] = {
    {"ibex-rv32i", Kind::Reduce, 1, 0, 0},
    {"cm0-interesting", Kind::Reduce, 1, 0, 0},
    {"ridecore-rv32i-4t", Kind::Reduce, 4, 1024, 2},
    {"ibex-fuzz-rv32imc", Kind::Fuzz, 1, 0, 0},
};

/// Set-up output: the synthesized design a workload reduces or fuzzes, how
/// to restrict it, and how to check a reduced copy of it.
struct Design {
  Netlist netlist;
  std::function<RestrictionResult(Netlist&)> restrict_fn;  // reductions only
  /// Lockstep check of a reduced netlist against the ISS: "" on success.
  /// Adds the number of programs run to `programs`.
  std::function<std::string(const Netlist&, std::size_t& programs)> check_fn;
};

/// Port-based Thumb halfword restriction on the CM0 fetch port: an assume
/// circuit over imem_rdata plus a stimulus driver that feeds subset
/// halfwords (two-halfword encodings kept in order per simulation slot).
RestrictionResult restrict_thumb_port(Netlist& a, const isa::ThumbSubset& subset) {
  const Port* port = a.find_input("imem_rdata");
  RestrictionResult r;
  synth::Builder b(a);
  r.env.add_assume(isa::build_thumb_halfword_matcher(b, port->bits, subset));
  struct HalfwordStimulus final : StimulusDriver {
    std::vector<NetId> bits;
    isa::ThumbSubset s;
    std::uint32_t pend[64] = {};
    bool has[64] = {};
    HalfwordStimulus(std::vector<NetId> n, isa::ThumbSubset ss)
        : bits(std::move(n)), s(std::move(ss)) {}
    void drive(BitSim& sim, Rng& rng) override {
      std::uint64_t slots[64];
      for (int i = 0; i < 64; ++i) slots[i] = isa::sample_thumb_halfword(s, rng, pend[i], has[i]);
      Port tmp;
      tmp.bits = bits;
      sim.set_port_per_slot(tmp, slots);
    }
    std::vector<NetId> owned_nets() const override { return bits; }
    std::unique_ptr<StimulusDriver> clone() const override {
      return std::make_unique<HalfwordStimulus>(*this);
    }
  };
  r.env.drivers.push_back(std::make_shared<HalfwordStimulus>(port->bits, subset));
  return r;
}

/// The Ibex smoke loop plus every MiBench kernel whose instructions all lie
/// in `subset`.
std::string check_ibex(const Netlist& nl, const isa::RvSubset& subset, std::size_t& programs) {
  std::vector<std::pair<std::string, std::string>> progs = {{"smoke", R"(
      li a0, 0
      li t0, 1
    loop:
      add a0, a0, t0
      addi t0, t0, 1
      li t1, 10
      bne t0, t1, loop
      ebreak
  )"}};
  for (const workload::Kernel& k : workload::mibench_kernels()) progs.push_back({k.name, k.source});
  for (const auto& [name, source] : progs) {
    const isa::AssembledProgram prog = isa::assemble_rv32(source);
    const bool expressible =
        std::all_of(prog.static_profile.begin(), prog.static_profile.end(),
                    [&](const auto& m) { return subset.contains(m.first); });
    if (!expressible) continue;
    ++programs;
    const std::string err = cores::cosim_against_iss(nl, prog.words, 2000000);
    if (!err.empty()) return name + ": " + err;
  }
  return "";
}

/// Builds and synthesizes the workload's design; reports the two phases'
/// wall seconds.
Design set_up(const Workload& w, double& build_s, double& optimize_s, Spans& spans) {
  Design d;
  const std::string name = w.name;
  if (name == "ibex-rv32i" || name == "ibex-fuzz-rv32imc") {
    cores::IbexCore core;
    build_s = spans.time("bench.setup.build", [&] { core = cores::build_ibex(); });
    optimize_s = spans.time("bench.setup.optimize", [&] {
      opt::optimize(core.netlist);
      core.refresh_handles();
    });
    const isa::RvSubset subset = isa::rv32_subset_named("rv32i");
    const std::vector<NetId> instr_q = core.instr_reg_q;
    d.restrict_fn = [instr_q, subset](Netlist& a) {
      return restrict_isa_cutpoint(a, instr_q, subset);
    };
    d.check_fn = [subset](const Netlist& nl, std::size_t& programs) {
      return check_ibex(nl, subset, programs);
    };
    d.netlist = std::move(core.netlist);
  } else if (name == "cm0-interesting") {
    cores::Cm0Core core;
    build_s = spans.time("bench.setup.build", [&] { core = cores::build_cm0(); });
    optimize_s = spans.time("bench.setup.optimize", [&] {
      opt::optimize(core.netlist);
      opt::obfuscate(core.netlist);
    });
    const isa::ThumbSubset subset = isa::thumb_subset_interesting();
    d.restrict_fn = [subset](Netlist& a) { return restrict_thumb_port(a, subset); };
    d.check_fn = [](const Netlist& nl, std::size_t& programs) {
      // The vetted-firmware loop of the secure-M0 scenario.
      const auto prog = isa::assemble_thumb(R"(
          movs r0, #0
          movs r1, #10
        loop:
          adds r0, r0, r1
          subs r1, #1
          bne loop
          bkpt #0
      )");
      ++programs;
      return cores::cm0_cosim_against_iss(nl, prog.halves);
    };
    d.netlist = std::move(core.netlist);
  } else {
    cores::RideCore core;
    build_s = spans.time("bench.setup.build", [&] { core = cores::build_ridecore(); });
    optimize_s = spans.time("bench.setup.optimize", [&] {
      opt::optimize(core.netlist);
      core.refresh_handles();
    });
    const isa::RvSubset subset = isa::rv32_subset_named("rv32i");
    const std::vector<NetId> q0 = core.instr_q0, q1 = core.instr_q1;
    // Port-based RV32I on both fetch ports, strengthened with "each fetch
    // register holds a subset instruction" (the Fig. 7 set-up).
    d.restrict_fn = [q0, q1, subset](Netlist& a) {
      RestrictionResult r = restrict_isa_port(a, "imem_rdata0", subset);
      RestrictionResult r1 = restrict_isa_port(a, "imem_rdata1", subset);
      for (NetId n : r1.env.assumes) r.env.add_assume(n);
      for (auto& drv : r1.env.drivers) r.env.drivers.push_back(drv);
      strengthen_subset_membership(a, r, q0, subset);
      strengthen_subset_membership(a, r, q1, subset);
      return r;
    };
    d.check_fn = [](const Netlist& nl, std::size_t& programs) {
      // The Fig. 7 RV32I loop.
      const auto prog = isa::assemble_rv32(R"(
          li a0, 0
          li t0, 1
        loop:
          add a0, a0, t0
          slli t1, a0, 3
          xor a0, a0, t1
          sw a0, 0x100(x0)
          lw t2, 0x100(x0)
          add a0, a0, t2
          addi t0, t0, 1
          li t3, 20
          blt t0, t3, loop
          ebreak
      )");
      ++programs;
      return cores::ride_cosim_against_iss(nl, prog.words);
    };
    d.netlist = std::move(core.netlist);
  }
  return d;
}

// --- operations -------------------------------------------------------------

/// One reduction or one fuzz campaign.
struct Op {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  std::string error;  // non-empty: the operation failed
  Fields result;      // deterministic outcome; ops of one seed must agree
  std::string netlist_hash;
  Fields layers;      // per-layer numbers of a traced op
};

std::string hash_hex(const std::string& s) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016zx", std::hash<std::string>{}(s));
  return buf;
}

double counter(trace::Counter c) { return static_cast<double>(trace::counter_value(c)); }

Op reduce_once(const Workload& w, const Design& d, std::uint64_t seed, bool traced,
               const std::string& out_dir, Spans& spans, Netlist* reduced) {
  PdatOptions opt;
  opt.sim.seed += seed;
  opt.induction.seed += seed;
  opt.induction.threads = w.threads;
  if (w.sim_cycles > 0) {
    opt.sim.cycles = w.sim_cycles;
    opt.sim.restarts = w.sim_restarts;
  }
  if (traced) {
    opt.metrics_path = out_dir + "/metrics.json";
    opt.trace_path = out_dir + "/trace.json";
  }
  Op op;
  op.traced = traced;
  PdatResult res;
  const double cpu0 = trace::process_cpu_seconds();
  op.wall_s = spans.time(traced ? "bench.run_pdat.traced" : "bench.run_pdat", [&] {
    try {
      res = run_pdat(d.netlist, d.restrict_fn, opt);
    } catch (const PdatError& e) {
      op.error = e.what();
    }
  });
  op.cpu_s = trace::process_cpu_seconds() - cpu0;
  if (!op.error.empty()) return op;
  if (res.degraded) {
    op.error = "degraded run:";
    for (const std::string& why : res.degradations) op.error += " " + why;
  }
  op.result = {{"gates_after", static_cast<double>(res.gates_after)},
               {"area_after_um2", res.area_after},
               {"proven", static_cast<double>(res.proven)},
               {"rounds", static_cast<double>(res.induction.rounds)},
               {"sat_calls", static_cast<double>(res.induction.sat_calls)},
               {"candidates", static_cast<double>(res.candidates)},
               {"after_sim_filter", static_cast<double>(res.after_sim_filter)}};
  op.netlist_hash = hash_hex(to_verilog(res.transformed, "reduced"));
  if (traced) {
    const auto stage = [&](PdatStage s) { return res.stage_seconds[static_cast<std::size_t>(s)]; };
    const double induction_s = stage(PdatStage::Induction);
    const double solve_s = counter(trace::Counter::InductionSolveMicrosGlobal) * 1e-6;
    const double busy_s = counter(trace::Counter::RuntimeWorkerBusyMicros) * 1e-6;
    op.layers = {
        {"pdat.restrict_s", stage(PdatStage::Restrict)},
        {"pdat.env_check_s", stage(PdatStage::EnvCheck)},
        {"pdat.annotate_s", stage(PdatStage::Annotate)},
        {"pdat.sim_filter_s", stage(PdatStage::SimFilter)},
        {"pdat.induction_s", induction_s},
        {"pdat.rewire_s", stage(PdatStage::Rewire)},
        {"pdat.resynthesis_s", stage(PdatStage::Resynthesis)},
        {"induction.rounds", static_cast<double>(res.induction.rounds)},
        {"induction.sat_calls", static_cast<double>(res.induction.sat_calls)},
        {"induction.cex_kills", static_cast<double>(res.induction.cex_kills)},
        {"induction.proven", static_cast<double>(res.proven)},
        {"induction.solve_s", solve_s},
        {"induction.other_s", induction_s - solve_s},
        {"runtime.jobs", counter(trace::Counter::RuntimeJobsDispatched)},
        {"runtime.parallel_eff",
         induction_s > 0 ? busy_s / (induction_s * w.threads) : 0.0},
        {"sat.conflicts", counter(trace::Counter::SatConflicts)},
        {"sat.propagations", counter(trace::Counter::SatPropagations)},
        {"sat.decisions", counter(trace::Counter::SatDecisions)},
        {"candidates.total", static_cast<double>(res.candidates)},
        {"candidates.after_sim_filter", static_cast<double>(res.after_sim_filter)},
        {"candidates.sim_kill_ratio",
         res.candidates > 0 ? static_cast<double>(res.candidates - res.after_sim_filter) /
                                  static_cast<double>(res.candidates)
                            : 0.0},
    };
  }
  if (reduced != nullptr) *reduced = std::move(res.transformed);
  return op;
}

Op fuzz_once(const Design& d, std::uint64_t seed, bool traced, const std::string& out_dir,
             Spans& spans) {
  fuzz::FuzzOptions fo;
  fo.seed += seed;
  fo.iterations = kFuzzPrograms;
  fo.threads = 1;
  Op op;
  op.traced = traced;
  fuzz::FuzzStats st;
  const isa::RvSubset subset = isa::rv32_subset_named("rv32imc");
  if (traced) trace::begin_run(/*events=*/true);
  const double cpu0 = trace::process_cpu_seconds();
  op.wall_s = spans.time(traced ? "bench.fuzz_rv32.traced" : "bench.fuzz_rv32", [&] {
    st = fuzz::fuzz_rv32(subset, d.netlist, nullptr, fo);
    if (traced) {
      trace::end_run();
      std::ofstream out(out_dir + "/trace.json");
      trace::write_chrome_trace(out);
    }
  });
  op.cpu_s = trace::process_cpu_seconds() - cpu0;
  if (st.divergences > 0) {
    op.error = std::to_string(st.divergences) + " divergences";
    if (!st.findings.empty()) op.error += ", first: " + st.findings.front().detail;
  }
  op.result = {{"gates_after", static_cast<double>(d.netlist.gate_count())},
               {"area_after_um2", d.netlist.area()},
               {"programs", static_cast<double>(st.programs)},
               {"instructions", static_cast<double>(st.instructions)},
               {"corpus_retained", static_cast<double>(st.corpus_retained)},
               {"covered_pairs", static_cast<double>(st.covered_pairs)}};
  if (traced) {
    const double programs = static_cast<double>(st.programs);
    op.layers = {
        {"fuzz.programs", programs},
        {"fuzz.instructions", static_cast<double>(st.instructions)},
        {"fuzz.shrink_runs", static_cast<double>(st.shrink_runs)},
        {"fuzz.corpus_retained", static_cast<double>(st.corpus_retained)},
        {"fuzz.covered_pairs", static_cast<double>(st.covered_pairs)},
        {"fuzz.oracle_ms_per_program",
         op.wall_s * 1e3 / std::max(1.0, programs + static_cast<double>(st.shrink_runs))},
        {"fuzz.programs_per_s", programs / op.wall_s},
    };
  }
  return op;
}

// --- probes -----------------------------------------------------------------
// Single-layer timings on the workload's set-up design, each the median of
// several repetitions.

Fields probe_layers(const Netlist& nl, std::uint64_t seed, Spans& spans) {
  std::vector<double> cycle_us, encode_ms, query_ms;
  {
    BitSim sim(nl);
    Rng rng(seed + 1);
    constexpr int kSteps = 64;
    for (int rep = 0; rep < 7; ++rep) {
      const double s = spans.time("bench.probe.sim_step", [&] {
        for (int i = 0; i < kSteps; ++i) {
          for (const Port& p : nl.inputs()) {
            for (NetId n : p.bits) sim.set_input(n, rng.next());
          }
          sim.step();
        }
      });
      cycle_us.push_back(s * 1e6 / kSteps);
    }
  }
  const FrameEncoder enc(nl);
  for (int rep = 0; rep < 5; ++rep) {
    sat::Solver s;
    encode_ms.push_back(spans.time("bench.probe.frame_encode", [&] { enc.encode(s); }) * 1e3);
  }
  {
    // Satisfiable output-bit queries on one frame, as the induction engine
    // asks them: "can this data-address bit be 1?".
    sat::Solver s;
    const Frame f = enc.encode(s);
    const Port* out = nl.find_output("dmem_addr");
    if (out == nullptr) out = &nl.outputs().front();
    for (std::size_t i = 0; i < 32; ++i) {
      const NetId bit = out->bits[i % out->bits.size()];
      query_ms.push_back(
          spans.time("bench.probe.sat_query", [&] { s.solve({f.lit(bit, true)}, 100000); }) * 1e3);
    }
  }
  return {{"sim.cycle_us", median(cycle_us)},
          {"cnf.frame_encode_ms", median(encode_ms)},
          {"sat.query_ms", median(query_ms)}};
}

// --- main -------------------------------------------------------------------

int usage() {
  std::cerr << "usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1"
               " --out DIR\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, out_dir;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced_run = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--trace") traced_run = value == "1";
    else if (flag == "--out") out_dir = value;
    else return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload_name == cand.name) w = &cand;
  }
  if (w == nullptr || out_dir.empty() || argc % 2 == 0) return usage();

  Spans spans;
  // Set-up runs as a batch before every operation: at least kMinSetups
  // times and for at least kMinSetupSeconds. One sample is the batch's mean
  // time per set-up, so a sample averages over a stretch of time as an
  // operation does, and the samples span the same part of the run as the
  // operations. Each operation measures the design of the last set-up (all
  // set-ups build the same design).
  constexpr std::size_t kMinSetups = 3;
  constexpr double kMinSetupSeconds = 0.3;
  std::vector<std::string> setups;
  Design design;
  const auto set_up_batch = [&] {
    double build_s = 0, optimize_s = 0;
    std::size_t n = 0;
    const Clock::time_point batch_t0 = Clock::now();
    while (n < kMinSetups || seconds_since(batch_t0) < kMinSetupSeconds) {
      double b = 0, o = 0;
      design = set_up(*w, b, o, spans);
      build_s += b;
      optimize_s += o;
      ++n;
    }
    const double runs = static_cast<double>(n);
    setups.push_back(json_object({{"build_s", build_s / runs},
                                  {"optimize_s", optimize_s / runs},
                                  {"setup_s", (build_s + optimize_s) / runs}}));
  };

  // Operations repeat until the measuring time is used up. A traced run
  // alternates untraced and traced operations, at least untraced, traced,
  // untraced, so tracing overhead compares operations of the same process
  // without the first operation, which also pays for warming the process.
  std::vector<Op> ops;
  Netlist reduced;
  const Clock::time_point t0 = Clock::now();
  do {
    set_up_batch();
    const bool traced = traced_run && ops.size() % 2 == 1;
    ops.push_back(w->kind == Kind::Reduce
                      ? reduce_once(*w, design, seed, traced, out_dir, spans,
                                    ops.empty() ? &reduced : nullptr)
                      : fuzz_once(design, seed, traced, out_dir, spans));
  } while (seconds_since(t0) < seconds || (traced_run && ops.size() < 3));

  // Lockstep check of the first reduction's core; later ops must produce a
  // netlist with the same hash, so the check covers them too.
  std::string check_error;
  std::size_t check_programs = 0;
  if (w->kind == Kind::Reduce && ops.front().error.empty()) {
    spans.time("bench.check", [&] { check_error = design.check_fn(reduced, check_programs); });
  }

  Fields probes;
  if (traced_run) probes = probe_layers(design.netlist, seed, spans);
  const double peak_rss_mb = static_cast<double>(trace::process_peak_rss_bytes()) / 1e6;
  if (traced_run) {
    std::ofstream out(out_dir + "/bench_trace.json");
    spans.write_chrome_trace(out);
  }

  std::ostringstream os;
  os << "{\"workload\": " << json_string(w->name) << ", \"seed\": " << seed
     << ", \"threads\": " << w->threads << ", \"kind\": "
     << json_string(w->kind == Kind::Reduce ? "reduce" : "fuzz")
     << ", \"peak_rss_mb\": " << json_number(peak_rss_mb) << ", \"setup\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) os << (i > 0 ? ", " : "") << setups[i];
  os << "], \"ops\": [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    os << (i > 0 ? ", " : "") << "{\"traced\": " << (op.traced ? "true" : "false")
       << ", \"wall_s\": " << json_number(op.wall_s) << ", \"cpu_s\": " << json_number(op.cpu_s)
       << ", \"error\": " << json_string(op.error) << ", \"result\": " << json_object(op.result)
       << ", \"netlist_hash\": " << json_string(op.netlist_hash)
       << ", \"layers\": " << json_object(op.layers) << "}";
  }
  os << "], \"check\": {\"programs\": " << check_programs
     << ", \"error\": " << json_string(check_error) << "}, \"probes\": " << json_object(probes)
     << "}";
  std::cout << os.str() << std::endl;
  return 0;
}
