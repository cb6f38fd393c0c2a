#include "trace/registry.h"

#include "base/types.h"

namespace pdat::trace {

namespace {

constexpr MetricDef kCounterDefs[] = {
    {MetricKind::Counter, "sat.solve_calls", "1", true,
     "Solver::solve invocations (all engines: induction jobs, BMC, miter)"},
    {MetricKind::Counter, "sat.solve_sat", "1", true, "solve calls returning Sat"},
    {MetricKind::Counter, "sat.solve_unsat", "1", true, "solve calls returning Unsat"},
    {MetricKind::Counter, "sat.solve_unknown", "1", true,
     "solve calls returning Unknown (conflict budget; also the interrupt, "
     "which makes this counter timing-dependent)"},
    {MetricKind::Counter, "sat.conflicts", "1", true, "CDCL conflicts across all solve calls"},
    {MetricKind::Counter, "sat.decisions", "1", true, "branching decisions"},
    {MetricKind::Counter, "sat.propagations", "1", true, "watched-literal propagations"},
    {MetricKind::Counter, "sat.restarts", "1", true, "Luby restarts"},
    {MetricKind::Counter, "sat.learned_clauses", "1", true, "clauses learned (before DB reduction)"},
    {MetricKind::Counter, "sat.learned_literals", "literals", true,
     "total literals in learned clauses (after 1UIP minimization)"},
    {MetricKind::Counter, "sat.db_reductions", "1", true, "learned-clause DB reduction passes"},
    {MetricKind::Counter, "bmc.checks", "1", true,
     "bmc_check calls (induction cross-checks, environment vacuity, tests)"},
    {MetricKind::Counter, "bmc.frames_solved", "frames", true,
     "unrolled frames actually queried across all bmc_check calls"},
    {MetricKind::Counter, "bmc.violations", "1", true, "bmc_check calls finding a counterexample"},
    {MetricKind::Counter, "sim_filter.cycles", "cycles", true,
     "constrained-random simulation cycles spent filtering candidates (64 slots each)"},
    {MetricKind::Counter, "sim_filter.dropped", "candidates", true,
     "candidates falsified and dropped by the simulation filter"},
    {MetricKind::Counter, "sim_filter.assume_violation_cycles", "cycles", true,
     "cycles in which the stimulus violated an environment assume (filter quality reduced)"},
    {MetricKind::Counter, "equiv.classes", "1", true,
     "signal-correspondence signature classes considered (size within limits)"},
    {MetricKind::Counter, "equiv.candidates", "candidates", true,
     "equivalence candidates emitted from signature classes"},
    {MetricKind::Counter, "induction.rounds", "rounds", true,
     "completed step rounds of the van Eijk fixpoint (excludes the base case)"},
    {MetricKind::Counter, "induction.sat_calls", "1", true,
     "aggregate + per-member SAT queries issued by proof jobs"},
    {MetricKind::Counter, "induction.cex_replays", "1", true,
     "counterexample replays through the bit-parallel simulator"},
    {MetricKind::Counter, "induction.cex_replay_cycles", "cycles", true,
     "simulated cycles spent inside counterexample replays"},
    {MetricKind::Counter, "induction.cex_kills", "candidates", true,
     "candidates killed by a SAT model or its simulation replay"},
    {MetricKind::Counter, "induction.budget_kills", "candidates", true,
     "candidates conservatively dropped after budget exhaustion (never proved)"},
    {MetricKind::Counter, "induction.solve_micros_global", "micros", false,
     "wall-clock time inside proof-job SAT solves"},
    {MetricKind::Counter, "runtime.jobs_dispatched", "jobs", true,
     "proof jobs handed to the supervisor (one per batch per round/phase)"},
    {MetricKind::Counter, "runtime.job_attempts", "attempts", true,
     "job attempts settled in band (done, retry or contained crash), not child deaths"},
    {MetricKind::Counter, "runtime.job_retries", "1", true,
     "attempts re-enqueued after budget exhaustion or a contained crash"},
    {MetricKind::Counter, "runtime.job_drops", "jobs", true,
     "jobs abandoned after max_attempts (their candidates are dropped)"},
    {MetricKind::Counter, "runtime.job_crashes", "1", true,
     "attempts that threw and were contained by the supervisor"},
    {MetricKind::Counter, "runtime.job_aborts", "jobs", false,
     "jobs cancelled by the interrupt (SIGINT/SIGTERM; timing-dependent)"},
    {MetricKind::Counter, "runtime.worker_busy_micros", "micros", false,
     "summed wall-clock time workers spent executing job attempts"},
    // The runtime.proc.* family tracks process-isolated workers. Child
    // deaths can be environmental (OOM kill, rlimit, injected faults), so
    // the whole family is timing-class: the deterministic subtree must be
    // identical across isolation modes and chaos schedules.
    {MetricKind::Counter, "runtime.proc.forks", "children", false,
     "child processes forked, one per job attempt under --isolation=process"},
    {MetricKind::Counter, "runtime.proc.results", "records", false,
     "children that returned a complete, checksum-valid result record"},
    {MetricKind::Counter, "runtime.proc.child_deaths", "1", false,
     "attempts whose child died without a result record (signal/rlimit/exit)"},
    {MetricKind::Counter, "runtime.proc.restarts", "attempts", false,
     "attempts run again (same attempt, same budget) after an out-of-band child death"},
    // The cert.* family is populated only under --certify, so it is kept out
    // of the deterministic subtree: the subtree must be certificate-invariant
    // (identical with certification on or off).
    {MetricKind::Counter, "cert.certificates_emitted", "1", false,
     "solve verdicts handed to the DRAT checker for certification"},
    {MetricKind::Counter, "cert.certificates_checked", "1", false,
     "certificates the independent checker accepted"},
    {MetricKind::Counter, "cert.certificates_failed", "1", false,
     "certificates rejected (each raises CertificationError; must be 0)"},
    {MetricKind::Counter, "cert.proof_bytes", "bytes", false,
     "in-memory DRAT trace bytes replayed by the checker"},
    // The fuzz.* family is populated only under --fuzz; like cert.* it stays
    // out of the deterministic subtree so the subtree is fuzz-invariant.
    {MetricKind::Counter, "fuzz.programs", "1", false,
     "programs run through the differential oracles"},
    {MetricKind::Counter, "fuzz.instructions", "1", false,
     "abstract instructions generated across all fuzzed programs"},
    {MetricKind::Counter, "fuzz.inconclusive", "1", false,
     "runs where a model failed to halt within its cap (not divergences)"},
    {MetricKind::Counter, "fuzz.divergences", "1", false,
     "programs whose architectural trace diverged between oracles"},
    {MetricKind::Counter, "fuzz.shrink_runs", "1", false,
     "oracle evaluations spent inside delta-debugging shrinks"},
    {MetricKind::Counter, "fuzz.corpus_retained", "1", false,
     "programs kept in the corpus for covering new gate toggle polarities"},
    {MetricKind::Counter, "fuzz.covered_pairs", "1", false,
     "distinct (net, polarity) toggle pairs covered on the target core"},
    {MetricKind::Counter, "fuzz.tb_cycles", "cycles", false,
     "testbench cycles summed over every program's lane (the single-program cycle total)"},
    {MetricKind::Counter, "fuzz.packed_cycles", "cycles", false,
     "lane-packed BitSim cycles actually run (the longest lane of each pack)"},
};
static_assert(std::size(kCounterDefs) == kNumCounters,
              "every Counter enumerator needs a registry row");

constexpr MetricDef kHistogramDefs[] = {
    {MetricKind::Histogram, "sat.learned_clause_size", "literals", true,
     "distribution of learned-clause sizes after minimization"},
    {MetricKind::Histogram, "sat.learned_clause_lbd", "levels", true,
     "distribution of learned-clause LBD (glue) values"},
    {MetricKind::Histogram, "sat.conflicts_per_call", "1", true,
     "conflicts spent per solve call (shape of query hardness)"},
    {MetricKind::Histogram, "runtime.queue_depth", "attempts", false,
     "supervisor queue depth sampled at each dequeue (scheduling-dependent)"},
    {MetricKind::Histogram, "runtime.attempts_per_job", "attempts", true,
     "attempts each job needed before completing or being dropped"},
    {MetricKind::Histogram, "induction.round_kills", "candidates", true,
     "candidates removed per fixpoint round (base case included)"},
    {MetricKind::Histogram, "cert.check_micros", "micros", false,
     "wall-clock time per certificate check (trace replay + verdict check)"},
    {MetricKind::Histogram, "cert.proof_lines", "lines", false,
     "DRAT lines replayed per certificate check"},
    {MetricKind::Histogram, "fuzz.shrunk_len", "ops", false,
     "abstract-instruction count of each shrunk reproducer"},
};
static_assert(std::size(kHistogramDefs) == kNumHistograms,
              "every Histogram enumerator needs a registry row");

// Span durations are wall clock, hence never deterministic; the span *set*
// (names + args) is — see trace.h.
constexpr MetricDef kSpanDefs[] = {
    {MetricKind::Span, "pdat.run", "span", false,
     "whole run_pdat invocation (args: gates_before, gates_after, proven)"},
    {MetricKind::Span, "pdat.stage.restrict", "span", false,
     "restriction install + analysis-netlist well-formedness check"},
    {MetricKind::Span, "pdat.stage.env-check", "span", false, "environment vacuity check"},
    {MetricKind::Span, "pdat.stage.annotate", "span", false,
     "property-library annotation + equivalence candidates"},
    {MetricKind::Span, "pdat.stage.sim-filter", "span", false, "simulation candidate filter"},
    {MetricKind::Span, "pdat.stage.induction", "span", false, "temporal-induction proof stage"},
    {MetricKind::Span, "pdat.stage.rewire", "span", false, "netlist rewiring"},
    {MetricKind::Span, "pdat.stage.resynthesis", "span", false, "logic resynthesis"},
    {MetricKind::Span, "pdat.stage.validate", "span", false, "post-transform validation"},
    {MetricKind::Span, "induction.prove", "span", false,
     "prove_invariants call (args: candidates, proven)"},
    {MetricKind::Span, "induction.base", "span", false,
     "base-case phase (args: alive, killed)"},
    {MetricKind::Span, "induction.round", "span", false,
     "one step round (args: round, alive, killed)"},
    {MetricKind::Span, "runtime.run", "span", false,
     "Supervisor::run batch (args: jobs, threads)"},
    {MetricKind::Span, "runtime.job", "span", false,
     "one job attempt on a worker (args: job, attempt)"},
    {MetricKind::Span, "bmc.check", "span", false,
     "bmc_check call (args: depth, violation_frame when violated)"},
    {MetricKind::Span, "bmc.env_check", "span", false, "env_satisfiable call (args: depth)"},
    {MetricKind::Span, "candidates.sim_filter", "span", false,
     "sim_filter call (args: candidates, restarts, cycles, dropped)"},
    {MetricKind::Span, "candidates.equivalence", "span", false,
     "equivalence_candidates call (args: classes, candidates)"},
};

}  // namespace

const std::vector<MetricDef>& telemetry_registry() {
  static const std::vector<MetricDef> all = [] {
    std::vector<MetricDef> v;
    v.insert(v.end(), std::begin(kCounterDefs), std::end(kCounterDefs));
    v.insert(v.end(), std::begin(kHistogramDefs), std::end(kHistogramDefs));
    v.insert(v.end(), std::begin(kSpanDefs), std::end(kSpanDefs));
    return v;
  }();
  return all;
}

const char* counter_name(Counter c) {
  const auto i = static_cast<std::size_t>(c);
  if (i >= kNumCounters) throw PdatError("counter_name: bad enumerator");
  return kCounterDefs[i].name;
}

const char* histogram_name(Histogram h) {
  const auto i = static_cast<std::size_t>(h);
  if (i >= kNumHistograms) throw PdatError("histogram_name: bad enumerator");
  return kHistogramDefs[i].name;
}

bool counter_deterministic(Counter c) {
  return kCounterDefs[static_cast<std::size_t>(c)].deterministic;
}

bool histogram_deterministic(Histogram h) {
  return kHistogramDefs[static_cast<std::size_t>(h)].deterministic;
}

}  // namespace pdat::trace
