// Temporal-induction invariant prover (the Questa Formal substitute), built
// on the supervised proof-job runtime (src/runtime/).
//
// Given a set of candidate gate properties, proves the maximal mutually
// k-inductive subset that also holds in the first k cycles from reset,
// under the environment restrictions:
//
//   base : no surviving candidate is violated in frames 0..k-1 of an
//          unrolling from the power-on state (flops pinned to their init
//          values, X-initialized flops left free);
//   step : assuming every surviving candidate at frames 0..k-1 of a
//          free-state unrolling, no surviving candidate is violated at
//          frame k.
//
// The base case and every step round are one kind of proof phase. A phase
// shards the alive candidates into fixed-size batches and dispatches one
// supervised proof job per batch. A job copies the phase's CNF template
// into a private solver, runs an aggregated "some batch member violated at
// a checked frame" loop, and reports which candidates its counterexample
// models falsified; in a step round each model is also replayed in
// simulation to kill more. The base template is k frames from reset. The
// step template (FrameEncoder::unroll over k+1 free-state frames, plus the
// literals that assert each candidate at frames 0..k-1) is encoded once per
// run and shared by every round.
//
// A step job adds the hypotheses of the alive candidates outside its batch
// as unit clauses and assumes its members'. When the aggregate query turns
// UNSAT and the job has killed members since the last retraction, it drops
// those members' hypotheses and queries again in the same solver; it ends
// on an UNSAT with no new kill. Retraction is sound because every kill is:
// a killed candidate lies outside the greatest fixpoint, so the remaining
// hypotheses still contain that fixpoint, and a model that satisfies them
// at frames 0..k-1 and violates a candidate at frame k shows the candidate
// outside it too. So a chain in which each kill exposes the next, such as
// a counter's bits, unravels inside one job rather than one link per
// round.
//
// Verdicts are merged by candidate index at the round barrier — a union,
// so the result is independent of worker count and scheduling. One base
// phase settles the base case; step rounds then repeat until one removes
// nothing. In such a round no job retracted anything, so every job solved
// under exactly the alive set as its hypothesis.
//
// Jobs that blow their conflict budget or throw are retried by the
// supervisor with a ×4 budget per attempt; after bounded attempts their
// remaining candidates are dropped (conservative: a dropped candidate is
// never kept, matching the paper's §VII-C observation that inconclusive
// analyses merely reduce optimization quality). A job attempt hands its new
// state back as bytes that the supervisor applies before settling the
// attempt, in thread and process isolation alike, so both modes merge the
// same states. A round with no kills and no drops certifies the surviving
// set mutually k-inductive.
//
// Checkpoint/resume: with `journal_path` set, the engine appends a
// checksummed record after the base case and after every completed round;
// `resume_from` replays such a journal (tolerating a torn tail from a
// crash mid-write) and continues from the last complete round. Because a
// round is a deterministic function of the alive set (the step template
// depends only on the proof problem, not on the round that encodes it), a
// resumed run is bit-identical to an uninterrupted one.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "formal/environment.h"
#include "formal/property.h"
#include "netlist/netlist.h"
#include "runtime/supervisor.h"

namespace pdat {

struct InductionOptions {
  std::int64_t conflict_budget = 200000;  // per aggregate SAT call (first attempt)
  /// Temporal-induction depth: candidates are assumed at frames 0..k-1 and
  /// checked at frame k (base case covers frames 0..k-1 from reset). k = 1
  /// is the classic van Eijk fixpoint; higher k proves invariants whose
  /// support spans multiple cycles at the cost of a deeper unrolling.
  int k = 1;
  /// Counterexample replay: after each SAT model, the frame-k state is
  /// loaded into the bit-parallel simulator and run for this many cycles
  /// under the environment stimulus; every candidate falsified on the way
  /// is killed without further SAT calls. 0 disables the accelerator.
  int cex_sim_cycles = 48;
  /// Cutpoint nets (no driver, not primary inputs) that the replay must
  /// drive randomly when no environment driver owns them.
  std::vector<NetId> sim_free_nets;
  std::uint64_t seed = 0xCE7;
  /// Optional cooperative interrupt (SIGINT/SIGTERM in the CLI). When it
  /// becomes true, the fixpoint aborts conservatively: nothing is proved
  /// (stats->interrupted is set), never a partially-checked survivor set —
  /// but completed rounds stay in the journal, so a later resume_from run
  /// continues instead of starting over.
  const std::atomic<bool>* interrupt = nullptr;

  // --- certified solving (DESIGN.md §5.10) ----------------------------------
  /// Attach a DRAT certificate pipeline to every proof-job solver: each SAT
  /// call's verdict is re-checked by the independent checker
  /// (src/sat/dratcheck.h) before it is allowed to kill or keep a candidate.
  /// A certificate that fails to check raises CertificationError out of
  /// prove_invariants — never a silently wrong survivor set. Verdicts and
  /// reports are byte-identical with certification on or off; only the
  /// cert.* telemetry and runtime differ.
  bool certify = false;
  /// Test-only: arm Solver::test_corrupt_next_learnt() on every proof-job
  /// solver, so each job mis-learns one clause. Tests combine it with
  /// `certify` to prove the checker catches an unsound solver end to end;
  /// without `certify` it demonstrates what silent corruption looks like.
  bool test_corrupt_solver = false;

  // --- supervised runtime ---------------------------------------------------
  /// Worker threads for proof jobs. Results are bit-identical for any value
  /// (batching is fixed by batch_size, verdicts merge by candidate index).
  int threads = 1;
  /// Candidates per proof job. Smaller batches isolate pathological queries
  /// better and parallelize wider; larger batches amortize the CNF template
  /// copy and the per-job certification solve. Does NOT affect which
  /// properties get proved... except through budget exhaustion, which is why
  /// it is part of the resume fingerprint.
  int batch_size = 2048;
  /// Attempts per job before its unresolved candidates are conservatively
  /// dropped; each retry multiplies the conflict budget by
  /// runtime::kBudgetEscalation (×4). The conflict budget is the only job
  /// budget, so verdicts are deterministic on any host.
  int max_job_attempts = 3;
  /// Worker isolation. Thread (default) runs job attempts on an in-process
  /// pool; Process forks one child per attempt (src/runtime/procworker.h),
  /// so a segfaulting or OOM-killed solver is contained and retried instead
  /// of taking the run down. Verdicts and reports are byte-identical across
  /// modes: both run the same round-synchronous schedule and merge results
  /// by candidate index. On platforms without fork() the Process setting
  /// falls back to Thread with a warning.
  runtime::Isolation isolation = runtime::Isolation::Thread;
  /// Hard per-child rlimits under Process isolation (0 = unlimited). These
  /// are OS-enforced backstops behind the cooperative conflict budget: a
  /// child that blows them is killed by the kernel, counted out-of-band, and
  /// the same attempt runs again (the job is dropped after max_job_attempts
  /// deaths).
  std::size_t job_rlimit_bytes = 0;   // RLIMIT_AS (address space)
  long job_rlimit_cpu_seconds = 0;    // RLIMIT_CPU (SIGXCPU on expiry)

  // --- checkpoint/resume ----------------------------------------------------
  /// When non-empty, append a checkpoint record here after the base case and
  /// after every fixpoint round (write-ahead journal, crash-tolerant).
  std::string journal_path;
  /// When non-empty, replay this journal and continue from the last complete
  /// round. Throws PdatError when the journal does not match the proof
  /// problem, is empty, or has no header — resuming must never silently
  /// restart or import an alien survivor set. The match is a fingerprint
  /// over the netlist's structure, the environment's assume nets, the
  /// candidate list, and every verdict-affecting option above. May equal
  /// journal_path, in which case new records are appended after the valid
  /// prefix (a torn tail from the crash is truncated).
  std::string resume_from;
};

struct InductionStats {
  std::size_t initial = 0;
  std::size_t after_base = 0;
  std::size_t proven = 0;
  std::size_t sat_calls = 0;
  std::size_t cex_kills = 0;
  std::size_t budget_kills = 0;
  int rounds = 0;
  /// The interrupt was raised before the fixpoint closed; the proved set is
  /// empty (aborting mid-fixpoint must not ship unproved survivors).
  bool interrupted = false;
  // Supervised-runtime accounting.
  std::size_t job_retries = 0;   // re-dispatches with an escalated budget
  std::size_t job_drops = 0;     // jobs whose candidates were dropped
  std::size_t job_crashes = 0;   // attempts contained after throwing
  /// Process-isolation accounting (timing-class: child deaths can be
  /// environmental, so this never feeds the deterministic report columns).
  std::size_t proc_restarts = 0; // attempts re-queued after a child died
  /// Resume provenance: -2 = fresh run, kBaseRound(-1) = resumed after the
  /// base case, r >= 0 = resumed after step round r.
  int resumed_from_round = -2;
};

/// Returns the proved subset of `candidates` (input order preserved).
std::vector<GateProperty> prove_invariants(const Netlist& nl, const Environment& env,
                                           std::vector<GateProperty> candidates,
                                           const InductionOptions& opt = {},
                                           InductionStats* stats = nullptr);

}  // namespace pdat
