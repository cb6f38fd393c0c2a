// Supervised proof-job runtime: a worker pool with a per-job conflict
// budget, retry escalation, and crash containment.
//
// Jobs are identified by index. An attempt runs under a JobBudget (SAT
// conflicts per call); a job that cannot finish within its budget returns
// Retry and is re-enqueued with a ×kBudgetEscalation budget, up to a bounded
// number of attempts, after which it is *dropped* — the caller must treat a
// dropped job conservatively (in the proof engine: the candidates it carried
// are not proved). An attempt that throws is contained the same way: the
// exception is recorded, the worker survives, and the job is retried or
// dropped — one pathological SAT query degrades that job, never the run.
// No exception escapes, in either isolation mode: the proof engine re-proves
// the set it returns outside the runtime (DESIGN.md §5.7), so a wrong or
// lost job verdict can cost proofs, never soundness.
//
// One result path: an attempt writes the job's new state into its `state`
// bytes, and run() hands those bytes to the caller's ApplyFn before it
// settles the attempt, in either isolation mode. An attempt that throws
// applies nothing, so the retry starts from the state the last settled
// attempt left.
//
// Determinism contract: the supervisor makes no result decisions — it only
// schedules. As long as each job is a pure function of (job index, applied
// state, attempt, budget) and the caller merges per-job results by index
// (never by completion order), the outcome is bit-identical for any worker
// count and either isolation mode.
//
// SupervisorOptions.isolation selects how attempts are contained: Thread
// (this file's pool) or Process — fork-per-attempt children with hard
// rlimits and a checksummed pipe protocol (runtime/procworker.{h,cpp}).
// Both dispatch loops run the same attempt ladder (runtime/procworker.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pdat::runtime {

/// Budget multiplier from one attempt of a job to the next.
inline constexpr std::int64_t kBudgetEscalation = 4;

/// Per-attempt resource budget: the only job budget, and deterministic.
struct JobBudget {
  std::int64_t conflicts = -1;  // per SAT call; < 0 = unlimited

  /// The next attempt's budget; an unlimited budget stays unlimited.
  JobBudget escalated() const {
    return {conflicts < 0 ? conflicts : conflicts * kBudgetEscalation + 1};
  }
};

enum class JobStatus {
  Done,   // verdict reached (possibly "nothing left to do")
  Retry,  // budget exhausted with work remaining; escalate and re-run
};

/// attempt is 1-based. The job writes its new job state into `state`;
/// run() passes it to the ApplyFn before settling the attempt. Throwing
/// is equivalent to Retry with the exception message recorded (and counts
/// as a crash); a thrown attempt's `state` is discarded.
using JobFn = std::function<JobStatus(std::size_t job, int attempt, const JobBudget& budget,
                                      std::string& state)>;
/// Commits one attempt's state bytes to the caller's per-job state. Runs on
/// the worker (thread mode) or in the parent (process mode), never
/// concurrently for one job. Must decode fully before committing: a throw
/// settles the attempt as a crash.
using ApplyFn = std::function<void(std::size_t job, const std::string& state)>;

/// How job attempts are isolated from the supervisor (DESIGN.md §5.11).
/// Thread containment stops at C++ exceptions; Process forks one child per
/// attempt so a segfault, stack overflow, rlimit kill, or kernel OOM kill
/// in a job degrades that job instead of the run. Results are bit-identical
/// across both modes: the state bytes reach the same ApplyFn either way.
enum class Isolation {
  Thread,   // in-process worker threads; catch(...) containment only
  Process,  // fork-per-attempt children with hard rlimits (POSIX only)
};

/// Hard per-child resource caps for Isolation::Process, applied with
/// setrlimit() in the child before the job runs. 0 = inherit the parent's
/// limit. These are *containment* caps (the kernel enforces them with
/// allocation failure / SIGXCPU), distinct from the cooperative JobBudget
/// the solver polls.
struct ProcLimits {
  std::size_t address_space_bytes = 0;  // RLIMIT_AS
  long cpu_seconds = 0;                 // RLIMIT_CPU (soft → SIGXCPU)
};

struct SupervisorOptions {
  int threads = 1;          // <= 1 runs jobs inline on the calling thread
  int max_attempts = 3;     // in-band attempts (and child deaths) per job before a drop
  JobBudget initial;
  /// Optional cooperative interrupt (SIGINT/SIGTERM in the CLI). Jobs not
  /// finished when it becomes true are marked aborted (distinct from
  /// dropped; the caller must treat the whole batch as interrupted, not
  /// merely unproved). In process mode every in-flight child is SIGKILLed
  /// and reaped.
  const std::atomic<bool>* interrupt = nullptr;
  /// Worker isolation. Process mode falls back to Thread (with a warning)
  /// on platforms without fork/waitpid.
  Isolation isolation = Isolation::Thread;
  /// Hard rlimit caps for process-isolated children; ignored in Thread mode.
  ProcLimits proc_limits;
};

struct JobReport {
  int attempts = 0;  // attempts that settled in band (done, retry or crash)
  bool completed = false;
  bool dropped = false;
  bool aborted = false;
  bool crashed = false;  // at least one attempt threw (in-band, deterministic)
  /// Process mode only: attempts that ended with the child dying without a
  /// result record (signal, rlimit kill, bad exit). A death re-runs the
  /// same attempt with the same budget, so it never changes the job's
  /// result; the job is dropped after max_attempts deaths. Kept separate
  /// from `crashed` and `attempts` because deaths can be environmental and
  /// must not leak into byte-compared reports.
  int child_deaths = 0;
  std::string last_error;
};

struct SupervisorStats {
  std::size_t retries = 0;
  std::size_t drops = 0;
  std::size_t crashes = 0;
  std::size_t aborted = 0;
  /// Process mode: attempts re-queued after an out-of-band child death.
  /// Deliberately not folded into `retries` — see JobReport::child_deaths.
  std::size_t proc_restarts = 0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions opt) : opt_(opt) {}

  /// Runs jobs 0..n-1 to completion (or drop/abort). Blocks until done.
  /// Reports are indexed by job, independent of execution order. `apply`
  /// may be empty when the jobs have no state to hand back.
  std::vector<JobReport> run(std::size_t n, const JobFn& fn, const ApplyFn& apply = {});

  const SupervisorStats& stats() const { return stats_; }

 private:
  SupervisorOptions opt_;
  SupervisorStats stats_;
};

}  // namespace pdat::runtime
