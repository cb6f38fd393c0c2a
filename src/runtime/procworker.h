// The attempt ladder both dispatch loops share, and the process-isolated
// proof workers (DESIGN.md §5.11).
//
// Thread-mode crash containment in supervisor.cpp stops at C++ exceptions:
// a segfault, a stack overflow, or the kernel OOM killer inside one SAT job
// takes down the whole run. Process isolation closes that gap by running
// every job *attempt* in a freshly forked child:
//
//   - the child applies hard setrlimit() caps (RLIMIT_AS / RLIMIT_CPU from
//     ProcLimits) before touching the job, so a blown-up solver is killed by
//     the kernel instead of starving the machine;
//   - the child takes its attempt (job, attempt number, budget) and the
//     failpoint actions the parent consumed for it from the memory fork()
//     copied, and writes one result record back up a pipe, framed with the
//     journal's checksummed record codec (runtime/journal.h) — a torn or
//     corrupt record is detected, never trusted;
//   - every result record (done, retry, crash) carries the attempt's state
//     bytes or error and the telemetry the child added, so the parent
//     applies exactly what a thread-mode attempt would have; any exception
//     the job throws comes back as a crash record, so no exception escapes
//     containment in either mode, and an exception while the child builds
//     or writes its record ends the child as a death;
//   - waitpid() status decoding maps SIGSEGV / SIGABRT / SIGKILL (OOM) /
//     SIGXCPU (RLIMIT_CPU) / nonzero exits into child deaths, which re-run
//     the same attempt with the same budget;
//   - when the interrupt is raised, every in-flight child is SIGKILLed and
//     reaped.
//
// Scheduling model: the parent runs a single-threaded poll() event loop
// with up to `threads` children in flight. No worker threads exist in
// process mode — fork() from a multithreaded process is a deadlock trap
// (another thread may hold the malloc lock at fork time), and the children
// provide the parallelism anyway.
//
// The child runs against copy-on-write memory: it sees the parent's entire
// state at fork time for free (CNF templates, netlist, applied job state)
// and its own writes are invisible to the parent — all result state flows
// through the record. Children exit with _exit(), never exit(): running
// static destructors in the child (journal flushes) would corrupt
// parent-owned files.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "runtime/supervisor.h"

namespace pdat::runtime {

/// One queued job attempt.
struct Attempt {
  std::size_t job = 0;
  int attempt = 1;  // 1-based
  JobBudget budget;
};

/// How an attempt ended.
enum class AttemptEnd {
  Done,   // in band: the job finished
  Retry,  // in band: the budget ran out with work left
  Crash,  // in band: the attempt threw; nothing was applied
  Death,  // process mode: the child died without a result record
};

/// The retry-then-drop ladder of Supervisor::run, shared by the thread pool
/// and the fork/poll loop: the attempt queue, settling, aborts, the
/// interrupt check and the per-job accounting. Not thread-safe; the thread
/// pool calls it under its queue lock.
class Ladder {
 public:
  Ladder(const SupervisorOptions& opt, std::size_t n, SupervisorStats& stats);

  bool idle() const { return queue_.empty(); }
  /// Dequeues the next attempt.
  Attempt next();
  bool interrupted() const {
    return opt_.interrupt != nullptr && opt_.interrupt->load(std::memory_order_relaxed);
  }
  /// Settles one attempt: an in-band end counts as an attempt and completes
  /// the job or re-queues it with an escalated budget; a death re-queues the
  /// same attempt with the same budget. Either ladder drops the job after
  /// max_attempts steps.
  void settle(const Attempt& a, AttemptEnd end, const std::string& error = {});
  /// Marks the attempt's job aborted by the interrupt.
  void abort(const Attempt& a);
  void abort_queued();
  /// The per-job reports; records the attempts-per-job histogram.
  std::vector<JobReport> finish();

 private:
  void drop(JobReport& r);

  const SupervisorOptions& opt_;
  SupervisorStats& stats_;
  std::deque<Attempt> queue_;
  std::vector<JobReport> reports_;
};

/// False on platforms without fork/pipe/waitpid; Supervisor::run then falls
/// back to thread isolation with a warning.
bool process_isolation_supported();

/// The process-mode dispatch loop. Called by Supervisor::run — use that
/// entry point, not this one. Runs `ladder` to completion.
void run_process_pool(Ladder& ladder, const SupervisorOptions& opt, const JobFn& fn,
                      const ApplyFn& apply);

}  // namespace pdat::runtime
