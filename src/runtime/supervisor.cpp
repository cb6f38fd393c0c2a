#include "runtime/supervisor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "base/log.h"
#include "runtime/procworker.h"
#include "trace/trace.h"

namespace pdat::runtime {

// --- the attempt ladder ------------------------------------------------------

Ladder::Ladder(const SupervisorOptions& opt, std::size_t n, SupervisorStats& stats)
    : opt_(opt), stats_(stats), reports_(n) {
  for (std::size_t j = 0; j < n; ++j) queue_.push_back({j, 1, opt.initial});
}

Attempt Ladder::next() {
  const Attempt a = queue_.front();
  queue_.pop_front();
  trace::observe(trace::Histogram::RuntimeQueueDepth, queue_.size());
  return a;
}

void Ladder::drop(JobReport& r) {
  r.dropped = true;
  ++stats_.drops;
  trace::add(trace::Counter::RuntimeJobDrops, 1);
}

void Ladder::settle(const Attempt& a, AttemptEnd end, const std::string& error) {
  JobReport& r = reports_[a.job];
  if (end == AttemptEnd::Death) {
    // Out of band: the child died without a result record, so nothing was
    // applied. Re-running the same attempt on the same budget keeps the
    // job's results exactly what an undisturbed run computes.
    ++r.child_deaths;
    r.last_error = error;
    trace::add(trace::Counter::RuntimeProcDeaths, 1);
    if (r.child_deaths < opt_.max_attempts) {
      ++stats_.proc_restarts;
      trace::add(trace::Counter::RuntimeProcRestarts, 1);
      queue_.push_back(a);
      log_warn() << "procworker: job " << a.job << " attempt " << a.attempt << ": " << error
                 << "; running the attempt again";
    } else {
      drop(r);
      log_warn() << "procworker: job " << a.job << " attempt " << a.attempt << ": " << error
                 << "; dropping the job (conservative)";
    }
    return;
  }
  r.attempts = a.attempt;
  trace::add(trace::Counter::RuntimeJobAttempts, 1);
  if (end == AttemptEnd::Crash) {
    r.crashed = true;
    r.last_error = error;
    ++stats_.crashes;
    trace::add(trace::Counter::RuntimeJobCrashes, 1);
  }
  if (end == AttemptEnd::Done) {
    r.completed = true;
  } else if (a.attempt < opt_.max_attempts) {
    ++stats_.retries;
    trace::add(trace::Counter::RuntimeJobRetries, 1);
    queue_.push_back({a.job, a.attempt + 1, a.budget.escalated()});
  } else {
    drop(r);
  }
}

void Ladder::abort(const Attempt& a) {
  reports_[a.job].aborted = true;
  ++stats_.aborted;
  trace::add(trace::Counter::RuntimeJobAborts, 1);
}

void Ladder::abort_queued() {
  while (!queue_.empty()) abort(next());
}

std::vector<JobReport> Ladder::finish() {
  if (trace::collecting()) {
    for (const JobReport& r : reports_) {
      trace::observe(trace::Histogram::RuntimeAttemptsPerJob,
                     static_cast<std::uint64_t>(r.attempts));
    }
  }
  return std::move(reports_);
}

// --- thread isolation --------------------------------------------------------

namespace {

/// Runs one attempt on this thread: the job, then the apply of its state.
/// Every exception is a contained crash.
AttemptEnd run_attempt(const Attempt& a, const JobFn& fn, const ApplyFn& apply,
                       std::string& error) {
  trace::Span job_span("runtime.job", {"job", static_cast<std::int64_t>(a.job)},
                       {"attempt", a.attempt});
  try {
    std::string state;
    const JobStatus status = fn(a.job, a.attempt, a.budget, state);
    if (apply) apply(a.job, state);
    return status == JobStatus::Done ? AttemptEnd::Done : AttemptEnd::Retry;
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "non-standard exception";
  }
  return AttemptEnd::Crash;
}

/// Runs the ladder on `workers` threads; 1 runs it inline.
void run_thread_pool(Ladder& ladder, std::size_t workers, const JobFn& fn, const ApplyFn& apply) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  bool all_done = false;

  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return all_done || !ladder.idle(); });
      if (all_done) return;
      const Attempt a = ladder.next();
      if (ladder.interrupted()) {
        ladder.abort(a);
      } else {
        ++inflight;
        lock.unlock();
        const bool busy_timing = trace::collecting();
        std::chrono::steady_clock::time_point t0;
        if (busy_timing) t0 = std::chrono::steady_clock::now();
        std::string error;
        const AttemptEnd end = run_attempt(a, fn, apply, error);
        if (busy_timing) {
          trace::add(trace::Counter::RuntimeWorkerBusyMicros,
                     static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count()));
        }
        lock.lock();
        --inflight;
        ladder.settle(a, end, error);
      }
      if (ladder.idle() && inflight == 0) {
        all_done = true;
        cv.notify_all();
        return;
      }
      cv.notify_one();
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
}

}  // namespace

std::vector<JobReport> Supervisor::run(std::size_t n, const JobFn& fn, const ApplyFn& apply) {
  if (n == 0) return {};
  trace::Span run_span("runtime.run", {"jobs", static_cast<std::int64_t>(n)},
                       {"threads", opt_.threads});
  trace::add(trace::Counter::RuntimeJobsDispatched, n);

  Ladder ladder(opt_, n, stats_);
  bool process = opt_.isolation == Isolation::Process;
  if (process && !process_isolation_supported()) {
    log_warn() << "runtime: process isolation is not supported on this platform; "
                  "falling back to thread isolation";
    process = false;
  }
  if (process) {
    run_process_pool(ladder, opt_, fn, apply);
  } else {
    // No more workers than jobs: a phase of n jobs keeps at most n busy.
    run_thread_pool(ladder, std::min<std::size_t>(n, std::max(opt_.threads, 1)), fn, apply);
  }
  return ladder.finish();
}

}  // namespace pdat::runtime
