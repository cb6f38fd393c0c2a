#include "runtime/supervisor.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "base/log.h"
#include "base/types.h"
#include "runtime/procworker.h"
#include "trace/trace.h"

namespace pdat::runtime {

// --- the attempt ladder ------------------------------------------------------

Ladder::Ladder(const SupervisorOptions& opt, std::size_t n, SupervisorStats& stats,
               std::atomic<bool>& cancelled)
    : opt_(opt), stats_(stats), cancelled_(cancelled), reports_(n) {
  for (std::size_t j = 0; j < n; ++j) queue_.push_back({j, 1, opt.initial});
}

Attempt Ladder::next() {
  const Attempt a = queue_.front();
  queue_.pop_front();
  trace::observe(trace::Histogram::RuntimeQueueDepth, queue_.size());
  return a;
}

bool Ladder::cancelled() {
  if (cancelled_.load(std::memory_order_relaxed)) return true;
  if (opt_.interrupt != nullptr && opt_.interrupt->load(std::memory_order_relaxed)) {
    cancel();
    return true;
  }
  return false;
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
/// CertificationError propagates; every other exception is a crash.
AttemptEnd run_attempt(const Attempt& a, const JobFn& fn, const ApplyFn& apply,
                       std::string& error) {
  trace::Span job_span("runtime.job", {"job", static_cast<std::int64_t>(a.job)},
                       {"attempt", a.attempt});
  try {
    std::string state;
    const JobStatus status = fn(a.job, a.attempt, a.budget, state);
    if (apply) apply(a.job, state);
    return status == JobStatus::Done ? AttemptEnd::Done : AttemptEnd::Retry;
  } catch (const CertificationError&) {
    throw;
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "non-standard exception";
  }
  return AttemptEnd::Crash;
}

void run_thread_pool(Ladder& ladder, int threads, const JobFn& fn, const ApplyFn& apply) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  bool all_done = false;
  std::exception_ptr fatal;  // CertificationError escapes containment

  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return all_done || !ladder.idle(); });
      if (all_done) return;
      const Attempt a = ladder.next();
      if (ladder.cancelled()) {
        ladder.abort(a);
      } else {
        ++inflight;
        lock.unlock();
        const bool busy_timing = trace::collecting();
        std::chrono::steady_clock::time_point t0;
        if (busy_timing) t0 = std::chrono::steady_clock::now();
        std::string error;
        AttemptEnd end = AttemptEnd::Crash;
        try {
          end = run_attempt(a, fn, apply, error);
        } catch (const CertificationError&) {
          // Not contained: a failed certificate means the solver is
          // unsound, so retrying or dropping this job would mask a bug
          // that invalidates every other verdict too. Cancel the batch
          // and rethrow from run().
          lock.lock();
          if (!fatal) fatal = std::current_exception();
          ladder.cancel();
          all_done = true;
          cv.notify_all();
          return;
        }
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

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (fatal) std::rethrow_exception(fatal);
}

}  // namespace

std::vector<JobReport> Supervisor::run(std::size_t n, const JobFn& fn, const ApplyFn& apply) {
  cancelled_.store(false, std::memory_order_relaxed);
  if (n == 0) return {};
  trace::Span run_span("runtime.run", {"jobs", static_cast<std::int64_t>(n)},
                       {"threads", opt_.threads});
  trace::add(trace::Counter::RuntimeJobsDispatched, n);

  Ladder ladder(opt_, n, stats_, cancelled_);
  bool process = opt_.isolation == Isolation::Process;
  if (process && !process_isolation_supported()) {
    log_warn() << "runtime: process isolation is not supported on this platform; "
                  "falling back to thread isolation";
    process = false;
  }
  if (process) {
    run_process_pool(ladder, opt_, fn, apply);
  } else {
    run_thread_pool(ladder, opt_.threads, fn, apply);
  }
  return ladder.finish();
}

}  // namespace pdat::runtime
