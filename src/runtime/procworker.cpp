#include "runtime/procworker.h"

#include <array>
#include <chrono>
#include <exception>
#include <optional>

#include "base/types.h"
#include "runtime/journal.h"
#include "trace/trace.h"
#include "util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define PDAT_HAVE_PROCWORKER 1
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace pdat::runtime {

#ifdef PDAT_HAVE_PROCWORKER

namespace {

constexpr int kChildExitWriteFailed = 81;  // the child could not build or write its result

// Result record types. Every result carries the child's telemetry delta,
// then the job state (Done/Retry) or an error message (Crash).
constexpr std::uint32_t kResDone = 2;
constexpr std::uint32_t kResRetry = 3;
constexpr std::uint32_t kResCrash = 4;

struct ChildProc {
  pid_t pid = -1;
  int res_fd = -1;
  std::string buf;  // result pipe bytes drained so far
  Attempt a;
  std::chrono::steady_clock::time_point spawned;
};

/// The failpoint actions the parent consumed for one child at spawn; the
/// child fires each at most once.
struct ChildFaults {
  std::optional<std::string> entry;  // procworker.child_entry: before the job runs
  std::optional<std::string> write;  // procworker.pipe_write: at the result write
};

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Writes the child's result record. A handed pipe_write action fires
/// here; enospc simulates a torn write by shipping only half the record.
bool write_result(int fd, std::uint32_t type, const std::string& payload,
                  const std::optional<std::string>& fault) {
  const std::string rec = encode_record(type, payload);
  if (fault && util::failpoint_fire("procworker.pipe_write", *fault) != 0) {
    write_all(fd, rec.data(), rec.size() / 2);
    return false;
  }
  return write_all(fd, rec.data(), rec.size());
}

int reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV (segmentation fault)";
    case SIGBUS: return "SIGBUS (bus error)";
    case SIGABRT: return "SIGABRT (abort)";
    case SIGILL: return "SIGILL (illegal instruction)";
    case SIGKILL: return "SIGKILL (killed; rlimit or out-of-memory)";
    case SIGXCPU: return "SIGXCPU (CPU rlimit exceeded)";
    default: return "signal " + std::to_string(sig);
  }
}

std::string describe_wait_status(int status) {
  if (WIFSIGNALED(status)) return "child killed by " + signal_name(WTERMSIG(status));
  if (WIFEXITED(status) && WEXITSTATUS(status) == kChildExitWriteFailed) {
    return "child could not build or write its result record";
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    return "child exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return "child exited without a result record";
}

void apply_rlimits(const ProcLimits& lim) {
  // Best-effort: a refused limit means looser containment, never a wrong
  // result, so failures are not reported from the child.
  const auto cap = [](int res, rlim_t v) {
    struct rlimit rl;
    rl.rlim_cur = v;
    rl.rlim_max = v;
    ::setrlimit(res, &rl);
  };
  if (lim.address_space_bytes > 0) cap(RLIMIT_AS, static_cast<rlim_t>(lim.address_space_bytes));
  if (lim.cpu_seconds > 0) cap(RLIMIT_CPU, static_cast<rlim_t>(lim.cpu_seconds));
}

/// The telemetry totals a child starts its attempt from. A forked child
/// inherits the parent's totals, so end minus start is exactly what the
/// attempt added — the delta every result record ships back.
struct Telemetry {
  bool traced = false;
  std::array<std::uint64_t, trace::kNumCounters> counters{};
  std::array<trace::HistogramSnapshot, trace::kNumHistograms> hists{};

  static Telemetry now() {
    Telemetry t;
    t.traced = trace::collecting();
    if (!t.traced) return t;
    for (std::size_t c = 0; c < trace::kNumCounters; ++c) {
      t.counters[c] = trace::counter_value(static_cast<trace::Counter>(c));
    }
    for (std::size_t h = 0; h < trace::kNumHistograms; ++h) {
      t.hists[h] = trace::histogram_snapshot(static_cast<trace::Histogram>(h));
    }
    return t;
  }

  /// Encodes this attempt's telemetry as the delta `now() - *this`.
  std::string delta() const {
    std::string p;
    put_u32(p, traced ? 1 : 0);
    if (!traced) return p;
    const Telemetry end = now();
    for (std::size_t c = 0; c < trace::kNumCounters; ++c) {
      put_u64(p, end.counters[c] - counters[c]);
    }
    for (std::size_t h = 0; h < trace::kNumHistograms; ++h) {
      for (std::size_t b = 0; b < trace::kHistogramBuckets; ++b) {
        put_u64(p, end.hists[h].buckets[b] - hists[h].buckets[b]);
      }
      put_u64(p, end.hists[h].count - hists[h].count);
      put_u64(p, end.hists[h].sum - hists[h].sum);
      put_u64(p, end.hists[h].max);  // absolute; folds via max()
    }
    return p;
  }

  /// Decodes a delta() at `pos` and folds it into this process's telemetry
  /// (decoded in full first, so a short payload folds nothing).
  static void merge(const std::string& in, std::size_t& pos) {
    if (get_u32(in, pos) == 0) return;
    Telemetry d;
    for (std::uint64_t& c : d.counters) c = get_u64(in, pos);
    for (trace::HistogramSnapshot& h : d.hists) {
      for (std::uint64_t& b : h.buckets) b = get_u64(in, pos);
      h.count = get_u64(in, pos);
      h.sum = get_u64(in, pos);
      h.max = get_u64(in, pos);
    }
    if (!trace::collecting()) return;
    for (std::size_t c = 0; c < trace::kNumCounters; ++c) {
      if (d.counters[c] != 0) trace::add(static_cast<trace::Counter>(c), d.counters[c]);
    }
    for (std::size_t h = 0; h < trace::kNumHistograms; ++h) {
      trace::merge(static_cast<trace::Histogram>(h), d.hists[h]);
    }
  }
};

/// Runs the attempt the child was forked with and ships one result record:
/// the attempt's telemetry delta, then the job state or the error. An
/// exception while the record is built or written (a bad_alloc under the
/// address-space cap, a thrown pipe_write action) ends the child like a
/// torn write: it must never unwind into the parent's frames it inherited.
[[noreturn]] void child_main(int res_fd, const Attempt& a, const ChildFaults& faults,
                             const JobFn& fn, const ProcLimits& lim) {
  // The child must die on the signals containment decodes, even if the
  // parent installed cooperative handlers for them.
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
  apply_rlimits(lim);
  try {
    const Telemetry start = Telemetry::now();
    std::uint32_t type = kResCrash;
    std::string body;
    try {
      if (faults.entry) util::failpoint_fire("procworker.child_entry", *faults.entry);
      type = fn(a.job, a.attempt, a.budget, body) == JobStatus::Done ? kResDone : kResRetry;
    } catch (const std::exception& e) {
      body = e.what();
    } catch (...) {
      body = "non-standard exception";
    }
    if (write_result(res_fd, type, start.delta() + body, faults.write)) ::_exit(0);
  } catch (...) {
  }
  ::_exit(kChildExitWriteFailed);
}

}  // namespace

bool process_isolation_supported() { return true; }

void run_process_pool(Ladder& ladder, const SupervisorOptions& opt, const JobFn& fn,
                      const ApplyFn& apply) {
  using Clock = std::chrono::steady_clock;

  std::vector<ChildProc> inflight;
  const std::size_t max_children = opt.threads < 1 ? 1 : static_cast<std::size_t>(opt.threads);

  const auto spawn = [&](const Attempt& a) {
    // The child reads its attempt and its failpoint actions from the
    // memory fork() copies. The actions are consumed here, in spawn order,
    // so a `:count` bound is global across children (a child's decrement
    // would be lost to copy-on-write).
    const ChildFaults faults{util::failpoint_consume("procworker.child_entry"),
                             util::failpoint_consume("procworker.pipe_write")};
    int res[2] = {-1, -1};
    if (::pipe(res) != 0) throw PdatError("procworker: pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(res[0]);
      ::close(res[1]);
      throw PdatError("procworker: fork() failed");
    }
    if (pid == 0) {
      ::close(res[0]);
      child_main(res[1], a, faults, fn, opt.proc_limits);  // never returns
    }
    ::close(res[1]);
    trace::add(trace::Counter::RuntimeProcForks, 1);
    inflight.push_back({pid, res[0], {}, a, Clock::now()});
  };

  // EOF on the result pipe: reap the child and settle its attempt.
  const auto finalize = [&](ChildProc& c) {
    ::close(c.res_fd);
    const int status = reap(c.pid);
    if (trace::collecting()) {
      trace::add(trace::Counter::RuntimeWorkerBusyMicros,
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                           c.spawned)
                         .count()));
    }
    std::uint32_t type = 0;
    std::string body;
    std::string decode_error;
    try {
      if (util::failpoint("procworker.pipe_read") != 0) {
        throw PdatError("procworker: result read failed (injected)");
      }
      std::size_t pos = 0;
      std::string payload;
      if (decode_record(c.buf, pos, type, payload)) {
        pos = 0;
        Telemetry::merge(payload, pos);
        body = payload.substr(pos);
      } else {
        type = 0;
      }
    } catch (const std::exception& e) {
      type = 0;
      decode_error = e.what();
    }
    if (type < kResDone || type > kResCrash) {
      std::string error = describe_wait_status(status);
      if (!decode_error.empty()) error += " [" + decode_error + "]";
      ladder.settle(c.a, AttemptEnd::Death, error);
      return;
    }
    trace::add(trace::Counter::RuntimeProcResults, 1);
    if (type == kResCrash) {
      ladder.settle(c.a, AttemptEnd::Crash, body);
      return;
    }
    try {
      if (apply) apply(c.a.job, body);
    } catch (const std::exception& e) {
      ladder.settle(c.a, AttemptEnd::Crash, e.what());
      return;
    }
    ladder.settle(c.a, type == kResDone ? AttemptEnd::Done : AttemptEnd::Retry);
  };

  while (!ladder.idle() || !inflight.empty()) {
    if (ladder.interrupted()) {
      // Kill, reap and abort every in-flight child, then the queue.
      for (ChildProc& c : inflight) {
        ::kill(c.pid, SIGKILL);
        ::close(c.res_fd);
        reap(c.pid);
        ladder.abort(c.a);
      }
      inflight.clear();
      ladder.abort_queued();
      break;
    }
    while (!ladder.idle() && inflight.size() < max_children) spawn(ladder.next());

    // Wait for result bytes or an interrupt (bounded poll so the flag is
    // noticed promptly).
    std::vector<struct pollfd> fds;
    fds.reserve(inflight.size());
    for (const ChildProc& c : inflight) fds.push_back({c.res_fd, POLLIN, 0});
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), /*timeout_ms=*/100);
    if (rc < 0 && errno != EINTR) throw PdatError("procworker: poll() failed");

    std::vector<std::size_t> finished;
    if (rc > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char chunk[65536];
        const ssize_t r = ::read(inflight[i].res_fd, chunk, sizeof(chunk));
        if (r > 0) {
          inflight[i].buf.append(chunk, static_cast<std::size_t>(r));
        } else if (r == 0 || (r < 0 && errno != EINTR)) {
          finished.push_back(i);
        }
      }
    }

    // Settle finished children (reverse index order keeps erase() valid;
    // results merge by job index, so settle order is irrelevant).
    for (auto it = finished.rbegin(); it != finished.rend(); ++it) {
      ChildProc c = std::move(inflight[*it]);
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(*it));
      finalize(c);
    }
  }
}

#else  // !PDAT_HAVE_PROCWORKER

bool process_isolation_supported() { return false; }

void run_process_pool(Ladder&, const SupervisorOptions&, const JobFn&, const ApplyFn&) {
  throw PdatError("procworker: process isolation is not supported on this platform");
}

#endif  // PDAT_HAVE_PROCWORKER

}  // namespace pdat::runtime
