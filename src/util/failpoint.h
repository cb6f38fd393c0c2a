// Deterministic fault injection for crash-containment and durability tests.
//
// A *failpoint* is a named site in production code where a test (or a chaos
// CI job) can inject a failure on demand: throw an exception, simulate an
// ENOSPC short write, abort, segfault, kill the process, exit with a code,
// or stall. Sites are compiled in unconditionally but cost a single relaxed
// atomic load while no failpoint is armed — the same zero-overhead contract
// the trace layer makes — so production binaries carry their own chaos
// hooks and every recovery path in DESIGN.md §5.11 is testable against the
// real code, not a mock.
//
// Arming is either programmatic (tests) or via the environment (CLI/CI):
//
//   PDAT_FAILPOINTS="journal.append=enospc:1,procworker.child_entry=segv:2"
//
// Grammar: `site=action[(arg)][:count]`, entries separated by commas.
// `count` bounds how many evaluations trigger before the site disarms
// (default: every evaluation). Actions:
//
//   throw        throw PdatError("failpoint '<site>' ...")
//   enospc       return ENOSPC from failpoint(); the caller simulates a
//                short write / failed syscall at that point
//   abort        std::abort() — SIGABRT, as an assertion failure would
//   segv         raise SIGSEGV, as a wild pointer would
//   kill         raise SIGKILL, as the kernel OOM killer would
//   exit(N)      _Exit(N) without running destructors (default N = 3)
//   delay(MS)    sleep MS milliseconds (default 100), then continue
//
// Injection order is deterministic: a site triggers on its first `count`
// evaluations in program order, independent of timing. Combined with the
// deterministic job schedule this makes chaos runs reproducible.
//
// Every site name must be registered in kFailpointSites (failpoint.cpp) and
// documented in README.md; arming an unknown site throws, so a typo in a
// test or CI schedule fails loudly instead of silently injecting nothing.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <vector>

namespace pdat::util {

namespace detail {
extern std::atomic<int> g_armed_sites;
int failpoint_eval(const char* site);
}  // namespace detail

/// Evaluates the failpoint `site`. Returns 0 (and does nothing else) when
/// the site is not armed; this path is one relaxed atomic load. When armed,
/// either performs the configured action (throw / abort / raise / exit /
/// delay) or returns the errno the caller should simulate (ENOSPC).
inline int failpoint(const char* site) {
  if (detail::g_armed_sites.load(std::memory_order_relaxed) == 0) return 0;
  return detail::failpoint_eval(site);
}

/// Arms `site` with an action spec (`"enospc:1"`, `"throw"`, `"exit(2):3"`).
/// Throws PdatError for an unregistered site or a malformed spec.
void failpoint_set(const std::string& site, const std::string& spec);
/// Disarms `site` (no-op if not armed).
void failpoint_clear(const std::string& site);
/// Disarms every site (used by tests to restore a clean slate).
void failpoint_clear_all();

/// All registered site names, in a stable documented order (backs the
/// `--list-failpoints` CLI flag and the docs cross-check test).
const std::vector<std::string>& failpoint_sites();

/// Fork-aware evaluation, used for sites that fire inside a forked child.
/// A child's memory is copy-on-write, so a `:count` bound decremented in
/// the child would never reach the parent and every subsequent child would
/// fire again. Instead the *parent* consumes one trigger before forking —
/// returning the action spec the child inherits, or nullopt when the site
/// is unarmed — and the child performs it with failpoint_fire().
std::optional<std::string> failpoint_consume(const std::string& site);
/// Performs a consumed action spec (same semantics as an armed failpoint()
/// evaluation at `site`: may throw/abort/raise/exit, returns a simulated
/// errno or 0).
int failpoint_fire(const std::string& site, const std::string& spec);

/// RAII arm/disarm for tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, const std::string& spec) : site_(std::move(site)) {
    failpoint_set(site_, spec);
  }
  ~ScopedFailpoint() { failpoint_clear(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace pdat::util
