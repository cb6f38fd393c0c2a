#include "util/failpoint.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "base/types.h"

namespace pdat::util {

namespace {

// Every failpoint site in the codebase. Keep in sync with the table in
// README.md ("Crash containment & chaos testing") — a test cross-checks the
// two, and failpoint_set refuses names not listed here.
constexpr const char* kFailpointSites[] = {
    "journal.create",           // journal file creation (header write)
    "journal.append",           // write-ahead journal record append
    "checkpoint.replay",        // proof-journal resume replay
    "procworker.child_entry",   // forked proof worker, before the job runs (consumed per child)
    "procworker.pipe_write",    // child result-record write (consumed per child)
    "procworker.pipe_read",     // parent-side result-record read
    "ibex_tb.fetch_fault",      // corrupt fetched R-type words (decoder-fault chaos)
    "cm0_tb.fetch_fault",       // corrupt fetched DP-register halfwords
};

enum class Action { Throw, Enospc, Abort, Segv, Kill, Exit, Delay };

struct SiteState {
  Action action = Action::Throw;
  int arg = 0;        // exit code / delay ms
  int remaining = -1; // evaluations left before self-disarm; -1 = unlimited
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, SiteState> armed;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during shutdown
  return *r;
}

bool known_site(const std::string& site) {
  for (const char* s : kFailpointSites) {
    if (site == s) return true;
  }
  return false;
}

SiteState parse_spec(const std::string& site, const std::string& spec) {
  // action[(arg)][:count]
  std::string body = spec;
  SiteState st;
  const auto colon = body.rfind(':');
  const auto close = body.rfind(')');
  if (colon != std::string::npos && (close == std::string::npos || colon > close)) {
    st.remaining = std::atoi(body.c_str() + colon + 1);
    body.resize(colon);
  }
  std::string name = body;
  const auto paren = body.find('(');
  if (paren != std::string::npos) {
    if (body.back() != ')') {
      throw PdatError("failpoint: malformed action '" + spec + "' for site '" + site + "'");
    }
    name = body.substr(0, paren);
    st.arg = std::atoi(body.substr(paren + 1, body.size() - paren - 2).c_str());
  }
  if (name == "throw") st.action = Action::Throw;
  else if (name == "enospc") st.action = Action::Enospc;
  else if (name == "abort") st.action = Action::Abort;
  else if (name == "segv") st.action = Action::Segv;
  else if (name == "kill") st.action = Action::Kill;
  else if (name == "exit") { st.action = Action::Exit; if (paren == std::string::npos) st.arg = 3; }
  else if (name == "delay") { st.action = Action::Delay; if (paren == std::string::npos) st.arg = 100; }
  else throw PdatError("failpoint: unknown action '" + name + "' for site '" + site + "'");
  if (st.remaining == 0) {
    throw PdatError("failpoint: count must be positive in '" + spec + "' for site '" + site + "'");
  }
  return st;
}

// Parse PDAT_FAILPOINTS once at startup so CLI runs inject faults without
// any code changes. Programmatic set/clear (tests) layer on top.
const bool g_env_loaded = [] {
  const char* env = std::getenv("PDAT_FAILPOINTS");
  if (env == nullptr) return true;
  try {
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
      auto end = s.find(',', pos);
      if (end == std::string::npos) end = s.size();
      const std::string entry = s.substr(pos, end - pos);
      pos = end + 1;
      if (entry.empty()) continue;
      const auto eq = entry.find('=');
      if (eq == std::string::npos) {
        throw PdatError("failpoint: PDAT_FAILPOINTS entry '" + entry + "' is not site=action");
      }
      failpoint_set(entry.substr(0, eq), entry.substr(eq + 1));
    }
  } catch (const std::exception& e) {
    // Runs during static init: exit cleanly rather than std::terminate.
    std::fprintf(stderr, "pdat: %s\n", e.what());
    std::_Exit(2);
  }
  return true;
}();

int perform(const SiteState& fire, const char* site) {
  switch (fire.action) {
    case Action::Throw:
      throw PdatError(std::string("failpoint '") + site + "' injected failure");
    case Action::Enospc:
      return ENOSPC;
    case Action::Abort:
      std::abort();
    case Action::Segv:
      std::signal(SIGSEGV, SIG_DFL);
      std::raise(SIGSEGV);
      std::abort();  // unreachable; SIGSEGV default action terminates
    case Action::Kill:
#ifdef SIGKILL
      std::raise(SIGKILL);
#endif
      std::abort();  // unreachable on POSIX
    case Action::Exit:
      std::_Exit(fire.arg);
    case Action::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fire.arg));
      return 0;
  }
  return 0;
}

// Spec round-trip for failpoint_consume: the count is consumed in the
// parent, so the shipped spec never carries one.
std::string spec_string(const SiteState& st) {
  switch (st.action) {
    case Action::Throw: return "throw";
    case Action::Enospc: return "enospc";
    case Action::Abort: return "abort";
    case Action::Segv: return "segv";
    case Action::Kill: return "kill";
    case Action::Exit: return "exit(" + std::to_string(st.arg) + ")";
    case Action::Delay: return "delay(" + std::to_string(st.arg) + ")";
  }
  return "throw";
}

// Removes one trigger from `site`, disarming it when its count runs out.
std::optional<SiteState> take(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.armed.find(site);
  if (it == reg.armed.end()) return std::nullopt;
  const SiteState fire = it->second;
  if (it->second.remaining > 0 && --it->second.remaining == 0) {
    reg.armed.erase(it);
    detail::g_armed_sites.store(static_cast<int>(reg.armed.size()),
                                std::memory_order_relaxed);
  }
  return fire;
}

}  // namespace

namespace detail {

std::atomic<int> g_armed_sites{0};

int failpoint_eval(const char* site) {
  const auto fire = take(site);
  if (!fire.has_value()) return 0;
  return perform(*fire, site);
}

}  // namespace detail

std::optional<std::string> failpoint_consume(const std::string& site) {
  if (detail::g_armed_sites.load(std::memory_order_relaxed) == 0) return std::nullopt;
  const auto fire = take(site);
  if (!fire.has_value()) return std::nullopt;
  return spec_string(*fire);
}

int failpoint_fire(const std::string& site, const std::string& spec) {
  return perform(parse_spec(site, spec), site.c_str());
}

void failpoint_set(const std::string& site, const std::string& spec) {
  if (!known_site(site)) {
    throw PdatError("failpoint: unknown site '" + site +
                    "' (see --list-failpoints for registered sites)");
  }
  const SiteState st = parse_spec(site, spec);
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.armed[site] = st;
  detail::g_armed_sites.store(static_cast<int>(reg.armed.size()), std::memory_order_relaxed);
}

void failpoint_clear(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.armed.erase(site);
  detail::g_armed_sites.store(static_cast<int>(reg.armed.size()), std::memory_order_relaxed);
}

void failpoint_clear_all() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.armed.clear();
  detail::g_armed_sites.store(0, std::memory_order_relaxed);
}

const std::vector<std::string>& failpoint_sites() {
  static const std::vector<std::string>* sites = [] {
    auto* v = new std::vector<std::string>;
    for (const char* s : kFailpointSites) v->emplace_back(s);
    return v;
  }();
  return *sites;
}

}  // namespace pdat::util
