// Process-isolated proof workers (DESIGN.md §5.11): wire protocol, fork
// containment of signals and rlimit kills, the failpoint framework, and the
// cross-isolation determinism contract — thread and process mode must be
// bit-identical for crash-free runs at any worker count.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "formal/induction.h"
#include "pdat/errors.h"
#include "runtime/checkpoint.h"
#include "runtime/journal.h"
#include "runtime/procworker.h"
#include "runtime/supervisor.h"
#include "test_util.h"
#include "util/failpoint.h"

namespace pdat {
namespace {

namespace rt = pdat::runtime;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("pdat_procworker_" + name)).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

#define SKIP_WITHOUT_FORK()                                           \
  if (!rt::process_isolation_supported()) {                           \
    GTEST_SKIP() << "process isolation not supported on this platform"; \
  }

// ASan reserves terabytes of shadow address space, so RLIMIT_AS caps are
// meaningless under it.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

rt::SupervisorOptions proc_opts(int threads) {
  rt::SupervisorOptions o;
  o.threads = threads;
  o.isolation = rt::Isolation::Process;
  return o;
}

// --- failpoint framework ------------------------------------------------------

TEST(Failpoints, UnarmedSiteIsAFreeNoOp) {
  util::failpoint_clear_all();
  EXPECT_EQ(util::failpoint("journal.append"), 0);
}

TEST(Failpoints, ArmingAnUnknownSiteThrows) {
  EXPECT_THROW(util::failpoint_set("no.such.site", "throw"), PdatError);
  EXPECT_THROW(util::failpoint_set("journal.append", "frobnicate"), PdatError);
}

TEST(Failpoints, EnospcTriggersExactlyCountTimes) {
  util::ScopedFailpoint fp("journal.append", "enospc:2");
  EXPECT_NE(util::failpoint("journal.append"), 0);
  EXPECT_NE(util::failpoint("journal.append"), 0);
  EXPECT_EQ(util::failpoint("journal.append"), 0) << "count bound must disarm the site";
  EXPECT_EQ(util::failpoint("journal.append"), 0);
}

TEST(Failpoints, ThrowActionThrowsWithTheSiteName) {
  util::ScopedFailpoint fp("checkpoint.replay", "throw:1");
  try {
    util::failpoint("checkpoint.replay");
    FAIL() << "armed throw action must throw";
  } catch (const PdatError& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint.replay"), std::string::npos);
  }
}

TEST(Failpoints, ConsumeShipsTheSpecForForkedChildren) {
  util::ScopedFailpoint fp("procworker.child_entry", "exit(7):1");
  const auto spec = util::failpoint_consume("procworker.child_entry");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(util::failpoint_consume("procworker.child_entry").has_value())
      << "consume must decrement the trigger count in the parent";
}

TEST(Failpoints, EverySiteIsDocumentedInReadme) {
  const std::string readme = slurp(std::string(PDAT_SOURCE_DIR) + "/README.md");
  ASSERT_FALSE(readme.empty()) << "README.md must be readable from the source tree";
  for (const std::string& site : util::failpoint_sites()) {
    EXPECT_NE(readme.find("`" + site + "`"), std::string::npos)
        << "failpoint site '" << site << "' is not documented in README.md";
  }
}

// --- wire protocol ------------------------------------------------------------

TEST(ProcWire, RecordRoundTrips) {
  const std::string rec = rt::encode_record(7, std::string("pay\x00load", 8));
  std::size_t pos = 0;
  std::uint32_t type = 0;
  std::string payload;
  ASSERT_TRUE(rt::decode_record(rec, pos, type, payload));
  EXPECT_EQ(type, 7u);
  EXPECT_EQ(payload, std::string("pay\x00load", 8));
  EXPECT_EQ(pos, rec.size());
}

TEST(ProcWire, EveryTruncationIsAnIncompletePrefixNeverGarbage) {
  const std::string rec = rt::encode_record(3, "0123456789abcdef");
  for (std::size_t cut = 0; cut < rec.size(); ++cut) {
    std::size_t pos = 0;
    std::uint32_t type = 0;
    std::string payload;
    EXPECT_FALSE(rt::decode_record(rec.substr(0, cut), pos, type, payload))
        << "cut=" << cut;
    EXPECT_EQ(pos, 0u) << "an incomplete record must not advance the cursor";
  }
}

TEST(ProcWire, CorruptPayloadFailsItsChecksum) {
  std::string rec = rt::encode_record(3, "0123456789");
  rec[rec.size() - 1] = static_cast<char>(rec[rec.size() - 1] ^ 0x20);
  std::size_t pos = 0;
  std::uint32_t type = 0;
  std::string payload;
  EXPECT_THROW(rt::decode_record(rec, pos, type, payload), PdatError);
}

TEST(ProcWire, OversizedLengthIsCorruptionNotAnAllocation) {
  std::string rec = rt::encode_record(3, "x");
  rec[0] = rec[1] = rec[2] = rec[3] = static_cast<char>(0xff);  // length field
  std::size_t pos = 0;
  std::uint32_t type = 0;
  std::string payload;
  EXPECT_THROW(rt::decode_record(rec, pos, type, payload), PdatError);
}

// --- process pool: results, COW, containment ----------------------------------

TEST(ProcWorker, ResultsFlowThroughTheReturnedBytesNotThroughMemory) {
  SKIP_WITHOUT_FORK();
  std::vector<int> side(9, 0);     // written only inside the child (COW)
  std::vector<int> results(9, 0);  // written by apply in the parent
  rt::Supervisor sup(proc_opts(4));
  const auto reports = sup.run(
      9,
      [&](std::size_t j, int, const rt::JobBudget&, std::string& state) {
        side[j] = static_cast<int>(j) * 3 + 1;
        state = std::to_string(side[j]);
        return rt::JobStatus::Done;
      },
      [&](std::size_t j, const std::string& state) { results[j] = std::stoi(state); });
  ASSERT_EQ(reports.size(), 9u);
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_TRUE(reports[j].completed) << "job " << j;
    EXPECT_EQ(results[j], static_cast<int>(j) * 3 + 1) << "the state bytes must carry job " << j;
    EXPECT_EQ(side[j], 0) << "a child write must never be visible in the parent";
  }
}

// One result path for both isolation modes: the bytes of an attempt that
// returns are applied once, before it settles; a thrown attempt applies
// nothing, even when it filled its state first.
class SupervisorApply : public ::testing::TestWithParam<rt::Isolation> {};

TEST_P(SupervisorApply, ThrownAttemptAppliesNothingAndEveryReturnedAttemptAppliesOnce) {
  if (GetParam() == rt::Isolation::Process) SKIP_WITHOUT_FORK();
  rt::SupervisorOptions o;
  o.threads = 2;
  o.max_attempts = 3;
  o.isolation = GetParam();
  rt::Supervisor sup(o);
  // Job 0 throws after filling its state, job 1 returns Retry once, job 2
  // is clean. Jobs apply on different workers, one job at a time.
  std::vector<std::vector<std::string>> applied(3);
  const auto reports = sup.run(
      3,
      [](std::size_t j, int attempt, const rt::JobBudget&, std::string& state) {
        state = std::to_string(j) + "/" + std::to_string(attempt);
        if (j == 0 && attempt == 1) throw PdatError("failed after filling its state");
        return j == 1 && attempt == 1 ? rt::JobStatus::Retry : rt::JobStatus::Done;
      },
      [&](std::size_t j, const std::string& state) { applied[j].push_back(state); });
  EXPECT_EQ(applied[0], std::vector<std::string>{"0/2"}) << "the thrown attempt applied its state";
  EXPECT_EQ(applied[1], (std::vector<std::string>{"1/1", "1/2"}));
  EXPECT_EQ(applied[2], std::vector<std::string>{"2/1"});
  EXPECT_TRUE(reports[0].crashed);
  EXPECT_EQ(reports[0].attempts, 2);
  EXPECT_EQ(reports[1].attempts, 2);
  for (const auto& r : reports) EXPECT_TRUE(r.completed);
  EXPECT_EQ(sup.stats().crashes, 1u);
  EXPECT_EQ(sup.stats().retries, 2u);
}

INSTANTIATE_TEST_SUITE_P(Isolation, SupervisorApply,
                         ::testing::Values(rt::Isolation::Thread, rt::Isolation::Process),
                         [](const ::testing::TestParamInfo<rt::Isolation>& info) {
                           return info.param == rt::Isolation::Thread ? "Thread" : "Process";
                         });

TEST(ProcWorker, EscalatedBudgetsReachTheChildren) {
  SKIP_WITHOUT_FORK();
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 4;
  o.initial.conflicts = 10;
  rt::Supervisor sup(o);
  // Each attempt runs in a fresh child; the retry decision is made purely
  // from the budget the parent shipped, so completion at attempt 3 proves
  // the 10 → 41 → 165 escalation crossed the process boundary.
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget& b, std::string&) {
    return b.conflicts < 100 ? rt::JobStatus::Retry : rt::JobStatus::Done;
  });
  EXPECT_TRUE(reports[0].completed);
  EXPECT_EQ(reports[0].attempts, 3);
  EXPECT_EQ(sup.stats().retries, 2u);
}

TEST(ProcWorker, ThrownExceptionIsAnInBandCrashLikeThreadMode) {
  SKIP_WITHOUT_FORK();
  rt::SupervisorOptions o = proc_opts(2);
  o.max_attempts = 2;
  rt::Supervisor sup(o);
  const auto reports = sup.run(3, [](std::size_t j, int attempt, const rt::JobBudget&,
                                     std::string&) {
    if (j == 0 && attempt == 1) throw PdatError("transient failure");
    if (j == 1) throw std::runtime_error("pathological query");
    return rt::JobStatus::Done;
  });
  EXPECT_TRUE(reports[0].completed);
  EXPECT_TRUE(reports[0].crashed);
  EXPECT_TRUE(reports[1].dropped);
  EXPECT_EQ(reports[1].last_error, "pathological query");
  EXPECT_TRUE(reports[2].completed);
  EXPECT_EQ(sup.stats().crashes, 3u);
  // In-band crashes are deterministic and must not count as child deaths.
  for (const auto& r : reports) EXPECT_EQ(r.child_deaths, 0) << "in-band crash";
}

TEST(ProcWorker, ChildSegfaultIsContainedAndRetried) {
  SKIP_WITHOUT_FORK();
  util::ScopedFailpoint fp("procworker.child_entry", "segv:1");
  rt::SupervisorOptions o = proc_opts(2);
  o.max_attempts = 3;
  rt::Supervisor sup(o);
  const auto reports = sup.run(4, [](std::size_t, int, const rt::JobBudget&, std::string&) {
    return rt::JobStatus::Done;
  });
  int deaths = 0;
  for (const auto& r : reports) {
    EXPECT_TRUE(r.completed) << "a single segfault must not cost the job";
    deaths += r.child_deaths;
  }
  EXPECT_EQ(deaths, 1);
  EXPECT_EQ(sup.stats().proc_restarts, 1u);
  EXPECT_EQ(sup.stats().crashes, 0u) << "a child death is out-of-band, not a crash";
}

TEST(ProcWorker, ChildAbortIsContainedAndRetried) {
  SKIP_WITHOUT_FORK();
  util::ScopedFailpoint fp("procworker.child_entry", "abort:1");
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  rt::Supervisor sup(o);
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget&, std::string&) {
    return rt::JobStatus::Done;
  });
  EXPECT_TRUE(reports[0].completed);
  EXPECT_EQ(reports[0].child_deaths, 1);
}

TEST(ProcWorker, BadChildExitIsContainedAndRetried) {
  SKIP_WITHOUT_FORK();
  util::ScopedFailpoint fp("procworker.child_entry", "exit(7):1");
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  rt::Supervisor sup(o);
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget&, std::string&) {
    return rt::JobStatus::Done;
  });
  EXPECT_TRUE(reports[0].completed);
  EXPECT_EQ(reports[0].child_deaths, 1);
}

TEST(ProcWorker, PersistentlyDyingJobIsDroppedConservatively) {
  SKIP_WITHOUT_FORK();
  util::ScopedFailpoint fp("procworker.child_entry", "segv");  // every attempt
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  rt::Supervisor sup(o);
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget&, std::string&) {
    return rt::JobStatus::Done;
  });
  EXPECT_FALSE(reports[0].completed);
  EXPECT_TRUE(reports[0].dropped) << "a job that keeps killing its child must drop";
  EXPECT_EQ(reports[0].child_deaths, 2);
  EXPECT_EQ(sup.stats().drops, 1u);
}

TEST(ProcWorker, NoExceptionEscapesAForkedChild) {
  SKIP_WITHOUT_FORK();
  const std::string marker = tmp_path("escaped.marker");
  std::filesystem::remove(marker);
  util::ScopedFailpoint fp("procworker.pipe_write", "throw:1");
  rt::Supervisor sup(proc_opts(1));
  const pid_t parent = ::getpid();
  std::vector<rt::JobReport> reports;
  try {
    reports = sup.run(1, [](std::size_t, int, const rt::JobBudget&, std::string&) {
      return rt::JobStatus::Done;
    });
  } catch (...) {
    if (::getpid() == parent) throw;
    // A child that unwound out of the worker into this frame: leave a
    // trace without running the rest of the test a second time.
    std::ofstream(marker).put('1');
    std::_Exit(0);
  }
  EXPECT_FALSE(std::filesystem::exists(marker)) << "an exception escaped a forked child";
  std::filesystem::remove(marker);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].completed);
  EXPECT_EQ(reports[0].child_deaths, 1) << "a thrown result write must read as a death";
  EXPECT_EQ(sup.stats().crashes, 0u);
}

/// A one-shot trigger that survives fork(): true for the first caller only,
/// in whichever process, because that caller creates the marker file. A
/// child death re-runs the same attempt number, so tests that make only the
/// first child misbehave cannot key on `attempt == 1`.
bool first_call(const std::string& marker) {
  if (std::filesystem::exists(marker)) return false;
  std::ofstream(marker).put('1');
  return true;
}

TEST(ProcWorker, AddressSpaceLimitContainsRunawayAllocation) {
  SKIP_WITHOUT_FORK();
  if (kAsan) GTEST_SKIP() << "RLIMIT_AS is meaningless under ASan shadow memory";
  const std::string marker = tmp_path("hog.marker");
  std::filesystem::remove(marker);
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  o.proc_limits.address_space_bytes = std::size_t{1} << 30;  // 1 GiB
  rt::Supervisor sup(o);
  const auto reports = sup.run(1, [&](std::size_t, int, const rt::JobBudget&, std::string&) {
    if (first_call(marker)) {
      // Far past the cap: the kernel refuses the mapping, so this either
      // throws bad_alloc (in-band crash) or dies — both must be contained.
      std::vector<char> hog(std::size_t{3} << 30, 1);
      if (hog[42] == 0) return rt::JobStatus::Retry;  // defeat optimization
    }
    return rt::JobStatus::Done;
  });
  std::filesystem::remove(marker);
  EXPECT_TRUE(reports[0].completed) << "the retry without the allocation must succeed";
  EXPECT_EQ(reports[0].child_deaths + (reports[0].crashed ? 1 : 0), 1)
      << "the first attempt must have been contained one way or the other";
  // A crash is an attempt (the retry is attempt 2); a death re-runs attempt 1.
  EXPECT_EQ(reports[0].attempts, reports[0].crashed ? 2 : 1);
}

TEST(ProcWorker, CpuLimitKillsASpinningChild) {
  SKIP_WITHOUT_FORK();
  const std::string marker = tmp_path("spin.marker");
  std::filesystem::remove(marker);
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  o.proc_limits.cpu_seconds = 1;  // SIGXCPU after 1s of CPU time
  rt::Supervisor sup(o);
  const auto reports = sup.run(1, [&](std::size_t, int, const rt::JobBudget&, std::string&) {
    if (first_call(marker)) {
      volatile std::uint64_t spin = 0;
      for (;;) spin = spin + 1;  // ignores every cooperative budget
    }
    return rt::JobStatus::Done;
  });
  std::filesystem::remove(marker);
  EXPECT_TRUE(reports[0].completed);
  EXPECT_EQ(reports[0].child_deaths, 1) << "SIGXCPU must read as an out-of-band death";
}

TEST(ProcWorker, InterruptKillsAndReapsEveryChild) {
  SKIP_WITHOUT_FORK();
  std::atomic<bool> interrupt{false};
  rt::SupervisorOptions o = proc_opts(2);
  o.interrupt = &interrupt;
  rt::Supervisor sup(o);
  std::thread raiser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    interrupt.store(true);
  });
  const auto t0 = std::chrono::steady_clock::now();
  // Both children sleep through the interrupt without polling anything.
  const auto reports = sup.run(2, [](std::size_t, int, const rt::JobBudget&, std::string&) {
    std::this_thread::sleep_for(std::chrono::seconds(60));
    return rt::JobStatus::Done;
  });
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  raiser.join();
  EXPECT_LT(took, 10.0) << "the supervisor must not wait out the sleep";
  for (const auto& r : reports) {
    EXPECT_TRUE(r.aborted);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.child_deaths, 0) << "a kill at the interrupt is an abort, not a death";
  }
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << "every child must have been reaped";
  EXPECT_EQ(errno, ECHILD);
}

// --- cross-isolation determinism ----------------------------------------------

GateProperty make_const(NetId n, bool one) {
  GateProperty p;
  p.kind = one ? PropKind::Const1 : PropKind::Const0;
  p.target = n;
  return p;
}

std::vector<GateProperty> gate_const_candidates(const Netlist& nl) {
  std::vector<GateProperty> cands;
  for (CellId id : nl.live_cells()) {
    const auto& c = nl.cell(id);
    if (cell_is_const(c.kind)) continue;
    cands.push_back(make_const(c.out, false));
    cands.push_back(make_const(c.out, true));
  }
  return cands;
}

std::string describe_all(const std::vector<GateProperty>& props) {
  std::string s;
  for (const auto& p : props) s += p.describe() + "\n";
  return s;
}

void expect_same_deterministic_stats(const InductionStats& a, const InductionStats& b) {
  EXPECT_EQ(a.sat_calls, b.sat_calls);
  EXPECT_EQ(a.cex_kills, b.cex_kills);
  EXPECT_EQ(a.budget_kills, b.budget_kills);
  EXPECT_EQ(a.after_base, b.after_base);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.proven, b.proven);
  EXPECT_EQ(a.job_retries, b.job_retries);
  EXPECT_EQ(a.job_drops, b.job_drops);
  EXPECT_EQ(a.job_crashes, b.job_crashes);
}

TEST(ProcInduction, ProcessAndThreadModesAreBitIdentical) {
  SKIP_WITHOUT_FORK();
  const Netlist nl = test::random_netlist(7, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);

  InductionOptions thread_opt;
  thread_opt.batch_size = 8;  // several jobs per round
  InductionOptions proc_opt = thread_opt;
  proc_opt.isolation = rt::Isolation::Process;

  for (const int threads : {1, 4}) {
    thread_opt.threads = threads;
    proc_opt.threads = threads;
    InductionStats st, sp;
    const auto pt = prove_invariants(nl, env, cands, thread_opt, &st);
    const auto pp = prove_invariants(nl, env, cands, proc_opt, &sp);
    EXPECT_EQ(describe_all(pt), describe_all(pp)) << "threads=" << threads;
    expect_same_deterministic_stats(st, sp);
  }
}

TEST(ProcInduction, ChaosScheduleDoesNotChangeTheProvedSet) {
  SKIP_WITHOUT_FORK();
  const Netlist nl = test::random_netlist(21, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);

  // The default budget, and a one-conflict budget under which jobs retry
  // and drop: there a child death that moved a job to another attempt
  // number or budget would change the SAT calls, the retries and the
  // proved set. Each site's count is global: two children run at once,
  // and a trigger fires once however many of them were forked before it.
  struct Case {
    std::int64_t conflict_budget;
    const char* site;
    const char* schedule;
    std::size_t deaths;
  };
  for (const Case& c : {Case{200000, "procworker.child_entry", "segv:2", 2},
                        Case{1, "procworker.child_entry", "segv:45", 45},
                        Case{200000, "procworker.pipe_read", "throw:1", 1},
                        Case{200000, "procworker.pipe_write", "enospc:1", 1}}) {
    InductionOptions opt;
    opt.batch_size = 8;
    opt.threads = 2;
    opt.conflict_budget = c.conflict_budget;
    InductionStats clean;
    const auto proven_clean = prove_invariants(nl, env, cands, opt, &clean);

    opt.isolation = rt::Isolation::Process;
    InductionStats chaos;
    util::ScopedFailpoint fp(c.site, c.schedule);
    const auto proven_chaos = prove_invariants(nl, env, cands, opt, &chaos);

    SCOPED_TRACE(std::string(c.site) + "=" + c.schedule);
    EXPECT_EQ(describe_all(proven_clean), describe_all(proven_chaos))
        << "a contained child death must never change the proved set";
    expect_same_deterministic_stats(clean, chaos);
    EXPECT_EQ(chaos.proc_restarts, c.deaths);
    if (c.conflict_budget == 1) {
      EXPECT_GT(clean.job_retries, 0u) << "the budget must bind";
    }
  }
}

TEST(ProcInduction, MidRunKillAndResumeIsDeterministicInProcessMode) {
  SKIP_WITHOUT_FORK();
  const Netlist nl = test::random_netlist(11, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);

  const std::string full = tmp_path("proc_full.jrn");
  const std::string crashed = tmp_path("proc_crashed.jrn");

  InductionOptions opt;
  opt.batch_size = 8;
  opt.isolation = rt::Isolation::Process;
  opt.threads = 2;
  opt.journal_path = full;
  InductionStats st_full;
  const auto proven_full = prove_invariants(nl, env, cands, opt, &st_full);

  // Simulate a SIGKILL after the base case: keep only the journal's header
  // and base-round records, exactly what a mid-run kill leaves behind.
  const auto recs = rt::read_journal(full);
  ASSERT_TRUE(recs.has_value());
  ASSERT_GE(recs->size(), 2u);
  {
    auto w = rt::JournalWriter::create(crashed);
    w.append((*recs)[0].type, (*recs)[0].payload);
    w.append((*recs)[1].type, (*recs)[1].payload);
  }

  InductionOptions ropt = opt;
  ropt.journal_path = crashed;
  ropt.resume_from = crashed;
  ropt.threads = 4;  // resume on a different worker count, same result
  InductionStats st_res;
  const auto proven_res = prove_invariants(nl, env, cands, ropt, &st_res);

  EXPECT_EQ(st_res.resumed_from_round, rt::kBaseRound);
  EXPECT_EQ(describe_all(proven_full), describe_all(proven_res));
  expect_same_deterministic_stats(st_full, st_res);
  std::remove(full.c_str());
  std::remove(crashed.c_str());
}

}  // namespace
}  // namespace pdat
