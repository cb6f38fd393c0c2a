// Process-isolated proof workers (DESIGN.md §5.11): wire protocol, fork
// containment of signals and rlimit kills, the failpoint framework, and the
// cross-isolation determinism contract — thread and process mode must be
// bit-identical for crash-free runs at any worker count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
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
  const std::string rec = rt::encode_proc_record(7, std::string("pay\x00load", 8));
  std::size_t pos = 0;
  std::uint32_t type = 0;
  std::string payload;
  ASSERT_TRUE(rt::decode_proc_record(rec, pos, type, payload));
  EXPECT_EQ(type, 7u);
  EXPECT_EQ(payload, std::string("pay\x00load", 8));
  EXPECT_EQ(pos, rec.size());
}

TEST(ProcWire, EveryTruncationIsAnIncompletePrefixNeverGarbage) {
  const std::string rec = rt::encode_proc_record(3, "0123456789abcdef");
  for (std::size_t cut = 0; cut < rec.size(); ++cut) {
    std::size_t pos = 0;
    std::uint32_t type = 0;
    std::string payload;
    EXPECT_FALSE(rt::decode_proc_record(rec.substr(0, cut), pos, type, payload))
        << "cut=" << cut;
    EXPECT_EQ(pos, 0u) << "an incomplete record must not advance the cursor";
  }
}

TEST(ProcWire, CorruptPayloadFailsItsChecksum) {
  std::string rec = rt::encode_proc_record(3, "0123456789");
  rec[rec.size() - 1] = static_cast<char>(rec[rec.size() - 1] ^ 0x20);
  std::size_t pos = 0;
  std::uint32_t type = 0;
  std::string payload;
  EXPECT_THROW(rt::decode_proc_record(rec, pos, type, payload), PdatError);
}

TEST(ProcWire, OversizedLengthIsCorruptionNotAnAllocation) {
  std::string rec = rt::encode_proc_record(3, "x");
  rec[0] = rec[1] = rec[2] = rec[3] = static_cast<char>(0xff);  // length field
  std::size_t pos = 0;
  std::uint32_t type = 0;
  std::string payload;
  EXPECT_THROW(rt::decode_proc_record(rec, pos, type, payload), PdatError);
}

// --- process pool: results, COW, containment ----------------------------------

TEST(ProcWorker, ResultsFlowThroughTheCodecNotThroughMemory) {
  SKIP_WITHOUT_FORK();
  std::vector<int> side(9, 0);     // written only inside the child (COW)
  std::vector<int> results(9, 0);  // written by codec.apply in the parent
  rt::ProcResultCodec codec;
  codec.encode = [&](std::size_t j) { return std::to_string(side[j]); };
  codec.apply = [&](std::size_t j, const std::string& p) { results[j] = std::stoi(p); };
  rt::SupervisorOptions o = proc_opts(4);
  rt::Supervisor sup(o);
  const auto reports = sup.run(
      9,
      [&](std::size_t j, int, const rt::JobBudget&) {
        side[j] = static_cast<int>(j) * 3 + 1;
        return rt::JobStatus::Done;
      },
      &codec);
  ASSERT_EQ(reports.size(), 9u);
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_TRUE(reports[j].completed) << "job " << j;
    EXPECT_EQ(results[j], static_cast<int>(j) * 3 + 1) << "codec must carry job " << j;
    EXPECT_EQ(side[j], 0) << "a child write must never be visible in the parent";
  }
}

TEST(ProcWorker, EscalatedBudgetsReachTheChildren) {
  SKIP_WITHOUT_FORK();
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 4;
  o.escalation = 4.0;
  o.initial.conflicts = 10;
  rt::Supervisor sup(o);
  // Each attempt runs in a fresh child; the retry decision is made purely
  // from the budget the parent shipped, so completion at attempt 3 proves
  // the 10 → 41 → 165 escalation crossed the process boundary.
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget& b) {
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
  const auto reports = sup.run(3, [](std::size_t j, int attempt, const rt::JobBudget&) {
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
  const auto reports = sup.run(4, [](std::size_t, int, const rt::JobBudget&) {
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
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget&) {
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
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget&) {
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
  const auto reports = sup.run(1, [](std::size_t, int, const rt::JobBudget&) {
    return rt::JobStatus::Done;
  });
  EXPECT_FALSE(reports[0].completed);
  EXPECT_TRUE(reports[0].dropped) << "a job that keeps killing its child must drop";
  EXPECT_EQ(reports[0].child_deaths, 2);
  EXPECT_EQ(sup.stats().drops, 1u);
}

TEST(ProcWorker, AddressSpaceLimitContainsRunawayAllocation) {
  SKIP_WITHOUT_FORK();
  if (kAsan) GTEST_SKIP() << "RLIMIT_AS is meaningless under ASan shadow memory";
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  o.proc_limits.address_space_bytes = std::size_t{1} << 30;  // 1 GiB
  rt::Supervisor sup(o);
  const auto reports = sup.run(1, [](std::size_t, int attempt, const rt::JobBudget&) {
    if (attempt == 1) {
      // Far past the cap: the kernel refuses the mapping, so this either
      // throws bad_alloc (in-band crash) or dies — both must be contained.
      std::vector<char> hog(std::size_t{3} << 30, 1);
      if (hog[42] == 0) return rt::JobStatus::Retry;  // defeat optimization
    }
    return rt::JobStatus::Done;
  });
  EXPECT_TRUE(reports[0].completed) << "the retry without the allocation must succeed";
  EXPECT_EQ(reports[0].attempts, 2);
  EXPECT_GE(reports[0].child_deaths + (reports[0].crashed ? 1 : 0), 1)
      << "the first attempt must have been contained one way or the other";
}

TEST(ProcWorker, CpuLimitKillsASpinningChild) {
  SKIP_WITHOUT_FORK();
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  o.proc_limits.cpu_seconds = 1;  // SIGXCPU after 1s of CPU time
  rt::Supervisor sup(o);
  const auto reports = sup.run(1, [](std::size_t, int attempt, const rt::JobBudget&) {
    if (attempt == 1) {
      volatile std::uint64_t spin = 0;
      for (;;) spin = spin + 1;  // ignores every cooperative budget
    }
    return rt::JobStatus::Done;
  });
  EXPECT_TRUE(reports[0].completed);
  EXPECT_EQ(reports[0].child_deaths, 1) << "SIGXCPU must read as an out-of-band death";
}

TEST(ProcWorker, WedgedChildIsKilledAtTheAttemptDeadline) {
  SKIP_WITHOUT_FORK();
  rt::SupervisorOptions o = proc_opts(1);
  o.max_attempts = 2;
  o.initial.wall_seconds = 0.2;
  o.proc_limits.kill_grace_seconds = 0.2;
  rt::Supervisor sup(o);
  const auto t0 = std::chrono::steady_clock::now();
  const auto reports = sup.run(1, [](std::size_t, int attempt, const rt::JobBudget&) {
    if (attempt == 1) {
      // Sleeps through its wall budget without polling it — the watchdog
      // must SIGKILL it instead of waiting the full minute.
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    return rt::JobStatus::Done;
  });
  const double took = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_TRUE(reports[0].completed);
  EXPECT_EQ(reports[0].child_deaths, 1);
  EXPECT_GE(sup.stats().proc_kills, 1u);
  EXPECT_LT(took, 30.0) << "the watchdog must not wait out the sleep";
}

TEST(ProcWorker, CertificationErrorEscapesContainment) {
  SKIP_WITHOUT_FORK();
  rt::SupervisorOptions o = proc_opts(2);
  o.max_attempts = 3;
  rt::Supervisor sup(o);
  EXPECT_THROW(sup.run(6,
                       [](std::size_t j, int, const rt::JobBudget&) {
                         if (j == 2) throw CertificationError("UNSAT certificate rejected");
                         return rt::JobStatus::Done;
                       }),
               CertificationError)
      << "a failed certificate must cross the process boundary and abort the run";
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

  InductionOptions opt;
  opt.batch_size = 8;
  opt.threads = 2;
  InductionStats clean;
  const auto proven_clean = prove_invariants(nl, env, cands, opt, &clean);

  opt.isolation = rt::Isolation::Process;
  InductionStats chaos;
  util::ScopedFailpoint fp("procworker.child_entry", "segv:2");
  const auto proven_chaos = prove_invariants(nl, env, cands, opt, &chaos);

  EXPECT_EQ(describe_all(proven_clean), describe_all(proven_chaos))
      << "a contained child death must never change the proved set";
  expect_same_deterministic_stats(clean, chaos);
  EXPECT_EQ(chaos.proc_restarts, 2u);
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
