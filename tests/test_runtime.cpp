// Supervised proof-job runtime: journal format + corruption recovery,
// supervisor retry/escalation/crash containment, checkpoint/resume, and the
// determinism contract (worker count and resume point never change results).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "cores/cm0/cm0_core.h"
#include "formal/bmc.h"
#include "formal/induction.h"
#include "isa/thumb_subsets.h"
#include "netlist/verilog.h"
#include "opt/optimizer.h"
#include "pdat/errors.h"
#include "pdat/pipeline.h"
#include "runtime/checkpoint.h"
#include "runtime/journal.h"
#include "runtime/supervisor.h"
#include "synth/builder.h"
#include "test_util.h"
#include "util/failpoint.h"

namespace pdat {
namespace {

namespace rt = pdat::runtime;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("pdat_runtime_" + name)).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- journal ------------------------------------------------------------------

TEST(Journal, RoundTripAndValidBytes) {
  const std::string path = tmp_path("roundtrip.jrn");
  {
    auto w = rt::JournalWriter::create(path);
    w.append(1, "alpha");
    w.append(2, std::string("\x00\xff\x7f", 3));
    w.append(7, "");
  }
  std::uint64_t valid = 0;
  const auto recs = rt::read_journal(path, &valid);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 3u);
  EXPECT_EQ((*recs)[0].type, 1u);
  EXPECT_EQ((*recs)[0].payload, "alpha");
  EXPECT_EQ((*recs)[1].payload.size(), 3u);
  EXPECT_EQ((*recs)[2].type, 7u);
  EXPECT_EQ(valid, std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(Journal, TruncatedTailDropsOnlyLastRecord) {
  const std::string path = tmp_path("torn.jrn");
  {
    auto w = rt::JournalWriter::create(path);
    w.append(1, "first");
    w.append(2, "second");
  }
  // Simulate a crash mid-write: chop a few bytes off the last record.
  const std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 3));

  std::uint64_t valid = 0;
  const auto recs = rt::read_journal(path, &valid);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 1u) << "torn tail must cost exactly the torn record";
  EXPECT_EQ((*recs)[0].payload, "first");

  // Appending after the crash truncates the torn tail, then continues.
  {
    auto w = rt::JournalWriter::append_after_valid_prefix(path);
    w.append(3, "third");
  }
  const auto recs2 = rt::read_journal(path);
  ASSERT_TRUE(recs2.has_value());
  ASSERT_EQ(recs2->size(), 2u);
  EXPECT_EQ((*recs2)[0].payload, "first");
  EXPECT_EQ((*recs2)[1].payload, "third");
  std::remove(path.c_str());
}

TEST(Journal, FlippedChecksumByteStopsReplayAtPreviousRecord) {
  const std::string path = tmp_path("flip.jrn");
  {
    auto w = rt::JournalWriter::create(path);
    w.append(1, "first");
    w.append(2, "second");
  }
  // Flip one byte inside the last record's payload.
  std::string bytes = slurp(path);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
  spit(path, bytes);

  const auto recs = rt::read_journal(path);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 1u) << "a corrupt record must not replay";
  EXPECT_EQ((*recs)[0].payload, "first");
  std::remove(path.c_str());
}

TEST(Journal, MissingEmptyOrAlienFilesRejected) {
  EXPECT_FALSE(rt::read_journal(tmp_path("does_not_exist.jrn")).has_value());

  const std::string path = tmp_path("alien.jrn");
  spit(path, "");
  EXPECT_FALSE(rt::read_journal(path).has_value()) << "zero-byte file has no header";
  spit(path, "not a journal at all, definitely");
  EXPECT_FALSE(rt::read_journal(path).has_value()) << "bad magic must be rejected";
  EXPECT_THROW(rt::JournalWriter::append_after_valid_prefix(path), PdatError);
  std::remove(path.c_str());
}

TEST(Journal, WireHelpersThrowPastEnd) {
  std::string buf;
  rt::put_u32(buf, 0xdeadbeef);
  std::size_t pos = 0;
  EXPECT_EQ(rt::get_u32(buf, pos), 0xdeadbeefu);
  EXPECT_THROW(rt::get_u32(buf, pos), PdatError);
  EXPECT_THROW(rt::get_u64(buf, pos), PdatError);
}

// --- journal durability under injected faults ---------------------------------

TEST(JournalChaos, CreateEnospcThrowsAndLeavesNoUsableFile) {
  const std::string path = tmp_path("enospc_create.jrn");
  {
    util::ScopedFailpoint fp("journal.create", "enospc:1");
    EXPECT_THROW(rt::JournalWriter::create(path), PdatError);
  }
  // The partial artifact (magic only, no version) must read as headerless.
  EXPECT_FALSE(rt::read_journal(path).has_value());
  std::remove(path.c_str());
}

TEST(JournalChaos, AppendEnospcThrowsJournalErrorAndKeepsTheValidPrefix) {
  const std::string path = tmp_path("enospc_append.jrn");
  {
    auto w = rt::JournalWriter::create(path);
    w.append(1, "first");
    util::ScopedFailpoint fp("journal.append", "enospc:1");
    try {
      w.append(2, "second-record-payload");
      FAIL() << "append must throw on injected ENOSPC";
    } catch (const PdatError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("journal:", 0), 0u)
          << "the pipeline keys fatal handling off the 'journal:' prefix";
    }
  }
  // Longest-valid-prefix recovery: the torn record is dropped, nothing else.
  const auto recs = rt::read_journal(path);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].payload, "first");
  // A later run truncates the torn tail and appends cleanly.
  {
    auto w = rt::JournalWriter::append_after_valid_prefix(path);
    w.append(3, "third");
  }
  const auto recs2 = rt::read_journal(path);
  ASSERT_TRUE(recs2.has_value());
  ASSERT_EQ(recs2->size(), 2u);
  EXPECT_EQ((*recs2)[1].payload, "third");
  std::remove(path.c_str());
}

// --- checkpoint records -------------------------------------------------------

rt::ProofRoundRecord sample_round(std::int32_t round, std::size_t n) {
  rt::ProofRoundRecord r;
  r.round = round;
  r.alive.assign(n, false);
  for (std::size_t i = 0; i < n; i += 3) r.alive[i] = true;
  r.counters.sat_calls = 42;
  r.counters.cex_kills = 7;
  r.counters.budget_kills = 1;
  r.counters.rounds = static_cast<std::uint64_t>(round + 1);
  r.counters.after_base = n;
  return r;
}

TEST(Checkpoint, ResumeReturnsLastCompleteRound) {
  const std::string path = tmp_path("ckpt.jrn");
  const rt::ProofJournalHeader hdr{0x1234abcdULL, 10};
  {
    auto w = rt::JournalWriter::create(path);
    w.append(rt::kProofRecHeader, rt::encode_proof_header(hdr));
    w.append(rt::kProofRecRound, rt::encode_proof_round(sample_round(rt::kBaseRound, 10)));
    w.append(rt::kProofRecRound, rt::encode_proof_round(sample_round(0, 10)));
    w.append(rt::kProofRecRound, rt::encode_proof_round(sample_round(1, 10)));
  }
  const auto rs = rt::load_proof_resume(path, hdr);
  ASSERT_TRUE(rs.has_value());
  EXPECT_EQ(rs->last.round, 1);
  EXPECT_FALSE(rs->finished);
  EXPECT_EQ(rs->last.alive.size(), 10u);
  EXPECT_EQ(rs->last.counters.sat_calls, 42u);

  // A final record marks the proof complete.
  {
    auto w = rt::JournalWriter::append_after_valid_prefix(path);
    w.append(rt::kProofRecFinal, rt::encode_proof_round(sample_round(2, 10)));
  }
  const auto rs2 = rt::load_proof_resume(path, hdr);
  ASSERT_TRUE(rs2.has_value());
  EXPECT_TRUE(rs2->finished);
  EXPECT_EQ(rs2->last.round, 2);
  std::remove(path.c_str());
}

TEST(Checkpoint, ConfigurationErrorsNeverResumeSilently) {
  const rt::ProofJournalHeader hdr{99, 4};

  // Missing journal.
  EXPECT_THROW(rt::load_proof_resume(tmp_path("missing.jrn"), hdr), PdatError);

  // Journal with no header record.
  const std::string path = tmp_path("headerless.jrn");
  {
    auto w = rt::JournalWriter::create(path);
    w.append(rt::kProofRecRound, rt::encode_proof_round(sample_round(0, 4)));
  }
  EXPECT_THROW(rt::load_proof_resume(path, hdr), PdatError);

  // Fingerprint mismatch (journal from a different proof problem).
  {
    auto w = rt::JournalWriter::create(path);
    w.append(rt::kProofRecHeader, rt::encode_proof_header({98, 4}));
    w.append(rt::kProofRecRound, rt::encode_proof_round(sample_round(0, 4)));
  }
  EXPECT_THROW(rt::load_proof_resume(path, hdr), PdatError);

  // Candidate-count mismatch.
  {
    auto w = rt::JournalWriter::create(path);
    w.append(rt::kProofRecHeader, rt::encode_proof_header({99, 5}));
  }
  EXPECT_THROW(rt::load_proof_resume(path, hdr), PdatError);
  std::remove(path.c_str());
}

TEST(Checkpoint, HeaderOnlyJournalResumesFromScratch) {
  const std::string path = tmp_path("headeronly.jrn");
  const rt::ProofJournalHeader hdr{5, 3};
  {
    auto w = rt::JournalWriter::create(path);
    w.append(rt::kProofRecHeader, rt::encode_proof_header(hdr));
  }
  EXPECT_FALSE(rt::load_proof_resume(path, hdr).has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, ReplayFailpointFailsTheResumeLoudly) {
  const std::string path = tmp_path("replay_fp.jrn");
  const rt::ProofJournalHeader hdr{1, 2};
  {
    auto w = rt::JournalWriter::create(path);
    w.append(rt::kProofRecHeader, rt::encode_proof_header(hdr));
  }
  util::ScopedFailpoint fp("checkpoint.replay", "enospc:1");
  EXPECT_THROW(rt::load_proof_resume(path, hdr), PdatError);
  // The trigger is consumed: the retry succeeds against the same file.
  EXPECT_FALSE(rt::load_proof_resume(path, hdr).has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, TornTailCostsAtMostOneRound) {
  const std::string path = tmp_path("ckpt_torn.jrn");
  const rt::ProofJournalHeader hdr{77, 6};
  {
    auto w = rt::JournalWriter::create(path);
    w.append(rt::kProofRecHeader, rt::encode_proof_header(hdr));
    w.append(rt::kProofRecRound, rt::encode_proof_round(sample_round(rt::kBaseRound, 6)));
    w.append(rt::kProofRecRound, rt::encode_proof_round(sample_round(0, 6)));
  }
  const std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 5));
  const auto rs = rt::load_proof_resume(path, hdr);
  ASSERT_TRUE(rs.has_value());
  EXPECT_EQ(rs->last.round, rt::kBaseRound) << "the torn round must not replay";
  std::remove(path.c_str());
}

// --- supervisor ---------------------------------------------------------------

TEST(Supervisor, RunsEveryJobOnAnyThreadCount) {
  for (int threads : {1, 4}) {
    rt::SupervisorOptions opt;
    opt.threads = threads;
    rt::Supervisor sup(opt);
    std::vector<int> ran(17, 0);
    const auto reports = sup.run(ran.size(), [&](std::size_t j, int, const rt::JobBudget&,
                                                 std::string&) {
      ran[j] += 1;
      return rt::JobStatus::Done;
    });
    ASSERT_EQ(reports.size(), 17u);
    for (std::size_t j = 0; j < ran.size(); ++j) {
      EXPECT_EQ(ran[j], 1) << "job " << j << " threads " << threads;
      EXPECT_TRUE(reports[j].completed);
    }
  }
}

TEST(Supervisor, RetryEscalatesBudgetThenDrops) {
  rt::SupervisorOptions opt;
  opt.threads = 1;
  opt.max_attempts = 3;
  opt.initial.conflicts = 10;
  rt::Supervisor sup(opt);
  std::vector<std::int64_t> budgets;
  const auto reports = sup.run(1, [&](std::size_t, int, const rt::JobBudget& b, std::string&) {
    budgets.push_back(b.conflicts);
    return rt::JobStatus::Retry;  // never finishes
  });
  ASSERT_EQ(budgets.size(), 3u);
  EXPECT_EQ(budgets[0], 10);
  EXPECT_GT(budgets[1], budgets[0]);
  EXPECT_GT(budgets[2], budgets[1]);
  EXPECT_TRUE(reports[0].dropped);
  EXPECT_FALSE(reports[0].completed);
  EXPECT_EQ(sup.stats().retries, 2u);
  EXPECT_EQ(sup.stats().drops, 1u);
}

TEST(Supervisor, CrashIsContainedRetriedAndRecorded) {
  rt::SupervisorOptions opt;
  opt.threads = 2;
  opt.max_attempts = 2;
  rt::Supervisor sup(opt);
  // Job 0 crashes once then succeeds; job 1 always crashes; job 2 is clean.
  const auto reports = sup.run(3, [&](std::size_t j, int attempt, const rt::JobBudget&,
                                      std::string&) {
    if (j == 0 && attempt == 1) throw PdatError("transient failure");
    if (j == 1) throw std::runtime_error("pathological query");
    return rt::JobStatus::Done;
  });
  EXPECT_TRUE(reports[0].completed);
  EXPECT_TRUE(reports[0].crashed);
  EXPECT_FALSE(reports[1].completed);
  EXPECT_TRUE(reports[1].dropped);
  EXPECT_EQ(reports[1].last_error, "pathological query");
  EXPECT_TRUE(reports[2].completed);
  EXPECT_FALSE(reports[2].crashed);
  EXPECT_EQ(sup.stats().crashes, 3u);
  EXPECT_EQ(sup.stats().drops, 1u);
}

TEST(Supervisor, InterruptAbortsJobsAndSetsCancelFlag) {
  rt::SupervisorOptions opt;
  opt.threads = 1;
  std::atomic<bool> interrupt{true};  // tripped before the run starts
  opt.interrupt = &interrupt;
  rt::Supervisor sup(opt);
  int executed = 0;
  const auto reports = sup.run(4, [&](std::size_t, int, const rt::JobBudget&, std::string&) {
    ++executed;
    return rt::JobStatus::Done;
  });
  EXPECT_EQ(executed, 0) << "no job may start once the interrupt is set";
  for (const auto& r : reports) EXPECT_TRUE(r.aborted);
  EXPECT_EQ(sup.stats().aborted, 4u);
}

// --- induction engine determinism + resume ------------------------------------

GateProperty const0(NetId n) {
  GateProperty p;
  p.kind = PropKind::Const0;
  p.target = n;
  return p;
}

GateProperty const1(NetId n) {
  GateProperty p;
  p.kind = PropKind::Const1;
  p.target = n;
  return p;
}

std::vector<GateProperty> gate_const_candidates(const Netlist& nl) {
  std::vector<GateProperty> cands;
  for (CellId id : nl.live_cells()) {
    const auto& c = nl.cell(id);
    if (cell_is_const(c.kind)) continue;
    cands.push_back(const0(c.out));
    cands.push_back(const1(c.out));
  }
  return cands;
}

std::string describe_all(const std::vector<GateProperty>& props) {
  std::string s;
  for (const auto& p : props) s += p.describe() + "\n";
  return s;
}

TEST(InductionRuntime, ThreadCountDoesNotChangeOutcome) {
  const Netlist nl = test::random_netlist(7, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);

  InductionOptions base;
  base.batch_size = 8;  // several jobs per round

  InductionStats st1, st8;
  InductionOptions o1 = base, o8 = base;
  o1.threads = 1;
  o8.threads = 8;
  const auto p1 = prove_invariants(nl, env, cands, o1, &st1);
  const auto p8 = prove_invariants(nl, env, cands, o8, &st8);

  EXPECT_EQ(describe_all(p1), describe_all(p8));
  EXPECT_EQ(st1.sat_calls, st8.sat_calls);
  EXPECT_EQ(st1.cex_kills, st8.cex_kills);
  EXPECT_EQ(st1.budget_kills, st8.budget_kills);
  EXPECT_EQ(st1.after_base, st8.after_base);
  EXPECT_EQ(st1.rounds, st8.rounds);
}

TEST(InductionRuntime, ResumeMatchesUninterruptedRun) {
  const Netlist nl = test::random_netlist(11, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);

  const std::string full = tmp_path("proof_full.jrn");
  const std::string crashed = tmp_path("proof_crashed.jrn");

  InductionOptions opt;
  opt.batch_size = 8;
  opt.journal_path = full;
  InductionStats st_full;
  const auto proven_full = prove_invariants(nl, env, cands, opt, &st_full);

  // Simulate a SIGKILL after the base case: keep only the journal's header
  // and base-round records, exactly what a crash mid-round leaves behind.
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
  ropt.threads = 8;  // resume on a different worker count, same result
  InductionStats st_res;
  const auto proven_res = prove_invariants(nl, env, cands, ropt, &st_res);

  EXPECT_EQ(st_res.resumed_from_round, rt::kBaseRound);
  EXPECT_EQ(describe_all(proven_full), describe_all(proven_res));
  EXPECT_EQ(st_full.sat_calls, st_res.sat_calls);
  EXPECT_EQ(st_full.cex_kills, st_res.cex_kills);
  EXPECT_EQ(st_full.after_base, st_res.after_base);
  EXPECT_EQ(st_full.rounds, st_res.rounds);
  EXPECT_EQ(st_full.proven, st_res.proven);

  // Resuming a finished journal skips the fixpoint; only the independent
  // check of the returned set runs, and it counts no fixpoint SAT call.
  InductionOptions fin = opt;
  fin.journal_path.clear();
  fin.resume_from = full;
  InductionStats st_fin;
  const auto proven_fin = prove_invariants(nl, env, cands, fin, &st_fin);
  EXPECT_EQ(describe_all(proven_full), describe_all(proven_fin));
  EXPECT_EQ(st_fin.sat_calls, st_full.sat_calls);
  std::remove(full.c_str());
  std::remove(crashed.c_str());
}

TEST(InductionRuntime, ForgedFinalRecordFailsTheIndependentCheck) {
  // A final record is trusted for scheduling only: the set it holds is
  // re-proved before it is returned. Keep a real journal's header and
  // append a final record whose alive set also holds one candidate the
  // proof killed; the independent check must reject it. One forgery adds a
  // candidate that fails from reset, the other one that holds at reset but
  // is not inductive, so each half of the check is exercised.
  const Netlist nl = test::random_netlist(11, 8, 160, 14, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);
  const std::string real = tmp_path("proof_real.jrn");
  const std::string forged = tmp_path("proof_forged.jrn");

  InductionOptions opt;
  opt.journal_path = real;
  InductionStats st;
  const auto proven = prove_invariants(nl, env, cands, opt, &st);
  const auto recs = rt::read_journal(real);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ((*recs)[0].type, rt::kProofRecHeader);

  // proven is the subsequence of cands that survived.
  std::vector<bool> alive(cands.size(), false);
  for (std::size_t i = 0, j = 0; i < cands.size() && j < proven.size(); ++i) {
    if (cands[i].describe() == proven[j].describe()) {
      alive[i] = true;
      ++j;
    }
  }
  for (const bool fails_at_reset : {true, false}) {
    std::size_t killed = cands.size();
    for (std::size_t i = 0; i < cands.size() && killed == cands.size(); ++i) {
      if (!alive[i] && bmc_check(nl, env, cands[i], 1).violated == fails_at_reset) killed = i;
    }
    ASSERT_LT(killed, cands.size());
    rt::ProofRoundRecord fin;
    fin.round = st.rounds - 1;
    fin.alive = alive;
    fin.alive[killed] = true;
    {
      auto w = rt::JournalWriter::create(forged);
      w.append((*recs)[0].type, (*recs)[0].payload);
      w.append(rt::kProofRecFinal, rt::encode_proof_round(fin));
    }
    InductionOptions ropt;
    ropt.resume_from = forged;
    try {
      prove_invariants(nl, env, cands, ropt);
      ADD_FAILURE() << "the forged set with " << cands[killed].describe() << " was returned";
    } catch (const CertificationError& e) {
      EXPECT_NE(std::string(e.what()).find(fails_at_reset ? "check.base" : "check.step"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(real.c_str());
  std::remove(forged.c_str());
}

TEST(InductionRuntime, ResumeRejectsJournalFromDifferentProblem) {
  const Netlist nl = test::random_netlist(13, 6, 80, 8, 4);
  const Environment env;
  const auto cands = gate_const_candidates(nl);
  const std::string path = tmp_path("proof_mismatch.jrn");

  InductionOptions opt;
  opt.journal_path = path;
  prove_invariants(nl, env, cands, opt);

  // Same journal, different conflict budget: verdict-affecting, so the
  // fingerprint must reject the resume.
  InductionOptions other;
  other.resume_from = path;
  other.conflict_budget = 12345;
  EXPECT_THROW(prove_invariants(nl, env, cands, other), PdatError);
  std::remove(path.c_str());
}

TEST(InductionRuntime, ResumeRejectsJournalFromANetlistWithOneGateChanged) {
  const Netlist nl = test::random_netlist(13, 6, 80, 8, 4);
  const Environment env;
  const auto cands = gate_const_candidates(nl);
  const std::string path = tmp_path("proof_other_netlist.jrn");

  // Same cell count, same nets, same candidate list — only one gate's
  // function differs, which changes which candidates are invariant.
  Netlist changed = nl;
  bool found = false;
  for (const CellId id : changed.live_cells()) {
    if (changed.cell(id).kind == CellKind::And2) {
      changed.cell(id).kind = CellKind::Or2;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  ASSERT_EQ(changed.num_cells_raw(), nl.num_cells_raw());
  ASSERT_EQ(describe_all(gate_const_candidates(changed)), describe_all(cands));

  InductionOptions opt;
  opt.journal_path = path;
  prove_invariants(nl, env, cands, opt);

  InductionOptions ropt;
  ropt.resume_from = path;
  EXPECT_THROW(prove_invariants(changed, env, cands, ropt), PdatError);
  std::remove(path.c_str());
}

TEST(InductionRuntime, ResumeRejectsJournalFromADifferentAssumeSet) {
  const Netlist nl = test::random_netlist(13, 6, 80, 8, 4);
  const Environment env;
  const auto cands = gate_const_candidates(nl);
  const std::string path = tmp_path("proof_other_env.jrn");

  InductionOptions opt;
  opt.journal_path = path;
  prove_invariants(nl, env, cands, opt);

  // An added assume restricts the reachable states, so the recorded
  // survivor set is not this problem's.
  Environment assumed;
  assumed.add_assume(nl.inputs()[0].bits[0]);
  InductionOptions ropt;
  ropt.resume_from = path;
  EXPECT_THROW(prove_invariants(nl, assumed, cands, ropt), PdatError);
  std::remove(path.c_str());
}

TEST(InductionRuntime, BudgetDropsAreConservativeAndAccounted) {
  const Netlist nl = test::random_netlist(99, 8, 200, 16, 6);
  const Environment env;
  const auto cands = gate_const_candidates(nl);

  InductionOptions opt;
  opt.conflict_budget = 1;
  opt.cex_sim_cycles = 0;  // force the SAT-side path
  opt.max_job_attempts = 1;
  opt.batch_size = 16;
  InductionStats st;
  const auto proven = prove_invariants(nl, env, cands, opt, &st);
  EXPECT_GT(st.budget_kills, 0u);
  EXPECT_GT(st.job_drops, 0u);
  // Whatever survived the starved run must be genuinely invariant.
  for (const auto& p : proven) {
    const BmcResult r = bmc_check(nl, env, p, 6);
    EXPECT_FALSE(r.violated) << p.describe() << " violated at frame " << r.violation_frame;
  }
}

// --- pipeline-level wiring ----------------------------------------------------

TEST(PdatPipeline, BadResumeJournalIsAConfigError) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  const NetId not_en = b.not_(en[0]);
  const NetId en_net = en[0];

  PdatOptions opt;
  opt.induction.resume_from = tmp_path("no_such_journal.jrn");
  EXPECT_THROW(run_pdat(nl,
                        [&](Netlist&) {
                          RestrictionResult rr;
                          rr.env.add_assume(not_en);
                          rr.env.drivers.push_back(std::make_shared<ConstantDriver>(
                              std::vector<NetId>{en_net}, false));
                          return rr;
                        },
                        opt),
               StageError);
}

TEST(PdatPipeline, JournalWriteFailureIsFatal) {
  // A checkpoint append that fails to persist would turn a later --resume
  // into a replay of stale state, so the pipeline must stop — degrading to
  // "no journal" would silently break the crash-tolerance contract.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  const NetId not_en = b.not_(en[0]);
  const NetId en_net = en[0];

  const std::string path = tmp_path("enospc_pipeline.jrn");
  PdatOptions opt;
  opt.induction.journal_path = path;
  util::ScopedFailpoint fp("journal.append", "enospc:1");
  EXPECT_THROW(run_pdat(nl,
                        [&](Netlist&) {
                          RestrictionResult rr;
                          rr.env.add_assume(not_en);
                          rr.env.drivers.push_back(std::make_shared<ConstantDriver>(
                              std::vector<NetId>{en_net}, false));
                          return rr;
                        },
                        opt),
               StageError);
  std::remove(path.c_str());
}

TEST(PdatPipeline, InterruptThrowsStageErrorAndNeverDegrades) {
  // The interrupt is the only early stop. Raised before the run, or seen by
  // the proof stage alone, it must surface as a StageError: a degraded
  // result would ship a core as if the run had finished.
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  const NetId not_en = b.not_(en[0]);
  const NetId en_net = en[0];
  const auto restrict_fn = [&](Netlist&) {
    RestrictionResult rr;
    rr.env.add_assume(not_en);
    rr.env.drivers.push_back(
        std::make_shared<ConstantDriver>(std::vector<NetId>{en_net}, false));
    return rr;
  };
  const std::atomic<bool> raised{true};

  PdatOptions whole_run;
  whole_run.interrupt = &raised;
  PdatOptions proof_only;
  proof_only.induction.interrupt = &raised;
  for (const auto& [opt, stage] : {std::pair{&whole_run, PdatStage::SimFilter},
                                   std::pair{&proof_only, PdatStage::Induction}}) {
    try {
      const PdatResult res = run_pdat(nl, restrict_fn, *opt);
      ADD_FAILURE() << "an interrupted run returned (degraded=" << res.degraded << ")";
    } catch (const StageError& e) {
      EXPECT_EQ(e.stage(), stage) << e.what();
      EXPECT_NE(std::string(e.what()).find("interrupted"), std::string::npos) << e.what();
    }
  }
  // Control: without the interrupt the same run proves the counter's bits.
  EXPECT_GT(run_pdat(nl, restrict_fn).proven, 0u);
}

TEST(PdatPipeline, JournalAndResumeForwardIntoInduction) {
  Netlist nl;
  synth::Builder b(nl);
  auto en = b.input("en", 1);
  auto r = b.reg_decl(4, 0);
  b.connect(r, b.mux(en[0], r.q, b.add_const(r.q, 1)));
  b.output("q", r.q);
  const NetId not_en = b.not_(en[0]);
  const NetId en_net = en[0];
  const auto restrict_fn = [&](Netlist&) {
    RestrictionResult rr;
    rr.env.add_assume(not_en);
    rr.env.drivers.push_back(
        std::make_shared<ConstantDriver>(std::vector<NetId>{en_net}, false));
    return rr;
  };

  const std::string path = tmp_path("pipeline.jrn");
  PdatOptions opt;
  opt.induction.journal_path = path;
  const PdatResult a = run_pdat(nl, restrict_fn, opt);
  ASSERT_TRUE(rt::read_journal(path).has_value()) << "journal must be written";

  PdatOptions ropt;
  ropt.induction.resume_from = path;
  const PdatResult b2 = run_pdat(nl, restrict_fn, ropt);
  EXPECT_GE(b2.induction.resumed_from_round, rt::kBaseRound);
  EXPECT_EQ(a.proven, b2.proven);
  EXPECT_EQ(a.induction.sat_calls, b2.induction.sat_calls);
  std::remove(path.c_str());
}

// --- the determinism regression the whole design hangs on ---------------------
//
// On the CM0 example (paper §VII-B): one worker, eight workers, and a
// mid-run crash-and-resume must all produce the identical proved set and
// the identical final netlist.

TEST(Cm0Determinism, ThreadsAndMidRunResumeAreBitExact) {
  cores::Cm0Core core = cores::build_cm0();
  opt::optimize(core.netlist);
  const isa::ThumbSubset subset = isa::thumb_subset_interesting();

  const auto restrict_fn = [&](Netlist& a) {
    return restrict_thumb_port(a, "imem_rdata", subset);
  };

  const std::string journal = tmp_path("cm0_proof.jrn");
  const std::string crashed = tmp_path("cm0_crashed.jrn");

  PdatOptions o1;
  o1.induction.threads = 1;
  o1.induction.journal_path = journal;
  const PdatResult r1 = run_pdat(core.netlist, restrict_fn, o1);
  EXPECT_GT(r1.proven, 0u);

  PdatOptions o8;
  o8.induction.threads = 8;
  const PdatResult r8 = run_pdat(core.netlist, restrict_fn, o8);

  EXPECT_EQ(r1.proven, r8.proven);
  EXPECT_EQ(r1.induction.sat_calls, r8.induction.sat_calls);
  EXPECT_EQ(r1.gates_after, r8.gates_after);
  EXPECT_EQ(to_verilog(r1.transformed, "m"), to_verilog(r8.transformed, "m"));

  // Crash mid-run: keep only the header and base-case checkpoint, resume on
  // eight workers, and demand the identical final netlist.
  const auto recs = rt::read_journal(journal);
  ASSERT_TRUE(recs.has_value());
  ASSERT_GE(recs->size(), 2u);
  {
    auto w = rt::JournalWriter::create(crashed);
    w.append((*recs)[0].type, (*recs)[0].payload);
    w.append((*recs)[1].type, (*recs)[1].payload);
  }
  PdatOptions ores;
  ores.induction.threads = 8;
  ores.induction.journal_path = crashed;
  ores.induction.resume_from = crashed;
  const PdatResult rres = run_pdat(core.netlist, restrict_fn, ores);

  EXPECT_EQ(rres.induction.resumed_from_round, rt::kBaseRound);
  EXPECT_EQ(r1.proven, rres.proven);
  EXPECT_EQ(r1.induction.sat_calls, rres.induction.sat_calls);
  EXPECT_EQ(to_verilog(r1.transformed, "m"), to_verilog(rres.transformed, "m"));
  std::remove(journal.c_str());
  std::remove(crashed.c_str());
}

TEST(StageErrorFormatting, CarriesStageNameAndElapsedTime) {
  const StageError plain(PdatStage::Induction, "boom");
  EXPECT_EQ(std::string(plain.what()), "PDAT[induction]: boom");
  EXPECT_LT(plain.elapsed_seconds(), 0);

  const StageError timed(PdatStage::Resynthesis, "boom", 12.5);
  EXPECT_EQ(std::string(timed.what()), "PDAT[resynthesis @12.50s]: boom");
  EXPECT_DOUBLE_EQ(timed.elapsed_seconds(), 12.5);
}

}  // namespace
}  // namespace pdat
