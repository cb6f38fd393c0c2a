// Differential fuzzing subsystem (src/fuzz/): generator subset closure,
// shrinker minimality, oracle agreement on healthy cores, the failpoint-armed
// mutation self-check, and the determinism contract (fixed seed => identical
// stats and byte-identical artifacts at any thread count).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>

#include "base/rng.h"
#include "cores/cm0/cm0_core.h"
#include "cores/ibex/ibex_core.h"
#include "fuzz/oracle.h"
#include "fuzz/shrink.h"
#include "isa/rv32_subsets.h"
#include "isa/thumb_subsets.h"
#include "opt/optimizer.h"
#include "trace/trace.h"
#include "util/failpoint.h"

using namespace pdat;
using namespace pdat::fuzz;

namespace {

const Netlist& ibex_netlist() {
  static const cores::IbexCore core = [] {
    cores::IbexCore c = cores::build_ibex();
    opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

const Netlist& cm0_netlist() {
  static const cores::Cm0Core core = [] {
    cores::Cm0Core c = cores::build_cm0();
    opt::optimize(c.netlist);
    return c;
  }();
  return core.netlist;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("pdat_fuzz_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Relative path -> file contents for every regular file under `root`.
std::map<std::string, std::string> dir_contents(const std::filesystem::path& root) {
  std::map<std::string, std::string> out;
  if (!std::filesystem::exists(root)) return out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    std::ifstream is(e.path(), std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    out[std::filesystem::relative(e.path(), root).string()] = ss.str();
  }
  return out;
}

}  // namespace

// --- generators --------------------------------------------------------------

TEST(FuzzGenerator, Rv32SubsetClosureAndDeterminism) {
  const isa::RvSubset subset = isa::rv32_subset_named("rv32imc");
  const Rv32Generator gen(subset);
  const auto& table = isa::rv32_instructions();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const AbsProgram p = gen.generate(seed);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p, gen.generate(seed)) << "generate must be a pure function of the seed";
    // Walk the encoded byte stream and check every fetch unit decodes to a
    // subset member (the subset contract, including prologue + terminator).
    const std::vector<std::uint32_t> words = gen.encode_units(p);
    std::vector<std::uint8_t> bytes;
    for (const std::uint32_t w : words)
      for (int k = 0; k < 4; ++k) bytes.push_back(static_cast<std::uint8_t>(w >> (8 * k)));
    std::size_t at = 0;
    while (at + 1 < bytes.size()) {
      const std::uint32_t lo = bytes[at] | (static_cast<std::uint32_t>(bytes[at + 1]) << 8);
      std::uint32_t word = lo;
      std::size_t len = 2;
      if ((lo & 3) == 3) {
        ASSERT_LE(at + 4, bytes.size());
        word |= (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
                (static_cast<std::uint32_t>(bytes[at + 3]) << 24);
        len = 4;
      }
      if (word == 0) break;  // alignment padding after the terminator
      const isa::RvInstrSpec* spec = isa::rv32_decode_spec(word);
      ASSERT_NE(spec, nullptr) << "illegal encoding 0x" << std::hex << word << " at +" << at;
      EXPECT_TRUE(subset.contains(static_cast<int>(spec - table.data())))
          << spec->name << " not in " << subset.name;
      at += len;
    }
  }
}

TEST(FuzzGenerator, ThumbSubsetClosureAndDeterminism) {
  const isa::ThumbSubset subset = isa::thumb_subset_interesting();
  const ThumbGenerator gen(subset);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const AbsProgram p = gen.generate(seed);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p, gen.generate(seed));
    const std::vector<std::uint32_t> halves = gen.encode_units(p);
    for (std::size_t i = 0; i < halves.size(); ++i) {
      const auto h = static_cast<std::uint16_t>(halves[i]);
      ASSERT_FALSE(isa::thumb_is_wide_prefix(h))
          << "wide encodings are excluded from generated streams";
      const isa::ThumbInstrSpec* spec = isa::thumb_decode(h);
      ASSERT_NE(spec, nullptr) << "UNDEFINED halfword 0x" << std::hex << h << " at " << i;
      EXPECT_TRUE(subset.contains(spec->name)) << spec->name << " not in " << subset.name;
    }
  }
}

TEST(FuzzGenerator, Rv32RejectsSubsetWithoutTerminator) {
  // risc16 has c.jalr but no ebreak/ecall/c.ebreak: no way to halt.
  const isa::RvSubset none = isa::rv32_subset_from_names("no-halt", {"addi", "add"});
  EXPECT_THROW(Rv32Generator{none}, PdatError);
}

TEST(FuzzGenerator, MutateIsDeterministicAndStaysInSubset) {
  const isa::RvSubset subset = isa::rv32_subset_named("rv32i");
  const Rv32Generator gen(subset);
  AbsProgram p = gen.generate(7);
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const AbsProgram m = gen.mutate(p, seed);
    EXPECT_EQ(m, gen.mutate(p, seed));
    ASSERT_FALSE(m.empty());
    p = m;  // chain mutations
  }
  for (const AbsOp& op : p) {
    if (op.spec >= 0) {
      EXPECT_TRUE(subset.contains(op.spec));
    }
  }
}

// --- serialization -----------------------------------------------------------

TEST(FuzzCorpus, SerializeParseRoundTrip) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32imc"));
  const AbsProgram p = gen.generate(99);
  const std::string text = serialize_program(p, "rv32");
  EXPECT_EQ(parse_program(text, "rv32"), p);
  EXPECT_THROW(parse_program(text, "thumb"), PdatError);
  EXPECT_THROW(parse_program("op 1 2", "rv32"), PdatError);
  EXPECT_THROW(parse_program("isa thumb\nop 9999 0 1 0\n", "thumb"), PdatError)
      << "a spec past the instruction table is malformed";
  EXPECT_THROW(parse_program("isa rv32\nop -1 0 1 0\n", "rv32"), PdatError)
      << "a negative spec would index the instruction table at -1";
  EXPECT_THROW(parse_program("isa rv32\nop 0 5 1 0\n", "rv32"), PdatError)
      << "op classes end at Branch (4)";
}

// --- shrinker ----------------------------------------------------------------

TEST(FuzzShrink, DeltaDebugsToMinimalCore) {
  // 40 ops; the "failure" needs the two marked ops (opseed 42 twice).
  AbsProgram p;
  for (int i = 0; i < 40; ++i) p.push_back({i % 5, OpClass::Plain, 7, 1});
  p[11].opseed = 42;
  p[29].opseed = 42;
  auto fails = [](const AbsProgram& cand) {
    int marked = 0;
    for (const AbsOp& op : cand) marked += op.opseed == 42 ? 1 : 0;
    return marked >= 2;
  };
  const ShrinkResult r = shrink_program(p, fails, 400);
  EXPECT_EQ(r.program.size(), 2u);
  EXPECT_TRUE(fails(r.program));
  EXPECT_LE(r.oracle_runs, 400u);
}

TEST(FuzzShrink, CanonicalizesOperandsWhenFailurePersists) {
  AbsProgram p;
  p.push_back({0, OpClass::Plain, 123, 5});
  p.push_back({1, OpClass::Plain, 456, 3});
  auto fails = [](const AbsProgram& cand) { return cand.size() >= 2; };
  const ShrinkResult r = shrink_program(p, fails, 100);
  ASSERT_EQ(r.program.size(), 2u);
  for (const AbsOp& op : r.program) {
    EXPECT_EQ(op.opseed, 0u);
    EXPECT_EQ(op.skip, 1);
  }
}

TEST(FuzzShrink, RespectsBudget) {
  AbsProgram p;
  for (int i = 0; i < 64; ++i) p.push_back({0, OpClass::Plain, 1, 1});
  std::size_t calls = 0;
  auto fails = [&](const AbsProgram&) {
    ++calls;
    return false;  // nothing shrinkable: ddmin probes until the budget dies
  };
  const ShrinkResult r = shrink_program(p, fails, 10);
  EXPECT_EQ(r.oracle_runs, 10u);
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(r.program.size(), 64u);
}

// --- oracles -----------------------------------------------------------------

TEST(FuzzOracle, HealthyIbexAgreesWithIss) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32imc"));
  Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const AbsProgram p = gen.generate(seed);
    const RunOutcome out = oracle.run(p, nullptr);
    EXPECT_EQ(out.status, RunOutcome::Status::Agree) << "seed " << seed << ": " << out.detail;
  }
}

TEST(FuzzOracle, HealthyCm0AgreesWithIss) {
  const ThumbGenerator gen(isa::thumb_subset_interesting());
  ThumbDiffOracle oracle(gen, cm0_netlist(), nullptr);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const AbsProgram p = gen.generate(seed);
    const RunOutcome out = oracle.run(p, nullptr);
    EXPECT_EQ(out.status, RunOutcome::Status::Agree) << "seed " << seed << ": " << out.detail;
  }
}

TEST(FuzzOracle, CoverageAccumulates) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32i"));
  Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
  CoverageMap cov;
  cov.init(oracle.coverage_nets());
  EXPECT_EQ(cov.covered(), 0u);
  oracle.run(gen.generate(1), &cov);
  const std::size_t after_one = cov.covered();
  EXPECT_GT(after_one, 0u);
  EXPECT_LE(after_one, 2 * cov.nets());
}

// The batched scatter transposes 64-net blocks; a per-bit reference reads
// the same lane masks one (net, lane) at a time. 150 nets make two full
// blocks and a partial one, and 37 lanes leave part of each block unused.
TEST(FuzzCoverage, BatchedScatterEqualsPerBitReference) {
  constexpr std::size_t kNets = 150, kLanes = 37;
  Netlist nl;
  nl.add_output("y", nl.add_input("a", kNets));
  BitSim sim(nl);
  LaneCoverage lane_cov;
  lane_cov.clear(kNets);
  std::vector<std::uint64_t> ref0(kNets, 0), ref1(kNets, 0);
  Rng rng(5);
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Sparse words so that some (net, lane) pairs stay uncovered.
    for (NetId n = 0; n < kNets; ++n) sim.set_input(n, rng.next() & rng.next() & rng.next());
    const std::uint64_t lanes = rng.next() & ((1ULL << kLanes) - 1);
    lane_cov.record(sim, lanes);
    for (NetId n = 0; n < kNets; ++n) {
      ref0[n] |= ~sim.value(n) & lanes;
      ref1[n] |= sim.value(n) & lanes;
    }
  }
  // Lane k's map is maps[kLanes - 1 - k], as a pack maps lanes to jobs.
  std::vector<CoverageMap> maps(kLanes);
  std::vector<CoverageMap*> by_lane;
  for (std::size_t k = 0; k < kLanes; ++k) {
    maps[k].init(kNets);
    by_lane.push_back(&maps[kLanes - 1 - k]);
  }
  lane_cov.scatter(by_lane);
  std::size_t covered = 0;
  for (std::size_t k = 0; k < kLanes; ++k) {
    std::size_t lane_pairs = 0;
    for (NetId n = 0; n < kNets; ++n) {
      EXPECT_EQ(by_lane[k]->seen(n, false), ((ref0[n] >> k) & 1) != 0) << k << "/" << n;
      EXPECT_EQ(by_lane[k]->seen(n, true), ((ref1[n] >> k) & 1) != 0) << k << "/" << n;
      lane_pairs += ((ref0[n] >> k) & 1) + ((ref1[n] >> k) & 1);
    }
    // No bit past the last net.
    EXPECT_EQ(by_lane[k]->covered(), lane_pairs) << "lane " << k;
    covered += lane_pairs;
  }
  EXPECT_GT(covered, 0u);
  EXPECT_LT(covered, 2 * kNets * kLanes);
}

namespace {

/// Runs `programs` one at a time, then as one pack of 32 and one of 64, and
/// requires every outcome and coverage map of the packs to equal the
/// single run's. Returns {diverging, agreeing} counts of the single runs.
std::pair<std::size_t, std::size_t> expect_packs_equal_single_runs(
    Oracle& oracle, const std::vector<AbsProgram>& programs) {
  const std::size_t nets = oracle.coverage_nets();
  std::vector<RunOutcome> single;
  std::vector<CoverageMap> single_cov(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    single_cov[i].init(nets);
    single.push_back(oracle.run(programs[i], &single_cov[i]));
  }
  for (const std::size_t pack : {std::size_t{32}, std::size_t{64}}) {
    std::vector<CoverageMap> covs(pack);
    for (CoverageMap& c : covs) c.init(nets);
    const std::vector<RunOutcome> outs =
        oracle.run(std::span(programs).first(pack), std::span(covs));
    EXPECT_EQ(outs.size(), pack);
    for (std::size_t i = 0; i < pack; ++i) {
      EXPECT_EQ(outs[i].status, single[i].status) << "pack " << pack << " lane " << i;
      EXPECT_EQ(outs[i].detail, single[i].detail) << "pack " << pack << " lane " << i;
      EXPECT_EQ(outs[i].cycles, single[i].cycles) << "pack " << pack << " lane " << i;
      EXPECT_TRUE(covs[i] == single_cov[i]) << "pack " << pack << " lane " << i;
    }
  }
  std::size_t diverging = 0, agreeing = 0;
  for (const RunOutcome& o : single) {
    diverging += o.status == RunOutcome::Status::Diverge ? 1 : 0;
    agreeing += o.status == RunOutcome::Status::Agree ? 1 : 0;
  }
  return {diverging, agreeing};
}

std::vector<AbsProgram> generate_programs(const Generator& gen, std::size_t n) {
  std::vector<AbsProgram> programs;
  for (std::uint64_t seed = 1; seed <= n; ++seed) programs.push_back(gen.generate(seed));
  return programs;
}

}  // namespace

// Lane packing must be invisible: with the decoder fault armed, diverging
// lanes sit next to agreeing ones, and each lane still reports exactly what
// a run of its program alone reports. Passing the baseline netlist as the
// "reduced" core exercises the second pack, which takes only the lanes that
// agreed on the first, and records coverage from it.
TEST(FuzzOracle, Rv32PacksEqualSingleRuns) {
  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");
  const Rv32Generator gen(isa::rv32_subset_named("rv32imc"), 12);
  const std::vector<AbsProgram> programs = generate_programs(gen, 64);
  for (const Netlist* reduced : {static_cast<const Netlist*>(nullptr), &ibex_netlist()}) {
    Rv32DiffOracle oracle(gen, ibex_netlist(), reduced);
    const auto [diverging, agreeing] = expect_packs_equal_single_runs(oracle, programs);
    EXPECT_GT(diverging, 0u);
    EXPECT_GT(agreeing, 0u);
  }
}

TEST(FuzzOracle, ThumbPacksEqualSingleRuns) {
  util::ScopedFailpoint fp("cm0_tb.fetch_fault", "enospc");
  const ThumbGenerator gen(isa::thumb_subset_interesting(), 12);
  const std::vector<AbsProgram> programs = generate_programs(gen, 64);
  for (const Netlist* reduced : {static_cast<const Netlist*>(nullptr), &cm0_netlist()}) {
    ThumbDiffOracle oracle(gen, cm0_netlist(), reduced);
    const auto [diverging, agreeing] = expect_packs_equal_single_runs(oracle, programs);
    EXPECT_GT(diverging, 0u);
    EXPECT_GT(agreeing, 0u);
  }
}

TEST(FuzzOracle, CycleCountersSeparateLaneAndPackedCycles) {
  const Rv32Generator gen(isa::rv32_subset_named("rv32i"));
  Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
  const std::vector<AbsProgram> programs = generate_programs(gen, 32);
  trace::begin_run(/*events=*/false);
  const std::vector<RunOutcome> outs = oracle.run(programs, {});
  trace::end_run();
  std::uint64_t sum = 0, longest = 0;
  for (const RunOutcome& o : outs) {
    sum += o.cycles;
    longest = std::max(longest, o.cycles);
  }
  EXPECT_EQ(trace::counter_value(trace::Counter::FuzzTbCycles), sum);
  EXPECT_EQ(trace::counter_value(trace::Counter::FuzzPackedCycles), longest);
  EXPECT_LT(longest * 4, sum) << "a 32-lane pack runs far fewer cycles than its lanes";
}

// --- the loop: mutation self-check + determinism -----------------------------

namespace {

FuzzStats fuzz_ibex_baseline(std::uint64_t seed, std::size_t iterations, int threads,
                             const std::string& out_dir) {
  FuzzOptions fopt;
  fopt.seed = seed;
  fopt.iterations = iterations;
  fopt.threads = threads;
  fopt.out_dir = out_dir;
  fopt.max_divergences = 2;
  return fuzz_rv32(isa::rv32_subset_named("rv32i"), ibex_netlist(), nullptr, fopt);
}

}  // namespace

TEST(FuzzLoop, MutationSelfCheckFindsAndShrinksInjectedDecoderFault) {
  // Arm the decoder-fault chaos hook: fetched R-type words get a corrupted
  // rs2 index in the testbench but not in the ISS. The fuzzer must notice
  // within a bounded budget and shrink the divergence to <= 8 instructions.
  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");
  const FuzzStats stats = fuzz_ibex_baseline(1, 48, 1, "");
  ASSERT_GE(stats.divergences, 1u) << "armed decoder fault not detected in 48 programs";
  ASSERT_FALSE(stats.findings.empty());
  for (const FuzzFinding& f : stats.findings) {
    EXPECT_LE(f.shrunk.size(), 8u) << "shrunk reproducer too large: " << f.detail;
    EXPECT_FALSE(f.detail.empty());
  }
  // Deterministic: the same seed finds and shrinks to the same reproducer.
  const FuzzStats again = fuzz_ibex_baseline(1, 48, 1, "");
  ASSERT_EQ(again.findings.size(), stats.findings.size());
  for (std::size_t i = 0; i < stats.findings.size(); ++i) {
    EXPECT_EQ(again.findings[i].shrunk, stats.findings[i].shrunk);
    EXPECT_EQ(again.findings[i].detail, stats.findings[i].detail);
  }
}

TEST(FuzzLoop, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");  // exercise repro paths too
  const auto dir1 = fresh_dir("t1");
  const auto dir4 = fresh_dir("t4");
  const FuzzStats s1 = fuzz_ibex_baseline(3, 48, 1, dir1.string());
  const FuzzStats s4 = fuzz_ibex_baseline(3, 48, 4, dir4.string());

  EXPECT_EQ(s1.programs, s4.programs);
  EXPECT_EQ(s1.divergences, s4.divergences);
  EXPECT_EQ(s1.inconclusive, s4.inconclusive);
  EXPECT_EQ(s1.corpus_retained, s4.corpus_retained);
  EXPECT_EQ(s1.covered_pairs, s4.covered_pairs);
  EXPECT_EQ(s1.shrink_runs, s4.shrink_runs);
  ASSERT_EQ(s1.findings.size(), s4.findings.size());
  for (std::size_t i = 0; i < s1.findings.size(); ++i) {
    EXPECT_EQ(s1.findings[i].shrunk, s4.findings[i].shrunk);
  }

  const auto c1 = dir_contents(dir1);
  const auto c4 = dir_contents(dir4);
  ASSERT_FALSE(c1.empty());
  EXPECT_EQ(c1, c4) << "corpus/coverage/reproducers must not depend on the thread count";
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir4);
}

TEST(FuzzLoop, CampaignResultsMatchPinnedValues) {
  // Captured before the oracle ran programs lane-packed. Comparing thread
  // counts cannot catch a change that alters every run the same way; these
  // values can.
  for (const int threads : {1, 4}) {
    const FuzzStats s = fuzz_ibex_baseline(1, 96, threads, "");
    EXPECT_EQ(s.programs, 96u) << threads << " threads";
    EXPECT_EQ(s.instructions, 2104u) << threads << " threads";
    EXPECT_EQ(s.corpus_retained, 43u) << threads << " threads";
    EXPECT_EQ(s.covered_pairs, 16439u) << threads << " threads";
    EXPECT_EQ(2 * s.coverage_nets, 22916u) << threads << " threads";
    EXPECT_EQ(s.divergences, 0u) << threads << " threads";
    EXPECT_EQ(s.inconclusive, 0u) << threads << " threads";
  }
}

TEST(FuzzLoop, ZeroIterationsRunsNoOraclesAndWritesNothing) {
  const auto dir = fresh_dir("zero");
  FuzzOptions fopt;
  fopt.iterations = 0;
  fopt.out_dir = dir.string();
  Target target;  // no generator, no oracle factory: must not be touched
  const FuzzStats stats = run_fuzz(target, fopt);
  EXPECT_EQ(stats.programs, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(FuzzLoop, RetainedCorpusCoversNewTogglesOnly) {
  const auto dir = fresh_dir("corpus");
  const FuzzStats stats = fuzz_ibex_baseline(5, 32, 2, dir.string());
  EXPECT_GT(stats.corpus_retained, 0u);
  EXPECT_LT(stats.corpus_retained, stats.programs) << "coverage gate retained everything";
  // The corpus on disk matches the stats, and the coverage report's summary
  // lines agree with the returned numbers.
  std::size_t hex_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir / "corpus")) {
    hex_files += e.path().extension() == ".hex" ? 1 : 0;
  }
  EXPECT_EQ(hex_files, stats.corpus_retained);
  std::ifstream cov(dir / "coverage.txt");
  std::stringstream ss;
  ss << cov.rdbuf();
  EXPECT_NE(ss.str().find("covered_pairs " + std::to_string(stats.covered_pairs)),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FuzzLoop, ShrunkReproducerReplaysAsDivergent) {
  util::ScopedFailpoint fp("ibex_tb.fetch_fault", "enospc");
  const auto dir = fresh_dir("replay");
  const FuzzStats stats = fuzz_ibex_baseline(1, 48, 1, dir.string());
  ASSERT_FALSE(stats.findings.empty());

  std::ifstream in(dir / "repro_00.prog");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const AbsProgram replayed = parse_program(ss.str(), "rv32");
  EXPECT_EQ(replayed, stats.findings[0].shrunk);

  const Rv32Generator gen(isa::rv32_subset_named("rv32i"));
  Rv32DiffOracle oracle(gen, ibex_netlist(), nullptr);
  EXPECT_EQ(oracle.run(replayed, nullptr).status, RunOutcome::Status::Diverge);
  // ... and with the failpoint disarmed the same program agrees again.
  util::failpoint_clear("ibex_tb.fetch_fault");
  EXPECT_EQ(oracle.run(replayed, nullptr).status, RunOutcome::Status::Agree);
  util::failpoint_set("ibex_tb.fetch_fault", "enospc");  // ScopedFailpoint dtor clears
  std::filesystem::remove_all(dir);
}

TEST(FuzzLoop, Cm0MutationSelfCheck) {
  util::ScopedFailpoint fp("cm0_tb.fetch_fault", "enospc");
  FuzzOptions fopt;
  fopt.seed = 1;
  fopt.iterations = 48;
  fopt.max_divergences = 1;
  const FuzzStats stats =
      fuzz_thumb(isa::thumb_subset_interesting(), cm0_netlist(), nullptr, fopt);
  ASSERT_GE(stats.divergences, 1u) << "armed CM0 decoder fault not detected";
  ASSERT_FALSE(stats.findings.empty());
  EXPECT_LE(stats.findings[0].shrunk.size(), 8u);
}
