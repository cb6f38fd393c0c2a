// Tests for the observability layer (src/trace/): registry/docs coherence,
// trace and metrics JSON validity, span nesting, disabled-mode
// zero-allocation, and the determinism contract across worker-thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "json.h"
#include "opt/optimizer.h"
#include "pdat/errors.h"
#include "pdat/pipeline.h"
#include "synth/builder.h"
#include "test_util.h"
#include "trace/metrics.h"
#include "trace/registry.h"
#include "trace/trace.h"

// --- counting operator new ---------------------------------------------------
// Replaces the global allocator for this test binary so the disabled-mode
// zero-allocation guarantee can be asserted directly.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms are replaced too: libstdc++'s temporary buffers (e.g.
// in std::stable_sort) allocate with nothrow new and release with plain
// delete, which would otherwise pair the runtime's allocator with free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdat {
namespace {

namespace tr = ::pdat::trace;

/// The pipeline reads PDAT_TRACE / PDAT_METRICS when the options leave the
/// paths empty; scrub them so ambient shell state cannot affect a test.
void scrub_env() {
  ::unsetenv("PDAT_TRACE");
  ::unsetenv("PDAT_METRICS");
}

// --- registry ----------------------------------------------------------------

TEST(TraceRegistry, EveryEnumeratorNamedAndUnique) {
  std::set<std::string> names;
  for (const auto& def : tr::telemetry_registry()) {
    ASSERT_NE(def.name, nullptr);
    const std::string name = def.name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate registered name " << name;
    // Dotted lowercase identifier, at least two components.
    EXPECT_NE(name.find('.'), std::string::npos) << name;
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
                  c == '.' || c == '-')
          << name;
    }
    ASSERT_NE(def.unit, nullptr) << name;
    ASSERT_NE(def.description, nullptr) << name;
    EXPECT_GT(std::string(def.description).size(), 10u) << name;
  }
  EXPECT_EQ(names.size(), tr::telemetry_registry().size());
  // Enum -> name round trips.
  EXPECT_STREQ(tr::counter_name(tr::Counter::SatConflicts), "sat.conflicts");
  EXPECT_STREQ(tr::histogram_name(tr::Histogram::RuntimeQueueDepth),
               "runtime.queue_depth");
}

// The stability guarantee in docs/telemetry.md: every registered span,
// counter, and histogram name must be documented there. PDAT_SOURCE_DIR is
// injected by tests/CMakeLists.txt.
TEST(TraceRegistry, EveryNameDocumentedInTelemetryMd) {
  const std::string path = std::string(PDAT_SOURCE_DIR) + "/docs/telemetry.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  for (const auto& def : tr::telemetry_registry()) {
    // Names appear backticked in the reference tables.
    const std::string needle = "`" + std::string(def.name) + "`";
    EXPECT_NE(doc.find(needle), std::string::npos)
        << def.name << " is registered but not documented in docs/telemetry.md";
  }
}

// --- counters / histograms ---------------------------------------------------

TEST(TraceCounters, AccumulateAndResetAcrossRuns) {
  tr::begin_run(/*events=*/false);
  EXPECT_TRUE(tr::collecting());
  EXPECT_FALSE(tr::tracing());
  tr::add(tr::Counter::SatConflicts, 3);
  tr::add(tr::Counter::SatConflicts, 4);
  EXPECT_EQ(tr::counter_value(tr::Counter::SatConflicts), 7u);

  tr::observe(tr::Histogram::SatLearnedClauseSize, 0);
  tr::observe(tr::Histogram::SatLearnedClauseSize, 1);
  tr::observe(tr::Histogram::SatLearnedClauseSize, 5);
  const tr::HistogramSnapshot h = tr::histogram_snapshot(tr::Histogram::SatLearnedClauseSize);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 6u);
  EXPECT_EQ(h.max, 5u);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);

  tr::end_run();
  EXPECT_FALSE(tr::collecting());
  // Disabled: adds are dropped, recorded data stays readable.
  tr::add(tr::Counter::SatConflicts, 100);
  EXPECT_EQ(tr::counter_value(tr::Counter::SatConflicts), 7u);
  // A fresh run resets everything.
  tr::begin_run(false);
  EXPECT_EQ(tr::counter_value(tr::Counter::SatConflicts), 0u);
  EXPECT_EQ(tr::histogram_snapshot(tr::Histogram::SatLearnedClauseSize).count, 0u);
  tr::end_run();
}

TEST(TraceHistograms, PowerOfTwoBucketing) {
  EXPECT_EQ(tr::histogram_bucket(0), 0u);
  EXPECT_EQ(tr::histogram_bucket(1), 1u);
  EXPECT_EQ(tr::histogram_bucket(2), 2u);
  EXPECT_EQ(tr::histogram_bucket(3), 2u);
  EXPECT_EQ(tr::histogram_bucket(4), 3u);
  EXPECT_EQ(tr::histogram_bucket(7), 3u);
  EXPECT_EQ(tr::histogram_bucket(8), 4u);
  // Everything at or beyond 2^(kHistogramBuckets-2) lands in the last bucket.
  EXPECT_EQ(tr::histogram_bucket(1u << 14), tr::kHistogramBuckets - 1);
  EXPECT_EQ(tr::histogram_bucket(~0ull), tr::kHistogramBuckets - 1);
}

// --- disabled mode -----------------------------------------------------------

TEST(TraceDisabled, NoAllocationOnDisabledPath) {
  tr::end_run();  // ensure fully disabled
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    tr::Span outer("pdat.run", {"gates_before", i});
    tr::Span inner("runtime.job", {"job", i}, {"attempt", 1});
    inner.arg("extra", 7);
    tr::add(tr::Counter::SatConflicts, 1);
    tr::observe(tr::Histogram::SatConflictsPerCall, 42);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "disabled-mode instrumentation must not allocate";
}

TEST(TraceDisabled, CollectingWithoutEventsRecordsNoSpans) {
  tr::begin_run(/*events=*/false);
  { tr::Span s("pdat.run"); }
  tr::add(tr::Counter::SatConflicts, 1);
  EXPECT_TRUE(tr::events().empty());
  EXPECT_EQ(tr::counter_value(tr::Counter::SatConflicts), 1u);
  tr::end_run();
}

// --- spans and the Chrome trace ----------------------------------------------

TEST(TraceSpans, NestingAndArgsRecorded) {
  tr::begin_run(/*events=*/true);
  EXPECT_TRUE(tr::tracing());
  {
    tr::Span parent("pdat.stage.induction");
    {
      tr::Span child("induction.round", {"round", 3});
      child.arg("killed", 12);
    }
  }
  tr::end_run();

  const std::vector<tr::Event> evs = tr::events();
  ASSERT_EQ(evs.size(), 2u);
  // Spans are appended at destruction: child first.
  const tr::Event& child = evs[0];
  const tr::Event& parent = evs[1];
  EXPECT_STREQ(child.name, "induction.round");
  EXPECT_STREQ(parent.name, "pdat.stage.induction");
  ASSERT_EQ(child.num_args, 2u);
  EXPECT_STREQ(child.args[0].key, "round");
  EXPECT_EQ(child.args[0].value, 3);
  EXPECT_STREQ(child.args[1].key, "killed");
  EXPECT_EQ(child.args[1].value, 12);
  // Time containment on the same thread.
  EXPECT_EQ(child.tid, parent.tid);
  EXPECT_GE(child.ts_us, parent.ts_us);
  EXPECT_LE(child.ts_us + child.dur_us, parent.ts_us + parent.dur_us);
}

TEST(TraceSpans, ChromeTraceJsonParsesWithDocumentedShape) {
  tr::begin_run(/*events=*/true);
  {
    tr::Span run("pdat.run", {"gates_before", 120});
    tr::Span stage("pdat.stage.restrict");
  }
  tr::end_run();
  std::ostringstream os;
  tr::write_chrome_trace(os);

  const tr::json::Value doc = tr::json::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const auto& events = doc.at("traceEvents").items();
  ASSERT_EQ(events.size(), 2u);
  std::set<std::string> names;
  for (const auto& e : events) {
    EXPECT_EQ(e.at("cat").string, "pdat");
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_EQ(e.at("pid").number, 1);
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    names.insert(e.at("name").string);
    if (e.has("args")) {
      for (const auto& [k, v] : e.at("args").members()) {
        EXPECT_TRUE(v.is_number()) << k;
      }
    }
  }
  EXPECT_TRUE(names.count("pdat.run"));
  EXPECT_TRUE(names.count("pdat.stage.restrict"));
  // The run span kept its arg.
  for (const auto& e : events) {
    if (e.at("name").string != "pdat.run") continue;
    EXPECT_EQ(e.at("args").at("gates_before").number, 120);
  }
}

TEST(TraceSpans, NormalizedEventsEraseThreadsArg) {
  tr::begin_run(/*events=*/true);
  { tr::Span s("runtime.run", {"jobs", 4}, {"threads", 8}); }
  tr::end_run();
  const auto norm = tr::normalized_events();
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_EQ(norm[0], "runtime.run jobs=4");
}

// --- metrics.json ------------------------------------------------------------

tr::MetricsInfo small_metrics_info() {
  tr::MetricsInfo info;
  info.label = "test_trace";
  info.candidates = 10;
  info.after_sim_filter = 8;
  info.proven = 5;
  info.gates_before = 100;
  info.gates_after = 90;
  info.total_wall_seconds = 0.25;
  for (std::size_t s = 0; s < kNumPdatStages; ++s) {
    info.stages.push_back({stage_name(static_cast<PdatStage>(s)), 0.01});
  }
  return info;
}

TEST(TraceMetrics, MetricsJsonValidAndOnlyRegisteredNames) {
  tr::begin_run(/*events=*/false);
  tr::add(tr::Counter::SatConflicts, 17);
  tr::add(tr::Counter::RuntimeWorkerBusyMicros, 1234);  // timing-class
  tr::observe(tr::Histogram::SatLearnedClauseSize, 4);
  tr::observe(tr::Histogram::RuntimeQueueDepth, 2);  // timing-class
  tr::RoundRecord rec;
  rec.round = -1;
  rec.alive_before = 10;
  rec.cex_kills = 2;
  rec.sat_calls = 1;
  tr::record_round(rec);
  tr::end_run();

  std::ostringstream os;
  tr::write_metrics_json(os, small_metrics_info());
  const tr::json::Value doc = tr::json::parse(os.str());

  EXPECT_EQ(doc.at("schema").string, tr::kMetricsSchemaName);
  EXPECT_EQ(doc.at("version").number, tr::kMetricsSchemaVersion);
  EXPECT_EQ(doc.at("label").string, "test_trace");

  // Registered names, split by the deterministic flag.
  std::set<std::string> det_counters, tim_counters, det_hists, tim_hists;
  for (std::size_t i = 0; i < tr::kNumCounters; ++i) {
    const auto c = static_cast<tr::Counter>(i);
    (tr::counter_deterministic(c) ? det_counters : tim_counters).insert(tr::counter_name(c));
  }
  for (std::size_t i = 0; i < tr::kNumHistograms; ++i) {
    const auto h = static_cast<tr::Histogram>(i);
    (tr::histogram_deterministic(h) ? det_hists : tim_hists).insert(tr::histogram_name(h));
  }

  const auto key_set = [](const tr::json::Value& v) {
    std::set<std::string> keys;
    for (const auto& [k, _] : v.members()) keys.insert(k);
    return keys;
  };
  const auto& det = doc.at("deterministic");
  const auto& tim = doc.at("timing");
  EXPECT_EQ(key_set(det.at("counters")), det_counters);
  EXPECT_EQ(key_set(tim.at("counters")), tim_counters);
  EXPECT_EQ(key_set(det.at("histograms")), det_hists);
  EXPECT_EQ(key_set(tim.at("histograms")), tim_hists);

  EXPECT_EQ(det.at("counters").at("sat.conflicts").number, 17);
  EXPECT_EQ(tim.at("counters").at("runtime.worker_busy_micros").number, 1234);

  // Pipeline funnel + round table.
  const auto& pipe = det.at("pipeline");
  EXPECT_EQ(pipe.at("candidates").number, 10);
  EXPECT_EQ(pipe.at("proven").number, 5);
  EXPECT_EQ(pipe.at("resumed_from_round").number, -2);
  const auto& rounds = det.at("induction_rounds").items();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].at("round").number, -1);
  EXPECT_EQ(rounds[0].at("alive_before").number, 10);

  // Timing section shape: 8 stages in pipeline order, 16-bucket histograms.
  const auto& stages = tim.at("stages").items();
  ASSERT_EQ(stages.size(), kNumPdatStages);
  for (std::size_t s = 0; s < kNumPdatStages; ++s) {
    EXPECT_EQ(stages[s].at("name").string, stage_name(static_cast<PdatStage>(s)));
  }
  const auto& hist = det.at("histograms").at("sat.learned_clause_size");
  EXPECT_EQ(hist.at("count").number, 1);
  EXPECT_EQ(hist.at("sum").number, 4);
  EXPECT_EQ(hist.at("buckets").items().size(), 16u);
}

// --- pipeline integration + determinism across thread counts -----------------

PdatResult run_traced_pipeline(int threads) {
  Netlist nl = test::random_netlist(23, 6, 90, 8, 4);
  opt::optimize(nl);
  PdatOptions opt;
  opt.induction.threads = threads;
  const NetId tied = nl.find_input("in")->bits[0];
  return run_pdat(nl, [&](Netlist& a) {
    RestrictionResult r;
    synth::Builder ab(a);
    r.env.add_assume(ab.not_(tied));
    r.env.drivers.push_back(
        std::make_shared<ConstantDriver>(std::vector<NetId>{tied}, false));
    return r;
  }, opt);
}

struct DeterministicSnapshot {
  std::vector<std::uint64_t> counters;
  std::vector<tr::HistogramSnapshot> histograms;
  std::vector<tr::RoundRecord> rounds;
  std::vector<std::string> spans;
};

DeterministicSnapshot snapshot_deterministic() {
  DeterministicSnapshot s;
  for (std::size_t i = 0; i < tr::kNumCounters; ++i) {
    const auto c = static_cast<tr::Counter>(i);
    if (tr::counter_deterministic(c)) s.counters.push_back(tr::counter_value(c));
  }
  for (std::size_t i = 0; i < tr::kNumHistograms; ++i) {
    const auto h = static_cast<tr::Histogram>(i);
    if (tr::histogram_deterministic(h)) s.histograms.push_back(tr::histogram_snapshot(h));
  }
  s.rounds = tr::round_records();
  s.spans = tr::normalized_events();
  return s;
}

TEST(TraceDeterminism, DeterministicSubtreeIdenticalAcrossThreadCounts) {
  scrub_env();
  tr::begin_run(/*events=*/true);
  const PdatResult r1 = run_traced_pipeline(1);
  const DeterministicSnapshot s1 = snapshot_deterministic();
  tr::end_run();

  tr::begin_run(/*events=*/true);
  const PdatResult r3 = run_traced_pipeline(3);
  const DeterministicSnapshot s3 = snapshot_deterministic();
  tr::end_run();

  EXPECT_GT(s1.counters[static_cast<std::size_t>(tr::Counter::SatSolveCalls)], 0u);
  EXPECT_EQ(r1.proven, r3.proven);
  EXPECT_EQ(s1.counters, s3.counters);
  ASSERT_EQ(s1.histograms.size(), s3.histograms.size());
  for (std::size_t i = 0; i < s1.histograms.size(); ++i) {
    EXPECT_EQ(s1.histograms[i].count, s3.histograms[i].count) << i;
    EXPECT_EQ(s1.histograms[i].sum, s3.histograms[i].sum) << i;
    EXPECT_EQ(s1.histograms[i].max, s3.histograms[i].max) << i;
    EXPECT_EQ(s1.histograms[i].buckets, s3.histograms[i].buckets) << i;
  }
  ASSERT_EQ(s1.rounds.size(), s3.rounds.size());
  for (std::size_t i = 0; i < s1.rounds.size(); ++i) {
    EXPECT_EQ(s1.rounds[i].round, s3.rounds[i].round);
    EXPECT_EQ(s1.rounds[i].alive_before, s3.rounds[i].alive_before);
    EXPECT_EQ(s1.rounds[i].cex_kills, s3.rounds[i].cex_kills);
    EXPECT_EQ(s1.rounds[i].budget_kills, s3.rounds[i].budget_kills);
    EXPECT_EQ(s1.rounds[i].sat_calls, s3.rounds[i].sat_calls);
  }
  EXPECT_EQ(s1.spans, s3.spans);
}

TEST(TracePipeline, WritesTraceAndMetricsFilesWhenConfigured) {
  scrub_env();
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/test_trace.trace.json";
  const std::string metrics_path = dir + "/test_trace.metrics.json";

  Netlist nl = test::random_netlist(7, 5, 60, 6, 3);
  opt::optimize(nl);
  PdatOptions opt;
  opt.trace_path = trace_path;
  opt.metrics_path = metrics_path;
  opt.run_label = "test_trace:files";
  const PdatResult res =
      run_pdat(nl, [](Netlist&) { return RestrictionResult{}; }, opt);
  // run_pdat owns the tracer lifecycle here; it must disable it on exit.
  EXPECT_FALSE(tr::collecting());

  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.good()) << trace_path;
  std::stringstream tbuf;
  tbuf << tf.rdbuf();
  const tr::json::Value trace_doc = tr::json::parse(tbuf.str());
  const auto& events = trace_doc.at("traceEvents").items();
  EXPECT_FALSE(events.empty());
  std::set<std::string> names;
  for (const auto& e : events) names.insert(e.at("name").string);
  EXPECT_TRUE(names.count("pdat.run"));
  EXPECT_TRUE(names.count("pdat.stage.induction"));
  // Every span name in the file is registered.
  std::set<std::string> registered;
  for (const auto& def : tr::telemetry_registry()) {
    if (def.kind == tr::MetricKind::Span) registered.insert(def.name);
  }
  for (const auto& n : names) {
    EXPECT_TRUE(registered.count(n)) << "unregistered span name in trace: " << n;
  }

  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.good()) << metrics_path;
  std::stringstream mbuf;
  mbuf << mf.rdbuf();
  const tr::json::Value metrics_doc = tr::json::parse(mbuf.str());
  EXPECT_EQ(metrics_doc.at("schema").string, "pdat-metrics");
  EXPECT_EQ(metrics_doc.at("label").string, "test_trace:files");
  const auto& pipe = metrics_doc.at("deterministic").at("pipeline");
  EXPECT_EQ(pipe.at("gates_before").number, static_cast<double>(res.gates_before));
  EXPECT_EQ(pipe.at("gates_after").number, static_cast<double>(res.gates_after));
  EXPECT_GT(metrics_doc.at("deterministic").at("counters").at("sat.solve_calls").number, 0);
}

TEST(TracePipeline, UnwritableMetricsPathThrows) {
  scrub_env();
  Netlist nl = test::random_netlist(7, 5, 60, 6, 3);
  opt::optimize(nl);
  PdatOptions opt;
  opt.metrics_path = ::testing::TempDir() + "/no_such_dir/test_trace.metrics.json";
  try {
    run_pdat(nl, [](Netlist&) { return RestrictionResult{}; }, opt);
    ADD_FAILURE() << "a metrics file that cannot be written was dropped silently";
  } catch (const PdatError& e) {
    EXPECT_NE(std::string(e.what()).find(opt.metrics_path), std::string::npos) << e.what();
  }
  EXPECT_FALSE(tr::collecting());
}

}  // namespace
}  // namespace pdat
