// Tests for the observability subsystem (src/obs/): histogram bucket
// geometry and error bounds, snapshot merging, the concurrent recorders
// (run under TSan in CI), the metrics registry contract, the Prometheus /
// JSON exporters, the query tracer, and the shared search-stats view.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "model/search_stats.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace i3 {
namespace obs {
namespace {

using B = HistogramBuckets;

// ---------------------------------------------------------------------------
// Histogram bucket geometry.

TEST(ObsHistogramTest, ValuesBelowSubBucketsAreExact) {
  for (uint64_t v = 0; v < B::kSubBuckets; ++v) {
    const uint32_t idx = B::IndexOf(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(B::LowerBound(idx), v);
    EXPECT_EQ(B::UpperBoundInclusive(idx), v);
  }
}

TEST(ObsHistogramTest, BucketsPartitionTheRange) {
  // Buckets tile [0, kMaxTrackable] with no gaps and no overlaps.
  for (uint32_t idx = 0; idx + 1 < B::kNumBuckets; ++idx) {
    EXPECT_LE(B::LowerBound(idx), B::UpperBoundInclusive(idx));
    EXPECT_EQ(B::UpperBoundInclusive(idx) + 1, B::LowerBound(idx + 1))
        << "gap or overlap after bucket " << idx;
  }
  EXPECT_EQ(B::UpperBoundInclusive(B::kNumBuckets - 1), B::kMaxTrackable);
}

TEST(ObsHistogramTest, IndexOfLandsInsideTheBucket) {
  // Sweep bucket boundaries and their neighbours across every octave.
  std::vector<uint64_t> probes;
  for (uint32_t idx = 0; idx < B::kNumBuckets; ++idx) {
    probes.push_back(B::LowerBound(idx));
    probes.push_back(B::UpperBoundInclusive(idx));
  }
  for (uint64_t v : probes) {
    const uint32_t idx = B::IndexOf(v);
    ASSERT_LT(idx, B::kNumBuckets);
    EXPECT_LE(B::LowerBound(idx), v);
    EXPECT_GE(B::UpperBoundInclusive(idx), v);
  }
}

TEST(ObsHistogramTest, RelativeErrorIsBounded) {
  // The quantile estimate for a single recorded value is the inclusive
  // upper bound of its bucket: within kMaxRelativeError of the value.
  for (uint64_t v = 1; v <= B::kMaxTrackable / 2; v = v * 3 + 1) {
    const uint64_t upper = B::UpperBoundInclusive(B::IndexOf(v));
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              B::kMaxRelativeError * static_cast<double>(v) + 1e-9)
        << "value " << v;
  }
}

TEST(ObsHistogramTest, OverflowClampsIntoLastBucket) {
  EXPECT_EQ(B::IndexOf(B::kMaxTrackable), B::kNumBuckets - 1);
  EXPECT_EQ(B::IndexOf(B::kMaxTrackable + 1), B::kNumBuckets - 1);
  EXPECT_EQ(B::IndexOf(UINT64_MAX), B::kNumBuckets - 1);

  HistogramSnapshot h;
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), UINT64_MAX);  // exact sum survives the clamp
  EXPECT_EQ(h.Max(), B::kMaxTrackable);
}

TEST(ObsHistogramTest, QuantilesOfUniformRecording) {
  HistogramSnapshot h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10000u);
  // Each quantile estimate must be >= the true order statistic and within
  // the relative error bound of it.
  for (double q : {0.50, 0.90, 0.99}) {
    const uint64_t truth = static_cast<uint64_t>(q * 10000);
    const uint64_t est = h.Quantile(q);
    EXPECT_GE(est, truth);
    EXPECT_LE(static_cast<double>(est),
              (1.0 + B::kMaxRelativeError) * static_cast<double>(truth) + 1)
        << "q=" << q;
  }
  EXPECT_EQ(h.Quantile(0.0), h.Min());
  EXPECT_GE(h.Max(), 10000u);
}

TEST(ObsHistogramTest, EmptySnapshotIsZero) {
  HistogramSnapshot h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(ObsHistogramTest, MergeIsAssociativeAndCommutative) {
  HistogramSnapshot a, b, c;
  for (uint64_t v = 1; v < 500; v += 3) a.Record(v * 7);
  for (uint64_t v = 1; v < 400; v += 2) b.Record(v * 113);
  for (uint64_t v = 1; v < 300; ++v) c.Record(v);

  // (a + b) + c
  HistogramSnapshot ab = a;
  ab.MergeFrom(b);
  HistogramSnapshot ab_c = ab;
  ab_c.MergeFrom(c);

  // a + (b + c)
  HistogramSnapshot bc = b;
  bc.MergeFrom(c);
  HistogramSnapshot a_bc = a;
  a_bc.MergeFrom(bc);

  EXPECT_TRUE(ab_c == a_bc);

  // b + a == a + b
  HistogramSnapshot ba = b;
  ba.MergeFrom(a);
  EXPECT_TRUE(ba == ab);

  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(ab_c.sum(), a.sum() + b.sum() + c.sum());
}

TEST(ObsHistogramTest, ConcurrentRecordersFoldExactCounts) {
  // Stress for TSan: concurrent wait-free recording must be race-free and
  // lose no counts once the recorders have joined.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record((i + static_cast<uint64_t>(t) * 37) % 5000);
      }
    });
  }
  for (auto& th : threads) th.join();

  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += (i + static_cast<uint64_t>(t) * 37) % 5000;
    }
  }
  EXPECT_EQ(snap.sum(), expected_sum);

  h.Reset();
  EXPECT_EQ(h.Snapshot().count(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(ObsMetricsTest, CounterSumsAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsMetricsTest, GaugeSetAddSub) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(7);
  EXPECT_EQ(g.Value(), 8);
  g.Set(-3);
  EXPECT_EQ(g.Value(), -3);
}

TEST(ObsMetricsTest, SameNameAndLabelsReturnsSameObject) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("obs_test_total", "help");
  Counter* b = reg.GetCounter("obs_test_total", "help");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);

  Counter* labeled = reg.GetCounter("obs_test_total", "help", {{"k", "v"}});
  ASSERT_NE(labeled, nullptr);
  EXPECT_NE(labeled, a);  // distinct label set -> distinct series
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsMetricsTest, TypeConflictReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("obs_conflict", "help"), nullptr);
  EXPECT_EQ(reg.GetGauge("obs_conflict", "help"), nullptr);
  EXPECT_EQ(reg.GetHistogram("obs_conflict", "help"), nullptr);
}

TEST(ObsMetricsTest, InvalidNamesReturnNull) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.GetCounter("", "help"), nullptr);
  EXPECT_EQ(reg.GetCounter("0starts_with_digit", "help"), nullptr);
  EXPECT_EQ(reg.GetCounter("has space", "help"), nullptr);
  EXPECT_EQ(reg.GetCounter("has-dash", "help"), nullptr);
  // Colons are legal in metric names but not label names.
  EXPECT_NE(reg.GetCounter("ns:metric", "help"), nullptr);
  EXPECT_EQ(reg.GetCounter("ok_name", "help", {{"bad-label", "v"}}),
            nullptr);
  EXPECT_EQ(reg.GetCounter("ok_name", "help", {{"le:colon", "v"}}), nullptr);
}

TEST(ObsMetricsTest, SnapshotIsSortedAndFindable) {
  MetricsRegistry reg;
  reg.GetCounter("obs_zzz_total", "z")->Increment(3);
  reg.GetGauge("obs_aaa", "a")->Set(7);
  reg.GetHistogram("obs_mmm_us", "m")->Record(42);

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_TRUE(std::is_sorted(snap.samples.begin(), snap.samples.end(),
                             [](const MetricSample& x, const MetricSample& y) {
                               return x.name < y.name;
                             }));

  const MetricSample* c = snap.Find("obs_zzz_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 3.0);
  const MetricSample* g = snap.Find("obs_aaa");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 7.0);
  const MetricSample* h = snap.Find("obs_mmm_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count(), 1u);
  EXPECT_EQ(snap.Find("obs_absent"), nullptr);
}

TEST(ObsMetricsTest, FindWithLabelsSelectsTheSeries) {
  MetricsRegistry reg;
  reg.GetCounter("obs_l_total", "h", {{"op", "read"}})->Increment(1);
  reg.GetCounter("obs_l_total", "h", {{"op", "write"}})->Increment(2);

  const MetricsSnapshot snap = reg.Snapshot();
  const MetricSample* w = snap.Find("obs_l_total", {{"op", "write"}});
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->value, 2.0);
  EXPECT_EQ(snap.Find("obs_l_total", {{"op", "scan"}}), nullptr);
}

TEST(ObsMetricsTest, ResetAllZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("obs_r_total", "h");
  Gauge* g = reg.GetGauge("obs_r_gauge", "h");
  Histogram* h = reg.GetHistogram("obs_r_us", "h");
  c->Increment(5);
  g->Set(9);
  h->Record(100);

  reg.ResetAll();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Snapshot().count(), 0u);
  // The cached pointers stay live and usable after the reset.
  c->Increment(1);
  EXPECT_EQ(c->Value(), 1u);
}

TEST(ObsMetricsTest, GlobalRegistryCarriesTheWiredSeries) {
  // The subsystems wired in this repo register on first construction;
  // merely touching the global registry must be safe and idempotent.
  Counter* c = MetricsRegistry::Global().GetCounter(
      "obs_selftest_total", "registered by test_obs");
  ASSERT_NE(c, nullptr);
  c->Increment();
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_NE(snap.Find("obs_selftest_total"), nullptr);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(ObsExportTest, PrometheusTextShape) {
  MetricsRegistry reg;
  reg.GetCounter("obs_exp_total", "counter help", {{"op", "read"}})
      ->Increment(4);
  reg.GetCounter("obs_exp_total", "counter help", {{"op", "write"}})
      ->Increment(6);
  reg.GetGauge("obs_exp_depth", "gauge help")->Set(-2);
  Histogram* h = reg.GetHistogram("obs_exp_us", "histogram help");
  h->Record(10);
  h->Record(100);
  h->Record(1000);

  const std::string text = ToPrometheusText(reg.Snapshot());

  // HELP/TYPE exactly once per family even with several series.
  auto count_of = [&text](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# HELP obs_exp_total counter help"), 1u);
  EXPECT_EQ(count_of("# TYPE obs_exp_total counter"), 1u);
  EXPECT_NE(text.find("obs_exp_total{op=\"read\"} 4"), std::string::npos);
  EXPECT_NE(text.find("obs_exp_total{op=\"write\"} 6"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_exp_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_exp_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_exp_us histogram"), std::string::npos);
  // Cumulative buckets terminated by +Inf, plus _sum and _count.
  EXPECT_NE(text.find("obs_exp_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("obs_exp_us_sum 1110"), std::string::npos);
  EXPECT_NE(text.find("obs_exp_us_count 3"), std::string::npos);
}

TEST(ObsExportTest, PrometheusBucketsAreCumulative) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("obs_cum_us", "h");
  h->Record(1);
  h->Record(1);
  h->Record(1000000);

  const std::string text = ToPrometheusText(reg.Snapshot());
  // The low bucket holds 2; the bucket at the large value must already
  // include them (cumulative), and +Inf equals the count.
  EXPECT_NE(text.find("obs_cum_us_bucket{le=\"1\"} 2"), std::string::npos);
  const size_t inf = text.find("obs_cum_us_bucket{le=\"+Inf\"} 3");
  ASSERT_NE(inf, std::string::npos);
  // No bucket line after +Inf for this family.
  EXPECT_EQ(text.find("obs_cum_us_bucket", inf + 1), std::string::npos);
}

TEST(ObsExportTest, LabelEscapingRoundTrips) {
  const std::string nasty = "a\\b\"c\nd";
  MetricsRegistry reg;
  reg.GetCounter("obs_esc_total", "h", {{"path", nasty}})->Increment(1);

  const std::string text = ToPrometheusText(reg.Snapshot());
  // The escaped form appears on the series line...
  const std::string escaped = "a\\\\b\\\"c\\nd";
  const size_t pos = text.find("obs_esc_total{path=\"" + escaped + "\"} 1");
  EXPECT_NE(pos, std::string::npos) << text;
  // ...and unescaping recovers the original value exactly.
  EXPECT_EQ(UnescapePrometheusLabelValue(escaped), nasty);
}

TEST(ObsExportTest, JsonCarriesValuesAndPercentiles) {
  MetricsRegistry reg;
  reg.GetCounter("obs_j_total", "h")->Increment(11);
  Histogram* h = reg.GetHistogram("obs_j_us", "h");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);

  const std::string json = ToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"name\": \"obs_j_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obs_j_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check; the Python CI
  // gate does a full parse of the embedded snapshot).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ---------------------------------------------------------------------------
// Tracer.

TEST(ObsTraceTest, DisabledSamplerNeverTraces) {
  Tracer tracer;
  ASSERT_EQ(tracer.sample_rate(), 0.0);
  QueryTrace t;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(tracer.StartTrace("q", &t));
  }
  EXPECT_TRUE(tracer.Recent().empty());
}

TEST(ObsTraceTest, RateOneTracesEveryQuery) {
  Tracer tracer;
  tracer.SetSampleRate(1.0);
  for (int i = 0; i < 5; ++i) {
    QueryTrace t;
    ASSERT_TRUE(tracer.StartTrace("q", &t));
    t.AddStage("stage_a", 100);
    tracer.Finish(std::move(t));
  }
  const auto recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 5u);
  EXPECT_EQ(recent.back().label, "q");
  EXPECT_GT(recent.back().total_ns, 0u);
}

TEST(ObsTraceTest, FractionalRateTracesEveryNth) {
  Tracer tracer;
  tracer.SetSampleRate(0.25);  // every 4th query on this thread
  int traced = 0;
  for (int i = 0; i < 100; ++i) {
    QueryTrace t;
    if (tracer.StartTrace("q", &t)) {
      ++traced;
      tracer.Finish(std::move(t));
    }
  }
  EXPECT_EQ(traced, 25);
}

TEST(ObsTraceTest, StagesAccumulateByName) {
  QueryTrace t;
  t.AddStage("scan", 100);
  t.AddStage("merge", 50);
  t.AddStage("scan", 200);
  ASSERT_EQ(t.stages.size(), 2u);
  EXPECT_EQ(t.StageNs("scan"), 300u);
  EXPECT_EQ(t.StageNs("merge"), 50u);
  EXPECT_EQ(t.StageNs("absent"), 0u);
  const TraceStage* scan = &t.stages[0];
  EXPECT_EQ(scan->calls, 2u);
}

TEST(ObsTraceTest, ScopedStageIsNoOpOnNullAndRecordsOtherwise) {
  { ScopedStage noop(nullptr, "x"); }  // must not crash or record

  QueryTrace t;
  {
    ScopedStage s(&t, "timed");
    // Some trivial work so the stage takes nonzero time on any clock.
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
  }
  ASSERT_EQ(t.stages.size(), 1u);
  EXPECT_EQ(t.stages[0].calls, 1u);
}

TEST(ObsTraceTest, RingBufferDropsOldest) {
  Tracer tracer;
  tracer.SetSampleRate(1.0);
  tracer.SetCapacity(3);
  for (int i = 0; i < 10; ++i) {
    QueryTrace t;
    ASSERT_TRUE(tracer.StartTrace("q", &t));
    t.Annotate("seq", static_cast<uint64_t>(i));
    tracer.Finish(std::move(t));
  }
  const auto recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent.front().annotations[0].second, 7u);  // oldest kept
  EXPECT_EQ(recent.back().annotations[0].second, 9u);

  tracer.Clear();
  EXPECT_TRUE(tracer.Recent().empty());
}

TEST(ObsTraceTest, TracesToJsonShape) {
  QueryTrace t;
  t.label = "I3.Search";
  t.total_ns = 1234;
  t.AddStage("cell_lookup", 1000);
  t.Annotate("results", 10);
  const std::string json = TracesToJson({t});
  EXPECT_NE(json.find("\"label\": \"I3.Search\""), std::string::npos);
  EXPECT_NE(json.find("\"cell_lookup\""), std::string::npos);
  EXPECT_NE(json.find("\"results\": 10"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Search-stats view + emitter.

TEST(ObsSearchStatsTest, ViewSetGetToString) {
  SearchStatsView v;
  v.Set("docs_scored", 42);
  v.Set("cells_pruned", 7);
  EXPECT_EQ(v.count, 2u);
  EXPECT_EQ(v.Get("docs_scored"), 42u);
  EXPECT_EQ(v.Get("cells_pruned"), 7u);
  EXPECT_EQ(v.Get("absent"), 0u);
  EXPECT_EQ(v.ToString(), "{docs_scored: 42, cells_pruned: 7}");
}

TEST(ObsSearchStatsTest, ViewCapsAtMaxStats) {
  SearchStatsView v;
  static const char* kNames[] = {"s0", "s1", "s2", "s3", "s4",
                                 "s5", "s6", "s7", "s8", "s9"};
  for (uint64_t i = 0; i < 10; ++i) v.Set(kNames[i], i);
  EXPECT_EQ(v.count, SearchStatsView::kMaxStats);
}

TEST(ObsSearchStatsTest, AddSumsByNameAndAppendsNewNames) {
  SearchStatsView sum;
  SearchStatsView shard;
  shard.Set("docs_scored", 3);
  shard.Set("cells_pruned", 1);
  sum.Add(shard);
  sum.Add(shard);
  SearchStatsView other_order;
  other_order.Set("cells_pruned", 10);
  other_order.Set("pages", 5);
  sum.Add(other_order);
  EXPECT_EQ(sum.ToString(), "{docs_scored: 6, cells_pruned: 12, pages: 5}");
}

TEST(ObsSearchStatsTest, EmitterSumsIntoGlobalCounters) {
  SearchStatsView schema;
  schema.Set("obs_test_stat_a", 0);
  schema.Set("obs_test_stat_b", 0);
  SearchStatsEmitter emitter("obs-test-index", schema);

  SearchStatsView q1;
  q1.Set("obs_test_stat_a", 3);
  q1.Set("obs_test_stat_b", 0);  // zero -> no increment, still positional
  SearchStatsView q2;
  q2.Set("obs_test_stat_a", 4);
  q2.Set("obs_test_stat_b", 5);
  emitter.Emit(q1);
  emitter.Emit(q2);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const MetricSample* a = snap.Find(
      "i3_search_stat_total",
      {{"index", "obs-test-index"}, {"stat", "obs_test_stat_a"}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 7.0);
  const MetricSample* b = snap.Find(
      "i3_search_stat_total",
      {{"index", "obs-test-index"}, {"stat", "obs_test_stat_b"}});
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->value, 5.0);
}

// ---------------------------------------------------------------------------
// Exporter edge cases.

bool JsonBracesBalance(const std::string& json) {
  // Cheap well-formedness proxy used where no parser is available; the
  // CI smoke runs a full python3 -m json.tool parse on live endpoints.
  long depth = 0;
  bool in_string = false, escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(ObsExportTest, PathologicalLabelValuesRoundTrip) {
  const std::vector<std::string> nasties = {
      "back\\slash", "quo\"te", "new\nline", "tab\there",
      "trailing\\",  "{weird}= chars,", std::string("nul\0byte", 8),
      "\xc3\xa9-utf8"};
  MetricsRegistry reg;
  for (size_t i = 0; i < nasties.size(); ++i) {
    reg.GetCounter("obs_nasty_total", "h", {{"v", nasties[i]}})
        ->Increment(static_cast<uint64_t>(i) + 1);
  }
  const std::string text = ToPrometheusText(reg.Snapshot());
  // Every escaped label value must unescape back to the original.
  size_t found = 0;
  size_t pos = 0;
  while ((pos = text.find("obs_nasty_total{v=\"", pos)) !=
         std::string::npos) {
    pos += std::strlen("obs_nasty_total{v=\"");
    // The value ends at the first unescaped quote.
    std::string escaped;
    while (pos < text.size()) {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        escaped += text.substr(pos, 2);
        pos += 2;
        continue;
      }
      if (text[pos] == '"') break;
      escaped += text[pos++];
    }
    const std::string back = UnescapePrometheusLabelValue(escaped);
    EXPECT_NE(std::find(nasties.begin(), nasties.end(), back),
              nasties.end())
        << "escaped form <" << escaped << "> unescaped to unknown value";
    ++found;
  }
  EXPECT_EQ(found, nasties.size());

  // The JSON exporter must stay well-formed under the same values.
  const std::string json = ToJson(reg.Snapshot());
  EXPECT_TRUE(JsonBracesBalance(json)) << json;
}

TEST(ObsExportTest, EmptySnapshotExports) {
  MetricsRegistry reg;
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_TRUE(snap.samples.empty());
  // Prometheus: empty output is the valid exposition of no series.
  EXPECT_EQ(ToPrometheusText(snap), "");
  // JSON: still a parseable document with an empty metrics array.
  const std::string json = ToJson(snap);
  EXPECT_TRUE(JsonBracesBalance(json)) << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Slow-query log.

SlowQueryRecord Rec(uint64_t us, uint64_t id = 0) {
  SlowQueryRecord r;
  r.trace_id = id;
  r.total_us = us;
  r.outcome = "ok";
  return r;
}

TEST(ObsSlowLogTest, ThresholdAndTopBarGateQualifies) {
  SlowQueryLog log({.ring_capacity = 4, .top_capacity = 2,
                    .threshold_us = 100});
  // Until the top-N fills, its bar is 0: anything nonzero qualifies
  // (the first requests ARE the slowest seen so far).
  EXPECT_TRUE(log.Qualifies(1));
  EXPECT_FALSE(log.Qualifies(0));
  log.Record(Rec(10));
  log.Record(Rec(20));
  // Top is full at {20, 10}: the bar is now 10, sub-bar sub-threshold
  // latencies no longer qualify -- the steady-state fast path.
  EXPECT_FALSE(log.Qualifies(5));
  EXPECT_FALSE(log.Qualifies(10));
  EXPECT_TRUE(log.Qualifies(11));
  EXPECT_TRUE(log.Qualifies(100));  // at threshold: always
  const auto top = log.Slowest();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].total_us, 20u);
  EXPECT_EQ(top[1].total_us, 10u);
}

TEST(ObsSlowLogTest, RingKeepsRecentOverThresholdOldestFirst) {
  SlowQueryLog log({.ring_capacity = 3, .top_capacity = 1,
                    .threshold_us = 100});
  log.Record(Rec(50, 1));  // under threshold: top only, not the ring
  for (uint64_t i = 0; i < 5; ++i) log.Record(Rec(100 + i, 10 + i));
  const auto recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);  // ring wrapped; oldest two overwritten
  EXPECT_EQ(recent[0].trace_id, 12u);
  EXPECT_EQ(recent[1].trace_id, 13u);
  EXPECT_EQ(recent[2].trace_id, 14u);
  EXPECT_EQ(log.recorded(), 6u);
  const auto top = log.Slowest();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].total_us, 104u);
  log.Clear();
  EXPECT_TRUE(log.Recent().empty());
  EXPECT_TRUE(log.Slowest().empty());
  EXPECT_EQ(log.recorded(), 0u);
}

TEST(ObsSlowLogTest, ConcurrentWritersAndReadersAreClean) {
  SlowQueryLog log({.ring_capacity = 8, .top_capacity = 4,
                    .threshold_us = 0});
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto recent = log.Recent();
      // Published records are never torn: every visible record carries
      // the outcome a writer set.
      for (const auto& r : recent) EXPECT_EQ(r.outcome, "ok");
      (void)log.Slowest();
      (void)SlowLogToJson(log);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.Record(Rec(static_cast<uint64_t>(w * kPerWriter + i + 1),
                       static_cast<uint64_t>(w) << 32 | i));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(log.recorded(), uint64_t{kWriters} * kPerWriter);
  // The rolling top holds the genuine maxima across all writers.
  const auto top = log.Slowest();
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].total_us, uint64_t{kWriters} * kPerWriter);
  EXPECT_TRUE(JsonBracesBalance(SlowLogToJson(log)));
}

// ---------------------------------------------------------------------------
// Per-tenant rolling SLO windows.

constexpr uint64_t kSecond = 1000000000ull;

TEST(ObsSloTest, WindowCountsAndQuantiles) {
  SloTracker slo({.window_seconds = 60, .max_tenants = 4});
  const uint64_t t0 = 1000 * kSecond;
  for (uint64_t i = 1; i <= 100; ++i) {
    slo.Record(/*tenant=*/7, /*latency_us=*/i * 10, /*shed=*/false,
               /*deadline_miss=*/false, t0 + i * 1000);
  }
  slo.Record(7, 5, /*shed=*/true, false, t0);
  slo.Record(7, 100000, /*shed=*/false, /*deadline_miss=*/true, t0);
  const auto w = slo.Window(7, t0);
  EXPECT_EQ(w.requests, 102u);
  EXPECT_EQ(w.sheds, 1u);
  EXPECT_EQ(w.deadline_misses, 1u);
  // Sheds stay out of the latency quantiles (their fast rejection time
  // would drag the distribution toward zero).
  EXPECT_GE(w.p50_us, 400u);
  EXPECT_GE(w.p99_us, w.p50_us);
  // An unknown tenant reads all zeros.
  EXPECT_EQ(slo.Window(99, t0).requests, 0u);
}

TEST(ObsSloTest, WindowRollsOverAndAgesOut) {
  SloTracker slo({.window_seconds = 3, .max_tenants = 4});
  const uint64_t t0 = 5000 * kSecond;
  slo.Record(1, 100, false, false, t0);
  slo.Record(1, 100, false, false, t0 + 1 * kSecond);
  EXPECT_EQ(slo.Window(1, t0 + 1 * kSecond).requests, 2u);
  // Two seconds later the first record has aged out of the 3s window...
  EXPECT_EQ(slo.Window(1, t0 + 3 * kSecond).requests, 1u);
  // ...and far in the future the window is empty.
  EXPECT_EQ(slo.Window(1, t0 + 100 * kSecond).requests, 0u);
  // A write in the far future lazily recycles the stale slots.
  slo.Record(1, 100, false, false, t0 + 100 * kSecond);
  EXPECT_EQ(slo.Window(1, t0 + 100 * kSecond).requests, 1u);
}

TEST(ObsSloTest, OverflowTenantAggregatesBeyondCap) {
  SloTracker slo({.window_seconds = 60, .max_tenants = 2});
  const uint64_t t0 = 42 * kSecond;
  slo.Record(0, 100, false, false, t0);
  slo.Record(1, 100, false, false, t0);
  slo.Record(2, 100, false, false, t0);  // beyond the cap
  slo.Record(3, 100, false, false, t0);  // beyond the cap
  const auto all = slo.AllWindows(t0);
  ASSERT_EQ(all.size(), 3u);  // two tracked + one overflow aggregate
  EXPECT_EQ(all[0].first, 0);
  EXPECT_EQ(all[1].first, 1);
  EXPECT_EQ(all[2].first, SloTracker::kOverflowTenant);
  EXPECT_EQ(all[2].second.requests, 2u);
}

TEST(ObsSloTest, ExportsMetricsAndJson) {
  SloTracker slo({.window_seconds = 60, .max_tenants = 4});
  const uint64_t t0 = 9 * kSecond;
  slo.Record(3, 250, false, false, t0);
  slo.Record(3, 5, true, false, t0);
  slo.ExportMetrics(t0);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const MetricSample* req =
      snap.Find("i3_slo_window_requests", {{"tenant", "3"}});
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->value, 2.0);
  const MetricSample* sheds =
      snap.Find("i3_slo_window_sheds", {{"tenant", "3"}});
  ASSERT_NE(sheds, nullptr);
  EXPECT_EQ(sheds->value, 1.0);
  ASSERT_NE(snap.Find("i3_slo_window_p99_us", {{"tenant", "3"}}),
            nullptr);
  const std::string json = slo.ToJson(t0);
  EXPECT_TRUE(JsonBracesBalance(json)) << json;
  EXPECT_NE(json.find("\"window_seconds\": 60"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\": 3"), std::string::npos);
}

TEST(ObsSloTest, ConcurrentTenantsRecordCleanly) {
  SloTracker slo({.window_seconds = 10, .max_tenants = 8});
  const uint64_t t0 = 77 * kSecond;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        slo.Record(static_cast<uint32_t>(t % 3), 100 + i % 50, i % 7 == 0,
                   false, t0 + static_cast<uint64_t>(i) * 1000000);
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (const auto& [tenant, w] : slo.AllWindows(t0)) total += w.requests;
  EXPECT_EQ(total, uint64_t{kThreads} * kPerThread);
}

}  // namespace
}  // namespace obs
}  // namespace i3
