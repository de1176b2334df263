// obs::Histogram: bucket geometry, merge associativity, quantile accuracy,
// and the registry/BddStats integration points the telemetry tier relies on
// (docs/observability.md "Histograms").
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "bdd/manager.hpp"
#include "obs/histogram.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"

namespace icb {
namespace {

TEST(Histogram, BucketGeometryIsPowerOfTwo) {
  // Value 0 has its own bucket; value v lands in bucket bit_width(v).
  EXPECT_EQ(obs::Histogram::bucketFor(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketFor(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketFor(2), 2u);
  EXPECT_EQ(obs::Histogram::bucketFor(3), 2u);
  EXPECT_EQ(obs::Histogram::bucketFor(4), 3u);
  EXPECT_EQ(obs::Histogram::bucketFor(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucketFor(1024), 11u);
  EXPECT_EQ(
      obs::Histogram::bucketFor(std::numeric_limits<std::uint64_t>::max()),
      obs::Histogram::kBuckets - 1);

  // Bounds are inclusive and adjacent: [lower(b), upper(b)] tile the range.
  for (std::size_t b = 0; b + 1 < obs::Histogram::kBuckets; ++b) {
    EXPECT_EQ(obs::Histogram::bucketFor(obs::Histogram::bucketUpperBound(b)),
              b);
    EXPECT_EQ(obs::Histogram::bucketFor(obs::Histogram::bucketLowerBound(b)),
              b);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(b) + 1,
              obs::Histogram::bucketLowerBound(b + 1));
  }
  EXPECT_EQ(obs::Histogram::bucketUpperBound(obs::Histogram::kBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  obs::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);

  for (const std::uint64_t v : {7u, 0u, 1000u, 3u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucketCount(0), 1u);   // the 0
  EXPECT_EQ(h.bucketCount(2), 1u);   // 3
  EXPECT_EQ(h.bucketCount(3), 1u);   // 7
  EXPECT_EQ(h.bucketCount(10), 1u);  // 1000
}

TEST(Histogram, MergeIsAssociativeAndOrderIndependent) {
  std::mt19937_64 rng(42);
  std::vector<obs::Histogram> parts(5);
  for (obs::Histogram& part : parts) {
    for (int i = 0; i < 200; ++i) part.record(rng() % 100000);
  }

  obs::Histogram leftFold;
  for (const obs::Histogram& part : parts) leftFold.merge(part);

  obs::Histogram rightFold;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it)
    rightFold.merge(*it);

  // (a+b)+c folded pairwise first, then into an empty accumulator.
  obs::Histogram pair01 = parts[0];
  pair01.merge(parts[1]);
  obs::Histogram pair23 = parts[2];
  pair23.merge(parts[3]);
  obs::Histogram treeFold;
  treeFold.merge(pair01);
  treeFold.merge(pair23);
  treeFold.merge(parts[4]);

  for (const obs::Histogram* h : {&rightFold, &treeFold}) {
    EXPECT_EQ(h->count(), leftFold.count());
    EXPECT_EQ(h->sum(), leftFold.sum());
    EXPECT_EQ(h->min(), leftFold.min());
    EXPECT_EQ(h->max(), leftFold.max());
    for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
      EXPECT_EQ(h->bucketCount(b), leftFold.bucketCount(b));
    }
  }

  // Merging an empty histogram is the identity.
  obs::Histogram copy = leftFold;
  copy.merge(obs::Histogram{});
  EXPECT_EQ(copy.count(), leftFold.count());
  EXPECT_EQ(copy.min(), leftFold.min());
}

TEST(Histogram, QuantileInterpolatesWithinBucketAccuracy) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty

  // A constant distribution reports the constant exactly (min/max clamp).
  obs::Histogram constant;
  for (int i = 0; i < 100; ++i) constant.record(37);
  EXPECT_DOUBLE_EQ(constant.quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(constant.quantile(0.5), 37.0);
  EXPECT_DOUBLE_EQ(constant.quantile(1.0), 37.0);

  // Uniform 1..1000: every estimate must land within the true value's
  // power-of-two bucket (off by at most 2x), and the extremes are exact.
  obs::Histogram uniform;
  for (std::uint64_t v = 1; v <= 1000; ++v) uniform.record(v);
  EXPECT_DOUBLE_EQ(uniform.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(uniform.quantile(1.0), 1000.0);
  for (const double q : {0.25, 0.5, 0.9, 0.99}) {
    const double truth = 1.0 + q * 999.0;
    const double estimate = uniform.quantile(q);
    EXPECT_GE(estimate, truth / 2.0) << "q=" << q;
    EXPECT_LE(estimate, truth * 2.0) << "q=" << q;
  }
  // Quantiles are monotone in q.
  double last = -1.0;
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double estimate = uniform.quantile(q);
    EXPECT_GE(estimate, last);
    last = estimate;
  }
}

TEST(Histogram, SummaryJsonParsesAndMatchesAccessors) {
  obs::Histogram h;
  for (const std::uint64_t v : {1u, 2u, 3u, 400u}) h.record(v);
  const obs::JsonValue parsed = obs::parseJson(h.summaryJson());
  EXPECT_DOUBLE_EQ(parsed.find("count")->numberOr(-1), 4.0);
  EXPECT_DOUBLE_EQ(parsed.find("sum")->numberOr(-1), 406.0);
  EXPECT_DOUBLE_EQ(parsed.find("min")->numberOr(-1), 1.0);
  EXPECT_DOUBLE_EQ(parsed.find("max")->numberOr(-1), 400.0);
  EXPECT_GE(parsed.find("p99")->numberOr(-1), parsed.find("p50")->numberOr(1e9));
}

TEST(Metrics, HistogramsLiveInTheRegistry) {
  obs::MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.recordHistogram("t.latency_us", 5);
  m.recordHistogram("t.latency_us", 300);
  EXPECT_FALSE(m.empty());
  ASSERT_NE(m.histogram("t.latency_us"), nullptr);
  EXPECT_EQ(m.histogram("t.latency_us")->count(), 2u);
  EXPECT_EQ(m.histogram("missing"), nullptr);

  obs::Histogram extra;
  extra.record(7);
  m.mergeHistogram("t.latency_us", extra);
  EXPECT_EQ(m.histogram("t.latency_us")->count(), 3u);

  obs::MetricsRegistry other;
  other.recordHistogram("t.latency_us", 9);
  other.recordHistogram("t.other_us", 1);
  m.merge(other);
  EXPECT_EQ(m.histogram("t.latency_us")->count(), 4u);
  ASSERT_NE(m.histogram("t.other_us"), nullptr);

  // toJson embeds the summaries under "histograms".
  const obs::JsonValue parsed = obs::parseJson(m.toJson());
  const obs::JsonValue* histos = parsed.find("histograms");
  ASSERT_NE(histos, nullptr);
  ASSERT_NE(histos->find("t.latency_us"), nullptr);
  EXPECT_DOUBLE_EQ(histos->find("t.latency_us")->find("count")->numberOr(-1),
                   4.0);

  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(Metrics, CaptureBddFoldsLatencyHistograms) {
  BddStats stats;
  stats.gcPauseUs.record(12);
  stats.reorderPauseUs.record(34);

  obs::MetricsRegistry m;
  // captureBdd reads a manager; fold the stat histograms the same way the
  // registry does for a manager-owned BddStats.
  m.mergeHistogram("bdd.gc.pause_us", stats.gcPauseUs);
  m.mergeHistogram("bdd.reorder.pause_us", stats.reorderPauseUs);
  EXPECT_EQ(m.histogram("bdd.gc.pause_us")->sum(), 12u);
  EXPECT_EQ(m.histogram("bdd.reorder.pause_us")->sum(), 34u);
}

}  // namespace
}  // namespace icb
