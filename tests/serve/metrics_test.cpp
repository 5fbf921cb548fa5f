// ServeMetrics JSON must stay strictly parseable at every window size —
// including the empty and single-sample windows where naive mean/ratio code
// divides by zero and leaks NaN/Inf tokens that JSON parsers reject. The
// oracle is common::json_parse, which treats any non-finite number as a
// syntax error, so a successful parse IS the all-numbers-finite assertion.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/json.h"
#include "common/stats.h"
#include "serve/metrics.h"

namespace flashgen::serve {
namespace {

using common::json_parse;
using common::JsonValue;

void fill(ServeMetrics& m, int samples) {
  for (int i = 0; i < samples; ++i) {
    m.record_request(static_cast<std::uint64_t>(100 + i));
    m.record_stage("decode", static_cast<std::uint64_t>(5 + i));
    m.record_batch(static_cast<std::size_t>(i + 1));
    m.record_enqueue(static_cast<std::size_t>(i));
  }
}

TEST(ServeMetricsTest, JsonParsesAtWindowSizesZeroOneTwo) {
  const double elapsed_values[] = {0.0, 1.5, std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::quiet_NaN()};
  for (int samples : {0, 1, 2}) {
    ServeMetrics m;
    fill(m, samples);
    for (double elapsed : elapsed_values) {
      const std::string json = m.to_json(elapsed);
      const JsonValue doc = json_parse(json);
      EXPECT_EQ(doc.at("requests").number(), samples) << json;
      EXPECT_TRUE(doc.at("stages").is_object()) << json;
      if (samples > 0) {
        EXPECT_EQ(doc.at("stages").at("decode").at("count").number(), samples);
      }
    }
  }
}

TEST(ServeMetricsTest, BatchOccupancyUsesConfiguredCapacity) {
  ServeMetrics m;
  m.set_batch_capacity(8);
  m.record_batch(4);
  m.record_batch(8);
  const JsonValue doc = json_parse(m.to_json());
  EXPECT_DOUBLE_EQ(doc.at("batch_mean_size").number(), 6.0);
  EXPECT_DOUBLE_EQ(doc.at("batch_occupancy").number(), 0.75);
  EXPECT_EQ(doc.at("batch_capacity").number(), 8.0);
  EXPECT_EQ(doc.at("max_batch_size").number(), 8.0);
}

TEST(ServeMetricsTest, OccupancyWithoutCapacityIsZeroNotInf) {
  ServeMetrics m;
  m.record_batch(4);
  const JsonValue doc = json_parse(m.to_json());
  EXPECT_EQ(doc.at("batch_occupancy").number(), 0.0);
}

TEST(ServeMetricsTest, StageSummariesReportCountsAndMeans) {
  ServeMetrics m;
  m.record_stage("decode", 10);
  m.record_stage("decode", 30);
  m.record_stage("write", 7);
  const JsonValue doc = json_parse(m.to_json());
  const JsonValue& stages = doc.at("stages");
  EXPECT_EQ(stages.at("decode").at("count").number(), 2.0);
  EXPECT_DOUBLE_EQ(stages.at("decode").at("mean_us").number(), 20.0);
  EXPECT_EQ(stages.at("write").at("count").number(), 1.0);
  // The "process" sub-object embeds the global stats registry.
  EXPECT_TRUE(doc.at("process").has("counters"));
  EXPECT_TRUE(doc.at("process").has("gauges"));
}

TEST(ServeMetricsTest, RequestsPerSecOnlyWhenElapsedIsPositiveFinite) {
  ServeMetrics m;
  m.record_request(10);
  EXPECT_FALSE(json_parse(m.to_json(0.0)).has("requests_per_sec"));
  EXPECT_FALSE(json_parse(m.to_json(-1.0)).has("requests_per_sec"));
  EXPECT_FALSE(
      json_parse(m.to_json(std::numeric_limits<double>::infinity())).has("requests_per_sec"));
  EXPECT_FALSE(
      json_parse(m.to_json(std::numeric_limits<double>::quiet_NaN())).has("requests_per_sec"));
  EXPECT_DOUBLE_EQ(json_parse(m.to_json(2.0)).at("requests_per_sec").number(), 0.5);
}

TEST(ServeMetricsTest, LatencyQuantilesReportBucketMidpoints) {
  ServeMetrics m;
  m.record_request(100);  // bucket [64, 128), midpoint 96
  const JsonValue doc = json_parse(m.to_json());
  EXPECT_DOUBLE_EQ(doc.at("latency_mean_us").number(), 100.0);
  EXPECT_GE(doc.at("latency_p50_us").number(), 64.0);
  EXPECT_LT(doc.at("latency_p50_us").number(), 128.0);
  EXPECT_DOUBLE_EQ(doc.at("latency_p50_us").number(), 96.0);
  EXPECT_GE(doc.at("latency_p99_us").number(), doc.at("latency_p50_us").number());
  // p999 is part of the stable JSON schema, for latency and for every stage.
  EXPECT_TRUE(doc.has("latency_p999_us"));
  m.record_stage("decode", 10);
  const JsonValue doc2 = json_parse(m.to_json());
  EXPECT_TRUE(doc2.at("stages").at("decode").has("p999_us"));
}

TEST(LatencyHistogramTest, ConstantStreamReportsItself) {
  // Regression: the upper-edge estimate reported p50 = 2us for a stream of
  // 1us samples (up to 2x overstatement). The midpoint of [1, 2) is 1.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(1);
  EXPECT_EQ(h.quantile_micros(0.50), 1u);
  EXPECT_EQ(h.quantile_micros(0.99), 1u);
  EXPECT_EQ(h.quantile_micros(0.999), 1u);
  EXPECT_EQ(h.quantile_micros(1.0), 1u);
}

TEST(LatencyHistogramTest, QuantilesStayWithinTheSampleBucket) {
  // Every quantile of a constant stream must land inside the bucket holding
  // the value — the midpoint can under- or over-shoot the sample by at most
  // half the bucket width, never a full 2x.
  for (std::uint64_t micros : {1u, 3u, 100u, 5000u, 1000000u}) {
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i) h.record(micros);
    const std::uint64_t q = h.quantile_micros(0.5);
    // Find the bucket bounds [2^b, 2^(b+1)) containing the sample.
    std::uint64_t lo = 1;
    while (lo * 2 <= micros) lo *= 2;
    EXPECT_GE(q, lo) << micros;
    EXPECT_LT(q, lo * 2) << micros;
    EXPECT_LE(q, micros + lo / 2) << micros;  // midpoint error bound
  }
}

TEST(LatencyHistogramTest, P999IsolatesTheTailThatP99Misses) {
  // 1% of samples are 100x slower. p99's rank lands exactly on the last fast
  // sample; p999 must land in the slow bucket.
  LatencyHistogram h;
  for (int i = 0; i < 990; ++i) h.record(1);
  for (int i = 0; i < 10; ++i) h.record(10000);  // bucket [8192, 16384)
  EXPECT_EQ(h.quantile_micros(0.50), 1u);
  EXPECT_EQ(h.quantile_micros(0.99), 1u);
  EXPECT_EQ(h.quantile_micros(0.999), 12288u);  // midpoint of [8192, 16384)
  EXPECT_EQ(h.quantile_micros(1.0), 12288u);
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneInQ) {
  LatencyHistogram h;
  for (std::uint64_t v : {1u, 2u, 4u, 8u, 50u, 100u, 900u, 7000u, 100000u}) h.record(v);
  std::uint64_t prev = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t v = h.quantile_micros(q);
    EXPECT_GE(v, prev) << q;
    prev = v;
  }
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile_micros(0.5), 0u);
  EXPECT_EQ(h.quantile_micros(0.999), 0u);
  EXPECT_EQ(h.mean_micros(), 0.0);
}

// The serve event counters are reads of the process registry: each
// top-level key equals its "serve.<key>" entry under process.counters in the
// same scrape, and moves when only the registry counter is bumped.
TEST(ServeMetricsTest, EventCountersAreReadsOfTheProcessRegistry) {
  const ServeMetrics m;
  const char* keys[] = {"shed",         "deadline_exceeded",   "accept_errors",  "rate_limited",
                        "conn_evicted", "replica_quarantines", "replica_restarts"};
  const JsonValue before = json_parse(m.to_json());
  for (const char* key : keys) stats::counter(std::string("serve.") + key).add(3);
  const JsonValue after = json_parse(m.to_json());
  const JsonValue& counters = after.at("process").at("counters");
  for (const char* key : keys) {
    EXPECT_EQ(after.at(key).number(), before.at(key).number() + 3) << key;
    EXPECT_EQ(after.at(key).number(), counters.at(std::string("serve.") + key).number()) << key;
  }
}

}  // namespace
}  // namespace flashgen::serve
