// Serving metrics: latency histograms plus queue/throughput counters.
//
// One ServeMetrics instance is shared by the batcher (queue depth, batch
// sizes, per-stage timings) and the server front-end (request latency and
// errors). All methods are thread-safe; reads produce a consistent snapshot
// under the same mutex the writers take, so `to_json()` can be called while
// traffic is in flight — including before the first request, where every
// emitted number is still finite (no NaN/Inf from empty windows).
//
// The serve event counters "shed", "deadline_exceeded", "accept_errors",
// "rate_limited", "conn_evicted", "replica_quarantines" and
// "replica_restarts" are not kept here: `to_json()` reads them from the
// process-wide stats:: registry ("serve.<key>"), which the site that refuses
// or evicts bumps once per event. They are therefore process-wide; in a
// scrape taken while no event is being counted, each equals its
// "process.counters" entry.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace flashgen::serve {

/// Log-spaced latency histogram over [1us, ~17s). Bucket b covers
/// [2^b, 2^(b+1)) microseconds; the last bucket absorbs everything above.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 25;

  void record(std::uint64_t micros);
  /// Inverse-CDF lookup: midpoint of the bucket holding quantile q in
  /// [0, 1], so a constant stream reports its own value (to bucket
  /// resolution) instead of up to 2x high at the bucket's upper edge.
  /// Returns 0 when empty.
  std::uint64_t quantile_micros(double q) const;
  /// Arithmetic mean in microseconds; 0 when empty.
  double mean_micros() const;
  std::uint64_t count() const { return count_; }
  std::uint64_t total_micros() const { return total_micros_; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_micros_ = 0;
};

class ServeMetrics {
 public:
  void record_request(std::uint64_t latency_micros);
  void record_batch(std::size_t batch_size);
  void record_enqueue(std::size_t queue_depth_after);
  /// Request answered with kError (counted by the server, once per frame).
  void record_error();
  /// Latency sample for one named pipeline stage (e.g. "decode",
  /// "queue_wait", "infer", "write"). Stages appear in the JSON under
  /// "stages" keyed by name; names should be string literals from a small
  /// fixed set (each distinct name owns a histogram for the process life).
  void record_stage(const std::string& stage, std::uint64_t micros);
  /// Batch-size ceiling used as the occupancy denominator (the batcher's
  /// max_batch_size). 0 (the default) reports occupancy 0.
  void set_batch_capacity(std::size_t max_batch);

  /// JSON object with request/batch counters, latency quantiles and
  /// per-stage summaries, batch occupancy, peak queue depth, and a
  /// "process" sub-object embedding the global stats registry
  /// (stats::to_json). Every number is finite for every window size,
  /// including an empty one. `elapsed_seconds` > 0 adds requests-per-second.
  std::string to_json(double elapsed_seconds = 0.0) const;

 private:
  mutable std::mutex mutex_;
  LatencyHistogram latency_;
  std::map<std::string, LatencyHistogram> stages_;
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_rows_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t batch_capacity_ = 0;
  std::size_t queue_depth_peak_ = 0;
};

}  // namespace flashgen::serve
