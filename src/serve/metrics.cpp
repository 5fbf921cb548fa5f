#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/stats.h"

namespace flashgen::serve {

namespace {
int bucket_for(std::uint64_t micros) {
  int b = 0;
  while (b + 1 < LatencyHistogram::kBuckets && (std::uint64_t{1} << (b + 1)) <= micros) ++b;
  return b;
}

// All derived metrics funnel through these two guards so an empty or
// single-sample window can never leak NaN/Inf into the JSON (which most
// parsers reject outright).
double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

// Serve events counted only in the stats:: registry, as "serve.<key>"; the
// JSON reports them under "<key>" in this order.
constexpr const char* kEventCounters[] = {
    "shed",         "deadline_exceeded",   "accept_errors",   "rate_limited",
    "conn_evicted", "replica_quarantines", "replica_restarts"};
}  // namespace

void LatencyHistogram::record(std::uint64_t micros) {
  ++buckets_[static_cast<std::size_t>(bucket_for(micros))];
  ++count_;
  total_micros_ += micros;
}

std::uint64_t LatencyHistogram::quantile_micros(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based, so q=1 is the max sample's bucket.
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      // Midpoint of [2^b, 2^(b+1)): the unbiased point estimate for the
      // bucket. The upper edge overstated every quantile by up to 2x — a
      // constant 1us stream reported p50 = 2us.
      const std::uint64_t lo = std::uint64_t{1} << b;
      return lo + lo / 2;
    }
  }
  return std::uint64_t{1} << kBuckets;
}

double LatencyHistogram::mean_micros() const {
  return safe_ratio(static_cast<double>(total_micros_), static_cast<double>(count_));
}

void ServeMetrics::record_request(std::uint64_t latency_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++requests_;
  latency_.record(latency_micros);
}

void ServeMetrics::record_batch(std::size_t batch_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++batches_;
  batched_rows_ += batch_size;
  max_batch_ = std::max(max_batch_, batch_size);
}

void ServeMetrics::record_enqueue(std::size_t queue_depth_after) {
  std::lock_guard<std::mutex> lock(mutex_);
  queue_depth_peak_ = std::max(queue_depth_peak_, queue_depth_after);
}

void ServeMetrics::record_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++errors_;
}

void ServeMetrics::record_stage(const std::string& stage, std::uint64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  stages_[stage].record(micros);
}

void ServeMetrics::set_batch_capacity(std::size_t max_batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  batch_capacity_ = max_batch;
}

std::string ServeMetrics::to_json(double elapsed_seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{";
  out << "\"requests\": " << requests_;
  out << ", \"errors\": " << errors_;
  for (const char* key : kEventCounters) {
    out << ", \"" << key << "\": " << stats::counter(std::string("serve.") + key).value();
  }
  out << ", \"batches\": " << batches_;
  out << ", \"batched_rows\": " << batched_rows_;
  out << ", \"max_batch_size\": " << max_batch_;
  out << ", \"batch_capacity\": " << batch_capacity_;
  const double mean_batch =
      safe_ratio(static_cast<double>(batched_rows_), static_cast<double>(batches_));
  out << ", \"batch_mean_size\": " << finite_or_zero(mean_batch);
  // Occupancy in [0, 1]: how full the average executed batch was.
  out << ", \"batch_occupancy\": "
      << finite_or_zero(safe_ratio(mean_batch, static_cast<double>(batch_capacity_)));
  out << ", \"queue_depth_peak\": " << queue_depth_peak_;
  out << ", \"latency_mean_us\": " << finite_or_zero(latency_.mean_micros());
  out << ", \"latency_p50_us\": " << latency_.quantile_micros(0.50);
  out << ", \"latency_p90_us\": " << latency_.quantile_micros(0.90);
  out << ", \"latency_p99_us\": " << latency_.quantile_micros(0.99);
  out << ", \"latency_p999_us\": " << latency_.quantile_micros(0.999);
  if (std::isfinite(elapsed_seconds) && elapsed_seconds > 0.0) {
    out << ", \"requests_per_sec\": "
        << finite_or_zero(static_cast<double>(requests_) / elapsed_seconds);
  }
  out << ", \"stages\": {";
  bool first = true;
  for (const auto& [name, hist] : stages_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {";
    out << "\"count\": " << hist.count();
    out << ", \"mean_us\": " << finite_or_zero(hist.mean_micros());
    out << ", \"p50_us\": " << hist.quantile_micros(0.50);
    out << ", \"p99_us\": " << hist.quantile_micros(0.99);
    out << ", \"p999_us\": " << hist.quantile_micros(0.999);
    out << "}";
    first = false;
  }
  out << "}";
  out << ", \"process\": " << stats::to_json();
  out << "}";
  return out.str();
}

}  // namespace flashgen::serve
