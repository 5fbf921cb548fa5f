// flashgen-bench: shared declarations for the benchmark driver.
//
// One binary runs one workload per invocation (see workloads.cpp):
//   generate_unet      open-loop generates against a served cVAE-GAN
//   generate_frontend  the same load against the tensor-free Gaussian model
//                      (ungated: not in BENCHMARK.json, run the binary directly)
//   train_stream       streamed training through fit_stream, no server
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) repeats the workload with in-memory spans around the
// benchmark's own calls into the library and adds the per-layer profile
// (layers.cpp) and served read-threshold queries on the (P/E,
// retention)-conditioned model. The last stdout line is always one JSON
// result object.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/generative_model.h"
#include "models/networks.h"
#include "pipeline/prefetch.h"

namespace fgbench {

namespace data = flashgen::data;
namespace models = flashgen::models;
namespace pipeline = flashgen::pipeline;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        Clock::now().time_since_epoch())
                                        .count());
}

/// Process CPU time (user + system) in microseconds.
double process_cpu_us();
/// Peak resident set size of this process in MB.
double peak_rss_mb();

// ---- statistics ----------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample; 0 when empty.
double quantile(std::vector<double> sample, double q);
double median(std::vector<double> sample);

/// A tail percentile that is only reported where the sample supports it:
/// when fewer than 10 samples lie beyond `wanted`, the highest percentile
/// that keeps 10 beyond it is used instead and `q` says which one it was.
struct Tail {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
};
Tail tail(const std::vector<double>& sample, double wanted);

/// Splits [0, seconds) into `windows` equal windows by `at_s` and returns
/// the lowest per-window median of `values` (windows with fewer than 5
/// samples are skipped). A regression slows every window; contention from
/// outside the process usually spares some, so the best window repeats.
double best_window_median(const std::vector<double>& at_s, const std::vector<double>& values,
                          double seconds, int windows);

// ---- run record ----------------------------------------------------------

/// Everything one invocation measured: named metrics with units, the
/// operation counts for the result line, and notes for the text report.
class Run {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double value(const std::string& name) const;
  void note(const std::string& line);
  /// Counts operations; `failed` ones also fail the run's output check.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Entry {
    double value;
    std::string unit;
  };
  const std::map<std::string, Entry>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans opened with Scope nest
/// per thread (the parent is the innermost open scope on the same thread);
/// add() records an already-finished span with an explicit parent.
/// Recording is off unless enabled, and costs one branch when off.
class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
    int parent = -1;
    std::uint64_t request_id = 0;
    double flops = 0.0;
  };

  static Spans& global();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int add(const std::string& name, std::uint64_t t0_ns, std::uint64_t t1_ns, int parent,
          std::uint64_t request_id = 0, double flops = 0.0);
  std::vector<Span> snapshot() const;
  void rename(int index, const std::string& name);

  /// RAII span on the calling thread's stack.
  class Scope {
   public:
    explicit Scope(const char* name, std::uint64_t request_id = 0, double flops = 0.0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of the recorded span (valid after destruction), or -1 when off.
    int index() const { return index_; }

   private:
    int index_ = -1;
  };

 private:
  bool enabled_ = false;
};

/// Per-name roll-up of recorded spans: calls, total and self time (total
/// minus direct children) and GFLOP/s where spans carry a FLOP count.
struct RollupRow {
  std::string name;
  std::uint64_t calls = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double flops = 0.0;
  double gflops() const { return total_us > 0.0 ? flops / (total_us * 1e3) : 0.0; }
};
std::vector<RollupRow> rollup(const std::vector<Spans::Span>& spans);
std::string rollup_text(const std::vector<RollupRow>& rows);
std::string rollup_json(const std::vector<RollupRow>& rows);

// ---- options and provenance ------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Seconds a full run measures; a run shorter than this is marked short
  /// and never eligible as a baseline.
  double full_seconds = 20.0;
  std::string results_dir;  // where the JSON result file goes
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

/// Phase lengths scale with --seconds; `fraction` of the run's budget.
inline double phase_seconds(const Options& options, double fraction) {
  return options.seconds * fraction;
}

// ---- open-loop driver (driver.cpp) -------------------------------------------

/// One phase of open-loop load: generates at a fixed rate, plus optional
/// threshold queries at given offsets, over pipelined TCP connections, all
/// driven from the calling thread.
struct ThresholdOp {
  double at_s = 0.0;  // offset from phase start
  data::Condition condition;
  bool expect_cached = false;  // schedule says this repeats a recent condition
};

struct PhaseSpec {
  std::string endpoint;
  std::string model;
  std::uint32_t side = 16;
  int connections = 4;
  double rps = 100.0;
  double seconds = 1.0;
  /// Request ids (and RNG streams) start here so phases never reuse one.
  std::uint64_t first_id = 0;
  std::uint64_t seed = 1;
  /// Normalized PL arrays; request id i sends pool[i % pool.size()].
  const std::vector<std::vector<float>>* pl_pool = nullptr;
  std::vector<ThresholdOp> thresholds;
  /// Generate replies whose id is a multiple of this are kept for the
  /// bit-exactness check (0 keeps none).
  std::uint64_t capture_every = 0;
  /// Stop sending once this many requests are in flight (0 = never): the
  /// phase is then marked aborted and only drains. Keeps an overloaded
  /// ladder rung under the server's per-connection pipelining cap.
  std::size_t max_in_flight = 0;
  /// Closed-window mode when > 0: ignore `rps` and keep exactly this many
  /// generates in flight for `seconds`, so the server runs saturated.
  std::size_t window = 0;
  /// ACK every reply at once; false leaves ACKs to the kernel's delayed-ACK
  /// default, as the library's Client does (see driver.cpp).
  bool quick_ack = true;
};

struct ThresholdReply {
  double latency_us = 0.0;
  bool from_cache = false;
  bool expect_cached = false;
  data::Condition condition;
  std::vector<std::uint8_t> payload;  // kThresholdOk payload, from_cache zeroed
};

struct PhaseResult {
  double rps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t threshold_ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t errors = 0;
  double elapsed_s = 0.0;
  double achieved_rps = 0.0;  // generate completions per second of the phase
  double cpu_us = 0.0;        // process CPU time spent during the phase
  bool aborted = false;  // hit max_in_flight and stopped sending
  std::vector<double> gen_latency_us;
  std::vector<double> gen_sched_s;  // scheduled offset of each gen_latency_us entry
  std::vector<double> send_lag_us;
  std::vector<ThresholdReply> threshold_replies;
  std::map<std::uint64_t, std::vector<float>> captured;  // id -> voltages
  std::uint64_t failures() const { return shed + rate_limited + errors; }
};

PhaseResult run_phase(const PhaseSpec& spec);
std::string phase_summary(const char* label, const PhaseResult& r);

/// Deterministic pool of normalized PL arrays for `seed`.
std::vector<std::vector<float>> make_pl_pool(std::uint64_t seed, int side, int count);

// ---- shared model recipes (workloads.cpp) -------------------------------------

/// The served geometry: small_experiment_config()'s network (side 16,
/// nf 16, z 8).
models::NetworkConfig unet_network();
/// Seeded, untrained cVAE-GAN / (P/E, retention)-conditioned cVAE-GAN.
std::unique_ptr<models::GenerativeModel> make_unet(std::uint64_t seed);
std::unique_ptr<models::GenerativeModel> make_temporal(std::uint64_t seed);
/// The canonical 3x2 (P/E, retention) grid.
std::vector<data::Condition> condition_grid();
/// Training hyper-parameters shared by the seeded fits and train_stream.
models::TrainConfig train_config(int epochs);
/// Streamed-sample recipe on the grid: `arrays` samples per epoch.
pipeline::StreamConfig stream_config(std::uint64_t seed, int arrays);
/// FNV-1a over every parameter and buffer of the model.
std::uint64_t weight_digest(models::GenerativeModel& model);

// ---- per-layer profile (layers.cpp) -------------------------------------------

/// SampleSource wrapper that times how long the trainer blocks on data.
class TimingSource : public pipeline::SampleSource {
 public:
  explicit TimingSource(pipeline::SampleSource& inner) : inner_(inner) {}
  flashgen::tensor::Index global_batch() const override { return inner_.global_batch(); }
  flashgen::tensor::Index batch_rows() const override { return inner_.batch_rows(); }
  std::int64_t batches_per_epoch() const override { return inner_.batches_per_epoch(); }
  int array_size() const override { return inner_.array_size(); }
  void begin_epoch(std::int64_t epoch, flashgen::Rng& rng) override {
    inner_.begin_epoch(epoch, rng);
  }
  void skip_batches(std::int64_t n) override { inner_.skip_batches(n); }
  std::pair<flashgen::tensor::Tensor, flashgen::tensor::Tensor> next_batch() override;
  Batch next_batch_cond() override;
  std::uint64_t cursor() const override { return inner_.cursor(); }

  /// Per-call wait (seconds) and the time each call returned.
  const std::vector<double>& waits() const { return waits_; }
  const std::vector<Clock::time_point>& returned() const { return returned_; }

 private:
  pipeline::SampleSource& inner_;
  std::vector<double> waits_;
  std::vector<Clock::time_point> returned_;
};

/// pipeline.wait_ms (data wait per step) and pipeline.stall_share (share of
/// wall time spent waiting) over the steps after the first `warm`, ending at
/// `end` (when fit_stream returned).
void record_pipeline_metrics(const TimingSource& source, Clock::time_point end, std::size_t warm,
                             Run& run);
/// Each profile calls the library's public functions directly, under
/// spans, and records per_layer metrics into `run`. `temp_dir` holds the
/// temporary program trace files they parse.
void profile_engine(models::GenerativeModel& model, const std::string& temp_dir, Run& run);
void profile_train(const std::string& temp_dir, bool with_pipeline, Run& run);
/// `served_cold_p50_ms` is the served cache-miss p50 the in-process optimize
/// time is compared with (thresholds.fleet_overhead_ms).
void profile_thresholds(models::GenerativeModel& model, double served_cold_p50_ms, Run& run);
void profile_flash(Run& run);

// ---- workloads (workloads.cpp) ------------------------------------------------

void run_workload(const Options& options, Run& run);

}  // namespace fgbench
