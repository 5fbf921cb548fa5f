// The three workloads. Each one: sets up three times (setup_s is the median),
// keeps the last set-up, measures for about --seconds, checks its outputs,
// and records metrics into the Run. With --trace 1 it then adds the
// per-layer profile (layers.cpp), the served threshold queries
// (profile_served_thresholds) and the tracing overhead.
//
// Generic end-to-end metrics (every workload reports all of them):
//   setup_s      median of three set-ups
//   peak_rss_mb  peak resident memory of the process
//   p50_ms       median latency of the workload's unit of work, in the best
//                of several windows (see best_window_median)
//   rate_per_s   the workload's capacity
// and what they are per workload:
//   generate_*       p50_ms = generate at the low fixed rate (best of
//                    sixteen windows), rate_per_s = completion rate with a
//                    fixed number of requests in flight (best of four phases)
//   train_stream     p50_ms = one training step (best fit's median),
//                    rate_per_s = training samples per second (best fit)
// The workload-specific figures (tails, plain medians) are recorded too and
// reported with the per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <set>
#include <sstream>
#include <utility>

#include "bench.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/threshold_service.h"
#include "thresholds/model_sampler.h"
#include "thresholds/optimizer.h"

namespace fgbench {

namespace core = flashgen::core;
namespace serve = flashgen::serve;
namespace tensor = flashgen::tensor;
namespace thresholds = flashgen::thresholds;
using flashgen::Rng;

// ---- shared recipes ------------------------------------------------------------

models::NetworkConfig unet_network() { return core::small_experiment_config().network; }

std::unique_ptr<models::GenerativeModel> make_unet(std::uint64_t seed) {
  return core::make_model(core::ModelKind::CvaeGan, unet_network(), seed);
}

std::unique_ptr<models::GenerativeModel> make_temporal(std::uint64_t seed) {
  return core::make_model(core::ModelKind::Temporal,
                          core::small_temporal_experiment_config().network, seed);
}

std::vector<data::Condition> condition_grid() {
  return core::small_temporal_experiment_config().train_conditions;
}

models::TrainConfig train_config(int epochs) {
  const core::ExperimentConfig small = core::small_experiment_config();
  models::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = small.batch_size;
  config.lr = small.lr;
  config.alpha = small.alpha;
  config.beta = small.beta;
  config.log_every = 0;
  return config;
}

pipeline::StreamConfig stream_config(std::uint64_t seed, int arrays) {
  pipeline::StreamConfig stream;
  stream.dataset.array_size = static_cast<int>(unet_network().array_size);
  stream.dataset.num_arrays = arrays;
  // Simulate blocks the size of the crop: only the crop enters the stream.
  stream.dataset.channel.rows = stream.dataset.array_size;
  stream.dataset.channel.cols = stream.dataset.array_size;
  stream.seed = seed;
  stream.conditions = condition_grid();
  return stream;
}

std::uint64_t weight_digest(models::GenerativeModel& model) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& named : model.root_module().named_state()) {
    const auto values = named.tensor.data();
    const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
    for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

namespace {

constexpr int kSetups = 3;
constexpr std::uint64_t kWeightSeed = 7;  // fixed: weights never depend on --seed
constexpr double kStepsPerSecond = 18.0;  // train_stream steps per second of --seconds

void copy_weights(models::GenerativeModel& from, models::GenerativeModel& to) {
  const auto src = from.root_module().named_state();
  auto dst = to.root_module().named_state();
  FG_CHECK(src.size() == dst.size(), "copy_weights: module trees differ");
  for (std::size_t i = 0; i < src.size(); ++i) {
    auto out = dst[i].tensor.data();
    const auto in = src[i].tensor.data();
    FG_CHECK(in.size() == out.size(), "copy_weights: " << src[i].name << " differs");
    std::copy(in.begin(), in.end(), out.begin());
  }
}

// ---- served set-up -----------------------------------------------------------------

// Members are destroyed in reverse order: the server before the registry
// it serves from.
struct Served {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<models::GenerativeModel> reference;  // same weights, never served
  std::string model;
};

/// Builds the training data, fits the model with a fixed seed, builds the
/// replicas and starts the server on a free localhost port.
std::unique_ptr<Served> setup_served(core::ModelKind kind, int replicas) {
  auto served = std::make_unique<Served>();
  served->model = core::to_string(kind);
  const int side = static_cast<int>(unet_network().array_size);
  data::DatasetConfig dataset_config;
  dataset_config.array_size = side;
  dataset_config.channel.rows = 64;
  dataset_config.channel.cols = 64;
  Rng data_rng(2024);
  std::optional<data::PairedDataset> dataset;
  if (kind == core::ModelKind::Temporal) {
    dataset_config.num_arrays = 16;  // per grid condition
    dataset.emplace(data::PairedDataset::generate_multi(dataset_config, condition_grid(), data_rng));
  } else {
    dataset_config.num_arrays = 96;
    dataset.emplace(data::PairedDataset::generate(dataset_config, data_rng));
  }
  const auto make = [&](std::uint64_t seed) {
    return kind == core::ModelKind::Temporal ? make_temporal(seed)
                                             : core::make_model(kind, unet_network(), seed);
  };
  const auto fitted = [&] {
    auto model = make(kWeightSeed);
    Rng rng(2);
    model->fit(*dataset, train_config(1), rng);
    return model;
  };
  auto first = fitted();
  // Network replicas copy the fitted weights; the Gaussian baseline keeps
  // derived state outside its module tree, so it is fitted again instead.
  const auto replica = [&] {
    if (kind == core::ModelKind::Gaussian) return fitted();
    auto copy = make(kWeightSeed);
    copy_weights(*first, *copy);
    return copy;
  };
  served->reference = replica();
  served->registry = std::make_unique<serve::ModelRegistry>();
  std::vector<std::unique_ptr<models::GenerativeModel>> extra;
  for (int r = 1; r < replicas; ++r) extra.push_back(replica());
  served->registry->add(served->model, std::move(first), tensor::Shape{1, side, side}, 8);
  for (auto& m : extra) served->registry->add_replica(served->model, std::move(m), 8);

  serve::ServerOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.policy.max_batch_size = 8;
  options.policy.max_wait_micros = 200;
  options.policy.max_queue_depth = 0;  // latency bench: measure queueing, never shed
  served->server = std::make_unique<serve::Server>(*served->registry, options);
  served->server->start();
  return served;
}

/// Runs `setup` kSetups times, keeps the last result, records setup_s.
template <typename Setup>
auto timed_setups(Setup&& setup, Run& run) {
  std::vector<double> seconds;
  decltype(setup()) kept;
  for (int i = 0; i < kSetups; ++i) {
    kept = {};  // tear the previous one down outside the timed region
    const auto t0 = Clock::now();
    kept = setup();
    seconds.push_back(seconds_since(t0));
  }
  run.metric("setup_s", median(seconds), "s");
  std::ostringstream os;
  os << "setup_s runs:";
  for (double s : seconds) os << ' ' << s;
  run.note(os.str());
  return kept;
}

// ---- serve-side metrics and checks ---------------------------------------------------------

double stage_mean(const flashgen::common::JsonValue& m, const char* stage) {
  const auto& stages = m.at("stages");
  return stages.has(stage) ? stages.at(stage).at("mean_us").number() : 0.0;
}

/// Reads the server's metrics snapshot; a quarantined replica fails the run.
void record_server_metrics(serve::Server& server, double cpu_us, std::uint64_t completed,
                           Run& run) {
  const auto m = flashgen::common::json_parse(server.metrics().to_json());
  const double quarantines = m.at("replica_quarantines").number();
  if (quarantines > 0) run.fail("replica quarantined during the run");
  run.metric("serve.replica_quarantines", quarantines, "count");
  run.metric("serve.decode_us", stage_mean(m, "decode"), "us");
  run.metric("serve.write_us", stage_mean(m, "write"), "us");
  run.metric("serve.queue_wait_us", stage_mean(m, "queue_wait"), "us");
  run.metric("serve.infer_wait_us", stage_mean(m, "infer_wait"), "us");
  run.metric("serve.queue_depth_peak", m.at("queue_depth_peak").number(), "count");
  run.metric("serve.batch_mean_size", m.at("batch_mean_size").number(), "rows");
  run.metric("serve.batch_occupancy", m.at("batch_occupancy").number(), "ratio");
  run.metric("serve.cpu_us_per_req", completed > 0 ? cpu_us / static_cast<double>(completed) : 0.0,
             "us");
}

/// Records per-layer metrics a workload does not exercise as explicit zeros,
/// so that run.py can treat any other missing metric as an error.
void not_exercised(std::initializer_list<std::pair<const char*, const char*>> metrics, Run& run) {
  for (const auto& [name, unit] : metrics) run.metric(name, 0.0, unit);
}

/// Counts a phase's operations and its refused/failed ones.
void account(const PhaseResult& r, Run& run) {
  run.attempt(r.sent);
  if (r.shed) run.fail("shed replies", r.shed);
  if (r.rate_limited) run.fail("rate-limited replies", r.rate_limited);
  if (r.errors) run.fail("error replies", r.errors);
}

/// Captured generate replies must equal an in-process generate_into on a
/// replica with the same weights, bit for bit.
void check_generates(const PhaseResult& r, serve::InferenceEngine& engine,
                     const std::vector<std::vector<float>>& pool, std::uint64_t seed, int side,
                     Run& run) {
  for (const auto& [id, voltages] : r.captured) {
    const auto& pl = pool[id % pool.size()];
    const tensor::Tensor input = tensor::Tensor::from_data(tensor::Shape{1, 1, side, side}, pl);
    std::vector<Rng> rngs{Rng::from_stream(seed, id)};
    std::vector<float> expected(pl.size());
    engine.generate_into(input, rngs, expected);
    run.attempt();
    if (voltages.size() != expected.size() ||
        std::memcmp(voltages.data(), expected.data(), expected.size() * sizeof(float)) != 0)
      run.fail("generate reply " + std::to_string(id) + " differs from generate_into");
  }
}

struct Ladder {
  double max_rps = 0.0;
  std::vector<PhaseResult> rungs;
};

/// gen_max_rps: the highest rate on the fixed geometric ladder
/// start * 1.025^i whose phase keeps p99 within the limit, sustains at least
/// 97% of the offered rate and fails nothing. The search climbs with short
/// phases in jumps of 16 rungs (48%), then 4 rungs, each stage stopping at
/// its first miss; the full-length stage then starts at the last pass and
/// climbs one rung at a time to its first miss (or, if that rung misses,
/// steps down to the first pass). A rung misses only when a second attempt
/// at the same rate misses too, so one host hiccup in a short phase does not
/// end the search. No phase runs beyond a rate that missed.
Ladder rate_ladder(PhaseSpec spec, double start_rps, double p99_limit_us, double coarse_s,
                   double fine_s, std::uint64_t& next_id, Run& run) {
  constexpr double kStep = 1.025;
  constexpr int kMaxFineRungs = 6;
  Ladder ladder;
  const auto attempt = [&](int i, double seconds) {
    spec.rps = start_rps * std::pow(kStep, i);
    spec.seconds = seconds;
    spec.first_id = next_id;
    PhaseResult r = run_phase(spec);
    next_id += r.sent;
    account(r, run);
    const bool pass = !r.aborted && r.failures() == 0 &&
                      tail(r.gen_latency_us, 0.99).value <= p99_limit_us &&
                      r.achieved_rps >= 0.97 * spec.rps;
    char label[48];
    std::snprintf(label, sizeof label, "ladder %s %d", pass ? "pass" : "miss", i);
    run.note(phase_summary(label, r));
    ladder.rungs.push_back(std::move(r));
    return pass;
  };
  const auto rung = [&](int i, double seconds) {
    return attempt(i, seconds) || attempt(i, seconds);
  };
  int base = 0;
  spec.max_in_flight = 2048 * static_cast<std::size_t>(spec.connections);
  for (int jump : {16, 4})
    while (rung(base + jump, coarse_s)) base += jump;
  int i = base;
  int last_pass = base - kMaxFineRungs;  // none yet
  if (rung(i, fine_s)) {
    last_pass = i;
    while (i < base + kMaxFineRungs && rung(++i, fine_s)) last_pass = i;
  } else {
    while (i > base - kMaxFineRungs) {
      if (rung(--i, fine_s)) {
        last_pass = i;
        break;
      }
    }
  }
  ladder.max_rps = last_pass > base - kMaxFineRungs ? start_rps * std::pow(kStep, last_pass) : 0.0;
  return ladder;
}

// ---- served thresholds (traced runs) --------------------------------------------------------

/// Distinct cache buckets: every cold query gets a condition no earlier
/// query in the run quantised to.
class ConditionDraw {
 public:
  explicit ConditionDraw(std::uint64_t seed) : rng_(Rng::from_stream(seed, 0x7451)) {}
  data::Condition next() {
    for (;;) {
      const long pe = 10 + static_cast<long>(rng_.uniform_int(70));  // 1000..7999 cycles
      const long ret = static_cast<long>(rng_.uniform_int(21));       // 0..503 hours
      if (!used_.insert({pe, ret}).second) continue;
      return {100.0 * static_cast<double>(pe) + 50.0, 24.0 * static_cast<double>(ret) + 12.0};
    }
  }

 private:
  Rng rng_;
  std::set<std::pair<long, long>> used_;
};

/// The thresholds layer end to end: the (P/E, retention)-conditioned model
/// served with 2 replicas, 100 background generates/s, and a threshold query
/// at a first-time condition (cache miss) every kColdEvery seconds, each
/// repeated 0.3 s later (cache hit). kColdQueries cold queries put 10 beyond
/// their p90; the spacing keeps the replicas about a third busy, so a
/// repeat finds its cold query answered even when sampling runs 2x slower.
/// Replies are checked against an in-process optimizer over ModelSampler,
/// which then gives the in-process layer profile.
void profile_served_thresholds(const Options& options, Run& run) {
  constexpr int kColdQueries = 100;
  constexpr double kColdEvery = 0.3;
  auto served = setup_served(core::ModelKind::Temporal, 2);
  const int side = static_cast<int>(unet_network().array_size);
  const auto pool = make_pl_pool(options.seed, side, 256);
  ConditionDraw draw(options.seed);
  PhaseSpec spec;
  spec.endpoint = served->server->endpoint();
  spec.model = served->model;
  spec.side = static_cast<std::uint32_t>(side);
  spec.seed = options.seed;
  spec.pl_pool = &pool;
  spec.capture_every = 29;
  spec.rps = 100.0;
  spec.seconds = kColdEvery * kColdQueries + 0.1;
  for (int i = 0; i < kColdQueries; ++i) {
    const double t = 0.05 + kColdEvery * i;
    const data::Condition c = draw.next();
    spec.thresholds.push_back(ThresholdOp{t, c, false});
    spec.thresholds.push_back(ThresholdOp{t + 0.3, c, true});
  }
  std::stable_sort(spec.thresholds.begin(), spec.thresholds.end(),
                   [](const ThresholdOp& a, const ThresholdOp& b) { return a.at_s < b.at_s; });
  const PhaseResult mixed = run_phase(spec);
  account(mixed, run);
  run.note(phase_summary("thresholds", mixed));

  std::vector<double> cold_us, warm_us;
  for (const ThresholdReply& reply : mixed.threshold_replies) {
    if (reply.from_cache != reply.expect_cached)
      run.fail("threshold reply cache state differs from the schedule");
    (reply.from_cache ? warm_us : cold_us).push_back(reply.latency_us);
  }
  const Tail cold_tail = tail(cold_us, 0.90);
  const Tail gen_tail = tail(mixed.gen_latency_us, 0.99);
  run.metric("thr_cold_p50_ms", median(cold_us) / 1e3, "ms");
  run.metric("thr_cold_p90_ms", cold_tail.value / 1e3, "ms");
  run.metric("thr_warm_p50_us", median(warm_us), "us");
  run.metric("thr_gen_p99_ms", gen_tail.value / 1e3, "ms");
  run.note("thr_cold tail is p" + std::to_string(100.0 * cold_tail.q) + " of " +
           std::to_string(cold_tail.n) + " samples; thr_gen tail is p" +
           std::to_string(100.0 * gen_tail.q) + " of " + std::to_string(gen_tail.n));
  run.metric("thresholds.cache_hit_ratio",
             static_cast<double>(warm_us.size()) /
                 static_cast<double>(warm_us.size() + cold_us.size()),
             "ratio");
  const auto m = flashgen::common::json_parse(served->server->metrics().to_json());
  if (m.at("replica_quarantines").number() > 0) run.fail("replica quarantined during the run");

  served->server->stop();  // the reference model is used alone from here on
  serve::InferenceEngine engine(*served->reference);
  check_generates(mixed, engine, pool, options.seed, side, run);
  thresholds::ModelSampler sampler(*served->reference);
  thresholds::OptimizerConfig config;  // the server's: default, side = model side
  config.side = side;
  thresholds::ThresholdOptimizer optimizer(sampler, config);
  for (std::size_t i = 0; i < std::min<std::size_t>(6, mixed.threshold_replies.size()); ++i) {
    const ThresholdReply& reply = mixed.threshold_replies[i];
    std::vector<std::uint8_t> expected =
        serve::encode_threshold_response(serve::to_response(optimizer.optimize(reply.condition)));
    expected.back() = 0;
    run.attempt();
    if (expected != reply.payload) run.fail("threshold reply differs from ThresholdOptimizer");
  }
  profile_thresholds(*served->reference, run.value("thr_cold_p50_ms"), run);
}

// ---- generate workloads ----------------------------------------------------------------------

struct GenerateLoad {
  core::ModelKind kind;
  double low_rps, high_rps;
  double p99_limit_us;
  std::size_t window;  // requests in flight in the saturation phase
};

void run_generate(const Options& options, const GenerateLoad& load, Run& run) {
  auto served = timed_setups([&] { return setup_served(load.kind, 2); }, run);
  const int side = static_cast<int>(unet_network().array_size);
  const auto pool = make_pl_pool(options.seed, side, 256);
  PhaseSpec spec;
  spec.endpoint = served->server->endpoint();
  spec.model = served->model;
  spec.side = static_cast<std::uint32_t>(side);
  spec.seed = options.seed;
  spec.pl_pool = &pool;
  spec.capture_every = 41;
  std::uint64_t next_id = 0;
  const auto phase = [&](const char* label, double rps, double seconds) {
    spec.rps = rps;
    spec.seconds = seconds;
    spec.first_id = next_id;
    PhaseResult r = run_phase(spec);
    next_id += r.sent;
    account(r, run);
    run.note(phase_summary(label, r));
    return r;
  };
  phase("warm-up", load.low_rps, 0.3);
  // The low-rate and saturated phases alternate in kRounds rounds spread
  // over the run, with the high-rate phase in the middle, so their best
  // window or best phase is less likely to fall in one stretch of outside
  // contention.
  constexpr int kRounds = 4;
  const double low_s = phase_seconds(options, 0.35 / kRounds);
  std::vector<PhaseResult> lows, saturated;
  PhaseResult high;
  double saturated_rps = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    lows.push_back(phase("low", load.low_rps, low_s));
    spec.window = load.window;
    spec.capture_every = 997;  // a saturated frontend answers ~10^5 req/s
    saturated.push_back(phase("saturated", 0.0, phase_seconds(options, 0.3 / kRounds)));
    spec.window = 0;
    spec.capture_every = 41;
    saturated_rps = std::max(saturated_rps, saturated.back().achieved_rps);
    if (round == kRounds / 2 - 1) high = phase("high", load.high_rps, phase_seconds(options, 0.25));
  }
  PhaseResult low;  // the low phases as one sample, each offset by the ones before it
  for (std::size_t i = 0; i < lows.size(); ++i) {
    low.gen_latency_us.insert(low.gen_latency_us.end(), lows[i].gen_latency_us.begin(),
                              lows[i].gen_latency_us.end());
    for (double at : lows[i].gen_sched_s) low.gen_sched_s.push_back(at + low_s * i);
  }
  // Peak memory through the measured phases; the traced run's rate ladder
  // overloads the server on purpose and comes after.
  run.metric("peak_rss_mb", peak_rss_mb(), "MB");

  const Tail low_p99 = tail(low.gen_latency_us, 0.99);
  const Tail high_p99 = tail(high.gen_latency_us, 0.99);
  run.metric("gen_low_p50_ms", median(low.gen_latency_us) / 1e3, "ms");
  run.metric("gen_low_p99_ms", low_p99.value / 1e3, "ms");
  run.metric("gen_high_p50_ms", median(high.gen_latency_us) / 1e3, "ms");
  run.metric("gen_high_p99_ms", high_p99.value / 1e3, "ms");
  run.metric("gen_saturated_rps", saturated_rps, "req/s");
  run.note("gen_low tail is p" + std::to_string(100.0 * low_p99.q) + " of " +
           std::to_string(low_p99.n) + " samples; gen_high tail is p" +
           std::to_string(100.0 * high_p99.q) + " of " + std::to_string(high_p99.n));
  const double low_best_us =
      best_window_median(low.gen_sched_s, low.gen_latency_us, kRounds * low_s, 4 * kRounds);
  run.metric("p50_ms", low_best_us / 1e3, "ms");
  run.metric("rate_per_s", saturated_rps, "1/s");

  std::vector<const PhaseResult*> measured = {&high};
  for (const auto* group : {&lows, &saturated})
    for (const PhaseResult& r : *group) measured.push_back(&r);
  Ladder ladder;
  if (options.trace) {
    ladder = rate_ladder(spec, load.high_rps, load.p99_limit_us, phase_seconds(options, 0.025),
                         phase_seconds(options, 0.06), next_id, run);
    run.metric("gen_max_rps", ladder.max_rps, "req/s");
    if (ladder.max_rps <= 0.0) run.note("rate ladder: no rung passed");
    for (const PhaseResult& r : ladder.rungs) measured.push_back(&r);
  }

  std::vector<double> lag;
  double cpu_us = 0.0;
  std::uint64_t completed = 0;
  for (const PhaseResult* r : measured) {
    lag.insert(lag.end(), r->send_lag_us.begin(), r->send_lag_us.end());
    cpu_us += r->cpu_us;
    completed += r->ok;
  }
  run.metric("driver.send_lag_p99_us", quantile(lag, 0.99), "us");
  record_server_metrics(*served->server, cpu_us, completed, run);

  serve::InferenceEngine engine(*served->reference);
  for (const PhaseResult* r : measured) check_generates(*r, engine, pool, options.seed, side, run);

  if (options.trace) {
    // Tracing overhead: the low phase again with client spans off, then on.
    Spans::global().enable(false);
    const PhaseResult off = phase("overhead off", load.low_rps, phase_seconds(options, 0.1));
    Spans::global().enable(true);
    const PhaseResult on = phase("overhead on", load.low_rps, phase_seconds(options, 0.1));
    const double p50_off = median(off.gen_latency_us);
    run.metric("trace.overhead_pct", 100.0 * (median(on.gen_latency_us) - p50_off) / p50_off, "%");
    // The low rate once more with ACKs left to the kernel, as the library's
    // Client leaves them: what a caller sees while the server keeps Nagle on.
    spec.quick_ack = false;
    const PhaseResult delack = phase("low delack", load.low_rps, phase_seconds(options, 0.1));
    spec.quick_ack = true;
    run.metric("gen_low_delack_p50_ms", median(delack.gen_latency_us) / 1e3, "ms");
    run.metric("gen_low_delack_p99_ms", tail(delack.gen_latency_us, 0.99).value / 1e3, "ms");
    for (const PhaseResult* r : {&off, &on, &delack})
      check_generates(*r, engine, pool, options.seed, side, run);
    served->server->stop();
    const std::string temp_dir = options.results_dir;
    if (load.kind == core::ModelKind::Gaussian) {
      auto unet = make_unet(kWeightSeed);  // the served geometry, seeded weights
      profile_engine(*unet, temp_dir, run);
    } else {
      profile_engine(*served->reference, temp_dir, run);
    }
    profile_train(temp_dir, /*with_pipeline=*/true, run);
    profile_served_thresholds(options, run);
    profile_flash(run);
    not_exercised({{"train_samples_per_s", "samples/s"}}, run);
  }
}

// ---- train_stream -----------------------------------------------------------------------------

void run_train_stream(const Options& options, Run& run) {
  constexpr int kWarmSteps = 2;
  constexpr int kFits = 6;
  // Fixed step count per fit (the six fits take about --seconds on a
  // 4-CPU x86-64 host), so every fit in the set trains the same steps.
  const int steps =
      std::max(8, static_cast<int>(std::lround(options.seconds * kStepsPerSecond / kFits)));
  const std::uint64_t stream_seed = options.seed * 1000003ull + 17;
  struct FitInputs {
    std::unique_ptr<models::GenerativeModel> model;
    std::unique_ptr<pipeline::PrefetchSource> source;
  };
  const pipeline::PrefetchConfig prefetch{.workers = 1, .queue_depth = 4};
  const auto fit_inputs = [&] {
    auto in = std::make_unique<FitInputs>();
    in->model = make_temporal(kWeightSeed);
    in->source = std::make_unique<pipeline::PrefetchSource>(stream_config(stream_seed, 8 * steps),
                                                            8, prefetch);
    return in;
  };
  // Set-up: a two-step streamed warm-up fit on a throwaway model (primes
  // allocators and the producer path), then the measured fit's inputs.
  auto kept = timed_setups(
      [&] {
        auto warm = make_temporal(kWeightSeed);
        pipeline::PrefetchSource warm_source(stream_config(stream_seed + 1, 16), 8, prefetch);
        Rng rng(3);
        warm->fit_stream(warm_source, train_config(1), rng);
        return fit_inputs();
      },
      run);

  std::vector<double> rates, step_p50_ms;
  std::set<std::uint64_t> digests;
  for (int fit = 0; fit < kFits; ++fit) {
    std::unique_ptr<FitInputs> in = fit == 0 ? std::move(kept) : fit_inputs();
    TimingSource timed(*in->source);
    Rng rng(4);
    const models::TrainStats stats = in->model->fit_stream(timed, train_config(1), rng);
    const auto t_end = Clock::now();
    run.attempt(static_cast<std::uint64_t>(stats.steps));
    for (const auto* history : {&stats.g_loss_history, &stats.d_loss_history})
      for (float loss : *history)
        if (!std::isfinite(loss)) run.fail("non-finite training loss");
    digests.insert(weight_digest(*in->model));
    const auto& returned = timed.returned();
    const auto& waits = timed.waits();
    FG_CHECK(static_cast<int>(returned.size()) == steps, "train_stream: step count mismatch");
    // Timed window: from the call that fetched the first post-warm-up batch
    // to fit_stream's return.
    const auto first = returned[kWarmSteps] - std::chrono::duration_cast<Clock::duration>(
                                                  std::chrono::duration<double>(waits[kWarmSteps]));
    rates.push_back(8.0 * (steps - kWarmSteps) / std::chrono::duration<double>(t_end - first).count());
    std::vector<double> step_ms;
    for (int i = kWarmSteps; i + 1 < steps; ++i)
      step_ms.push_back(
          std::chrono::duration<double, std::milli>(returned[i + 1] - returned[i]).count());
    step_p50_ms.push_back(median(step_ms));
    if (options.trace && fit == 0) record_pipeline_metrics(timed, t_end, kWarmSteps, run);
    if (options.trace && fit == 1) {
      // Tracing overhead: fit 0 ran with source spans on, fit 1 without.
      run.metric("trace.overhead_pct", 100.0 * (rates[1] - rates[0]) / rates[1], "%");
    }
    if (options.trace) Spans::global().enable(fit != 0);
  }
  if (digests.size() != 1) run.fail("training runs in one set produced different weights");
  std::ostringstream fits_note;
  fits_note << "train_stream: " << kFits << " fits of " << steps << " steps, " << digests.size()
            << " distinct weight digest(s), samples/s per fit:";
  for (double r : rates) fits_note << ' ' << r;
  run.note(fits_note.str());
  run.metric("train_samples_per_s", median(rates), "samples/s");
  run.metric("p50_ms", *std::min_element(step_p50_ms.begin(), step_p50_ms.end()), "ms");
  run.metric("rate_per_s", *std::max_element(rates.begin(), rates.end()), "1/s");

  if (options.trace) {
    const std::string temp_dir = options.results_dir;
    auto temporal = make_temporal(kWeightSeed);
    profile_engine(*temporal, temp_dir, run);
    profile_train(temp_dir, /*with_pipeline=*/false, run);
    profile_served_thresholds(options, run);
    profile_flash(run);
    not_exercised({{"serve.decode_us", "us"},
                   {"serve.write_us", "us"},
                   {"serve.queue_wait_us", "us"},
                   {"serve.infer_wait_us", "us"},
                   {"serve.queue_depth_peak", "count"},
                   {"serve.batch_mean_size", "rows"},
                   {"serve.batch_occupancy", "ratio"},
                   {"serve.replica_quarantines", "count"},
                   {"serve.cpu_us_per_req", "us"},
                   {"driver.send_lag_p99_us", "us"},
                   {"gen_low_p50_ms", "ms"},
                   {"gen_low_p99_ms", "ms"},
                   {"gen_high_p50_ms", "ms"},
                   {"gen_high_p99_ms", "ms"},
                   {"gen_low_delack_p50_ms", "ms"},
                   {"gen_low_delack_p99_ms", "ms"},
                   {"gen_max_rps", "req/s"},
                   {"gen_saturated_rps", "req/s"}},
                  run);
  }
}

}  // namespace

void run_workload(const Options& options, Run& run) {
  if (options.workload == "generate_unet") {
    // Low and high fixed rates, ladder p99 limit, saturation window.
    run_generate(options, {core::ModelKind::CvaeGan, 200.0, 500.0, 25'000.0, 32}, run);
  } else if (options.workload == "generate_frontend") {
    run_generate(options, {core::ModelKind::Gaussian, 5'000.0, 20'000.0, 5'000.0, 256}, run);
  } else if (options.workload == "train_stream") {
    run_train_stream(options, run);
  } else {
    FG_CHECK(false, "unknown workload '" << options.workload << "'");
  }
  if (!run.has("peak_rss_mb")) run.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace fgbench
