// Per-layer profile for the traced run.
//
// Every number here comes from the benchmark calling a module's public
// functions directly, with a span around each call:
//   engine      InferenceEngine::generate_into(_at) at batch 1 and 8
//   tensor      a timing GemmBackend (registered through
//               tensor::register_gemm_backend, delegating to the backend that
//               was selected, so results keep their bits) that tags each GEMM
//               of a served forward with its U-Net layer by call order, plus
//               the im2col/col2im/batch-norm spans the library already emits
//               through trace::start
//   train       ShardedStepper::run_phase and phase_optimizer().step() at one
//               slot in D-then-G order, the same order fit_stream runs
//   pipeline    a timing SampleSource around PrefetchSource under fit_stream
//   flash       FlashChannel::run_experiment
//   thresholds  ThresholdOptimizer::optimize over a timing ChannelSampler
//               wrapped around ModelSampler
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "bench.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/trace.h"
#include "flash/channel.h"
#include "serve/engine.h"
#include "tensor/gemm_backend.h"
#include "tensor/gemm_packed.h"
#include "thresholds/model_sampler.h"
#include "thresholds/optimizer.h"

namespace fgbench {

namespace {

namespace tensor = flashgen::tensor;
namespace serve = flashgen::serve;
namespace thresholds = flashgen::thresholds;
using flashgen::Rng;
using tensor::Tensor;

// ---- timing GEMM backend -----------------------------------------------------

struct GemmCall {
  const char* tag;
  tensor::GemmDesc desc;
  std::uint64_t t0_ns, t1_ns;
  bool fallback;  // ran in the reference loop nest
  double flops;
  int span;
  double us() const { return static_cast<double>(t1_ns - t0_ns) / 1e3; }
};

std::atomic<bool> g_capturing{false};
std::mutex g_calls_mutex;
std::vector<GemmCall> g_calls;
thread_local const std::vector<const char*>* t_tags = nullptr;
thread_local std::size_t t_tag_pos = 0;

constexpr const char* kTimingBackend = "bench-timing";

class TimingGemm : public tensor::GemmBackend {
 public:
  explicit TimingGemm(const tensor::GemmBackend& inner)
      : inner_(inner), packed_(std::string(inner.name()) != "reference") {}
  const char* name() const override { return kTimingBackend; }
  void run(const tensor::GemmDesc& d, const float* a, const float* b, float* c) const override {
    if (!g_capturing.load(std::memory_order_relaxed)) {
      inner_.run(d, a, b, c);
      return;
    }
    const char* tag = "gemm";
    if (t_tags != nullptr) {
      tag = t_tag_pos < t_tags->size() ? (*t_tags)[t_tag_pos] : "gemm.unet.extra";
      ++t_tag_pos;
    }
    const double flops = 2.0 * static_cast<double>(d.m) * static_cast<double>(d.n) *
                         static_cast<double>(d.k) * static_cast<double>(d.batch_count);
    Spans::Scope span(tag, 0, flops);
    const std::uint64_t t0 = now_ns();
    inner_.run(d, a, b, c);
    const std::uint64_t t1 = now_ns();
    const bool fallback = !packed_ || tensor::detail::packed_gemm_uses_fallback(d);
    std::lock_guard<std::mutex> lock(g_calls_mutex);
    g_calls.push_back(GemmCall{tag, d, t0, t1, fallback, flops, span.index()});
  }

 private:
  const tensor::GemmBackend& inner_;
  bool packed_;
};

/// Selects the timing backend for its lifetime and collects every GEMM call.
class GemmCapture {
 public:
  GemmCapture() : previous_(tensor::gemm_backend_name()) {
    static const bool registered = [] {
      tensor::register_gemm_backend(std::make_unique<TimingGemm>(tensor::current_gemm_backend()));
      return true;
    }();
    (void)registered;
    if (previous_ != kTimingBackend) tensor::set_gemm_backend(kTimingBackend);
    std::lock_guard<std::mutex> lock(g_calls_mutex);
    g_calls.clear();
    g_capturing = true;
  }
  ~GemmCapture() {
    g_capturing = false;
    t_tags = nullptr;
    if (previous_ != kTimingBackend) tensor::set_gemm_backend(previous_);
  }
  /// Tags the calling thread's next GEMMs with `tags`, in call order.
  void begin_pass(const std::vector<const char*>& tags) {
    t_tags = &tags;
    t_tag_pos = 0;
  }
  std::size_t pass_calls() const { return t_tag_pos; }
  std::vector<GemmCall> calls() const {
    std::lock_guard<std::mutex> lock(g_calls_mutex);
    return g_calls;
  }

 private:
  std::string previous_;
};

// ---- the library's own trace spans ------------------------------------------------

struct ProgramSpan {
  std::string name;
  double ts_us, dur_us;
};

/// Runs `body` under trace::start/stop into `path` and returns its X spans.
template <typename Body>
std::vector<ProgramSpan> with_program_trace(const std::string& path, Body&& body) {
  flashgen::trace::start(path);
  body();
  flashgen::trace::stop();
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  std::vector<ProgramSpan> out;
  const flashgen::common::JsonValue doc = flashgen::common::json_parse(text.str());
  for (const auto& e : doc.at("traceEvents").array()) {
    if (!e.has("ph") || e.at("ph").string() != "X") continue;
    out.push_back(ProgramSpan{e.at("name").string(), e.at("ts").number(), e.at("dur").number()});
  }
  std::sort(out.begin(), out.end(),
            [](const ProgramSpan& a, const ProgramSpan& b) { return a.ts_us < b.ts_us; });
  return out;
}

double span_total_us(const std::vector<ProgramSpan>& spans,
                     std::initializer_list<const char*> names) {
  double total = 0.0;
  for (const ProgramSpan& s : spans)
    for (const char* n : names)
      if (s.name == n) total += s.dur_us;
  return total;
}

const std::vector<const char*>& unet_tags() {
  static const std::vector<const char*> tags = {
      "gemm.unet.down0", "gemm.unet.down1", "gemm.unet.down2", "gemm.unet.down3",
      "gemm.unet.up0",   "gemm.unet.up1",   "gemm.unet.up2",   "gemm.unet.up3"};
  return tags;
}

Tensor pl_batch(int n, int side, std::uint64_t seed) {
  const auto pool = make_pl_pool(seed, side, n);
  std::vector<float> flat;
  for (const auto& row : pool) flat.insert(flat.end(), row.begin(), row.end());
  return Tensor::from_data(tensor::Shape{n, 1, side, side}, std::move(flat));
}

/// ChannelSampler wrapper timing the model-sampling part of a query.
class TimingSampler : public thresholds::ChannelSampler {
 public:
  explicit TimingSampler(thresholds::ChannelSampler& inner) : inner_(inner) {}
  std::vector<std::vector<float>> sample(std::span<const thresholds::RowRequest> rows,
                                         std::uint64_t seed,
                                         const data::Condition& condition) override {
    Spans::Scope span("sampler.sample");
    const auto t0 = Clock::now();
    auto out = inner_.sample(rows, seed, condition);
    seconds += seconds_since(t0);
    return out;
  }
  double seconds = 0.0;

 private:
  thresholds::ChannelSampler& inner_;
};

}  // namespace

// ---- TimingSource ------------------------------------------------------------------

std::pair<Tensor, Tensor> TimingSource::next_batch() {
  Spans::Scope span("source.next_batch");
  const auto t0 = Clock::now();
  auto out = inner_.next_batch();
  waits_.push_back(seconds_since(t0));
  returned_.push_back(Clock::now());
  return out;
}

pipeline::SampleSource::Batch TimingSource::next_batch_cond() {
  Spans::Scope span("source.next_batch_cond");
  const auto t0 = Clock::now();
  Batch out = inner_.next_batch_cond();
  waits_.push_back(seconds_since(t0));
  returned_.push_back(Clock::now());
  return out;
}

// ---- engine + served-forward tensor profile --------------------------------------------

void profile_engine(models::GenerativeModel& model, const std::string& temp_dir, Run& run) {
  serve::InferenceEngine engine(model);
  const int side = static_cast<int>(unet_network().array_size);
  const bool conditioned = model.condition_aware();
  const std::vector<data::Condition> conditions(8, data::Condition{4000.0, 0.0});
  const Tensor pl1 = pl_batch(1, side, 901);
  const Tensor pl8 = pl_batch(8, side, 902);
  std::vector<float> out(static_cast<std::size_t>(8 * side * side));
  std::uint64_t round = 0;
  const auto forward = [&](const Tensor& pl) {
    const std::size_t n = static_cast<std::size_t>(pl.shape()[0]);
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < n; ++i) rngs.push_back(Rng::from_stream(77, round * 8 + i));
    ++round;
    Spans::Scope span("engine.generate_into");
    const auto t0 = Clock::now();
    std::span<float> dst(out.data(), n * static_cast<std::size_t>(side * side));
    if (conditioned) {
      engine.generate_into_at(pl, std::span(conditions).first(n), rngs, dst);
    } else {
      engine.generate_into(pl, rngs, dst);
    }
    return seconds_since(t0) * 1e6;
  };
  const auto median_us = [&](const Tensor& pl, int warm, int reps) {
    for (int i = 0; i < warm; ++i) forward(pl);
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) us.push_back(forward(pl));
    return median(us);
  };
  const double b1 = median_us(pl1, 8, 100);
  const double b8 = median_us(pl8, 8, 60);
  run.metric("engine.b1_us", b1, "us");
  run.metric("engine.b8_us", b8, "us");
  run.metric("engine.b8_rows_per_s", 8.0 * 1e6 / b8, "rows/s");

  // Served forward at batch 8 with every GEMM timed and tagged by layer.
  constexpr int kPasses = 20;
  std::vector<GemmCall> calls;
  double forward_us = 0.0;
  bool layer_count_ok = true;
  const auto program = with_program_trace(temp_dir + "/program_trace_engine.json", [&] {
    GemmCapture capture;
    for (int p = 0; p < kPasses; ++p) {
      capture.begin_pass(unet_tags());
      forward_us += forward(pl8);
      layer_count_ok = layer_count_ok && capture.pass_calls() == unet_tags().size();
    }
    calls = capture.calls();
  });
  if (!layer_count_ok)
    run.note("warning: a served forward did not issue exactly one GEMM per U-Net layer; "
             "layer tags follow call order");
  double gemm_us = 0.0, fallback_us = 0.0, flops = 0.0;
  std::map<std::string, std::pair<double, double>> per_tag;  // tag -> (us, flops)
  std::map<std::string, GemmCall> shape_of;
  for (const GemmCall& c : calls) {
    gemm_us += c.us();
    flops += c.flops;
    if (c.fallback) fallback_us += c.us();
    per_tag[c.tag].first += c.us();
    per_tag[c.tag].second += c.flops;
    shape_of.emplace(c.tag, c);
  }
  run.metric("tensor.gemm_share", gemm_us / forward_us, "ratio");
  run.metric("tensor.gemm_fallback_share", gemm_us > 0.0 ? fallback_us / gemm_us : 0.0, "ratio");
  run.metric("tensor.gemm_gflops", flops / (gemm_us * 1e3), "GFLOP/s");
  std::ostringstream table;
  table << "served batch-8 forward: " << forward_us / kPasses << " us per pass, GEMM "
        << 100.0 * gemm_us / forward_us << "% of it, "
        << 100.0 * (gemm_us > 0.0 ? fallback_us / gemm_us : 0.0)
        << "% of GEMM time in reference-loop shapes\n";
  table << "  layer        m     n     k  batch  loop       us/pass  GFLOP/s  %forward\n";
  for (const char* tag : unet_tags()) {
    const auto it = per_tag.find(tag);
    const double us = it == per_tag.end() ? 0.0 : it->second.first / kPasses;
    const double gf = it == per_tag.end() || it->second.first <= 0.0
                          ? 0.0
                          : it->second.second / (it->second.first * 1e3);
    const std::string layer = std::string(tag).substr(10);  // "gemm.unet."
    run.metric("tensor.gemm.unet." + layer + "_us", us, "us");
    run.metric("tensor.gemm.unet." + layer + "_gflops", gf, "GFLOP/s");
    if (shape_of.count(tag) != 0) {
      const GemmCall& c = shape_of.at(tag);
      char line[200];
      std::snprintf(line, sizeof line, "  %-7s %6lld %5lld %5lld %6lld  %-9s %9.1f %8.2f %8.1f%%\n",
                    layer.c_str(), static_cast<long long>(c.desc.m),
                    static_cast<long long>(c.desc.n), static_cast<long long>(c.desc.k),
                    static_cast<long long>(c.desc.batch_count),
                    c.fallback ? "reference" : "packed", us, gf, 100.0 * us * kPasses / forward_us);
      table << line;
    }
  }
  run.note(table.str());
  run.metric("tensor.im2col_us", span_total_us(program, {"im2col"}) / kPasses, "us");
  run.metric("tensor.col2im_us", span_total_us(program, {"col2im"}) / kPasses, "us");
  run.metric("tensor.batch_norm_us", span_total_us(program, {"batch_norm2d"}) / kPasses, "us");
}

// ---- training step profile ---------------------------------------------------------------

void record_pipeline_metrics(const TimingSource& source, Clock::time_point end, std::size_t warm,
                             Run& run) {
  const auto& waits = source.waits();
  const auto& returned = source.returned();
  FG_CHECK(returned.size() > warm + 1, "pipeline profile: too few steps");
  double wait = 0.0;
  for (std::size_t i = warm + 1; i < waits.size(); ++i) wait += waits[i];
  const double span = std::chrono::duration<double>(end - returned[warm]).count();
  const double steps = static_cast<double>(waits.size() - warm - 1);
  run.metric("pipeline.wait_ms", 1e3 * wait / steps, "ms");
  run.metric("pipeline.stall_share", wait / span, "ratio");
}

void profile_train(const std::string& temp_dir, bool with_pipeline, Run& run) {
  auto model = make_temporal(11);
  const models::TrainConfig config = train_config(1);
  auto stepper = model->make_sharded_stepper(config);
  FG_CHECK(stepper != nullptr, "temporal model has no sharded stepper");
  pipeline::PrefetchSource source(stream_config(5, 8 * 16), 8, pipeline::PrefetchConfig{});
  Rng epoch_rng(1);
  source.begin_epoch(0, epoch_rng);

  std::vector<double> d_ms, g_ms, adam_ms;
  int step = 0;
  const auto train_step = [&] {
    const auto batch = source.next_batch_cond();
    Rng rng = Rng::from_stream(33, static_cast<std::uint64_t>(step++));
    stepper->set_lr(config.lr);
    stepper->begin_step(1);
    double phase_ms[2] = {0.0, 0.0};
    double opt_ms = 0.0;
    for (int phase = 0; phase < 2; ++phase) {
      model->root_module().zero_grad();
      auto t0 = Clock::now();
      double loss = 0.0;
      {
        Spans::Scope span(phase == 0 ? "stepper.run_phase.d" : "stepper.run_phase.g");
        loss = stepper->run_phase(phase, 0, batch.pl, batch.vl, batch.cond, rng);
      }
      phase_ms[phase] = seconds_since(t0) * 1e3;
      if (!std::isfinite(loss)) run.fail("non-finite training loss in the step profile");
      t0 = Clock::now();
      {
        Spans::Scope span("adam.step");
        stepper->phase_optimizer(phase).step();
      }
      opt_ms += seconds_since(t0) * 1e3;
    }
    stepper->end_step();
    d_ms.push_back(phase_ms[0]);
    g_ms.push_back(phase_ms[1]);
    adam_ms.push_back(opt_ms);
  };
  for (int i = 0; i < 2; ++i) train_step();
  d_ms.clear();
  g_ms.clear();
  adam_ms.clear();
  for (int i = 0; i < 8; ++i) train_step();
  run.metric("train.d_phase_ms", median(d_ms), "ms");
  run.metric("train.g_phase_ms", median(g_ms), "ms");
  run.metric("train.adam_ms", median(adam_ms), "ms");

  // GEMM split by role. A GEMM inside the library's "backward" span is a
  // gradient GEMM: dW when it contracts over the spatial/batch axis
  // (B transposed, or the Linear dW form A^T*B accumulating into the
  // gradient), dX otherwise. GEMM spans and timed calls pair up in order.
  constexpr int kSteps = 3;
  std::vector<GemmCall> calls;
  const auto program = with_program_trace(temp_dir + "/program_trace_train.json", [&] {
    GemmCapture capture;
    for (int i = 0; i < kSteps; ++i) train_step();
    calls = capture.calls();
  });
  std::vector<const ProgramSpan*> gemm_spans, backward_spans;
  for (const ProgramSpan& s : program) {
    if (s.name == "gemm") gemm_spans.push_back(&s);
    if (s.name == "backward") backward_spans.push_back(&s);
  }
  double role_us[3] = {0.0, 0.0, 0.0};  // fwd, dx, dw
  Spans& spans = Spans::global();
  if (gemm_spans.size() == calls.size()) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const ProgramSpan& g = *gemm_spans[i];
      const bool in_backward =
          std::any_of(backward_spans.begin(), backward_spans.end(), [&](const ProgramSpan* b) {
            return g.ts_us >= b->ts_us && g.ts_us <= b->ts_us + b->dur_us;
          });
      const tensor::GemmDesc& d = calls[i].desc;
      int role = 0;
      if (in_backward) {
        role = (d.trans_b && !d.trans_a) || (d.trans_a && !d.trans_b && d.beta == 1.0f) ? 2 : 1;
      }
      role_us[role] += calls[i].us();
      if (calls[i].span >= 0) {
        static const char* kNames[3] = {"gemm.train.fwd", "gemm.train.dx", "gemm.train.dw"};
        spans.rename(calls[i].span, kNames[role]);
      }
    }
  } else {
    run.note("warning: training GEMM calls and library gemm spans did not pair up (" +
             std::to_string(calls.size()) + " vs " + std::to_string(gemm_spans.size()) +
             "); the fwd/dx/dw split is not reported");
  }
  run.metric("tensor.gemm.train.fwd_us", role_us[0] / kSteps, "us");
  run.metric("tensor.gemm.train.dx_us", role_us[1] / kSteps, "us");
  run.metric("tensor.gemm.train.dw_us", role_us[2] / kSteps, "us");
  run.metric("tensor.train.im2col_us", span_total_us(program, {"im2col"}) / kSteps, "us");
  run.metric("tensor.train.col2im_us", span_total_us(program, {"col2im"}) / kSteps, "us");
  run.metric("tensor.train.batch_norm_us",
             span_total_us(program, {"batch_norm2d", "batch_norm2d.backward"}) / kSteps, "us");

  if (with_pipeline) {
    // A short streamed fit with one producer, timed at the source boundary.
    auto fit_model = make_temporal(12);
    pipeline::PrefetchSource stream(stream_config(6, 8 * 12), 8,
                                    pipeline::PrefetchConfig{.workers = 1, .queue_depth = 4});
    TimingSource timed(stream);
    Rng rng(3);
    fit_model->fit_stream(timed, train_config(1), rng);
    record_pipeline_metrics(timed, Clock::now(), 2, run);
  }
}

// ---- flash -------------------------------------------------------------------------

void profile_flash(Run& run) {
  const flashgen::flash::FlashChannel channel(stream_config(7, 8).dataset.channel);
  std::vector<double> us;
  for (int i = 0; i < 600; ++i) {
    Rng rng = Rng::from_stream(55, static_cast<std::uint64_t>(i));
    const data::Condition c = condition_grid()[static_cast<std::size_t>(i) % 6];
    Spans::Scope span("flash.run_experiment");
    const auto t0 = Clock::now();
    (void)channel.run_experiment(c.pe_cycles, rng, c.retention_hours);
    us.push_back(seconds_since(t0) * 1e6);
  }
  run.metric("flash.sample_us", median(us), "us");
}

// ---- thresholds --------------------------------------------------------------------------

void profile_thresholds(models::GenerativeModel& model, double served_cold_p50_ms, Run& run) {
  thresholds::ModelSampler base(model);
  TimingSampler sampler(base);
  thresholds::OptimizerConfig config;
  config.side = static_cast<int>(unet_network().array_size);
  thresholds::ThresholdOptimizer optimizer(sampler, config);
  const std::vector<data::Condition> cold = {
      {1500.0, 0.0}, {2600.0, 120.0}, {5500.0, 260.0}, {7400.0, 410.0}, {3300.0, 60.0}};
  std::vector<double> sample_ms, refine_ms, optimize_ms;
  for (const data::Condition& c : cold) {
    sampler.seconds = 0.0;
    const auto t0 = Clock::now();
    {
      Spans::Scope span("optimizer.optimize");
      (void)optimizer.optimize(c);
    }
    const double total = seconds_since(t0);
    optimize_ms.push_back(total * 1e3);
    sample_ms.push_back(sampler.seconds * 1e3);
    refine_ms.push_back((total - sampler.seconds) * 1e3);
  }
  run.metric("thresholds.sample_ms", median(sample_ms), "ms");
  run.metric("thresholds.refine_ms", median(refine_ms), "ms");
  run.metric("thresholds.optimize_ms", median(optimize_ms), "ms");
  run.metric("thresholds.fleet_overhead_ms", served_cold_p50_ms - median(optimize_ms), "ms");
}

}  // namespace fgbench
