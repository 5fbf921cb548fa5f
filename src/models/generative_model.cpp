#include "models/generative_model.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "common/faultinject.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/trace.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace flashgen::models {

using tensor::Index;

void GenerativeModel::save(const std::string& path) {
  nn::save_checkpoint(root_module(), path, checkpoint_meta());
}

void GenerativeModel::load(const std::string& path) {
  validate_checkpoint_meta(nn::read_checkpoint_meta(path), path);
  ++weights_version_;  // first: a load that throws midway has changed weights too
  nn::load_checkpoint(root_module(), path);
  on_loaded();
}

TrainStats GenerativeModel::fit(const data::PairedDataset& dataset, const TrainConfig& config,
                                flashgen::Rng& rng) {
  pipeline::EagerSource source(dataset, config.batch_size);
  return fit_stream(source, config, rng);
}

TrainStats GenerativeModel::fit_stream(pipeline::SampleSource& source, const TrainConfig& config,
                                       flashgen::Rng& rng) {
  const std::unique_ptr<ShardedStepper> stepper = make_sharded_stepper(config);
  FG_CHECK(stepper != nullptr, name() << " does not support streamed training");
  const int phases = stepper->num_phases();
  detail::LoopContext ctx;
  ctx.root = &root_module();
  // Snapshots list the optimizers generator side first, the layout local
  // training has always written.
  for (int ph = phases - 1; ph >= 0; --ph) ctx.optimizers.push_back(&stepper->phase_optimizer(ph));

  detail::LossLog log(name(), phases, config.log_every, /*verbose=*/true);
  const int total_steps_planned = detail::total_steps(source, config);
  const int steps = detail::run_training_loop(
      source, config, rng,
      [&](const Tensor& pl, const Tensor& vl, const Tensor& cond, int step) {
        stepper->set_lr(detail::scheduled_lr(config.lr, step, total_steps_planned) *
                        static_cast<float>(ctx.lr_scale));
        stepper->begin_step(1);
        std::vector<double> losses(static_cast<std::size_t>(phases));
        for (int ph = 0; ph < phases; ++ph) {
          ctx.root->zero_grad();
          const double loss = stepper->run_phase(ph, 0, pl, vl, cond, rng);
          detail::guard_phase(*stepper, ph, loss, config.sentinel);
          stepper->phase_optimizer(ph).step();
          losses[static_cast<std::size_t>(ph)] = loss;
        }
        stepper->end_step();
        log.add(step, losses);
      },
      &ctx);
  return log.finish(steps);
}

Tensor GenerativeModel::generate(const Tensor& pl, flashgen::Rng& rng) {
  prepare_generation();
  tensor::NoGradGuard no_grad;
  return sample(pl, rng);
}

Tensor GenerativeModel::generate_rows(const Tensor& pl, std::span<flashgen::Rng> rngs) {
  FG_CHECK(pl.shape().rank() >= 1 &&
               static_cast<Index>(rngs.size()) == pl.shape()[0],
           "generate_rows: " << rngs.size() << " streams for batch " << pl.shape());
  prepare_generation();
  tensor::NoGradGuard no_grad;
  return sample_rows(pl, rngs);
}

Tensor GenerativeModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs) {
  const Index n = pl.shape()[0];
  FG_CHECK(static_cast<Index>(rngs.size()) == n,
           "sample_rows: " << rngs.size() << " streams for batch " << pl.shape());
  std::vector<Index> row_dims = pl.shape().dims();
  row_dims[0] = 1;
  const tensor::Shape row_shape(row_dims);
  const Index row = pl.numel() / n;
  Tensor out;
  for (Index s = 0; s < n; ++s) {
    auto src = pl.data().subspan(static_cast<std::size_t>(s * row),
                                 static_cast<std::size_t>(row));
    Tensor pr = Tensor::from_data(row_shape, std::vector<float>(src.begin(), src.end()));
    Tensor y = sample(pr, rngs[static_cast<std::size_t>(s)]);
    if (!out.defined()) {
      std::vector<Index> out_dims = y.shape().dims();
      out_dims[0] = n;
      out = Tensor::zeros(tensor::Shape(out_dims));
    }
    std::copy(y.data().begin(), y.data().end(),
              out.data().begin() + static_cast<std::size_t>(s) * y.data().size());
  }
  return out;
}

Tensor gan_loss(const Tensor& logits, bool target_real, bool lsgan) {
  Tensor target = Tensor::full(logits.shape(), target_real ? 1.0f : 0.0f);
  if (lsgan) return tensor::mse_loss(logits, target);
  return tensor::bce_with_logits(logits, target);
}

namespace detail {

Tensor latent_rows(Index n, Index z_dim, std::span<flashgen::Rng> rngs) {
  FG_CHECK(static_cast<Index>(rngs.size()) == n,
           "latent_rows: " << rngs.size() << " streams for " << n << " rows");
  Tensor z = Tensor::zeros(tensor::Shape{n, z_dim});
  auto dst = z.data();
  for (Index s = 0; s < n; ++s) {
    for (Index d = 0; d < z_dim; ++d) {
      dst[s * z_dim + d] = static_cast<float>(rngs[static_cast<std::size_t>(s)].normal(0.0, 1.0));
    }
  }
  return z;
}

void guard_loss(const char* what, double value, const SentinelConfig& sentinel) {
  if (sentinel.policy == SentinelPolicy::kOff) return;
  if (FG_FAULT("nan_poison")) value = std::numeric_limits<double>::quiet_NaN();
  if (!std::isfinite(value)) {
    std::ostringstream os;
    os << "divergence: " << what << " is " << value;
    throw DivergenceError(os.str());
  }
}

void guard_grad_norm(const char* what, double norm, const SentinelConfig& sentinel) {
  if (sentinel.policy == SentinelPolicy::kOff || sentinel.grad_norm_limit <= 0.0) return;
  if (!std::isfinite(norm) || norm > sentinel.grad_norm_limit) {
    std::ostringstream os;
    os << "divergence: " << what << " gradient norm " << norm << " exceeds limit "
       << sentinel.grad_norm_limit;
    throw DivergenceError(os.str());
  }
}

bool want_grad_norm(const SentinelConfig& sentinel) {
  return trace::enabled() ||
         (sentinel.policy != SentinelPolicy::kOff && sentinel.grad_norm_limit > 0.0);
}

void guard_phase(const ShardedStepper& stepper, int phase, double loss,
                 const SentinelConfig& sentinel) {
  const char* label = stepper.phase_label(phase);
  guard_loss(label, loss, sentinel);
  if (!want_grad_norm(sentinel)) return;
  const double norm = grad_norm(stepper.phase_params(phase));
  const bool is_d = stepper.num_phases() > 1 && phase == 0;
  trace::counter(is_d ? "train.grad_norm.d" : "train.grad_norm.g", norm);
  guard_grad_norm(label, norm, sentinel);
}

LossLog::LossLog(std::string label, int phases, int log_every, bool verbose)
    : label_(std::move(label)), has_d_(phases > 1), log_every_(log_every), verbose_(verbose) {}

void LossLog::add(int step, std::span<const double> losses) {
  const double g = losses.back();
  trace::counter("train.loss.g", g);
  g_acc_ += g;
  if (has_d_) {
    trace::counter("train.loss.d", losses.front());
    d_acc_ += losses.front();
  }
  ++acc_n_;
  if (log_every_ > 0 && (step + 1) % log_every_ == 0) {
    if (verbose_) {
      std::ostringstream line;
      line << label_ << " step " << step + 1;
      if (has_d_) {
        line << " G " << g_acc_ / acc_n_ << " D " << d_acc_ / acc_n_;
      } else {
        line << " loss " << g_acc_ / acc_n_;
      }
      FG_LOG(Info) << line.str();
    }
    flush();
  }
}

void LossLog::flush() {
  if (acc_n_ == 0) return;
  stats_.g_loss_history.push_back(static_cast<float>(g_acc_ / acc_n_));
  if (has_d_) stats_.d_loss_history.push_back(static_cast<float>(d_acc_ / acc_n_));
  g_acc_ = d_acc_ = 0.0;
  acc_n_ = 0;
}

TrainStats LossLog::finish(int steps) {
  flush();
  stats_.steps = steps;
  return std::move(stats_);
}

int run_training_loop(const data::PairedDataset& dataset, const TrainConfig& config,
                      flashgen::Rng& rng, const StepFn& step, LoopContext* ctx) {
  pipeline::EagerSource source(dataset, config.batch_size);
  return run_training_loop(source, config, rng, step, ctx);
}

int run_training_loop(pipeline::SampleSource& source, const TrainConfig& config,
                      flashgen::Rng& rng, const StepFn& step, LoopContext* ctx) {
  FG_CHECK(config.epochs > 0, "epochs must be positive");
  FG_CHECK(config.batch_size > 0, "batch size must be positive");
  FG_CHECK(source.global_batch() == config.batch_size,
           "source serves global batches of " << source.global_batch()
                                              << " but config.batch_size is "
                                              << config.batch_size);
  const std::int64_t batches_per_epoch = source.batches_per_epoch();
  FG_CHECK(batches_per_epoch > 0, "source yields no full batches per epoch");
  static stats::Counter& steps_total = stats::counter("train.steps");
  static stats::Counter& snapshots_total = stats::counter("train.snapshots");
  static stats::Counter& snapshot_failures = stats::counter("train.snapshot_failures");
  static stats::Counter& divergence_events = stats::counter("train.divergence_events");
  static stats::Counter& rollbacks_total = stats::counter("train.rollbacks");

  const bool snapshots_on =
      ctx != nullptr && !config.snapshot.path.empty() && config.snapshot.every_steps > 0;
  if (ctx != nullptr) {
    FG_CHECK(ctx->root != nullptr, "LoopContext without a root module");
  }

  std::int64_t epoch = 0;
  std::int64_t step_in_epoch = 0;
  std::int64_t global_step = 0;
  flashgen::Rng::State epoch_start_state;

  // When set, the next epoch iteration replays its shuffle from the recorded
  // epoch-start RNG state, skips the steps the snapshot already completed,
  // and continues with the snapshot-instant RNG state — giving bit-identical
  // continuation regardless of where inside the epoch the snapshot landed.
  std::optional<nn::TrainState> pending;

  auto capture = [&]() {
    nn::TrainState st;
    st.epoch = epoch;
    st.step_in_epoch = step_in_epoch;
    st.global_step = global_step;
    st.lr_scale = ctx->lr_scale;
    st.sample_cursor = source.cursor();
    st.has_sample_cursor = true;
    st.rng_epoch_start = epoch_start_state;
    st.rng_current = rng.state();
    st.optimizers.reserve(ctx->optimizers.size());
    for (const nn::Adam* opt : ctx->optimizers) st.optimizers.push_back(opt->export_state());
    return st;
  };

  auto restore = [&]() {
    nn::TrainState st = nn::load_train_state(*ctx->root, config.snapshot.path);
    FG_CHECK(st.optimizers.size() == ctx->optimizers.size(),
             "snapshot has " << st.optimizers.size() << " optimizer states but trainer has "
                             << ctx->optimizers.size());
    for (std::size_t i = 0; i < ctx->optimizers.size(); ++i) {
      ctx->optimizers[i]->import_state(st.optimizers[i]);
    }
    epoch = st.epoch;
    step_in_epoch = st.step_in_epoch;
    global_step = st.global_step;
    ctx->lr_scale = st.lr_scale;
    pending = std::move(st);
  };

  if (ctx != nullptr && config.snapshot.resume && !config.snapshot.path.empty() &&
      std::filesystem::exists(config.snapshot.path)) {
    restore();
    FG_LOG(Info) << "resuming training from " << config.snapshot.path << " at step "
                 << global_step << " (epoch " << epoch << ", step " << step_in_epoch << ")";
  }

  while (epoch < config.epochs) {
    FG_TRACE_SPAN("train.epoch", "model");
    if (pending) rng.set_state(pending->rng_epoch_start);
    epoch_start_state = rng.state();
    source.begin_epoch(epoch, rng);
    std::int64_t b = 0;
    if (pending) {
      FG_CHECK(step_in_epoch <= batches_per_epoch,
               "snapshot claims " << step_in_epoch << " completed steps in an epoch of "
                                  << batches_per_epoch << " batches");
      b = step_in_epoch;
      source.skip_batches(b);
      if (pending->has_sample_cursor) {
        FG_CHECK(pending->sample_cursor == source.cursor(),
                 "snapshot was taken at sample cursor " << pending->sample_cursor
                                                        << " but the source rewound to "
                                                        << source.cursor());
      }
      rng.set_state(pending->rng_current);
      pending.reset();
    } else {
      step_in_epoch = 0;
    }

    bool rolled_back = false;
    for (; b < batches_per_epoch; ++b) {
      if (FG_FAULT("train_kill")) {
        FG_CHECK(false, "fault injected: train_kill at step " << global_step);
      }
      pipeline::SampleSource::Batch batch = source.next_batch_cond();
      FG_TRACE_SPAN("train.step", "model");
      try {
        step(batch.pl, batch.vl, batch.cond, static_cast<int>(global_step));
      } catch (const DivergenceError& err) {
        divergence_events.add();
        const bool can_roll_back = config.sentinel.policy == SentinelPolicy::kRollback &&
                                   snapshots_on && ctx->snapshots_written > 0 &&
                                   std::filesystem::exists(config.snapshot.path);
        if (!can_roll_back) {
          FG_CHECK(false, "training diverged at step " << global_step << " (" << err.what()
                                                       << "); no snapshot to roll back to"
                                                       << " — halting");
        }
        FG_CHECK(ctx->rollbacks < config.sentinel.max_rollbacks,
                 "training diverged at step " << global_step << " (" << err.what() << ") after "
                                              << ctx->rollbacks
                                              << " rollbacks — giving up");
        ++ctx->rollbacks;
        rollbacks_total.add();
        const std::int64_t diverged_at = global_step;
        restore();
        ctx->lr_scale *= config.sentinel.lr_backoff;
        FG_LOG(Warn) << "training diverged at step " << diverged_at << " (" << err.what()
                     << "); rolled back to step " << global_step << ", lr scale now "
                     << ctx->lr_scale;
        rolled_back = true;
        break;
      }
      steps_total.add();
      ++global_step;
      ++step_in_epoch;
      if (snapshots_on && global_step % config.snapshot.every_steps == 0) {
        FG_TRACE_SPAN("train.snapshot", "model");
        try {
          nn::save_train_state(*ctx->root, capture(), config.snapshot.path);
          snapshots_total.add();
          ++ctx->snapshots_written;
        } catch (const flashgen::Error& err) {
          // A failed snapshot must not kill a healthy run: the previous
          // artifact survives (atomic rename), so just count and carry on.
          snapshot_failures.add();
          FG_LOG(Warn) << "snapshot write failed at step " << global_step << ": " << err.what();
        }
      }
    }
    if (rolled_back) continue;
    ++epoch;
  }
  return static_cast<int>(global_step);
}

int total_steps(const data::PairedDataset& dataset, const TrainConfig& config) {
  FG_CHECK(config.batch_size > 0 && config.epochs > 0, "bad train config");
  return config.epochs *
         static_cast<int>(dataset.size() / static_cast<std::size_t>(config.batch_size));
}

int total_steps(const pipeline::SampleSource& source, const TrainConfig& config) {
  FG_CHECK(config.epochs > 0, "bad train config");
  return config.epochs * static_cast<int>(source.batches_per_epoch());
}

double grad_norm(const std::vector<Tensor>& params) {
  double sum_sq = 0.0;
  for (const Tensor& p : params) {
    for (float g : p.grad()) sum_sq += static_cast<double>(g) * g;
  }
  return std::sqrt(sum_sq);
}

float scheduled_lr(float base_lr, int step, int total_steps) {
  FG_CHECK(total_steps > 0, "total_steps must be positive");
  const float progress = static_cast<float>(step) / static_cast<float>(total_steps);
  if (progress <= 0.5f) return base_lr;
  const float decay = 1.0f - 1.8f * (progress - 0.5f);  // 1 -> 0.1 over the second half
  return base_lr * std::max(0.1f, decay);
}

}  // namespace detail
}  // namespace flashgen::models
