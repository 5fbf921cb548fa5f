// GenerativeModel: the common interface of all channel models compared in the
// paper (cVAE-GAN, Bicycle-GAN, cGAN, cVAE, Gaussian).
//
// A model is fit on a PairedDataset of normalized (PL, VL) crops and can then
// generate voltage arrays for new program-level arrays. All tensors at this
// boundary are normalized NCHW arrays (N, 1, S, S) in [-1, 1].
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "pipeline/sample_source.h"

namespace flashgen::models {

using nn::Tensor;

/// Periodic resumable-training snapshots (see nn::TrainState). Active when
/// `path` is non-empty and `every_steps` > 0 and the trainer supplies a
/// detail::LoopContext.
struct SnapshotConfig {
  std::string path;     // snapshot artifact; "" disables snapshotting
  int every_steps = 0;  // write after every N optimizer steps; 0 disables
  bool resume = false;  // restore from `path` (when it exists) before training
};

/// What to do when a training step diverges (NaN/Inf loss, or gradient norm
/// above `grad_norm_limit`).
enum class SentinelPolicy {
  kOff,       // no checks
  kHalt,      // throw with a diagnostic, leaving the model as-is
  kRollback,  // reload the last good snapshot and shrink the learning rate
};

struct SentinelConfig {
  SentinelPolicy policy = SentinelPolicy::kOff;
  double grad_norm_limit = 1e6;  // global L2 norm; <= 0 disables the norm check
  double lr_backoff = 0.5;       // lr multiplier applied on each rollback
  int max_rollbacks = 3;         // halt after this many rollbacks
};

/// Training hyper-parameters (paper Remark 2 defaults).
struct TrainConfig {
  int epochs = 5;
  int batch_size = 2;        // cVAE-GAN / Bicycle-GAN / cVAE (cGAN uses 64)
  float lr = 2e-4f;          // Adam
  float alpha = 10.0f;       // L1 reconstruction weight
  float beta = 0.01f;        // KL weight
  float latent_weight = 0.5f;  // Bicycle-GAN latent-recovery L1 weight
  bool lsgan = false;        // least-squares GAN objective instead of BCE
  int log_every = 200;       // steps between progress log lines; 0 disables
  SnapshotConfig snapshot;
  SentinelConfig sentinel;
};

struct TrainStats {
  int steps = 0;
  std::vector<float> g_loss_history;  // per logging interval
  std::vector<float> d_loss_history;  // empty for discriminator-free models
};

/// Phase-structured single-microbatch trainer interface: the one place a
/// network model defines its losses. Local training
/// (GenerativeModel::fit_stream) is its one-slot caller; the distributed
/// data-parallel trainer (dist::DistTrainer) runs it on every microbatch
/// shard.
///
/// A global optimizer step is decomposed into phases (discriminator then
/// generator/encoder for the GANs; one phase for the cVAE). For each phase
/// the caller runs forward+backward on every microbatch shard, reduces the
/// accumulated gradients across shards and ranks (nothing to reduce for the
/// one-slot local caller), writes the reduced gradients back, and only then
/// steps the phase's optimizer — so the generator phase sees the
/// post-update discriminator. Tensors a later phase needs from an earlier
/// one (the generated fake, the encoder posterior, the prior latent) are
/// cached per shard slot between begin_step() and end_step(); their autograd
/// graphs stay alive so the later phase can backpropagate through them.
///
/// Contract for run_phase: the caller has zeroed the gradients of every
/// parameter of the model's root module; run_phase leaves the phase's
/// gradients accumulated on the parameters and returns the scalar loss. A
/// phase must consume `rng` identically regardless of which rank runs it (in
/// practice all randomness is drawn in phase 0).
class ShardedStepper {
 public:
  virtual ~ShardedStepper() = default;

  virtual int num_phases() const = 0;
  /// Parameters whose gradients the caller reduces for `phase`, in a fixed
  /// order shared by every rank. The reference stays valid until the stepper
  /// is destroyed.
  virtual const std::vector<Tensor>& phase_params(int phase) const = 0;
  virtual nn::Adam& phase_optimizer(int phase) = 0;
  /// Short diagnostic label for the phase's loss ("d", "g", "loss").
  virtual const char* phase_label(int phase) const = 0;
  virtual void set_lr(float lr) = 0;

  /// Prepares per-shard caches for `slots` local shards of the coming step.
  virtual void begin_step(int slots) = 0;
  /// Forward+backward for one phase on one local shard (see contract above).
  /// `cond` carries the shard's raw (PE, retention) rows from the sample
  /// source, or stays undefined for unconditioned training; the stepper
  /// normalizes it against its model's condition scales.
  virtual double run_phase(int phase, int slot, const Tensor& pl, const Tensor& vl,
                           const Tensor& cond, flashgen::Rng& rng) = 0;
  /// Drops the per-shard caches (and their autograd graphs).
  virtual void end_step() = 0;
};

class GenerativeModel {
 public:
  virtual ~GenerativeModel() = default;

  /// Human-readable name matching the paper's tables ("cVAE-GAN", ...).
  virtual std::string name() const = 0;

  /// Trains the model in place: fit_stream over a pipeline::EagerSource of
  /// `dataset`, so fit_stream(EagerSource(dataset, batch)) is bit-identical
  /// to fit(dataset). Models without a ShardedStepper (the Gaussian
  /// baseline) override it with their own fit.
  virtual TrainStats fit(const data::PairedDataset& dataset, const TrainConfig& config,
                         flashgen::Rng& rng);

  /// Trains from a SampleSource by driving the model's ShardedStepper with
  /// one slot: each step sets the scheduled learning rate, then for every
  /// phase in order (D before G) zeroes the gradients, runs the phase on the
  /// loop `rng`, applies the divergence sentinels and steps the phase's
  /// optimizer. Models without a stepper reject the call.
  TrainStats fit_stream(pipeline::SampleSource& source, const TrainConfig& config,
                        flashgen::Rng& rng);

  /// Generates voltages for a batch of program-level arrays (N, 1, S, S).
  /// Stochastic: repeated calls with fresh rng states sample the channel.
  /// Non-virtual: runs prepare_generation() then sample() under NoGradGuard.
  Tensor generate(const Tensor& pl, flashgen::Rng& rng);

  /// Generation with one RNG stream per row: row i consumes rngs[i] only, so
  /// its values match generate() on that row alone with the same Rng. Models
  /// whose generation path normalizes with batch statistics (cVAE-GAN, cGAN)
  /// additionally need tensor::InferenceModeGuard active for the rows to
  /// decouple; the serving engine always runs under it.
  Tensor generate_rows(const Tensor& pl, std::span<flashgen::Rng> rngs);

  /// Puts the module tree into its generation configuration (training/eval
  /// flags, fitted-state checks). Idempotent; generate()/generate_rows() call
  /// it every time, the serving engine once before repeated sample calls.
  virtual void prepare_generation() = 0;

  /// Model-specific sampling. Preconditions: prepare_generation() has run on
  /// this model and gradient recording is disabled.
  virtual Tensor sample(const Tensor& pl, flashgen::Rng& rng) = 0;

  /// Row-streamed sampling (same preconditions as sample()). The default
  /// slices the batch and runs sample() row by row; network models override
  /// it with a single batched pass that keeps per-row draw sequences intact.
  virtual Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs);

  /// True when the model learned P(VL | PL, condition) and accepts explicit
  /// per-row (PE, retention) conditions at generation time.
  virtual bool condition_aware() const { return false; }

  /// Condition substituted for rows submitted without one when a serving
  /// batch mixes conditioned and unconditioned requests (condition-aware
  /// models only).
  virtual data::Condition default_condition() const { return {}; }

  /// Row-streamed sampling at explicit per-row conditions: row i is
  /// generated as if its block sat at conditions[i], drawing only from
  /// rngs[i] (same preconditions as sample_rows()). Only condition-aware
  /// models implement it.
  virtual Tensor sample_rows_at(const Tensor& pl, std::span<const data::Condition> conditions,
                                std::span<flashgen::Rng> rngs) {
    (void)pl;
    (void)conditions;
    (void)rngs;
    FG_CHECK(false, name() << " does not support conditioned sampling");
    return {};
  }

  /// Serializable root module holding all trainable/buffer state.
  virtual nn::Module& root_module() = 0;

  /// Phase-structured stepper driving local and distributed training, or
  /// nullptr when the model is not trained by gradient steps (the Gaussian
  /// baseline). The stepper borrows this model (and puts it into training
  /// mode); it must not outlive it.
  virtual std::unique_ptr<ShardedStepper> make_sharded_stepper(const TrainConfig& config) {
    (void)config;
    return nullptr;
  }

  void save(const std::string& path);
  /// Restores the weights in place and bumps weights_version().
  void load(const std::string& path);

  /// Counts load() calls. Holders of derived weight state (the engines'
  /// packed weight panels) drop it when the version moves; training in place
  /// does not bump it, since no engine may wrap a model being trained.
  std::uint64_t weights_version() const { return weights_version_; }

 protected:
  /// Hook invoked by load() after the checkpoint restored the module tree;
  /// models rebuild derived state (e.g. the Gaussian normalizer) here.
  virtual void on_loaded() {}

  /// Metadata save() writes alongside the module entries. An empty map keeps
  /// the legacy FGCKPT01 layout byte-for-byte; a non-empty map saves the
  /// FGCKPT02 layout carrying the pairs (see nn/serialize.h).
  virtual nn::CheckpointMeta checkpoint_meta() const { return {}; }

  /// Hook invoked by load() with the checkpoint's metadata (empty for legacy
  /// FGCKPT01 files) before any weight is applied. Conditioned models reject
  /// incompatible formats here with a typed nn::CheckpointVersionError.
  virtual void validate_checkpoint_meta(const nn::CheckpointMeta& meta,
                                        const std::string& path) {
    (void)meta;
    (void)path;
  }

 private:
  std::uint64_t weights_version_ = 0;
};

/// GAN objective on PatchGAN logits: BCE-with-logits against an all-real /
/// all-fake target, or least-squares when `lsgan`.
Tensor gan_loss(const Tensor& logits, bool target_real, bool lsgan);

/// Thrown by the divergence sentinels (detail::guard_loss / guard_grad_norm)
/// when a step produced a non-finite loss or an exploding gradient.
/// run_training_loop turns it into a halt or a snapshot rollback per
/// SentinelConfig::policy.
class DivergenceError : public flashgen::Error {
 public:
  explicit DivergenceError(const std::string& what) : flashgen::Error(what) {}
};

namespace detail {
/// (N, z_dim) latent batch where row i is drawn from rngs[i], matching the
/// draw order of Tensor::randn on a single-row latent.
Tensor latent_rows(tensor::Index n, tensor::Index z_dim, std::span<flashgen::Rng> rngs);

/// What a trainer exposes to run_training_loop so it can snapshot, resume,
/// and roll back. `root` and `optimizers` (in a fixed, trainer-defined order)
/// must outlive the loop. `lr_scale` starts at 1, is restored from snapshots,
/// and shrinks on each sentinel rollback — trainers multiply their scheduled
/// learning rate by it every step.
struct LoopContext {
  nn::Module* root = nullptr;
  std::vector<nn::Adam*> optimizers;
  double lr_scale = 1.0;
  int rollbacks = 0;
  int snapshots_written = 0;
};

/// Sentinel checks, called by trainer step functions. No-ops when
/// `sentinel.policy` is kOff; otherwise throw DivergenceError on a
/// non-finite `value` / a norm above `sentinel.grad_norm_limit`. The
/// "nan_poison" fault point fires inside guard_loss to exercise the
/// divergence path on demand.
void guard_loss(const char* what, double value, const SentinelConfig& sentinel);
void guard_grad_norm(const char* what, double norm, const SentinelConfig& sentinel);

/// True when either tracing or an active sentinel wants gradient norms, so
/// trainers can skip the norm reduction otherwise.
bool want_grad_norm(const SentinelConfig& sentinel);

/// The sentinels for one phase of a step, run after its gradients are final
/// and before its optimizer steps: guard_loss on `loss`, then, when wanted,
/// the global gradient norm over the phase's parameters (traced as
/// train.grad_norm.{d,g}) and guard_grad_norm.
void guard_phase(const ShardedStepper& stepper, int phase, double loss,
                 const SentinelConfig& sentinel);

/// Per-step loss bookkeeping shared by local and distributed training. The
/// last phase's loss is the G loss (the only loss of a one-phase model) and
/// phase 0 of a two-phase model the D loss; both are traced as
/// train.loss.{g,d}. Every `log_every` steps the window means are appended
/// to the TrainStats histories and, when `verbose`, logged under `label`.
class LossLog {
 public:
  LossLog(std::string label, int phases, int log_every, bool verbose);
  /// Records step `step`'s per-phase losses (`losses[p]` for phase p).
  void add(int step, std::span<const double> losses);
  /// Flushes a partial window into the histories and hands them over.
  TrainStats finish(int steps);

 private:
  void flush();

  std::string label_;
  bool has_d_;
  int log_every_;
  bool verbose_;
  TrainStats stats_;
  double g_acc_ = 0.0, d_acc_ = 0.0;
  int acc_n_ = 0;
};

/// Shared epoch/batch loop: calls `step(pl, vl, cond, step_index)` for every
/// mini-batch the source serves over `config.epochs` epochs. `cond` is the
/// batch's raw (PE, retention) tensor from SampleSource::next_batch_cond(),
/// or undefined for unconditioned sources.
///
/// With a LoopContext, additionally implements the fault-tolerance contract:
///  - config.snapshot: periodic nn::TrainState snapshots (atomic writes; a
///    failed write logs + counts but does not stop training) and, when
///    `resume` is set and the file exists, bit-identical continuation from
///    the snapshot — the epoch's shuffle is replayed from the recorded
///    rng_epoch_start state, the source rewinds to the recorded sample
///    cursor (completed steps are skipped without regenerating them), and
///    the RNG resumes from rng_current.
///  - config.sentinel: DivergenceError from `step` halts with a diagnostic
///    (kHalt, or no usable snapshot) or rolls back to the last good snapshot
///    with lr_scale *= lr_backoff (kRollback), up to max_rollbacks times.
/// Fault points: "train_kill" (simulated crash between steps).
using StepFn = std::function<void(const Tensor& pl, const Tensor& vl, const Tensor& cond, int)>;
int run_training_loop(pipeline::SampleSource& source, const TrainConfig& config,
                      flashgen::Rng& rng, const StepFn& step, LoopContext* ctx = nullptr);

/// Dataset convenience overload: wraps `dataset` in a pipeline::EagerSource
/// (bit-identical to the historic BatchSampler loop) and runs the loop above.
int run_training_loop(const data::PairedDataset& dataset, const TrainConfig& config,
                      flashgen::Rng& rng, const StepFn& step, LoopContext* ctx = nullptr);

/// Number of optimizer steps run_training_loop will execute.
int total_steps(const pipeline::SampleSource& source, const TrainConfig& config);
int total_steps(const data::PairedDataset& dataset, const TrainConfig& config);

/// pix2pix-style schedule: constant for the first half of training, then
/// linear decay to 10 % of the base rate.
float scheduled_lr(float base_lr, int step, int total_steps);

/// Global L2 norm of the accumulated gradients of `params` (parameters with
/// no gradient buffer contribute 0). Used for trace counters only.
double grad_norm(const std::vector<Tensor>& params);
}  // namespace detail

}  // namespace flashgen::models
