#include "models/cvae_gan.h"

#include "common/trace.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace flashgen::models {

namespace {
// Checkpoint metadata keys stamping the conditioning contract. Version 2 is
// the (PE, retention) pair scheme; version 1 (PE only) was never written with
// metadata, so legacy files surface as an empty map.
constexpr const char* kMetaCondVersion = "cond_version";
constexpr const char* kMetaPeScale = "pe_scale";
constexpr const char* kMetaRetentionScale = "retention_scale";
constexpr double kCondVersion = 2.0;

const NetworkConfig& validated(const NetworkConfig& config) {
  FG_CHECK(config.condition_dims == 0 || config.condition_dims == 2,
           "cVAE-GAN condition_dims must be 0 (unconditioned) or 2 (PE, retention), got "
               << config.condition_dims);
  if (config.condition_dims > 0) {
    FG_CHECK(config.pe_scale > 0.0, "pe_scale must be positive");
    FG_CHECK(config.retention_scale > 0.0, "retention_scale must be positive");
  }
  return config;
}
}  // namespace

CvaeGanModel::CvaeGanModel(const NetworkConfig& config, std::uint64_t seed)
    : config_(validated(config)),
      generation_condition_{.pe_cycles = config.pe_scale / 2.0, .retention_hours = 0.0},
      root_(config_, seed) {}

std::string CvaeGanModel::name() const {
  return condition_aware() ? "cVAE-GAN(PE,ret)" : "cVAE-GAN";
}

std::unique_ptr<ShardedStepper> CvaeGanModel::make_sharded_stepper(const TrainConfig& config) {
  // Local class: keeps access to CvaeGanModel's private Root while staying
  // out of the public header.
  class Stepper : public ShardedStepper {
   public:
    Stepper(CvaeGanModel& m, const TrainConfig& config) : m_(m), lsgan_(config.lsgan) {
      m_.root_.set_training(true);
      ge_params_ = m_.root_.generator.parameters();
      for (const Tensor& p : m_.root_.encoder.parameters()) ge_params_.push_back(p);
      d_params_ = m_.root_.discriminator.parameters();
      opt_ge_ = std::make_unique<nn::Adam>(ge_params_, nn::AdamConfig{.lr = config.lr});
      opt_d_ = std::make_unique<nn::Adam>(d_params_, nn::AdamConfig{.lr = config.lr});
      alpha_ = config.alpha;
      beta_ = config.beta;
    }

    int num_phases() const override { return 2; }
    const std::vector<Tensor>& phase_params(int phase) const override {
      return phase == 0 ? d_params_ : ge_params_;
    }
    nn::Adam& phase_optimizer(int phase) override { return phase == 0 ? *opt_d_ : *opt_ge_; }
    const char* phase_label(int phase) const override { return phase == 0 ? "d" : "g"; }
    void set_lr(float lr) override {
      opt_ge_->set_lr(lr);
      opt_d_->set_lr(lr);
    }

    void begin_step(int slots) override { cache_.assign(static_cast<std::size_t>(slots), {}); }
    void end_step() override { cache_.clear(); }

    double run_phase(int phase, int slot, const Tensor& pl, const Tensor& vl,
                     const Tensor& raw_cond, flashgen::Rng& rng) override {
      Cache& c = cache_[static_cast<std::size_t>(slot)];
      if (phase == 0) {
        FG_TRACE_SPAN("cvae_gan.d_step", "model");
        c.pl = pl;
        c.vl = vl;
        c.cond = normalize_conditions(raw_cond, m_.config_);
        {
          // Posterior latent from the real voltages (VAE branch).
          FG_TRACE_SPAN("cvae_gan.encoder", "model");
          c.dist = m_.root_.encoder.forward(vl);
        }
        const Tensor z = ResNetEncoder::sample_latent(c.dist, rng);
        {
          FG_TRACE_SPAN("cvae_gan.generator", "model");
          c.fake = m_.root_.generator.forward(pl, z, rng, c.cond);
        }
        const Tensor d_real = m_.root_.discriminator.forward(pl, vl, c.cond);
        const Tensor d_fake = m_.root_.discriminator.forward(pl, c.fake.detach(), c.cond);
        Tensor loss_d = tensor::mul_scalar(tensor::add(gan_loss(d_real, true, lsgan_),
                                                       gan_loss(d_fake, false, lsgan_)),
                                           0.5f);
        loss_d.backward();
        return loss_d.item();
      }
      FG_TRACE_SPAN("cvae_gan.g_step", "model");
      const Tensor d_fake2 = m_.root_.discriminator.forward(c.pl, c.fake, c.cond);
      const Tensor l1 = tensor::l1_loss(c.fake, c.vl);
      const Tensor kl = tensor::kl_standard_normal(c.dist.mu, c.dist.logvar);
      Tensor loss_g = gan_loss(d_fake2, true, lsgan_);
      loss_g = tensor::add(loss_g, tensor::mul_scalar(l1, alpha_));
      loss_g = tensor::add(loss_g, tensor::mul_scalar(kl, beta_));
      loss_g.backward();
      if (trace::enabled()) {
        trace::counter("cvae_gan.loss.l1", l1.item());
        trace::counter("cvae_gan.loss.kl", kl.item());
      }
      return loss_g.item();
    }

   private:
    struct Cache {
      Tensor pl, vl, cond, fake;
      ResNetEncoder::Output dist;
    };
    CvaeGanModel& m_;
    bool lsgan_;
    float alpha_ = 0.0f, beta_ = 0.0f;
    std::vector<Tensor> ge_params_, d_params_;
    std::unique_ptr<nn::Adam> opt_ge_, opt_d_;
    std::vector<Cache> cache_;
  };
  return std::make_unique<Stepper>(*this, config);
}

void CvaeGanModel::prepare_generation() {
  // Batch-statistics normalization at generation time (as in pix2pix /
  // BicycleGAN test mode): with the paper's batch size of 2, running stats
  // are too noisy to reproduce the training-time activation distributions.
  root_.set_training(true);
}

Tensor CvaeGanModel::condition_tensor(std::span<const data::Condition> conditions) const {
  if (!condition_aware()) return Tensor();
  const auto n = static_cast<tensor::Index>(conditions.size());
  Tensor raw = Tensor::zeros(tensor::Shape{n, 2});
  auto data = raw.data();
  for (std::size_t b = 0; b < conditions.size(); ++b) {
    data[2 * b] = static_cast<float>(conditions[b].pe_cycles);
    data[2 * b + 1] = static_cast<float>(conditions[b].retention_hours);
  }
  return normalize_conditions(raw, config_);
}

Tensor CvaeGanModel::condition_tensor(tensor::Index batch,
                                      const data::Condition& condition) const {
  if (!condition_aware()) return Tensor();
  return condition_tensor(std::vector<data::Condition>(static_cast<std::size_t>(batch), condition));
}

Tensor CvaeGanModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  const Tensor z =
      Tensor::randn(tensor::Shape{pl.shape()[0], config_.z_dim}, rng);
  return root_.generator.forward(pl, z, rng,
                                 condition_tensor(pl.shape()[0], generation_condition_));
}

Tensor CvaeGanModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs) {
  const Tensor z = detail::latent_rows(pl.shape()[0], config_.z_dim, rngs);
  return root_.generator.forward_rows(pl, z, rngs,
                                      condition_tensor(pl.shape()[0], generation_condition_));
}

Tensor CvaeGanModel::sample_rows_at(const Tensor& pl,
                                    std::span<const data::Condition> conditions,
                                    std::span<flashgen::Rng> rngs) {
  FG_CHECK(condition_aware(), name() << " does not support conditioned sampling");
  const tensor::Index n = pl.shape()[0];
  FG_CHECK(static_cast<tensor::Index>(conditions.size()) == n,
           "sample_rows_at: " << conditions.size() << " conditions for " << n << " rows");
  const Tensor cond = condition_tensor(conditions);
  const Tensor z = detail::latent_rows(n, config_.z_dim, rngs);
  return root_.generator.forward_rows(pl, z, rngs, cond);
}

Tensor CvaeGanModel::generate_at(const Tensor& pl, double pe_cycles, flashgen::Rng& rng) {
  return generate_at(pl, pe_cycles, 0.0, rng);
}

Tensor CvaeGanModel::generate_at(const Tensor& pl, double pe_cycles, double retention_hours,
                                 flashgen::Rng& rng) {
  FG_CHECK(condition_aware(), name() << " does not support conditioned sampling");
  prepare_generation();
  tensor::NoGradGuard no_grad;
  const Tensor z = Tensor::randn(tensor::Shape{pl.shape()[0], config_.z_dim}, rng);
  return root_.generator.forward(
      pl, z, rng,
      condition_tensor(pl.shape()[0],
                       {.pe_cycles = pe_cycles, .retention_hours = retention_hours}));
}

nn::CheckpointMeta CvaeGanModel::checkpoint_meta() const {
  if (!condition_aware()) return {};
  return {{kMetaCondVersion, kCondVersion},
          {kMetaPeScale, config_.pe_scale},
          {kMetaRetentionScale, config_.retention_scale}};
}

void CvaeGanModel::validate_checkpoint_meta(const nn::CheckpointMeta& meta,
                                            const std::string& path) {
  if (!condition_aware()) return;
  const auto version = meta.find(kMetaCondVersion);
  if (version == meta.end()) {
    throw nn::CheckpointVersionError(
        "checkpoint " + path +
        " predates (PE, retention) conditioning (cond_version 2); retrain or keep "
        "loading it with the PE-only model generation that wrote it");
  }
  if (version->second != kCondVersion) {
    throw nn::CheckpointVersionError("checkpoint " + path + " has cond_version " +
                                     std::to_string(version->second) + " but this model needs " +
                                     std::to_string(kCondVersion));
  }
  for (const char* key : {kMetaPeScale, kMetaRetentionScale}) {
    const auto it = meta.find(key);
    const double want = key == kMetaPeScale ? config_.pe_scale : config_.retention_scale;
    if (it == meta.end() || it->second != want) {
      throw nn::CheckpointVersionError(
          "checkpoint " + path + " was trained with " + key + " " +
          (it == meta.end() ? std::string("<missing>") : std::to_string(it->second)) +
          " but this model uses " + std::to_string(want) +
          "; conditions would be normalized differently");
    }
  }
}

}  // namespace flashgen::models
