#include "models/bicycle_gan.h"

#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace flashgen::models {

BicycleGanModel::BicycleGanModel(const NetworkConfig& config, std::uint64_t seed)
    : config_(config), root_(config, seed) {}

std::unique_ptr<ShardedStepper> BicycleGanModel::make_sharded_stepper(const TrainConfig& config) {
  class Stepper : public ShardedStepper {
   public:
    Stepper(BicycleGanModel& m, const TrainConfig& config)
        : m_(m),
          lsgan_(config.lsgan),
          alpha_(config.alpha),
          beta_(config.beta),
          latent_weight_(config.latent_weight),
          z_dim_(m.config_.z_dim) {
      m_.root_.set_training(true);
      ge_params_ = m_.root_.generator.parameters();
      for (const Tensor& p : m_.root_.encoder.parameters()) ge_params_.push_back(p);
      d_params_ = m_.root_.discriminator.parameters();
      opt_ge_ = std::make_unique<nn::Adam>(ge_params_, nn::AdamConfig{.lr = config.lr});
      opt_d_ = std::make_unique<nn::Adam>(d_params_, nn::AdamConfig{.lr = config.lr});
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
        c.pl = pl;
        c.vl = vl;
        c.cond = normalize_conditions(raw_cond, m_.config_);
        c.dist = m_.root_.encoder.forward(vl);
        const Tensor z_enc = ResNetEncoder::sample_latent(c.dist, rng);
        c.fake_vae = m_.root_.generator.forward(pl, z_enc, rng, c.cond);
        c.z_rand = Tensor::randn(tensor::Shape{pl.shape()[0], z_dim_}, rng);
        c.fake_lr = m_.root_.generator.forward(pl, c.z_rand, rng, c.cond);
        const Tensor d_real = m_.root_.discriminator.forward(pl, vl, c.cond);
        const Tensor d_fake_vae =
            m_.root_.discriminator.forward(pl, c.fake_vae.detach(), c.cond);
        const Tensor d_fake_lr = m_.root_.discriminator.forward(pl, c.fake_lr.detach(), c.cond);
        Tensor loss_d = tensor::add(
            gan_loss(d_real, true, lsgan_),
            tensor::mul_scalar(tensor::add(gan_loss(d_fake_vae, false, lsgan_),
                                           gan_loss(d_fake_lr, false, lsgan_)),
                               0.5f));
        loss_d = tensor::mul_scalar(loss_d, 0.5f);
        loss_d.backward();
        return loss_d.item();
      }
      Tensor loss_g =
          gan_loss(m_.root_.discriminator.forward(c.pl, c.fake_vae, c.cond), true, lsgan_);
      loss_g = tensor::add(
          loss_g,
          gan_loss(m_.root_.discriminator.forward(c.pl, c.fake_lr, c.cond), true, lsgan_));
      loss_g = tensor::add(loss_g,
                           tensor::mul_scalar(tensor::l1_loss(c.fake_vae, c.vl), alpha_));
      loss_g = tensor::add(loss_g, tensor::mul_scalar(
                                       tensor::kl_standard_normal(c.dist.mu, c.dist.logvar),
                                       beta_));
      const ResNetEncoder::Output recovered = m_.root_.encoder.forward(c.fake_lr);
      loss_g = tensor::add(
          loss_g, tensor::mul_scalar(tensor::l1_loss(recovered.mu, c.z_rand), latent_weight_));
      loss_g.backward();
      return loss_g.item();
    }

   private:
    struct Cache {
      Tensor pl, vl, cond, fake_vae, fake_lr, z_rand;
      ResNetEncoder::Output dist;
    };
    BicycleGanModel& m_;
    bool lsgan_;
    float alpha_, beta_, latent_weight_;
    tensor::Index z_dim_;
    std::vector<Tensor> ge_params_, d_params_;
    std::unique_ptr<nn::Adam> opt_ge_, opt_d_;
    std::vector<Cache> cache_;
  };
  return std::make_unique<Stepper>(*this, config);
}

void BicycleGanModel::prepare_generation() { root_.set_training(false); }

Tensor BicycleGanModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  const Tensor z = Tensor::randn(tensor::Shape{pl.shape()[0], config_.z_dim}, rng);
  return root_.generator.forward(pl, z, rng);
}

Tensor BicycleGanModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs) {
  const Tensor z = detail::latent_rows(pl.shape()[0], config_.z_dim, rngs);
  return root_.generator.forward_rows(pl, z, rngs);
}

}  // namespace flashgen::models
