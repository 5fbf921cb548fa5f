#include "models/cgan.h"

#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace flashgen::models {

CganModel::CganModel(const NetworkConfig& config, std::uint64_t seed)
    : config_(strip_latent(config)), root_(config_, seed) {}

std::unique_ptr<ShardedStepper> CganModel::make_sharded_stepper(const TrainConfig& config) {
  class Stepper : public ShardedStepper {
   public:
    Stepper(CganModel& m, const TrainConfig& config)
        : m_(m), lsgan_(config.lsgan), alpha_(config.alpha) {
      m_.root_.set_training(true);
      g_params_ = m_.root_.generator.parameters();
      d_params_ = m_.root_.discriminator.parameters();
      opt_g_ = std::make_unique<nn::Adam>(g_params_, nn::AdamConfig{.lr = config.lr});
      opt_d_ = std::make_unique<nn::Adam>(d_params_, nn::AdamConfig{.lr = config.lr});
    }

    int num_phases() const override { return 2; }
    const std::vector<Tensor>& phase_params(int phase) const override {
      return phase == 0 ? d_params_ : g_params_;
    }
    nn::Adam& phase_optimizer(int phase) override { return phase == 0 ? *opt_d_ : *opt_g_; }
    const char* phase_label(int phase) const override { return phase == 0 ? "d" : "g"; }
    void set_lr(float lr) override {
      opt_g_->set_lr(lr);
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
        c.fake = m_.root_.generator.forward(pl, Tensor(), rng, c.cond);
        const Tensor d_real = m_.root_.discriminator.forward(pl, vl, c.cond);
        const Tensor d_fake = m_.root_.discriminator.forward(pl, c.fake.detach(), c.cond);
        Tensor loss_d = tensor::mul_scalar(tensor::add(gan_loss(d_real, true, lsgan_),
                                                       gan_loss(d_fake, false, lsgan_)),
                                           0.5f);
        loss_d.backward();
        return loss_d.item();
      }
      const Tensor d_fake2 = m_.root_.discriminator.forward(c.pl, c.fake, c.cond);
      Tensor loss_g =
          tensor::add(gan_loss(d_fake2, true, lsgan_),
                      tensor::mul_scalar(tensor::l1_loss(c.fake, c.vl), alpha_));
      loss_g.backward();
      return loss_g.item();
    }

   private:
    struct Cache {
      Tensor pl, vl, cond, fake;
    };
    CganModel& m_;
    bool lsgan_;
    float alpha_;
    std::vector<Tensor> g_params_, d_params_;
    std::unique_ptr<nn::Adam> opt_g_, opt_d_;
    std::vector<Cache> cache_;
  };
  return std::make_unique<Stepper>(*this, config);
}

void CganModel::prepare_generation() {
  // pix2pix keeps dropout active at test time as the only noise source.
  root_.set_training(true);
}

Tensor CganModel::sample(const Tensor& pl, flashgen::Rng& rng) {
  return root_.generator.forward(pl, Tensor(), rng);
}

Tensor CganModel::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs) {
  return root_.generator.forward_rows(pl, Tensor(), rngs);
}

}  // namespace flashgen::models
