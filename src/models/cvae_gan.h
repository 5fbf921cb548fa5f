// cVAE-GAN (Larsen et al. 2016, conditional form of BicycleGAN's cVAE-GAN
// branch): the paper's primary model.
//
// Training objective (paper Eq. 1):
//   min_{Gen,En} max_{Dis}  L_GAN + alpha * L_recon + beta * L_KL
// with the encoder posterior replacing the GAN prior during training and the
// standard-normal prior used at generation time.
//
// Spatio-temporal conditioning, the paper's stated "ultimate goal"
// (Section III-A) of learning P(VL | PL, PE), is a config value, not a
// subclass: built from a NetworkConfig with condition_dims = 2, the
// generator and discriminator also receive the normalized
// (P/E cycle count, retention time) pair, injected like the latent code
// (replicated spatially, concatenated into every Down layer). Trained on a
// multi-condition dataset (PairedDataset::generate_multi) or a
// condition-scheduled PrefetchSource stream, one network covers the channel
// across its wear range and interpolates between characterized conditions.
#pragma once

#include "models/generative_model.h"
#include "models/networks.h"

namespace flashgen::models {

class CvaeGanModel : public GenerativeModel {
 public:
  /// `seed` initializes network weights (training randomness comes from the
  /// Rng passed to fit/generate). `config.condition_dims` is 0
  /// (unconditioned) or 2 (conditioned on PE and retention, normalized by
  /// config.pe_scale / config.retention_scale, both positive).
  CvaeGanModel(const NetworkConfig& config, std::uint64_t seed);

  /// "cVAE-GAN", or "cVAE-GAN(PE,ret)" when conditioned.
  std::string name() const override;
  void prepare_generation() override;
  /// sample()/sample_rows() of a conditioned model generate at the condition
  /// set via set_generation_condition (defaults to pe_scale / 2 cycles at
  /// zero retention). Prefer generate_at / sample_rows_at for explicit
  /// control.
  Tensor sample(const Tensor& pl, flashgen::Rng& rng) override;
  Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs) override;
  nn::Module& root_module() override { return root_; }
  std::unique_ptr<ShardedStepper> make_sharded_stepper(const TrainConfig& config) override;

  bool condition_aware() const override { return config_.condition_dims > 0; }
  data::Condition default_condition() const override { return generation_condition_; }
  Tensor sample_rows_at(const Tensor& pl, std::span<const data::Condition> conditions,
                        std::span<flashgen::Rng> rngs) override;

  /// Generates voltage arrays for `pl` as if the block had endured
  /// `pe_cycles` program/erase cycles; the two-argument form reads
  /// immediately after programming (zero retention). Conditioned models only.
  Tensor generate_at(const Tensor& pl, double pe_cycles, flashgen::Rng& rng);
  Tensor generate_at(const Tensor& pl, double pe_cycles, double retention_hours,
                     flashgen::Rng& rng);

  /// Sets the condition used by the GenerativeModel::generate interface.
  /// set_generation_pe keeps the current retention (zero unless changed).
  void set_generation_pe(double pe_cycles) { generation_condition_.pe_cycles = pe_cycles; }
  void set_generation_condition(const data::Condition& condition) {
    generation_condition_ = condition;
  }

  const NetworkConfig& network_config() const { return config_; }

 protected:
  /// Conditioned models stamp their conditioning contract (cond_version 2
  /// and both scales) into an FGCKPT02 checkpoint and reject files without
  /// it; unconditioned models keep the metadata-free FGCKPT01 layout.
  nn::CheckpointMeta checkpoint_meta() const override;
  void validate_checkpoint_meta(const nn::CheckpointMeta& meta,
                                const std::string& path) override;

 private:
  /// Normalized (N, 2) conditioning tensor for per-row conditions, or an
  /// undefined tensor for an unconditioned model.
  Tensor condition_tensor(std::span<const data::Condition> conditions) const;
  /// condition_tensor with every one of `batch` rows at `condition`.
  Tensor condition_tensor(tensor::Index batch, const data::Condition& condition) const;

  struct Root : nn::Module {
    flashgen::Rng init_rng;  // declared first: initializes the networks below
    ResNetEncoder encoder;
    UNetGenerator generator;
    PatchDiscriminator discriminator;
    Root(const NetworkConfig& config, std::uint64_t seed)
        : init_rng(seed),
          encoder(config, init_rng),
          generator(config, init_rng),
          discriminator(config, init_rng) {
      register_module("encoder", encoder);
      register_module("generator", generator);
      register_module("discriminator", discriminator);
    }
  };

  NetworkConfig config_;
  data::Condition generation_condition_;
  Root root_;
};

}  // namespace flashgen::models
