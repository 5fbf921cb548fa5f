// Experiment: the paper's end-to-end workflow.
//
//   1. Characterize the channel (simulated blocks at a PE condition) into
//      train / eval datasets of paired 64x64-style crops.
//   2. Train a generative model on the train split.
//   3. Generate voltages for every eval program-level array with `z_samples`
//      latent draws each (paper: 10).
//   4. Score: conditional-PDF TV distances (Table I) and pattern-dependent
//      ICI Type I / Type II error statistics (Fig. 5, Table II).
//
// Trained network checkpoints are cached on disk keyed by the full config so
// the per-table bench binaries don't retrain the same model repeatedly.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "data/dataset.h"
#include "eval/histogram.h"
#include "eval/ici_analysis.h"
#include "eval/thresholds.h"
#include "flash/read.h"
#include "models/generative_model.h"
#include "models/networks.h"

namespace flashgen::core {

/// The models compared in the paper's evaluation, plus Temporal: the
/// spatio-temporal cVAE-GAN conditioned on (PE cycles, retention hours),
/// i.e. models::CvaeGanModel with NetworkConfig::condition_dims = 2.
enum class ModelKind { CvaeGan, BicycleGan, Cgan, Cvae, Gaussian, Temporal };

std::string to_string(ModelKind kind);

/// Constructs an untrained model of the given kind.
std::unique_ptr<models::GenerativeModel> make_model(ModelKind kind,
                                                    const models::NetworkConfig& config,
                                                    std::uint64_t seed);

struct ExperimentConfig {
  data::DatasetConfig dataset;      // training-set recipe (also sizes crops)
  int eval_arrays = 128;            // evaluation-set size (paper: 10,000)
  int z_samples = 10;               // latent draws per eval array (paper: 10)
  int generation_batch = 16;        // arrays generated per forward pass
  models::NetworkConfig network;
  int epochs = 3;                   // paper: 5
  int batch_size = 2;               // paper: 2 for the VAE-based models
  int cgan_batch_size = 16;         // paper: 64
  float lr = 2e-4f;                 // paper: 2e-4 (small configs raise this to
                                    // compensate for the reduced step count)
  float alpha = 10.0f;
  float beta = 0.01f;
  bool lsgan = false;
  std::uint64_t seed = 2023;
  eval::HistogramConfig histogram;
  /// Checkpoint cache directory; empty disables caching. Overridden by the
  /// FLASHGEN_CACHE_DIR environment variable when set.
  std::string cache_dir = "flashgen_cache";
  /// Resumable-training snapshot period in optimizer steps; 0 disables.
  /// Snapshots are written next to the cached checkpoint (requires caching)
  /// and deleted once training completes.
  int snapshot_every = 0;
  /// Pick up an interrupted run from its snapshot when one exists.
  bool resume_training = false;
  /// Divergence sentinel applied to every network trainer.
  models::SentinelConfig sentinel;
  /// Streamed training: when >= 0, network models train from a
  /// pipeline::PrefetchSource that simulates sample blocks on demand
  /// (0 = inline on the consumer thread) instead of the materialized train
  /// split. The streamed sequence is a pure function of `seed`; worker count
  /// and queue depth never change the trained bits, so they are excluded
  /// from the checkpoint fingerprint.
  int prefetch_workers = -1;
  /// Bounded-queue capacity (in sample blocks) for streamed training.
  int prefetch_queue_depth = 4;
  /// Spatio-temporal condition schedule. Empty trains at the dataset's single
  /// (pe_cycles, retention_hours) condition. Non-empty, the train split holds
  /// dataset.num_arrays crops per condition (streamed training round-robins
  /// sample g at conditions[g % n]); the eval split and measured statistics
  /// stay at the dataset's single condition. Only condition-aware kinds
  /// (ModelKind::Temporal) use the per-array conditions during fit.
  std::vector<data::Condition> train_conditions;
};

/// Returns a small configuration (16x16 arrays, reduced channel/dataset
/// sizes) that trains all five models in minutes on one CPU core while
/// preserving the paper's qualitative results. Used by benches and examples.
ExperimentConfig small_experiment_config();

/// small_experiment_config() extended with the canonical 3x2 (PE, retention)
/// training grid for ModelKind::Temporal: PE {1000, 4000, 8000} x retention
/// {0, 500} hours. The per-condition array count is scaled down so the total
/// sample count — and so training time — matches the single-condition
/// config. Sharing this one recipe across binaries (serve CLI, threshold
/// CLI, benches, tests) keeps the checkpoint-cache fingerprint identical, so
/// the model trains once.
ExperimentConfig small_temporal_experiment_config();

/// One model's scorecard against the measured channel.
struct ModelEvaluation {
  std::string name;
  std::array<double, flash::kTlcLevels> tv_per_level{};
  double tv_overall = 0.0;
  eval::ConditionalHistograms histograms;  // of the generated voltages
  eval::IciAnalysis ici;                   // of the generated voltages

  explicit ModelEvaluation(const eval::HistogramConfig& config) : histograms(config) {}
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  const ExperimentConfig& config() const { return config_; }
  const data::PairedDataset& train_data() const { return *train_; }
  const data::PairedDataset& eval_data() const { return *eval_; }

  /// Conditional histograms of the measured (simulated) eval voltages.
  const eval::ConditionalHistograms& measured_histograms() const { return measured_hists_; }
  /// Thresholds derived from the measured log-PDF intersections.
  const flash::Thresholds& thresholds() const { return thresholds_; }
  /// Level-0/1 threshold used for ICI victim errors.
  double vth0() const { return thresholds_[0]; }
  /// ICI statistics of the measured eval data.
  const eval::IciAnalysis& measured_ici() const { return measured_ici_; }

  /// Trains a model (or loads it from the checkpoint cache) on train_data().
  std::unique_ptr<models::GenerativeModel> train_or_load(ModelKind kind);

  /// Runs generation over the eval set and scores the model.
  ModelEvaluation evaluate(models::GenerativeModel& model);

  /// Training config a given model kind uses under this experiment.
  models::TrainConfig train_config(ModelKind kind) const;

 private:
  std::string cache_path(ModelKind kind) const;

  ExperimentConfig config_;
  std::optional<data::PairedDataset> train_;
  std::optional<data::PairedDataset> eval_;
  eval::ConditionalHistograms measured_hists_;
  flash::Thresholds thresholds_{};
  eval::IciAnalysis measured_ici_;
};

}  // namespace flashgen::core
