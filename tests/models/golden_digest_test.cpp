// Golden digests: FNV-1a hashes of trained weights, loss histories,
// checkpoint file bytes, generated batches, a read-threshold report and
// soft-read LLR tables, pinned as constants.
//
// The determinism tests elsewhere compare two runs of the same build; these
// pin the bits across commits, so a refactor of the trainers, the model
// classes or the checkpoint writer that changes any output — one RNG draw
// reordered, one loss term summed differently, one metadata byte moved —
// fails here. Every value is a pure function of seeds and configs, and the
// determinism contract makes it independent of thread count and GEMM
// backend, so the same constants hold in the reference/ backend matrix.
//
// The test goes through core::make_model and the GenerativeModel interface
// only, so it compiles unchanged against any layout of the model classes.
// Never edit a constant to make a failure go away: a changed digest means
// changed training or generation bits.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "dist/comm.h"
#include "dist/trainer.h"
#include "eval/llr.h"
#include "flash/channel.h"
#include "models/generative_model.h"
#include "pipeline/prefetch.h"
#include "pipeline/sample_source.h"
#include "serve/engine.h"
#include "tensor/gemm_packed.h"
#include "thresholds/model_sampler.h"
#include "thresholds/optimizer.h"

namespace flashgen {
namespace {

using core::ModelKind;

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void floats(std::span<const float> values) {
    bytes(values.data(), values.size() * sizeof(float));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

data::DatasetConfig tiny_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 16;
  config.channel.rows = 32;
  config.channel.cols = 32;
  return config;
}

models::NetworkConfig tiny_network_config() {
  models::NetworkConfig config;
  config.array_size = 8;
  config.base_channels = 4;
  config.z_dim = 4;
  config.pe_scale = 10000.0;
  config.retention_scale = 1000.0;
  return config;
}

// Two epochs of four steps, one history entry per two steps.
models::TrainConfig tiny_train_config() {
  models::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 4;
  config.log_every = 2;
  return config;
}

// The canonical 3x2 (PE, retention) training grid.
std::vector<data::Condition> condition_grid() {
  std::vector<data::Condition> grid;
  for (double pe : {1000.0, 4000.0, 8000.0})
    for (double retention : {0.0, 500.0}) grid.push_back({pe, retention});
  return grid;
}

data::PairedDataset dataset_for(ModelKind kind) {
  flashgen::Rng rng(1);
  if (kind != ModelKind::Temporal) {
    return data::PairedDataset::generate(tiny_dataset_config(), rng);
  }
  data::DatasetConfig config = tiny_dataset_config();
  config.num_arrays = 4;  // per condition: 24 arrays over the grid
  const std::vector<data::Condition> grid = condition_grid();
  return data::PairedDataset::generate_multi(config, grid, rng);
}

// Full module state (names and values) plus the loss histories.
std::uint64_t train_digest(models::GenerativeModel& model, const models::TrainStats& stats) {
  Fnv1a h;
  for (const auto& entry : model.root_module().named_state()) {
    h.bytes(entry.name.data(), entry.name.size());
    h.floats(entry.tensor.data());
  }
  h.floats(stats.g_loss_history);
  h.floats(stats.d_loss_history);
  const std::int32_t steps = stats.steps;
  h.bytes(&steps, sizeof steps);
  return h.value();
}

std::uint64_t tensor_digest(const tensor::Tensor& t) {
  Fnv1a h;
  h.floats(t.data());
  return h.value();
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  Fnv1a h;
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

// Per process: the reference/ backend twins of these tests run in parallel.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("flashgen_golden_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

std::unique_ptr<models::GenerativeModel> fitted(ModelKind kind, models::TrainStats* stats) {
  auto model = core::make_model(kind, tiny_network_config(), /*seed=*/7);
  const data::PairedDataset dataset = dataset_for(kind);
  flashgen::Rng rng(2);
  *stats = model->fit(dataset, tiny_train_config(), rng);
  return model;
}

// Four program-level rows drawn from the tiny dataset.
tensor::Tensor pl_rows() {
  const data::PairedDataset dataset = dataset_for(ModelKind::CvaeGan);
  std::vector<std::size_t> indices = {0, 1, 2, 3};
  return dataset.batch(indices).first;
}

std::vector<flashgen::Rng> row_rngs(std::size_t n) {
  std::vector<flashgen::Rng> rngs;
  for (std::size_t i = 0; i < n; ++i) rngs.push_back(flashgen::Rng::from_stream(42, i));
  return rngs;
}

std::uint64_t fit_digest(ModelKind kind) {
  models::TrainStats stats;
  auto model = fitted(kind, &stats);
  return train_digest(*model, stats);
}

TEST(GoldenDigest, CvaeGanFit) {
  EXPECT_EQ(fit_digest(ModelKind::CvaeGan), 0xc68445bbc21f4672ULL);
}
TEST(GoldenDigest, TemporalFit) {
  EXPECT_EQ(fit_digest(ModelKind::Temporal), 0x07509997f214ceafULL);
}
TEST(GoldenDigest, CganFit) {
  EXPECT_EQ(fit_digest(ModelKind::Cgan), 0xbae52fd646544313ULL);
}
TEST(GoldenDigest, CvaeFit) {
  EXPECT_EQ(fit_digest(ModelKind::Cvae), 0x5f0e77af9f40cc41ULL);
}
TEST(GoldenDigest, BicycleGanFit) {
  EXPECT_EQ(fit_digest(ModelKind::BicycleGan), 0x80ef101e6d32c6a2ULL);
}

TEST(GoldenDigest, TemporalFitStreamOverPrefetchSource) {
  pipeline::StreamConfig stream;
  stream.dataset = tiny_dataset_config();
  stream.dataset.num_arrays = 12;  // three batches of four per epoch
  stream.dataset.channel.rows = 8;
  stream.dataset.channel.cols = 8;
  stream.seed = 17;
  stream.conditions = condition_grid();
  pipeline::PrefetchSource source(stream, /*global_batch=*/4,
                                  pipeline::PrefetchConfig{.workers = 1, .queue_depth = 2});
  auto model = core::make_model(ModelKind::Temporal, tiny_network_config(), /*seed=*/7);
  flashgen::Rng rng(2);
  const models::TrainStats stats = model->fit_stream(source, tiny_train_config(), rng);
  EXPECT_EQ(train_digest(*model, stats), 0x2258fecab5916f7fULL);
}

TEST(GoldenDigest, TemporalDistTrainerWorldOneTwoShards) {
  auto comms = dist::make_local_mesh(1);
  dist::DistTrainer trainer(comms[0], dist::DistConfig{.num_shards = 2, .seed = 5});
  auto model = core::make_model(ModelKind::Temporal, tiny_network_config(), /*seed=*/7);
  const data::PairedDataset dataset = dataset_for(ModelKind::Temporal);
  flashgen::Rng rng(2);
  const models::TrainStats stats = trainer.fit(*model, dataset, tiny_train_config(), rng);
  EXPECT_EQ(train_digest(*model, stats), 0x810a82526d7876f2ULL);
}

TEST(GoldenDigest, UnconditionedCheckpointFileBytes) {
  models::TrainStats stats;
  auto model = fitted(ModelKind::CvaeGan, &stats);
  const std::string path = temp_path("cvae_gan.ckpt");
  model->save(path);
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof magic);
  EXPECT_EQ(std::string(magic, sizeof magic), "FGCKPT01");
  EXPECT_EQ(file_digest(path), 0x0a2f87eb543081c3ULL);
  std::filesystem::remove(path);
}

TEST(GoldenDigest, TemporalCheckpointFileBytes) {
  models::TrainStats stats;
  auto model = fitted(ModelKind::Temporal, &stats);
  const std::string path = temp_path("temporal.ckpt");
  model->save(path);
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof magic);
  EXPECT_EQ(std::string(magic, sizeof magic), "FGCKPT02");
  EXPECT_EQ(file_digest(path), 0x992c1853d8897dccULL);
  std::filesystem::remove(path);
}

TEST(GoldenDigest, CvaeGanGenerateRows) {
  models::TrainStats stats;
  auto model = fitted(ModelKind::CvaeGan, &stats);
  std::vector<flashgen::Rng> rngs = row_rngs(4);
  EXPECT_EQ(tensor_digest(model->generate_rows(pl_rows(), rngs)), 0x3bf6fe9be53b2ba6ULL);
}

TEST(GoldenDigest, TemporalSampleRowsAt) {
  models::TrainStats stats;
  auto model = fitted(ModelKind::Temporal, &stats);
  ASSERT_TRUE(model->condition_aware());
  const std::vector<data::Condition> conditions = {
      {1000.0, 0.0}, {4000.0, 500.0}, {8000.0, 250.0}, {2500.0, 0.0}};
  std::vector<flashgen::Rng> rngs = row_rngs(4);
  model->prepare_generation();
  tensor::NoGradGuard no_grad;
  EXPECT_EQ(tensor_digest(model->sample_rows_at(pl_rows(), conditions, rngs)),
            0x4b36acbe92371d65ULL);
}

// The perfbench generate_unet geometry: side 16, 16 base channels.
models::NetworkConfig served_network() {
  models::NetworkConfig network;
  network.array_size = 16;
  network.base_channels = 16;
  network.z_dim = 8;
  return network;
}

// `rows` rows served through InferenceEngine::generate_into at the served
// geometry with seeded, untrained weights. Unlike the tiny geometry above,
// whose GEMMs mostly fall below the packed threshold, these convolutions run
// the packed microkernels, so these digests pin the packed GEMM path.
std::uint64_t served_digest(std::size_t rows) {
  auto model = core::make_model(ModelKind::CvaeGan, served_network(), /*seed=*/7);
  serve::InferenceEngine engine(*model);
  data::DatasetConfig config = tiny_dataset_config();
  config.array_size = 16;
  config.num_arrays = 4;
  flashgen::Rng data_rng(3);
  const data::PairedDataset dataset = data::PairedDataset::generate(config, data_rng);
  std::vector<std::size_t> indices(rows);
  for (std::size_t i = 0; i < rows; ++i) indices[i] = i;
  const tensor::Tensor pl = dataset.batch(indices).first;
  std::vector<flashgen::Rng> rngs = row_rngs(rows);
  std::vector<float> out(static_cast<std::size_t>(pl.numel()));
  engine.generate_into(pl, rngs, out);
  Fnv1a h;
  h.floats(out);
  return h.value();
}

TEST(GoldenDigest, ServedGenerateBatch) {
  // First down-conv: 16 output channels over an 8x8 map, (1 + z_dim) * 4 * 4 taps.
  tensor::GemmDesc first_down;
  first_down.m = 16;
  first_down.n = 64;
  first_down.k = (1 + served_network().z_dim) * 16;
  ASSERT_FALSE(tensor::detail::packed_gemm_uses_fallback(first_down));
  // Innermost down-conv: 128 output channels over a 1x1 map, (64 + z_dim) * 4 * 4
  // taps. One column per item; the batch folds into the columns of one GEMM.
  tensor::GemmDesc down3;
  down3.m = 128;
  down3.n = 1;
  down3.k = (64 + served_network().z_dim) * 16;
  ASSERT_FALSE(tensor::detail::packed_gemm_uses_fallback(down3));
  EXPECT_EQ(served_digest(4), 0x36d809805462004aULL);
}

// One row alone: every convolution runs as a single-item GEMM (the
// per-sample path, no batch to fold into columns).
TEST(GoldenDigest, ServedGenerateSingleRow) {
  EXPECT_EQ(served_digest(1), 0xdebd4afffdd9c262ULL);
}

// Two streamed training steps of the conditioned cVAE-GAN at the perfbench
// train_stream geometry (side 16, 16 base channels, z_dim 8, batch 8) over a
// one-worker PrefetchSource. At this size the training GEMMs clear the
// packed threshold, including the beta = 1 conv-transpose dX products of the
// inner up-convs whose items are only 1 or 4 columns wide, so this pins the
// packed path of a training step that the tiny geometry above never reaches.
TEST(GoldenDigest, TemporalFitStreamAtBenchGeometry) {
  pipeline::StreamConfig stream;
  stream.dataset.array_size = 16;
  stream.dataset.num_arrays = 16;  // two batches of eight
  stream.dataset.channel.rows = 16;
  stream.dataset.channel.cols = 16;
  stream.seed = 17;
  stream.conditions = condition_grid();
  pipeline::PrefetchSource source(stream, /*global_batch=*/8,
                                  pipeline::PrefetchConfig{.workers = 1, .queue_depth = 4});
  auto model = core::make_model(ModelKind::Temporal, served_network(), /*seed=*/7);
  models::TrainConfig train;
  train.epochs = 1;
  train.batch_size = 8;
  train.lr = 1e-3f;
  train.beta = 1.0f;
  train.log_every = 1;
  flashgen::Rng rng(4);
  const models::TrainStats stats = model->fit_stream(source, train, rng);
  ASSERT_EQ(stats.steps, 2);
  EXPECT_EQ(train_digest(*model, stats), 0x156b55018dcd0e0cULL);
}

// A read-threshold ladder sampled in process from the seeded, untrained
// side-8 cVAE-GAN conditioned on (PE, retention): pins the conditioned
// sampling path plus histogram accumulation, crossing candidates and the
// coordinate-descent refinement the threshold service serves.
TEST(GoldenDigest, ThresholdReportFromModelSampler) {
  auto model = core::make_model(ModelKind::Temporal, tiny_network_config(), /*seed=*/7);
  thresholds::ModelSampler sampler(*model);
  thresholds::OptimizerConfig config;
  config.side = tiny_network_config().array_size;
  config.batch_rows = 4;
  config.waves = 2;
  thresholds::ThresholdOptimizer optimizer(sampler, config);
  const thresholds::ThresholdReport report = optimizer.optimize({6000.0, 250.0});
  ASSERT_FALSE(report.from_cache);
  Fnv1a h;
  h.bytes(report.thresholds.data(), sizeof report.thresholds);
  h.bytes(report.page_ber.data(), sizeof report.page_ber);
  h.bytes(&report.level_error_rate, sizeof report.level_error_rate);
  h.bytes(&report.mutual_information_bits, sizeof report.mutual_information_bits);
  h.bytes(&report.sample_cells, sizeof report.sample_cells);
  EXPECT_EQ(h.value(), 0x55c62d03508b0c8dULL);
}

// Per-page soft-read LLR tables built from a seeded simulated-channel
// characterization (four 32x32 blocks at 4000 P/E).
TEST(GoldenDigest, LlrTablesFromSeededChannel) {
  flash::FlashChannelConfig channel_config;
  channel_config.rows = 32;
  channel_config.cols = 32;
  const flash::FlashChannel channel(channel_config);
  flashgen::Rng rng(7);
  eval::ConditionalHistograms hists;
  for (int block = 0; block < 4; ++block) {
    const flash::BlockObservation obs = channel.run_experiment(4000.0, rng);
    hists.add_grids(obs.program_levels, obs.voltages);
  }
  Fnv1a h;
  for (flash::Page page : {flash::Page::Lower, flash::Page::Middle, flash::Page::Upper}) {
    const eval::LlrTable table(hists, page);
    h.bytes(table.values().data(), table.values().size() * sizeof(double));
  }
  EXPECT_EQ(h.value(), 0xea946d170b65c19fULL);
}

}  // namespace
}  // namespace flashgen
