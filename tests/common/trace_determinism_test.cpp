// Tracing must be observation-only. A traced run and an untraced run of the
// same cVAE-GAN training step (unconditioned and conditioned on
// (PE, retention)) and the same served batch return bit-identical
// floats, at every thread count (FLASHGEN_THREADS equivalent of 1 and 4):
// spans record wall-clock timestamps and nothing else, so they can never
// perturb RNG streams, reduction orders, or floating-point math.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "models/cvae_gan.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/metrics.h"

namespace flashgen {
namespace {

using tensor::Shape;

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
  return config;
}

void configure(bool traced, int threads) {
  trace::reset_for_test();
  common::set_num_threads(threads);
  if (traced) {
    const auto path =
        std::filesystem::temp_directory_path() / "flashgen_trace_determinism.json";
    trace::start(path.string());
  }
}

// Tracing is a pure observer, so a traced run must still *record* something;
// otherwise the "identical results" assertion would pass vacuously.
void finish(bool traced) {
  if (traced) {
    EXPECT_GT(trace::event_count(), 0u);
    trace::reset_for_test();  // discard without writing a file
  }
}

// Restores the global thread count and discards any active trace session even
// when an assertion fails mid-test.
class TraceDeterminismTest : public ::testing::Test {
 protected:
  ~TraceDeterminismTest() override {
    trace::reset_for_test();
    common::set_num_threads(0);
  }
};

struct TrainRun {
  std::vector<float> g_hist;
  std::vector<float> d_hist;
  std::vector<float> sample;

  bool operator==(const TrainRun&) const = default;
};

// One epoch of `kind`: the unconditioned cVAE-GAN on a single-condition
// dataset, or the conditioned one (ModelKind::Temporal) across a
// (PE, retention) grid.
TrainRun run_training_step(core::ModelKind kind, bool traced, int threads) {
  configure(traced, threads);
  flashgen::Rng rng(1);
  const auto dataset = [&] {
    if (kind != core::ModelKind::Temporal) {
      return data::PairedDataset::generate(tiny_dataset_config(), rng);
    }
    data::DatasetConfig config = tiny_dataset_config();
    config.num_arrays = 4;  // per condition
    const std::vector<data::Condition> grid = {
        {1000.0, 0.0}, {4000.0, 500.0}, {8000.0, 0.0}, {8000.0, 500.0}};
    return data::PairedDataset::generate_multi(config, grid, rng);
  }();
  auto model = core::make_model(kind, tiny_network_config(), /*seed=*/7);
  models::TrainConfig train;
  train.epochs = 1;
  train.batch_size = 8;
  train.log_every = 1;
  flashgen::Rng train_rng(2);
  const models::TrainStats stats = model->fit(dataset, train, train_rng);

  std::vector<std::size_t> indices = {0, 1};
  auto [pl, vl] = dataset.batch(indices);
  flashgen::Rng gen_rng(3);
  tensor::Tensor out = model->generate(pl, gen_rng);

  TrainRun run;
  run.g_hist = stats.g_loss_history;
  run.d_hist = stats.d_loss_history;
  run.sample.assign(out.data().begin(), out.data().end());
  finish(traced);
  return run;
}

void expect_training_bit_identical(core::ModelKind kind) {
  const TrainRun baseline = run_training_step(kind, /*traced=*/false, /*threads=*/1);
  ASSERT_FALSE(baseline.g_hist.empty());
  ASSERT_FALSE(baseline.d_hist.empty());
  for (int threads : {1, 4}) {
    for (bool traced : {false, true}) {
      const TrainRun run = run_training_step(kind, traced, threads);
      EXPECT_TRUE(run == baseline) << core::to_string(kind) << " training diverged with traced="
                                   << traced << " threads=" << threads;
    }
  }
}

TEST_F(TraceDeterminismTest, TracedTrainingStepIsBitIdenticalAcrossThreadCounts) {
  expect_training_bit_identical(core::ModelKind::CvaeGan);
}

TEST_F(TraceDeterminismTest, TracedConditionedTrainingStepIsBitIdenticalAcrossThreadCounts) {
  expect_training_bit_identical(core::ModelKind::Temporal);
}

TEST_F(TraceDeterminismTest, TracedServeBatchIsBitIdenticalAcrossThreadCounts) {
  // Train once (untraced, single-threaded); the serve path is then replayed
  // under every (traced, threads) combination against the same weights.
  configure(/*traced=*/false, /*threads=*/1);
  flashgen::Rng rng(1);
  auto dataset = data::PairedDataset::generate(tiny_dataset_config(), rng);
  models::CvaeGanModel model(tiny_network_config(), /*seed=*/7);
  models::TrainConfig train;
  train.epochs = 1;
  train.batch_size = 8;
  train.log_every = 0;
  flashgen::Rng train_rng(2);
  model.fit(dataset, train, train_rng);

  std::vector<std::vector<float>> rows;
  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<float> row(64);
    flashgen::Rng row_rng(100 + s);
    for (float& v : row) v = -1.0f + 0.25f * static_cast<float>(row_rng.uniform_int(8));
    rows.push_back(std::move(row));
  }

  const auto run_batch = [&](bool traced, int threads) {
    configure(traced, threads);
    serve::InferenceEngine engine(model);
    serve::BatchPolicy policy;
    policy.max_batch_size = 4;
    policy.max_wait_micros = 200000;  // ample: all 4 requests land in one batch
    serve::ServeMetrics metrics;
    serve::RequestBatcher batcher(engine, Shape({1, 8, 8}), policy, &metrics);
    std::vector<flashgen::serve::ResponseFuture> futures;
    for (std::size_t i = 0; i < rows.size(); ++i)
      futures.push_back(batcher.submit(rows[i], /*seed=*/42, /*stream=*/i));
    std::vector<std::vector<float>> out;
    for (auto& f : futures) out.push_back(f.get());
    finish(traced);
    return out;
  };

  const std::vector<std::vector<float>> baseline = run_batch(/*traced=*/false, /*threads=*/1);
  for (int threads : {1, 4}) {
    for (bool traced : {false, true}) {
      EXPECT_TRUE(run_batch(traced, threads) == baseline)
          << "serve batch diverged with traced=" << traced << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace flashgen
