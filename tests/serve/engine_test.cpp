// InferenceEngine and ModelRegistry tests.
//
// The load-bearing property is the determinism contract: the forward-only
// serving path must be bit-identical to the training-path generate() for the
// same checkpoint and RNG streams, per row, at any batch size.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "models/cgan.h"
#include "models/cvae_gan.h"
#include "models/gaussian_model.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "tensor/gemm_backend.h"
#include "tensor/workspace.h"

namespace flashgen::serve {
namespace {

using tensor::Shape;

data::DatasetConfig tiny_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 64;
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

models::TrainConfig tiny_train_config() {
  models::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.log_every = 0;
  return config;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : rng_(1), dataset_(data::PairedDataset::generate(tiny_dataset_config(), rng_)) {}

  std::unique_ptr<models::GenerativeModel> trained(core::ModelKind kind) {
    auto model = core::make_model(kind, tiny_network_config(), /*seed=*/7);
    flashgen::Rng rng(2);
    model->fit(dataset_, tiny_train_config(), rng);
    return model;
  }

  Tensor eval_batch(std::size_t n) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < n; ++i) indices.push_back(i);
    auto [pl, vl] = dataset_.batch(indices);
    (void)vl;
    return pl;
  }

  flashgen::Rng rng_;
  data::PairedDataset dataset_;
};

// Engine rows must match the training-path generate() bit-for-bit: same
// checkpoint, same per-row stream, any batch size.
TEST_F(EngineTest, BitIdenticalToTrainingPathGenerate) {
  for (core::ModelKind kind :
       {core::ModelKind::CvaeGan, core::ModelKind::Cgan, core::ModelKind::Gaussian}) {
    auto model = trained(kind);
    const Tensor pl = eval_batch(4);
    const auto row_elems = static_cast<std::size_t>(pl.numel() / pl.shape()[0]);

    // Baseline: the training-path generate(), one row at a time.
    std::vector<float> baseline;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto src = pl.data().subspan(s * row_elems, row_elems);
      Tensor row = Tensor::from_data(Shape({1, 1, 8, 8}),
                                     std::vector<float>(src.begin(), src.end()));
      flashgen::Rng row_rng = flashgen::Rng::from_stream(42, s);
      Tensor y = model->generate(row, row_rng);
      baseline.insert(baseline.end(), y.data().begin(), y.data().end());
    }

    InferenceEngine engine(*model);
    engine.warmup(pl);
    std::vector<flashgen::Rng> rngs;
    for (std::size_t s = 0; s < 4; ++s) rngs.push_back(flashgen::Rng::from_stream(42, s));
    std::vector<float> served(baseline.size());
    engine.generate_into(pl, rngs, served);

    ASSERT_EQ(served.size(), baseline.size());
    for (std::size_t i = 0; i < served.size(); ++i)
      ASSERT_EQ(served[i], baseline[i]) << core::to_string(kind) << " element " << i;
    EXPECT_GE(engine.stats().batches, 1u);
  }
}

// After warm-up, repeated fixed-shape batches must be served entirely from
// the workspace pool: the fresh-allocation counter stops moving.
TEST_F(EngineTest, SteadyStateDoesNotHeapAllocate) {
  auto model = trained(core::ModelKind::CvaeGan);
  InferenceEngine engine(*model);
  const Tensor pl = eval_batch(4);
  engine.warmup(pl, /*rounds=*/3);

  auto& pool = tensor::WorkspacePool::this_thread();
  pool.reset_stats();
  std::vector<flashgen::Rng> rngs;
  for (std::size_t s = 0; s < 4; ++s) rngs.push_back(flashgen::Rng::from_stream(9, s));
  for (int round = 0; round < 3; ++round) {
    auto fresh_rngs = rngs;
    (void)engine.sample_rows(pl, fresh_rngs);
  }
  EXPECT_EQ(pool.stats().fresh, 0u)
      << "steady-state sampling heap-allocated " << pool.stats().fresh << " buffers";
  EXPECT_GT(pool.stats().reused, 0u);
}

TEST_F(EngineTest, RejectsMismatchedStreamCount) {
  auto model = trained(core::ModelKind::Gaussian);
  InferenceEngine engine(*model);
  const Tensor pl = eval_batch(4);
  std::vector<flashgen::Rng> rngs(3, flashgen::Rng(0));
  EXPECT_THROW((void)engine.sample_rows(pl, rngs), Error);
}

// A wrong-sized output span is rejected before the forward pass, in the plain
// and the conditioned flavor: no batch runs and no rows are counted, in the
// engine's stats or in serve.rows_inferred.
TEST_F(EngineTest, MismatchedOutputSpanThrowsBeforeCountingRows) {
  auto model = core::make_model(core::ModelKind::Temporal, tiny_network_config(), /*seed=*/7);
  InferenceEngine engine(*model);
  const Tensor pl = eval_batch(2);
  std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(5, 0),
                                     flashgen::Rng::from_stream(5, 1)};
  const std::vector<data::Condition> conditions = {{1000.0, 0.0}, {4000.0, 500.0}};
  const stats::Counter& rows_total = stats::counter("serve.rows_inferred");
  const std::uint64_t rows_before = rows_total.value();

  std::vector<float> out(static_cast<std::size_t>(pl.numel()) - 1);
  EXPECT_THROW(engine.generate_into(pl, rngs, out), Error);
  EXPECT_THROW(engine.generate_into_at(pl, conditions, rngs, out), Error);
  EXPECT_EQ(engine.stats().batches, 0u);
  EXPECT_EQ(engine.stats().rows, 0u);
  EXPECT_EQ(rows_total.value(), rows_before);

  out.resize(static_cast<std::size_t>(pl.numel()));
  engine.generate_into_at(pl, conditions, rngs, out);
  EXPECT_EQ(engine.stats().batches, 1u);
  EXPECT_EQ(engine.stats().rows, 2u);
  EXPECT_EQ(rows_total.value(), rows_before + 2);
}

// Registry checkpoint round-trip: a model restored from disk must serve the
// same bits as the instance that trained it. Covers GaussianModel::on_loaded
// (normalizer rebuilt from the checkpoint buffer) and the network models.
TEST_F(EngineTest, RegistryLoadsCheckpointBitIdentical) {
  // Per process: the reference/ backend twin of this test runs in parallel.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("flashgen_engine_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  for (core::ModelKind kind : {core::ModelKind::CvaeGan, core::ModelKind::Gaussian}) {
    auto model = trained(kind);
    const std::string path = (dir / (core::to_string(kind) + ".ckpt")).string();
    model->save(path);

    ModelRegistry registry;
    registry.load("m", kind, tiny_network_config(), path, /*warmup_batch=*/2);
    ASSERT_TRUE(registry.contains("m"));
    EXPECT_EQ(registry.names(), std::vector<std::string>{"m"});

    const Tensor pl = eval_batch(2);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(5, 0),
                                       flashgen::Rng::from_stream(5, 1)};
    auto rngs_copy = rngs;

    InferenceEngine original(*model);
    Tensor expected = original.sample_rows(pl, rngs);
    Tensor restored = registry.at("m").engine().sample_rows(pl, rngs_copy);

    ASSERT_EQ(expected.shape(), restored.shape()) << core::to_string(kind);
    for (std::size_t i = 0; i < expected.data().size(); ++i)
      ASSERT_EQ(expected.data()[i], restored.data()[i]) << core::to_string(kind);

    registry.load("other", kind, tiny_network_config(), path, /*warmup_batch=*/0);
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_THROW(registry.at("missing"), Error);
    std::remove(path.c_str());
  }
}

// ---- packed weight panels ---------------------------------------------------
//
// At the served geometry (side 16, 16 base channels, seeded untrained
// weights) every U-Net convolution runs the packed GEMM, so an engine keeps
// its weights' packed panels across calls. Under the reference backend the
// cache stays empty and these tests only check the served bits.

models::NetworkConfig served_network() {
  models::NetworkConfig network;
  network.array_size = 16;
  network.base_channels = 16;
  network.z_dim = 8;
  return network;
}

Tensor served_pl(std::size_t rows) {
  std::vector<float> levels(rows * 16 * 16);
  flashgen::Rng rng(100);
  for (float& v : levels) v = -1.0f + 0.25f * static_cast<float>(rng.uniform_int(8));
  return Tensor::from_data(Shape({static_cast<tensor::Index>(rows), 1, 16, 16}),
                           std::move(levels));
}

std::vector<float> served_rows(InferenceEngine& engine, const Tensor& pl) {
  std::vector<flashgen::Rng> rngs;
  for (tensor::Index i = 0; i < pl.shape()[0]; ++i)
    rngs.push_back(flashgen::Rng::from_stream(42, static_cast<std::uint64_t>(i)));
  std::vector<float> out(static_cast<std::size_t>(pl.numel()));
  engine.generate_into(pl, rngs, out);
  return out;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

bool packed_backend() { return tensor::gemm_backend_name() != "reference"; }

// load() rewrites the weights in place, behind the same pointers the panels
// are keyed by: the next forward must repack, and equal a fresh engine on
// the loaded weights bit for bit.
TEST(EngineWeightPanels, LoadInvalidatesPackedPanels) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("flashgen_engine_panels_" + std::to_string(::getpid()) + ".ckpt");
  auto other = core::make_model(core::ModelKind::CvaeGan, served_network(), /*seed=*/8);
  other->save(path.string());
  auto served = core::make_model(core::ModelKind::CvaeGan, served_network(), /*seed=*/7);
  InferenceEngine engine(*served);
  const Tensor pl = served_pl(4);
  const std::vector<float> before = served_rows(engine, pl);
  if (packed_backend()) {
    EXPECT_GT(engine.weight_panels().size(), 0u);
  }

  engine.model().load(path.string());
  const std::vector<float> reloaded = served_rows(engine, pl);
  InferenceEngine fresh(*other);
  EXPECT_TRUE(same_bits(reloaded, served_rows(fresh, pl)));
  EXPECT_FALSE(same_bits(reloaded, before));
  std::filesystem::remove(path);
}

// A conv layer keeps at most two panel layouts (one per tile orientation),
// so forwards at every batch size fill the cache to a fixed size. Batch 1
// packs each packed conv layer exactly once (all sideways).
TEST(EngineWeightPanels, AtMostTwoPanelsPerConvLayer) {
  auto model = core::make_model(core::ModelKind::CvaeGan, served_network(), /*seed=*/7);
  InferenceEngine engine(*model);
  (void)served_rows(engine, served_pl(1));
  const std::size_t layers = engine.weight_panels().size();
  if (packed_backend()) {
    EXPECT_GT(layers, 0u);
  }
  for (std::size_t rows = 1; rows <= 8; ++rows) (void)served_rows(engine, served_pl(rows));
  const std::size_t filled = engine.weight_panels().size();
  EXPECT_LE(filled, 2 * layers);
  for (std::size_t rows = 1; rows <= 8; ++rows) (void)served_rows(engine, served_pl(rows));
  EXPECT_EQ(engine.weight_panels().size(), filled);
}

}  // namespace
}  // namespace flashgen::serve
