// RequestBatcher tests: batching must be invisible in the results (a request
// coalesced into a batch of 8 returns the same bits as the request run
// alone), and the wait policy must flush partial batches.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/metrics_json.h"

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

class BatcherTest : public ::testing::Test {
 protected:
  BatcherTest() {
    flashgen::Rng rng(1);
    auto dataset = data::PairedDataset::generate(tiny_dataset_config(), rng);
    model_ = core::make_model(core::ModelKind::CvaeGan, tiny_network_config(), /*seed=*/7);
    models::TrainConfig train;
    train.epochs = 1;
    train.batch_size = 8;
    train.log_every = 0;
    flashgen::Rng train_rng(2);
    model_->fit(dataset, train, train_rng);
    engine_ = std::make_unique<InferenceEngine>(*model_);

    for (std::size_t s = 0; s < 8; ++s) {
      std::vector<float> row(kRowElems);
      flashgen::Rng row_rng(100 + s);
      for (float& v : row)
        v = -1.0f + 0.25f * static_cast<float>(row_rng.uniform_int(8));
      rows_.push_back(std::move(row));
    }
  }

  /// Ground truth for request (row, stream): the engine run on that row alone.
  std::vector<float> alone(std::size_t request) {
    Tensor pl = Tensor::from_data(Shape({1, 1, 8, 8}), rows_[request]);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(kSeed, request)};
    std::vector<float> out(kRowElems);
    engine_->generate_into(pl, rngs, out);
    return out;
  }

  static constexpr std::size_t kRowElems = 64;
  static constexpr std::uint64_t kSeed = 42;

  std::unique_ptr<models::GenerativeModel> model_;
  std::unique_ptr<InferenceEngine> engine_;
  std::vector<std::vector<float>> rows_;
};

// A request coalesced into a full batch of 8 must return exactly the bits it
// would get running alone: per-request RNG streams plus per-sample batch-norm
// statistics decouple the rows.
TEST_F(BatcherTest, CoalescedBatchOfEightMatchesRequestAlone) {
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < 8; ++i) expected.push_back(alone(i));

  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_wait_micros = 200000;  // ample: all 8 must land in one batch
  ServeMetrics metrics;
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy, &metrics);

  const auto batches_before = engine_->stats().batches;
  std::vector<ResponseFuture> futures;
  for (std::size_t i = 0; i < 8; ++i)
    futures.push_back(batcher.submit(rows_[i], kSeed, /*stream=*/i));
  for (std::size_t i = 0; i < 8; ++i) {
    const std::vector<float> got = futures[i].get();
    ASSERT_EQ(got.size(), expected[i].size());
    for (std::size_t j = 0; j < got.size(); ++j)
      ASSERT_EQ(got[j], expected[i][j]) << "request " << i << " element " << j;
  }
  batcher.drain();
  // All 8 requests were queued before the executor could close a batch, so
  // they ran as one engine call.
  EXPECT_EQ(engine_->stats().batches, batches_before + 1);
}

// An isolated request must not wait for a full batch: the max_wait deadline
// flushes a batch of one.
TEST_F(BatcherTest, MaxWaitFlushesPartialBatch) {
  const std::vector<float> expected = alone(0);

  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_wait_micros = 1000;
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy);

  auto future = batcher.submit(rows_[0], kSeed, /*stream=*/0);
  const std::vector<float> got = future.get();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t j = 0; j < got.size(); ++j) ASSERT_EQ(got[j], expected[j]);
}

// Submissions racing from several threads all complete with the right bits,
// regardless of how the executor slices them into batches.
TEST_F(BatcherTest, ConcurrentSubmissionsAreIndependent) {
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < 8; ++i) expected.push_back(alone(i));

  BatchPolicy policy;
  policy.max_batch_size = 3;  // forces splits across batches
  policy.max_wait_micros = 500;
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy);

  std::vector<std::thread> threads;
  std::vector<std::vector<float>> got(8);
  for (std::size_t i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] { got[i] = batcher.submit(rows_[i], kSeed, i).get(); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(got[i].size(), expected[i].size());
    for (std::size_t j = 0; j < got[i].size(); ++j)
      ASSERT_EQ(got[i][j], expected[i][j]) << "request " << i;
  }
}

TEST_F(BatcherTest, RejectsWrongRowSize) {
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), BatchPolicy{});
  EXPECT_THROW((void)batcher.submit(std::vector<float>(7), kSeed, 0), Error);
}

TEST_F(BatcherTest, RecordsQueueAndBatchMetrics) {
  BatchPolicy policy;
  policy.max_batch_size = 4;
  policy.max_wait_micros = 1000;
  ServeMetrics metrics;
  {
    RequestBatcher batcher(*engine_, Shape({1, 8, 8}), policy, &metrics);
    std::vector<ResponseFuture> futures;
    for (std::size_t i = 0; i < 4; ++i)
      futures.push_back(batcher.submit(rows_[i], kSeed, i));
    for (auto& f : futures) (void)f.get();
    batcher.drain();
  }
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"batches\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth_peak\""), std::string::npos);
}

// A submit after close() is shed on the draining path: it must count once in
// the process-wide serve.shed counter, like a shed on a full queue, and the
// ServeMetrics "shed" key (a read of that counter) must move with it.
TEST_F(BatcherTest, SubmitAfterCloseCountsOneShedInBothCounters) {
  stats::Counter& shed_total = stats::counter("serve.shed");
  ServeMetrics metrics;
  RequestBatcher batcher(*engine_, Shape({1, 8, 8}), BatchPolicy{}, &metrics);
  batcher.close();
  const std::uint64_t before = shed_total.value();
  const std::uint64_t json_before = metrics_count(metrics.to_json(), "shed");
  EXPECT_THROW((void)batcher.submit(rows_[0], kSeed, 0), Overloaded);
  EXPECT_EQ(shed_total.value(), before + 1);
  EXPECT_EQ(metrics_count(metrics.to_json(), "shed"), json_before + 1) << metrics.to_json();
}

// The same coalescing check at the served geometry (side 16, 16 base
// channels, seeded untrained weights), where the convolutions run the packed
// GEMM: the batch of 8 folds each shared-weight GEMM's items into columns,
// while the request alone runs every GEMM one item wide.
TEST(BatcherServedGeometryTest, CoalescedBatchOfEightMatchesRequestAlone) {
  models::NetworkConfig network;
  network.array_size = 16;
  network.base_channels = 16;
  network.z_dim = 8;
  auto model = core::make_model(core::ModelKind::CvaeGan, network, /*seed=*/7);
  InferenceEngine engine(*model);
  constexpr std::size_t kElems = 16 * 16;
  constexpr std::uint64_t kSeed = 42;

  std::vector<std::vector<float>> rows;
  std::vector<std::vector<float>> expected;
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<float> row(kElems);
    flashgen::Rng row_rng(100 + i);
    for (float& v : row) v = -1.0f + 0.25f * static_cast<float>(row_rng.uniform_int(8));
    Tensor pl = Tensor::from_data(Shape({1, 1, 16, 16}), row);
    std::vector<flashgen::Rng> rngs = {flashgen::Rng::from_stream(kSeed, i)};
    std::vector<float> out(kElems);
    engine.generate_into(pl, rngs, out);
    rows.push_back(std::move(row));
    expected.push_back(std::move(out));
  }

  BatchPolicy policy;
  policy.max_batch_size = 8;
  policy.max_wait_micros = 200000;  // ample: all 8 must land in one batch
  RequestBatcher batcher(engine, Shape({1, 16, 16}), policy);
  const auto batches_before = engine.stats().batches;
  std::vector<ResponseFuture> futures;
  for (std::size_t i = 0; i < 8; ++i) futures.push_back(batcher.submit(rows[i], kSeed, i));
  for (std::size_t i = 0; i < 8; ++i) {
    const std::vector<float> got = futures[i].get();
    ASSERT_EQ(got.size(), expected[i].size());
    for (std::size_t j = 0; j < got.size(); ++j)
      ASSERT_EQ(got[j], expected[i][j]) << "request " << i << " element " << j;
  }
  batcher.drain();
  EXPECT_EQ(engine.stats().batches, batches_before + 1);
}

}  // namespace
}  // namespace flashgen::serve
