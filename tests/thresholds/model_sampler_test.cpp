#include "thresholds/model_sampler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "models/cvae_gan.h"

namespace flashgen::thresholds {
namespace {

models::NetworkConfig tiny_network_config() {
  models::NetworkConfig config;
  config.array_size = 8;
  config.base_channels = 4;
  config.z_dim = 4;
  return config;
}

// The cVAE-GAN conditioned on (PE, retention) at the default 10000 / 1000
// normalization scales.
models::NetworkConfig conditioned_network_config() {
  models::NetworkConfig config = tiny_network_config();
  config.condition_dims = 2;
  return config;
}

std::vector<RowRequest> make_rows(int count, int side, std::uint64_t first_stream) {
  data::VoltageNormalizer normalizer;
  std::vector<RowRequest> rows(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    flashgen::Rng rng(900 + static_cast<std::uint64_t>(i));
    auto& row = rows[static_cast<std::size_t>(i)];
    row.stream = first_stream + static_cast<std::uint64_t>(i);
    row.program_levels.reserve(static_cast<std::size_t>(side * side));
    for (int c = 0; c < side * side; ++c)
      row.program_levels.push_back(normalizer.normalize_level(rng.uniform_int(8)));
  }
  return rows;
}

TEST(ModelSampler, RejectsConditionUnawareModel) {
  models::CvaeGanModel model(tiny_network_config(), /*seed=*/3);
  EXPECT_THROW(ModelSampler sampler(model), flashgen::Error);
}

TEST(ModelSampler, ReturnsOneVoltageRowPerRequest) {
  models::CvaeGanModel model(conditioned_network_config(), /*seed=*/3);
  ModelSampler sampler(model);
  const auto rows = make_rows(3, 8, /*first_stream=*/100);
  const auto out = sampler.sample(rows, /*seed=*/17, {4000.0, 100.0});
  ASSERT_EQ(out.size(), 3u);
  for (const auto& voltages : out) EXPECT_EQ(voltages.size(), 64u);
}

TEST(ModelSampler, RowsAreBatchingInvariant) {
  models::CvaeGanModel model(conditioned_network_config(), /*seed=*/3);
  ModelSampler sampler(model);
  const auto rows = make_rows(4, 8, /*first_stream=*/7);
  const data::Condition condition{6000.0, 48.0};
  const auto together = sampler.sample(rows, /*seed=*/17, condition);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto alone =
        sampler.sample(std::span<const RowRequest>(&rows[i], 1), /*seed=*/17, condition);
    EXPECT_EQ(together[i], alone[0]) << "row " << i << " depends on its batch";
  }
}

TEST(ModelSampler, ConditionChangesTheSample) {
  models::CvaeGanModel model(conditioned_network_config(), /*seed=*/3);
  ModelSampler sampler(model);
  const auto rows = make_rows(1, 8, /*first_stream=*/7);
  const auto fresh = sampler.sample(rows, /*seed=*/17, {0.0, 0.0});
  const auto worn = sampler.sample(rows, /*seed=*/17, {9000.0, 900.0});
  EXPECT_NE(fresh[0], worn[0]);
}

TEST(ModelSampler, RejectsRaggedAndNonSquareRows) {
  models::CvaeGanModel model(conditioned_network_config(), /*seed=*/3);
  ModelSampler sampler(model);
  auto rows = make_rows(2, 8, /*first_stream=*/0);
  rows[1].program_levels.pop_back();
  EXPECT_THROW(sampler.sample(rows, /*seed=*/1, {0.0, 0.0}), flashgen::Error);
  auto non_square = make_rows(1, 8, /*first_stream=*/0);
  non_square[0].program_levels.resize(63);
  EXPECT_THROW(sampler.sample(non_square, /*seed=*/1, {0.0, 0.0}), flashgen::Error);
}

// The sampler keeps its conv weights' packed panels across calls (at side 16
// with 16 base channels the convolutions run the packed GEMM); a load()
// rewrites the weights in place, and the next sample must come from them.
TEST(ModelSampler, LoadedWeightsAreSampledFresh) {
  models::NetworkConfig config = conditioned_network_config();
  config.array_size = 16;
  config.base_channels = 16;
  config.z_dim = 8;
  models::CvaeGanModel other(config, /*seed=*/4);
  const auto path = std::filesystem::temp_directory_path() /
                    ("flashgen_model_sampler_" + std::to_string(::getpid()) + ".ckpt");
  other.save(path.string());
  models::CvaeGanModel model(config, /*seed=*/3);
  ModelSampler sampler(model);
  const auto rows = make_rows(4, 16, /*first_stream=*/7);
  const data::Condition condition{6000.0, 48.0};
  const auto before = sampler.sample(rows, /*seed=*/17, condition);
  model.load(path.string());
  const auto reloaded = sampler.sample(rows, /*seed=*/17, condition);
  ModelSampler fresh(other);
  EXPECT_EQ(reloaded, fresh.sample(rows, /*seed=*/17, condition));
  EXPECT_NE(reloaded, before);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace flashgen::thresholds
