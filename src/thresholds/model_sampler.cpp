#include "thresholds/model_sampler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/workspace.h"

namespace flashgen::thresholds {

ModelSampler::ModelSampler(models::GenerativeModel& model) : model_(model) {
  FG_CHECK(model_.condition_aware(),
           "ModelSampler: model " << model_.name() << " does not accept conditions");
  model_.prepare_generation();
}

std::vector<std::vector<float>> ModelSampler::sample(std::span<const RowRequest> rows,
                                                     std::uint64_t seed,
                                                     const data::Condition& condition) {
  FG_CHECK(!rows.empty(), "ModelSampler: empty batch");
  const std::size_t cells = rows.front().program_levels.size();
  const auto side = static_cast<tensor::Index>(std::llround(std::sqrt(static_cast<double>(cells))));
  FG_CHECK(static_cast<std::size_t>(side) * static_cast<std::size_t>(side) == cells,
           "ModelSampler: PL row of " << cells << " cells is not square");

  tensor::Tensor pl =
      tensor::Tensor::zeros(tensor::Shape({static_cast<tensor::Index>(rows.size()), 1, side, side}));
  auto pl_data = pl.data();
  std::vector<flashgen::Rng> rngs;
  std::vector<data::Condition> conditions(rows.size(), condition);
  rngs.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    FG_CHECK(rows[i].program_levels.size() == cells,
             "ModelSampler: ragged batch (row " << i << " has " << rows[i].program_levels.size()
                                                << " cells, row 0 has " << cells << ")");
    std::copy(rows[i].program_levels.begin(), rows[i].program_levels.end(),
              pl_data.begin() + static_cast<std::ptrdiff_t>(i * cells));
    rngs.push_back(flashgen::Rng::from_stream(seed, rows[i].stream));
  }

  tensor::InferenceModeGuard inference;
  const tensor::WeightPanelCache::Scope panels(panels_, model_.weights_version());
  const tensor::Tensor generated = model_.sample_rows_at(pl, conditions, rngs);
  FG_CHECK(generated.data().size() == rows.size() * cells,
           "ModelSampler: model returned " << generated.data().size() << " floats for "
                                           << rows.size() << " rows of " << cells);
  std::vector<std::vector<float>> out(rows.size());
  const auto generated_data = generated.data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out[i].assign(generated_data.begin() + static_cast<std::ptrdiff_t>(i * cells),
                  generated_data.begin() + static_cast<std::ptrdiff_t>((i + 1) * cells));
  }
  return out;
}

}  // namespace flashgen::thresholds
