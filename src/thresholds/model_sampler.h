// ModelSampler: in-process ChannelSampler over a condition-aware generative
// model — the offline counterpart of the serving fleet's DispatcherSampler.
//
// Each row is generated with its own counter-derived latent stream at the
// requested condition (per-sample batch-norm statistics), so voltages are a
// pure function of (weights, PL row, seed, stream, condition) and reports
// match the fleet bit-for-bit at any batching.
//
// Like a serving engine, the sampler keeps its conv weights' packed GEMM
// panels across calls (tensor::WeightPanelCache), dropped when the model's
// weights_version() moves.
#pragma once

#include "models/generative_model.h"
#include "tensor/weight_panels.h"
#include "thresholds/optimizer.h"

namespace flashgen::thresholds {

class ModelSampler : public ChannelSampler {
 public:
  /// `model` must be condition-aware (FG_CHECKs otherwise), outlive the
  /// sampler, and not be used concurrently with it. Calls
  /// model.prepare_generation() once up front.
  explicit ModelSampler(models::GenerativeModel& model);

  std::vector<std::vector<float>> sample(std::span<const RowRequest> rows, std::uint64_t seed,
                                         const data::Condition& condition) override;

 private:
  models::GenerativeModel& model_;
  tensor::WeightPanelCache panels_;
};

}  // namespace flashgen::thresholds
