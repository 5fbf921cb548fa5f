#include "serve/engine.h"

#include <algorithm>

#include "common/error.h"
#include "common/stats.h"
#include "common/trace.h"

namespace flashgen::serve {

namespace {

// The generated array has the input's shape, so `out` is checked against the
// input before the forward pass (a wrong-sized buffer costs no compute and
// counts no rows) and against the result before the copy.
void check_output_span(const Tensor& t, std::span<const float> out) {
  FG_CHECK(t.defined() && static_cast<std::size_t>(t.numel()) == out.size(),
           "InferenceEngine: output buffer holds " << out.size() << " floats but batch needs "
                                                   << (t.defined() ? t.numel() : 0));
}

}  // namespace

InferenceEngine::InferenceEngine(models::GenerativeModel& model) : model_(model) {
  model_.prepare_generation();
}

template <class Forward>
Tensor InferenceEngine::run_forward(std::size_t rows, Forward&& forward) {
  FG_TRACE_SPAN("serve.infer", "serve");
  tensor::InferenceModeGuard inference;
  const tensor::WeightPanelCache::Scope panels(panels_, model_.weights_version());
  Tensor out = forward();
  ++stats_.batches;
  stats_.rows += rows;
  static stats::Counter& rows_total = stats::counter("serve.rows_inferred");
  rows_total.add(rows);
  return out;
}

void InferenceEngine::warmup(const Tensor& pl, int rounds) {
  const auto n = static_cast<std::size_t>(pl.shape()[0]);
  std::vector<flashgen::Rng> rngs;
  for (int round = 0; round < rounds; ++round) {
    rngs.clear();
    for (std::size_t i = 0; i < n; ++i) {
      rngs.push_back(flashgen::Rng::from_stream(/*base=*/0, /*stream=*/i));
    }
    (void)sample_rows(pl, rngs);
  }
}

Tensor InferenceEngine::sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs) {
  FG_CHECK(pl.defined() && pl.shape().rank() >= 1 &&
               static_cast<std::size_t>(pl.shape()[0]) == rngs.size(),
           "InferenceEngine: " << rngs.size() << " streams for batch " << pl.shape());
  return run_forward(rngs.size(), [&] { return model_.sample_rows(pl, rngs); });
}

void InferenceEngine::generate_into(const Tensor& pl, std::span<flashgen::Rng> rngs,
                                    std::span<float> out) {
  check_output_span(pl, out);
  Tensor result = sample_rows(pl, rngs);
  check_output_span(result, out);
  std::copy(result.data().begin(), result.data().end(), out.begin());
}

Tensor InferenceEngine::sample_rows_at(const Tensor& pl,
                                       std::span<const data::Condition> conditions,
                                       std::span<flashgen::Rng> rngs) {
  FG_CHECK(pl.defined() && pl.shape().rank() >= 1 &&
               static_cast<std::size_t>(pl.shape()[0]) == rngs.size() &&
               conditions.size() == rngs.size(),
           "InferenceEngine: " << rngs.size() << " streams / " << conditions.size()
                               << " conditions for batch " << pl.shape());
  FG_CHECK(model_.condition_aware(),
           "InferenceEngine: model " << model_.name() << " does not accept conditions");
  return run_forward(rngs.size(), [&] { return model_.sample_rows_at(pl, conditions, rngs); });
}

void InferenceEngine::generate_into_at(const Tensor& pl,
                                       std::span<const data::Condition> conditions,
                                       std::span<flashgen::Rng> rngs, std::span<float> out) {
  check_output_span(pl, out);
  Tensor result = sample_rows_at(pl, conditions, rngs);
  check_output_span(result, out);
  std::copy(result.data().begin(), result.data().end(), out.begin());
}

}  // namespace flashgen::serve
