// InferenceEngine: forward-only execution of a trained GenerativeModel.
//
// The engine is the serving counterpart of GenerativeModel::generate(). It
// runs prepare_generation() once at construction and then executes batched
// sample_rows() calls under tensor::InferenceModeGuard, which
//   * disables gradient recording (no graph nodes, no type-erased backwards),
//   * draws op-result buffers from the executing thread's WorkspacePool so a
//     steady-state forward pass over fixed shapes does zero heap allocation,
//   * switches training-mode batch norm to per-sample statistics, making row
//     i of a batch bit-identical to the same request run alone.
//
// Determinism contract: generate_into(pl, rngs, out) row i equals
// model.generate(row_i, rng_i) bit-for-bit when rng_i starts from the same
// state as rngs[i].
//
// Weight-stationary: each engine keeps its conv weights' packed GEMM panels
// (tensor::WeightPanelCache) across calls instead of re-packing them on every
// forward, at most two layouts per conv layer. Panels are per engine, never
// shared between replicas, and GenerativeModel::load() invalidates them: the
// next call after a load repacks from the new weights.
//
// Threading: an engine instance is not thread-safe; the request batcher runs
// one executor thread per engine. The model must not be trained while an
// engine wraps it (its cached panels would go stale).
#pragma once

#include <cstdint>
#include <span>

#include "models/generative_model.h"
#include "tensor/weight_panels.h"
#include "tensor/workspace.h"

namespace flashgen::serve {

using models::Tensor;

struct EngineStats {
  std::uint64_t batches = 0;  // sample_rows calls executed
  std::uint64_t rows = 0;     // total rows across those calls
};

class InferenceEngine {
 public:
  /// Wraps a trained model and puts it in its generation configuration.
  /// The engine holds a reference; the model must outlive it.
  explicit InferenceEngine(models::GenerativeModel& model);

  /// Primes the executing thread's WorkspacePool for the shapes reached by
  /// `pl`-sized batches: runs `rounds` throwaway forward passes. Seeds are
  /// arbitrary (results are discarded).
  void warmup(const Tensor& pl, int rounds = 2);

  /// Batched forward-only sampling; row i consumes rngs[i] only. The result
  /// tensor is pooled: it returns its buffer to this thread's pool when
  /// destroyed, so destroy it on the calling thread (or use generate_into).
  Tensor sample_rows(const Tensor& pl, std::span<flashgen::Rng> rngs);

  /// sample_rows() + copy into a caller-owned buffer of pl.numel() floats
  /// (the generated array has the input's shape). Keeps pooled buffers on
  /// the executing thread regardless of where `out` is consumed.
  void generate_into(const Tensor& pl, std::span<flashgen::Rng> rngs, std::span<float> out);

  /// Conditioned flavors: row i is generated at conditions[i] (raw physical
  /// units; the model normalizes). Requires model().condition_aware(). The
  /// determinism contract extends per row: a row at condition c matches the
  /// same request run alone at c, regardless of its batch neighbors.
  Tensor sample_rows_at(const Tensor& pl, std::span<const data::Condition> conditions,
                        std::span<flashgen::Rng> rngs);
  void generate_into_at(const Tensor& pl, std::span<const data::Condition> conditions,
                        std::span<flashgen::Rng> rngs, std::span<float> out);

  const EngineStats& stats() const { return stats_; }
  models::GenerativeModel& model() { return model_; }
  /// The packed conv-weight panels this engine keeps (a test probe).
  const tensor::WeightPanelCache& weight_panels() const { return panels_; }

 private:
  /// Runs `forward` in inference mode with this engine's panels installed,
  /// then counts the batch.
  template <class Forward>
  Tensor run_forward(std::size_t rows, Forward&& forward);

  models::GenerativeModel& model_;
  EngineStats stats_;
  tensor::WeightPanelCache panels_;
};

}  // namespace flashgen::serve
