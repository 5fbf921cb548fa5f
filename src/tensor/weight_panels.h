// WeightPanelCache: packed GEMM weight panels kept across calls.
//
// The packed GEMM backend packs op(A) into microkernel-shaped panels on every
// call. In a forward-only engine the conv weights never change, so packing
// them once per engine is enough. A cache installed on a thread with
// WeightPanelCache::Scope lets the packed backend keep the A panels of every
// GEMM whose descriptor sets `constant_a` (the conv and conv-transpose
// forwards mark their weight) and issues a shared A (stride_a == 0). Every
// other GEMM, and every GEMM on a thread without a cache, packs as before;
// the reference backend ignores the cache.
//
// Panels are keyed by what their bits depend on besides A's contents: the A
// pointer, trans_a, m, k, lda, alpha, the kernel's tile (mr, nr) and the
// tile orientation (gemm_packed.cpp). A conv layer reaches at most two
// entries, one per orientation. The contents of A are not part of the key:
// the owner promises that a marked weight stays unchanged while its panels
// are cached and passes a weights version to the Scope, which drops every
// panel when the version moves (GenerativeModel::load bumps it).
//
// Not thread-safe: one cache serves one thread at a time (an engine's
// executor). A miss packs in parallel into storage the cache owns.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace flashgen::tensor {

class WeightPanelCache {
 public:
  /// What a set of packed A panels depends on besides A's contents.
  struct Key {
    const float* a = nullptr;
    bool trans_a = false;
    std::int64_t m = 0;
    std::int64_t k = 0;
    std::int64_t lda = 0;
    std::uint32_t alpha_bits = 0;  // alpha's bit pattern (NaN-safe equality)
    int mr = 0;
    int nr = 0;
    bool sideways = false;
    bool operator==(const Key&) const = default;
  };

  /// Installs `cache` on the calling thread for the scope's lifetime and
  /// restores the previous one after. The cache first drops its panels when
  /// `weights_version` differs from the version they were packed under.
  class Scope {
   public:
    Scope(WeightPanelCache& cache, std::uint64_t weights_version);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WeightPanelCache* previous_;
  };

  WeightPanelCache() = default;
  WeightPanelCache(const WeightPanelCache&) = delete;
  WeightPanelCache& operator=(const WeightPanelCache&) = delete;

  /// The cache installed on the calling thread, or nullptr.
  static WeightPanelCache* installed();

  /// The panels stored under `key`, or nullptr.
  const float* find(const Key& key) const;
  /// Stores `floats` uninitialized floats under `key` (absent) and returns
  /// them for the caller to fill before the next lookup.
  float* insert(const Key& key, std::size_t floats);

  /// Number of stored panel sets.
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Key key;
    std::unique_ptr<float[]> panels;
  };
  std::vector<Entry> entries_;  // a handful per model: linear search
  std::uint64_t version_ = 0;
};

}  // namespace flashgen::tensor
