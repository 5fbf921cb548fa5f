#include "tensor/weight_panels.h"

#include <algorithm>

namespace flashgen::tensor {

namespace {
thread_local WeightPanelCache* t_installed = nullptr;
}  // namespace

WeightPanelCache::Scope::Scope(WeightPanelCache& cache, std::uint64_t weights_version)
    : previous_(t_installed) {
  if (cache.version_ != weights_version) {
    cache.entries_.clear();
    cache.version_ = weights_version;
  }
  t_installed = &cache;
}

WeightPanelCache::Scope::~Scope() { t_installed = previous_; }

WeightPanelCache* WeightPanelCache::installed() { return t_installed; }

const float* WeightPanelCache::find(const Key& key) const {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.key == key; });
  return it == entries_.end() ? nullptr : it->panels.get();
}

float* WeightPanelCache::insert(const Key& key, std::size_t floats) {
  entries_.push_back(Entry{key, std::make_unique_for_overwrite<float[]>(floats)});
  return entries_.back().panels.get();
}

}  // namespace flashgen::tensor
