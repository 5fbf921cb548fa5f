#include "serve/dispatcher.h"

#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/faultinject.h"
#include "common/stats.h"

namespace flashgen::serve {

ReplicaDispatcher::ReplicaDispatcher(std::vector<InferenceEngine*> engines,
                                     tensor::Shape row_shape, BatchPolicy policy,
                                     ServeMetrics* metrics)
    : row_shape_(std::move(row_shape)), policy_(policy), metrics_(metrics) {
  FG_CHECK(!engines.empty(), "ReplicaDispatcher: need at least one engine");
  slots_.reserve(engines.size());
  for (InferenceEngine* engine : engines) {
    FG_CHECK(engine != nullptr, "ReplicaDispatcher: null engine");
    Slot slot;
    slot.batcher = std::make_unique<RequestBatcher>(*engine, row_shape_, policy_, metrics_);
    slots_.push_back(std::move(slot));
  }
  slot_count_ = slots_.size();
}

ReplicaDispatcher::ReplicaDispatcher(ModelRegistry& registry, const std::string& model,
                                     BatchPolicy policy, SupervisorPolicy supervisor,
                                     ServeMetrics* metrics)
    : policy_(policy),
      supervisor_policy_(supervisor),
      metrics_(metrics),
      registry_(&registry),
      model_name_(model) {
  ModelRegistry::Entry& entry = registry.at(model);
  row_shape_ = entry.row_shape;
  slots_.reserve(entry.replicas.size());
  for (ModelRegistry::Replica& replica : entry.replicas) {
    Slot slot;
    slot.batcher =
        std::make_unique<RequestBatcher>(*replica.engine, row_shape_, policy_, metrics_);
    slots_.push_back(std::move(slot));
  }
  slot_count_ = slots_.size();
  FG_CHECK(supervisor_policy_.check_interval_micros > 0,
           "ReplicaDispatcher: supervisor check interval must be positive");
  supervisor_ = std::thread([this] { supervise(); });
}

ReplicaDispatcher::~ReplicaDispatcher() {
  if (supervisor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sup_mutex_);
      sup_stop_ = true;
    }
    sup_cv_.notify_all();
    supervisor_.join();
  }
  // ~Slot -> ~RequestBatcher aborts whatever is still queued or wedged.
}

std::size_t ReplicaDispatcher::pick_replica_locked() const {
  std::size_t best = slots_.size();
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.quarantined || slot.batcher == nullptr) continue;
    // Strict < keeps ties on the lowest index: deterministic routing under
    // equal load, so tests (and tracing) can predict placement.
    const std::size_t load = slot.batcher->outstanding();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

void ReplicaDispatcher::submit_async(std::vector<float> program_levels, std::uint64_t seed,
                                     std::uint64_t stream, std::uint64_t deadline_micros,
                                     RequestBatcher::Completion done) {
  submit_async(std::move(program_levels), seed, stream, deadline_micros, std::nullopt,
               std::move(done));
}

void ReplicaDispatcher::submit_async(std::vector<float> program_levels, std::uint64_t seed,
                                     std::uint64_t stream, std::uint64_t deadline_micros,
                                     std::optional<data::Condition> condition,
                                     RequestBatcher::Completion done) {
  // Pick and submit under the dispatcher lock so the supervisor cannot tear
  // the chosen batcher down between the two. The submit itself is cheap
  // (queue push + notify), and per-replica loads drain concurrently, so the
  // pick only skews balance, never correctness: any replica produces
  // bit-identical results, and the admission bound is enforced
  // authoritatively inside the chosen batcher's submit.
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t best = pick_replica_locked();
  if (best == slots_.size()) {
    static stats::Counter& shed_total = stats::counter("serve.shed");
    shed_total.add();
    throw Overloaded("no healthy replicas (all quarantined); retry after restart");
  }
  slots_[best].batcher->submit_async(std::move(program_levels), seed, stream, deadline_micros,
                                     condition, std::move(done));
}

ResponseFuture ReplicaDispatcher::submit(std::vector<float> program_levels, std::uint64_t seed,
                                         std::uint64_t stream, std::uint64_t deadline_micros) {
  auto promise = std::make_shared<std::promise<ResponseFuture::Outcome>>();
  ResponseFuture future(promise->get_future());
  submit_async(std::move(program_levels), seed, stream, deadline_micros,
               [promise](std::vector<float>&& voltages, std::exception_ptr error) {
                 promise->set_value(ResponseFuture::classify(std::move(voltages), std::move(error)));
               });
  return future;
}

ResponseFuture ReplicaDispatcher::submit(std::vector<float> program_levels, std::uint64_t seed,
                                         std::uint64_t stream, std::uint64_t deadline_micros,
                                         const data::Condition& condition) {
  auto promise = std::make_shared<std::promise<ResponseFuture::Outcome>>();
  ResponseFuture future(promise->get_future());
  submit_async(std::move(program_levels), seed, stream, deadline_micros, condition,
               [promise](std::vector<float>&& voltages, std::exception_ptr error) {
                 promise->set_value(ResponseFuture::classify(std::move(voltages), std::move(error)));
               });
  return future;
}

void ReplicaDispatcher::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  for (Slot& slot : slots_) {
    if (slot.batcher != nullptr) slot.batcher->close();
  }
}

void ReplicaDispatcher::drain() {
  // Polling drain instead of per-batcher blocking waits: the supervisor may
  // swap a batcher out (quarantine) mid-drain, which would leave a blocking
  // waiter on a destroyed condition variable. A quarantine answers all of
  // the victim's requests (typed errors), so outstanding() reaching zero is
  // exactly "every admitted request has been answered".
  while (true) {
    if (outstanding() == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t ReplicaDispatcher::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.batcher != nullptr) total += slot.batcher->outstanding();
  }
  return total;
}

std::size_t ReplicaDispatcher::healthy_replicas() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t healthy = 0;
  for (const Slot& slot : slots_) {
    if (!slot.quarantined && slot.batcher != nullptr) ++healthy;
  }
  return healthy;
}

std::size_t ReplicaDispatcher::admission_capacity() const {
  if (policy_.max_queue_depth == 0) return std::numeric_limits<std::size_t>::max();
  return healthy_replicas() * policy_.max_queue_depth;
}

std::size_t ReplicaDispatcher::quarantined_replicas() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t quarantined = 0;
  for (const Slot& slot : slots_) {
    if (slot.quarantined) ++quarantined;
  }
  return quarantined;
}

std::size_t ReplicaDispatcher::least_loaded_replica() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pick_replica_locked();
}

const RequestBatcher& ReplicaDispatcher::batcher(std::size_t replica) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FG_CHECK(replica < slots_.size(), "ReplicaDispatcher: no replica " << replica);
  FG_CHECK(slots_[replica].batcher != nullptr,
           "ReplicaDispatcher: replica " << replica << " is quarantined");
  return *slots_[replica].batcher;
}

void ReplicaDispatcher::supervise() {
  std::unique_lock<std::mutex> lock(sup_mutex_);
  while (!sup_stop_) {
    sup_cv_.wait_for(lock,
                     std::chrono::microseconds(supervisor_policy_.check_interval_micros));
    if (sup_stop_) return;
    lock.unlock();
    tick();
    lock.lock();
  }
}

void ReplicaDispatcher::tick() {
  // Quarantine pass: spot wedged / persistently-erroring replicas. The
  // victim batcher is moved out under the dispatcher lock (so routing stops
  // instantly) and torn down outside it (abort_with joins the executor,
  // which can take a while for a genuinely stuck engine).
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    std::unique_ptr<RequestBatcher> victim;
    std::uint64_t age_micros = 0;
    std::uint32_t errors = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      Slot& slot = slots_[i];
      if (slot.quarantined || slot.batcher == nullptr) continue;
      age_micros = slot.batcher->oldest_outstanding_micros();
      errors = slot.batcher->consecutive_errors();
      const bool wedged = supervisor_policy_.wedge_timeout_micros > 0 &&
                          age_micros > supervisor_policy_.wedge_timeout_micros;
      const bool erroring = supervisor_policy_.max_consecutive_errors > 0 &&
                            errors >= supervisor_policy_.max_consecutive_errors;
      if (!wedged && !erroring) continue;
      victim = std::move(slot.batcher);
      slot.quarantined = true;
      // Bump the counter before the slot's quarantined state is observable
      // outside the lock, so quarantines() never lags quarantined_replicas()
      // (abort_with below joins the executor and can take a while).
      quarantines_.fetch_add(1);
    }
    static stats::Counter& quarantine_total = stats::counter("serve.replica_quarantines");
    quarantine_total.add();
    std::ostringstream os;
    os << "replica " << i << " quarantined (oldest request " << age_micros << "us old, "
       << errors << " consecutive errors); request failed by supervisor";
    victim->abort_with(os.str());
    victim.reset();
  }

  // Restart pass: rebuild quarantined replicas from the registry. Skipped
  // once the dispatcher is closed — a draining fleet only quarantines.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      if (!slots_[i].quarantined) continue;
    }
    if (FG_FAULT("serve_replica_restart")) continue;  // injected failure; retry next tick
    InferenceEngine& engine = registry_->rebuild_replica(model_name_, i);
    auto fresh = std::make_unique<RequestBatcher>(engine, row_shape_, policy_, metrics_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // close() may have landed while we were rebuilding; keep the invariant
      // that every live batcher of a closed dispatcher rejects admission.
      if (closed_) fresh->close();
      slots_[i].batcher = std::move(fresh);
      slots_[i].quarantined = false;
    }
    restarts_.fetch_add(1);
    static stats::Counter& restart_total = stats::counter("serve.replica_restarts");
    restart_total.add();
  }
}

}  // namespace flashgen::serve
