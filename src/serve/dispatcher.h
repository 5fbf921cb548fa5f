// ReplicaDispatcher: least-loaded request routing over N replica engines,
// with an optional ReplicaSupervisor that keeps the fleet self-healing.
//
// Each replica (an InferenceEngine over its own copy of the model weights)
// gets its own RequestBatcher and executor thread; the dispatcher routes each
// request to the healthy replica with the fewest outstanding requests
// (queued + in-flight), breaking ties deterministically toward the lowest
// index. Because every request carries its own RNG stream and the engine
// runs per-sample batch norm, the routing decision is invisible in the
// results: any replica returns the same bits for the same (seed, stream, PL
// array).
//
// Supervision (registry-backed constructor only): a background thread scans
// every check_interval. A replica whose oldest owned request is older than
// wedge_timeout_micros, or that has failed max_consecutive_errors batches
// back-to-back, is QUARANTINED — routing stops, its queued and in-flight
// work is failed with a typed Error (never silently dropped), and its
// executor is joined. On the next scan the supervisor RESTARTS it: the
// registry rebuilds the engine over the same weights and a fresh batcher is
// swapped in. State machine per replica:
//
//   healthy --wedge/error--> quarantined --restart--> healthy
//                                 ^--- restart failure retries next tick
//
// The fault seams `serve_replica_wedge` (executor parks mid-batch) and
// `serve_replica_restart` (restart attempt fails) make every transition
// deterministically testable; with no fault armed the supervisor never
// fires and responses are bit-identical to the unsupervised path.
//
// Admission control and deadline shedding compose per replica: a request is
// rejected as Overloaded only when its chosen (least-loaded healthy) replica
// is at its queue bound — i.e. when every healthy replica is full — so the
// fleet-wide admission capacity is healthy_replicas x max_queue_depth. With
// zero healthy replicas, submits are rejected Overloaded rather than queued
// against a corpse.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "tensor/shape.h"

namespace flashgen::serve {

/// Knobs for the ReplicaSupervisor (registry-backed dispatcher only).
struct SupervisorPolicy {
  /// A replica whose oldest queued/in-flight request is older than this is
  /// declared wedged and quarantined. Must comfortably exceed worst-case
  /// queue wait + batch execution. 0 disables wedge detection.
  std::uint64_t wedge_timeout_micros = 2'000'000;
  /// Supervisor scan period; also bounds how long a quarantined replica
  /// waits for its restart attempt.
  std::uint64_t check_interval_micros = 20'000;
  /// Quarantine a replica after this many back-to-back failed batches
  /// (consecutive_errors resets on any success). 0 disables error-based
  /// quarantine.
  std::uint32_t max_consecutive_errors = 0;
};

class ReplicaDispatcher {
 public:
  /// Unsupervised: one batcher per engine; `engines` must outlive the
  /// dispatcher and each engine must be exclusive to it (one executor thread
  /// apiece). `metrics` may be null. No supervisor thread is started and no
  /// replica is ever quarantined or restarted.
  ReplicaDispatcher(std::vector<InferenceEngine*> engines, tensor::Shape row_shape,
                    BatchPolicy policy, ServeMetrics* metrics = nullptr);

  /// Supervised: builds one batcher per registry replica of `model` and
  /// starts the ReplicaSupervisor. `registry` must outlive the dispatcher;
  /// restarts go through ModelRegistry::rebuild_replica.
  ReplicaDispatcher(ModelRegistry& registry, const std::string& model, BatchPolicy policy,
                    SupervisorPolicy supervisor, ServeMetrics* metrics = nullptr);

  ~ReplicaDispatcher();

  ReplicaDispatcher(const ReplicaDispatcher&) = delete;
  ReplicaDispatcher& operator=(const ReplicaDispatcher&) = delete;

  /// Least-loaded submit; see RequestBatcher::submit_async for semantics.
  /// Throws Overloaded when the least-loaded healthy replica is at its
  /// admission bound (the whole fleet is full), no replica is healthy, or
  /// the dispatcher is closed.
  void submit_async(std::vector<float> program_levels, std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t deadline_micros, RequestBatcher::Completion done);

  /// Conditioned least-loaded submit (see RequestBatcher's conditioned
  /// submit_async): the sample is generated at `condition` when set.
  void submit_async(std::vector<float> program_levels, std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t deadline_micros, std::optional<data::Condition> condition,
                    RequestBatcher::Completion done);

  /// Future flavor for blocking callers (tests).
  ResponseFuture submit(std::vector<float> program_levels, std::uint64_t seed,
                        std::uint64_t stream, std::uint64_t deadline_micros = 0);
  ResponseFuture submit(std::vector<float> program_levels, std::uint64_t seed,
                        std::uint64_t stream, std::uint64_t deadline_micros,
                        const data::Condition& condition);

  /// Stops admitting on every replica (graceful drain); idempotent. The
  /// supervisor keeps quarantining wedged replicas during the drain (so
  /// drain() terminates) but stops restarting them.
  void close();
  /// Blocks until every admitted request on every replica has been answered
  /// (executed, or failed typed by a quarantine).
  void drain();

  std::size_t replicas() const { return slot_count_; }
  /// Fleet-wide queued + in-flight requests (a load probe, racy by nature).
  std::size_t outstanding() const;
  /// Replicas currently routable (not quarantined, batcher present).
  std::size_t healthy_replicas() const;
  /// Requests the fleet admits at once right now: healthy_replicas() x
  /// max_queue_depth, or SIZE_MAX when the queues are unbounded.
  std::size_t admission_capacity() const;
  /// Replicas currently quarantined awaiting restart.
  std::size_t quarantined_replicas() const;
  /// Lifetime quarantine / successful-restart transition counts.
  std::uint64_t quarantines() const { return quarantines_.load(); }
  std::uint64_t restarts() const { return restarts_.load(); }
  /// Index the next submit_async would route to, or replicas() when no
  /// replica is healthy. Test probe for deterministic tie-breaking.
  std::size_t least_loaded_replica() const;

  const tensor::Shape& row_shape() const { return row_shape_; }
  /// Per-replica executed-batch counters, for balance checks in tests. Only
  /// meaningful on the unsupervised dispatcher (a supervised replica's
  /// batcher can be torn down concurrently).
  const RequestBatcher& batcher(std::size_t replica) const;

 private:
  struct Slot {
    std::unique_ptr<RequestBatcher> batcher;
    bool quarantined = false;
  };

  void supervise();
  void tick();
  /// Least-loaded healthy pick; returns slots_.size() when none is healthy.
  /// Caller holds mutex_.
  std::size_t pick_replica_locked() const;

  tensor::Shape row_shape_;
  BatchPolicy policy_;
  SupervisorPolicy supervisor_policy_;
  ServeMetrics* metrics_ = nullptr;
  ModelRegistry* registry_ = nullptr;  // null => unsupervised
  std::string model_name_;
  std::size_t slot_count_ = 0;  // slots_ never resizes; lock-free replicas()

  mutable std::mutex mutex_;  // guards slots_ + closed_; ordered BEFORE any batcher mutex
  std::vector<Slot> slots_;
  bool closed_ = false;

  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> restarts_{0};

  std::mutex sup_mutex_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;
  std::thread supervisor_;
};

}  // namespace flashgen::serve
