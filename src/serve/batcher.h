// RequestBatcher: coalesces concurrent single-array sampling requests into
// batched InferenceEngine calls.
//
// Requests arrive from any thread via submit(); a single executor thread
// drains the queue. A batch closes when it reaches max_batch_size, or when
// max_wait_micros have elapsed since its oldest request was enqueued — so an
// isolated request never waits longer than max_wait_micros for company.
//
// Batching is invisible in the results: request i carries its own RNG stream
// (Rng::from_stream(seed, stream)) and the engine runs per-sample batch-norm
// statistics, so the voltages a request receives are bit-identical whether
// it ran alone or was coalesced into a full batch.
//
// Overload behavior: admission is bounded by max_queue_depth — submit()
// throws Overloaded (a typed, retryable rejection) instead of queueing
// without limit. Each request may carry a relative deadline; requests whose
// deadline passed while queued are failed with DeadlineExceeded rather than
// occupying batch slots. close() starts a graceful drain: new submissions
// are rejected as Overloaded while already-admitted work still completes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "tensor/shape.h"

namespace flashgen::serve {

/// Typed admission rejection: the queue is full or the batcher is draining.
/// The request was NOT executed; the caller may retry later.
class Overloaded : public flashgen::Error {
 public:
  explicit Overloaded(const std::string& what) : flashgen::Error(what) {}
};

/// The request's deadline expired before it reached the engine.
class DeadlineExceeded : public flashgen::Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : flashgen::Error(what) {}
};

/// Future-like handle returned by the convenience submit() wrappers.
///
/// Failures travel through the underlying promise as plain values (an error
/// kind plus a deep-copied message) and are rethrown as freshly-constructed
/// typed exceptions on the calling thread. Shipping a std::exception_ptr
/// through the shared state would hand the caller the *same* exception
/// object the executor/supervisor thread later releases — libstdc++'s
/// rethrow_exception shares one refcounted object, and that refcount lives
/// in the uninstrumented runtime, so ThreadSanitizer reports every what()
/// read as racing the fleet-side release.
class ResponseFuture {
 public:
  /// Blocks for the response. On failure rethrows the typed error
  /// (Overloaded, DeadlineExceeded, or Error) with the original message.
  std::vector<float> get();
  /// Blocks until the response (or failure) is ready, without consuming it.
  void wait() const { inner_.wait(); }

 private:
  friend class RequestBatcher;
  friend class ReplicaDispatcher;

  enum class FailKind { kNone, kError, kOverloaded, kDeadline };
  struct Outcome {
    std::vector<float> voltages;
    FailKind kind = FailKind::kNone;
    std::string message;
  };

  /// Folds a completion's (voltages, error) pair into a value, classifying
  /// the error on the completing thread so no exception object outlives it.
  static Outcome classify(std::vector<float>&& voltages, std::exception_ptr error);

  explicit ResponseFuture(std::future<Outcome> inner) : inner_(std::move(inner)) {}

  std::future<Outcome> inner_;
};

struct BatchPolicy {
  std::size_t max_batch_size = 8;
  std::uint64_t max_wait_micros = 2000;
  /// Admission bound: pending + in-flight requests beyond this are rejected
  /// with Overloaded. 0 means unbounded.
  std::size_t max_queue_depth = 128;
};

class RequestBatcher {
 public:
  /// `row_shape` is the shape of one sample without the batch dimension,
  /// e.g. (1, S, S) for an S x S PL array. `metrics` may be null.
  RequestBatcher(InferenceEngine& engine, tensor::Shape row_shape, BatchPolicy policy,
                 ServeMetrics* metrics = nullptr);
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Completion callback for submit_async: exactly one of `voltages` (moved
  /// in) or `error` is set. Invoked on the executor thread — keep it cheap
  /// and non-blocking (the epoll front-end encodes the response frame and
  /// hands it to the event loop).
  using Completion = std::function<void(std::vector<float>&& voltages, std::exception_ptr error)>;

  /// Enqueues one sample (row_shape.numel() floats of normalized program
  /// levels). The future yields the generated voltages, or rethrows the
  /// engine's error. `deadline_micros` is a relative completion budget from
  /// now; 0 disables it. Throws Overloaded when the admission queue is full
  /// or the batcher is closed/draining.
  ResponseFuture submit(std::vector<float> program_levels, std::uint64_t seed,
                        std::uint64_t stream, std::uint64_t deadline_micros = 0);

  /// Conditioned submit: the sample is generated at `condition` (raw
  /// physical (PE, retention) units). Requires a condition-aware engine
  /// model; throws flashgen::Error synchronously otherwise. A batch may mix
  /// conditioned and unconditioned requests — unconditioned rows run at the
  /// model's default condition, bit-identical to the unconditioned path.
  ResponseFuture submit(std::vector<float> program_levels, std::uint64_t seed,
                        std::uint64_t stream, std::uint64_t deadline_micros,
                        const data::Condition& condition);

  /// Callback flavor of submit() for event-loop callers that must not block
  /// on a future. Admission errors (Overloaded) still throw synchronously on
  /// the calling thread; execution errors arrive through the completion.
  void submit_async(std::vector<float> program_levels, std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t deadline_micros, Completion done);
  void submit_async(std::vector<float> program_levels, std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t deadline_micros, std::optional<data::Condition> condition,
                    Completion done);

  /// Queued + in-flight requests right now, less those whose completion
  /// has started; the replica dispatcher's least-loaded signal. A request
  /// frees its admission slot before its completion runs.
  std::size_t outstanding() const;

  /// Age of the oldest request this batcher owns (queued or in flight), in
  /// microseconds; 0 when idle. The supervisor's wedge-detection signal: a
  /// healthy replica keeps this bounded by queue wait + one batch execution,
  /// so a large value means the executor has stopped making progress.
  std::uint64_t oldest_outstanding_micros() const;

  /// Batches that failed back-to-back without an intervening success. The
  /// supervisor's erroring-replica signal; reset to 0 by any successful
  /// batch.
  std::uint32_t consecutive_errors() const { return consecutive_errors_.load(); }

  /// True once the executor has parked on the serve_replica_wedge fault seam
  /// (test/chaos probe).
  bool wedged() const { return wedged_.load(); }

  const tensor::Shape& row_shape() const { return row_shape_; }
  const BatchPolicy& policy() const { return policy_; }

  /// Stops admitting new requests (submit() throws Overloaded) while
  /// already-queued work continues to execute. Idempotent.
  void close();

  /// True once close() has been called.
  bool closed() const;

  /// Blocks until every request enqueued before the call has been executed.
  void drain();

  /// Supervisor teardown: stops the executor (waking it even when parked on
  /// the wedge seam), joins it, and fails every queued or wedged-in-flight
  /// request with a typed Error carrying `reason`. After this the batcher is
  /// inert; the destructor becomes a no-op. Must not be called from the
  /// executor thread.
  void abort_with(const std::string& reason);

 private:
  struct Pending {
    std::vector<float> program_levels;
    std::uint64_t seed;
    std::uint64_t stream;
    std::optional<data::Condition> condition;  // generation wear state, if any
    Completion done;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // time_point::max() if none
  };

  void run();
  void execute_batch(std::vector<Pending> batch);
  /// Frees the admission slots of `count` in-flight rows whose completions
  /// are about to run.
  void release_slots(std::size_t count);
  /// Rows holding an admission slot (queued + in flight - answered). Caller
  /// holds mutex_.
  std::size_t admitted_locked() const { return queue_.size() + in_flight_ - answered_; }

  InferenceEngine& engine_;
  tensor::Shape row_shape_;
  BatchPolicy policy_;
  ServeMetrics* metrics_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;        // wakes the executor
  std::condition_variable drained_;   // wakes drain() waiters
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;  // rows handed to the engine, not yet fulfilled
  // In-flight rows whose completion has run or is running: their admission
  // slots are free again, so a caller woken by a completion can resubmit.
  std::size_t answered_ = 0;
  /// Enqueue time of the oldest in-flight request; max() when nothing is in
  /// flight. Feeds oldest_outstanding_micros() while the executor is out of
  /// the lock (possibly wedged) executing a batch.
  std::chrono::steady_clock::time_point in_flight_oldest_ =
      std::chrono::steady_clock::time_point::max();
  /// Batch held by an executor parked on the wedge seam; abort_with() fails
  /// these after joining the executor.
  std::vector<Pending> wedged_batch_;
  bool stop_ = false;    // executor shutdown (destructor / abort_with)
  bool closed_ = false;  // admission closed (graceful drain)
  bool joined_ = false;  // executor already joined by abort_with
  std::atomic<std::uint32_t> consecutive_errors_{0};
  std::atomic<bool> wedged_{false};
  std::thread executor_;
};

}  // namespace flashgen::serve
