#include "serve/batcher.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.h"
#include "common/faultinject.h"
#include "common/stats.h"
#include "common/trace.h"

namespace flashgen::serve {

using tensor::Index;

RequestBatcher::RequestBatcher(InferenceEngine& engine, tensor::Shape row_shape,
                               BatchPolicy policy, ServeMetrics* metrics)
    : engine_(engine), row_shape_(std::move(row_shape)), policy_(policy), metrics_(metrics) {
  FG_CHECK(policy_.max_batch_size > 0, "RequestBatcher: max_batch_size must be positive");
  if (metrics_ != nullptr) metrics_->set_batch_capacity(policy_.max_batch_size);
  executor_ = std::thread([this] { run(); });
}

RequestBatcher::~RequestBatcher() {
  // Requests still queued (or held by a wedged executor) at teardown are
  // abandoned; abort_with fails their completions.
  abort_with("RequestBatcher destroyed with request pending");
}

void RequestBatcher::abort_with(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_) return;  // already torn down (abort_with then destructor)
    joined_ = true;
    stop_ = true;
    closed_ = true;
  }
  cv_.notify_all();
  executor_.join();

  std::deque<Pending> queued;
  std::vector<Pending> wedged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queued.swap(queue_);
    wedged.swap(wedged_batch_);
    in_flight_ = 0;
    answered_ = 0;
    in_flight_oldest_ = std::chrono::steady_clock::time_point::max();
  }
  const auto error = std::make_exception_ptr(Error(reason));
  for (Pending& p : wedged) p.done({}, error);
  for (Pending& p : queued) p.done({}, error);
  drained_.notify_all();
}

ResponseFuture::Outcome ResponseFuture::classify(std::vector<float>&& voltages,
                                                 std::exception_ptr error) {
  Outcome out;
  if (!error) {
    out.voltages = std::move(voltages);
    return out;
  }
  try {
    std::rethrow_exception(std::move(error));
  } catch (const Overloaded& e) {
    out.kind = FailKind::kOverloaded;
    out.message = e.what();
  } catch (const DeadlineExceeded& e) {
    out.kind = FailKind::kDeadline;
    out.message = e.what();
  } catch (const std::exception& e) {
    out.kind = FailKind::kError;
    out.message = e.what();
  } catch (...) {
    out.kind = FailKind::kError;
    out.message = "unknown serve error";
  }
  return out;
}

std::vector<float> ResponseFuture::get() {
  Outcome out = inner_.get();
  switch (out.kind) {
    case FailKind::kNone:
      return std::move(out.voltages);
    case FailKind::kOverloaded:
      throw Overloaded(out.message);
    case FailKind::kDeadline:
      throw DeadlineExceeded(out.message);
    case FailKind::kError:
      break;
  }
  throw Error(out.message);
}

ResponseFuture RequestBatcher::submit(std::vector<float> program_levels, std::uint64_t seed,
                                      std::uint64_t stream, std::uint64_t deadline_micros) {
  auto promise = std::make_shared<std::promise<ResponseFuture::Outcome>>();
  ResponseFuture future(promise->get_future());
  submit_async(std::move(program_levels), seed, stream, deadline_micros,
               [promise](std::vector<float>&& voltages, std::exception_ptr error) {
                 promise->set_value(ResponseFuture::classify(std::move(voltages), std::move(error)));
               });
  return future;
}

ResponseFuture RequestBatcher::submit(std::vector<float> program_levels, std::uint64_t seed,
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

void RequestBatcher::submit_async(std::vector<float> program_levels, std::uint64_t seed,
                                  std::uint64_t stream, std::uint64_t deadline_micros,
                                  Completion done) {
  submit_async(std::move(program_levels), seed, stream, deadline_micros, std::nullopt,
               std::move(done));
}

void RequestBatcher::submit_async(std::vector<float> program_levels, std::uint64_t seed,
                                  std::uint64_t stream, std::uint64_t deadline_micros,
                                  std::optional<data::Condition> condition, Completion done) {
  FG_CHECK(program_levels.size() == static_cast<std::size_t>(row_shape_.numel()),
           "RequestBatcher: got " << program_levels.size() << " floats for row shape "
                                  << row_shape_);
  FG_CHECK(!condition.has_value() || engine_.model().condition_aware(),
           "RequestBatcher: model " << engine_.model().name()
                                    << " does not accept generation conditions");
  Pending pending;
  pending.program_levels = std::move(program_levels);
  pending.seed = seed;
  pending.stream = stream;
  pending.condition = condition;
  pending.done = std::move(done);
  pending.enqueued = std::chrono::steady_clock::now();
  pending.deadline = deadline_micros > 0
                         ? pending.enqueued + std::chrono::microseconds(deadline_micros)
                         : std::chrono::steady_clock::time_point::max();
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FG_CHECK(!stop_, "RequestBatcher: submit after shutdown");
    const bool full = policy_.max_queue_depth > 0 && admitted_locked() >= policy_.max_queue_depth;
    if (closed_ || full) {
      static stats::Counter& shed_total = stats::counter("serve.shed");
      shed_total.add();
      if (closed_) throw Overloaded("server is draining; not accepting new requests");
      std::ostringstream os;
      os << "admission queue full (" << admitted_locked() << "/"
         << policy_.max_queue_depth << ")";
      throw Overloaded(os.str());
    }
    queue_.push_back(std::move(pending));
    depth = admitted_locked();
  }
  if (metrics_ != nullptr) metrics_->record_enqueue(depth);
  static stats::Gauge& queue_depth = stats::gauge("serve.queue_depth");
  queue_depth.set(static_cast<double>(depth));
  cv_.notify_one();
}

std::size_t RequestBatcher::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_locked();
}

void RequestBatcher::release_slots(std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  answered_ = std::min(in_flight_, answered_ + count);
}

std::uint64_t RequestBatcher::oldest_outstanding_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto oldest = in_flight_oldest_;
  if (!queue_.empty()) oldest = std::min(oldest, queue_.front().enqueued);
  if (oldest == std::chrono::steady_clock::time_point::max()) return 0;
  const auto now = std::chrono::steady_clock::now();
  if (now <= oldest) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - oldest).count());
}

void RequestBatcher::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RequestBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

void RequestBatcher::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void RequestBatcher::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;

    // Hold the batch open until it fills or its oldest request has waited
    // max_wait_micros. Under a steady request stream this closes full
    // batches; an isolated request pays at most the wait bound.
    const auto deadline =
        queue_.front().enqueued + std::chrono::microseconds(policy_.max_wait_micros);
    while (queue_.size() < policy_.max_batch_size && !stop_) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    if (stop_) return;

    const std::size_t take = std::min(queue_.size(), policy_.max_batch_size);
    std::vector<Pending> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    in_flight_ = batch.size();
    in_flight_oldest_ = batch.front().enqueued;  // FIFO: front is oldest

    lock.unlock();
    if (FG_FAULT("serve_replica_wedge")) {
      // Simulated wedge: the executor stops making progress while its batch
      // stays in flight, exactly like an engine stuck in a kernel. The
      // in-flight accounting is left standing so oldest_outstanding_micros()
      // keeps aging; abort_with() (the supervisor's quarantine path) is the
      // only way out, and it fails this batch after joining us.
      wedged_.store(true);
      lock.lock();
      wedged_batch_ = std::move(batch);
      cv_.wait(lock, [this] { return stop_; });
      return;
    }
    execute_batch(std::move(batch));
    lock.lock();

    in_flight_ = 0;
    answered_ = 0;
    in_flight_oldest_ = std::chrono::steady_clock::time_point::max();
    drained_.notify_all();
  }
}

void RequestBatcher::execute_batch(std::vector<Pending> batch) {
  FG_TRACE_SPAN("serve.batch", "serve");
  // Shed requests whose deadline already passed while queued: failing them
  // now is cheaper than spending a batch slot computing an answer nobody is
  // waiting for.
  {
    const auto now = std::chrono::steady_clock::now();
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (Pending& p : batch) {
      if (now > p.deadline) {
        static stats::Counter& expired_total = stats::counter("serve.deadline_exceeded");
        expired_total.add();
        release_slots(1);
        p.done({}, std::make_exception_ptr(DeadlineExceeded("deadline exceeded while queued")));
      } else {
        live.push_back(std::move(p));
      }
    }
    batch = std::move(live);
    if (batch.empty()) return;
  }
  trace::counter("serve.batch_size", static_cast<double>(batch.size()));
  if (metrics_ != nullptr) {
    const auto now = std::chrono::steady_clock::now();
    for (const Pending& p : batch) {
      metrics_->record_stage(
          "queue_wait", static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::microseconds>(
                                now - p.enqueued)
                                .count()));
    }
  }
  const auto n = static_cast<Index>(batch.size());
  const auto row_elems = static_cast<std::size_t>(row_shape_.numel());

  std::vector<Index> dims;
  dims.push_back(n);
  for (auto d : row_shape_.dims()) dims.push_back(d);

  try {
    if (FG_FAULT("serve_replica_error")) {
      throw Error("injected replica execution fault (serve_replica_error)");
    }
    Tensor pl = Tensor::zeros(tensor::Shape(dims));
    auto pl_data = pl.data();
    std::vector<flashgen::Rng> rngs;
    rngs.reserve(batch.size());
    bool conditioned = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::copy(batch[i].program_levels.begin(), batch[i].program_levels.end(),
                pl_data.begin() + static_cast<std::ptrdiff_t>(i * row_elems));
      rngs.push_back(flashgen::Rng::from_stream(batch[i].seed, batch[i].stream));
      conditioned = conditioned || batch[i].condition.has_value();
    }

    std::vector<float> out(batch.size() * row_elems);
    if (conditioned) {
      // Mixed batches run every row through the conditioned path;
      // unconditioned neighbors get the model's default condition, which is
      // exactly what sample_rows() would have used — bit-identical either way.
      std::vector<data::Condition> conditions;
      conditions.reserve(batch.size());
      const data::Condition fallback = engine_.model().default_condition();
      for (const Pending& p : batch) conditions.push_back(p.condition.value_or(fallback));
      engine_.generate_into_at(pl, conditions, rngs, out);
    } else {
      engine_.generate_into(pl, rngs, out);
    }
    consecutive_errors_.store(0);
    if (metrics_ != nullptr) metrics_->record_batch(batch.size());

    release_slots(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].done(std::vector<float>(
                        out.begin() + static_cast<std::ptrdiff_t>(i * row_elems),
                        out.begin() + static_cast<std::ptrdiff_t>((i + 1) * row_elems)),
                    nullptr);
    }
  } catch (...) {
    consecutive_errors_.fetch_add(1);
    release_slots(batch.size());
    for (Pending& p : batch) p.done({}, std::current_exception());
  }
}

}  // namespace flashgen::serve
