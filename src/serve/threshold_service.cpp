#include "serve/threshold_service.h"

#include <algorithm>
#include <future>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/stats.h"

namespace flashgen::serve {

std::vector<std::vector<float>> DispatcherSampler::sample(
    std::span<const thresholds::RowRequest> rows, std::uint64_t seed,
    const data::Condition& condition) {
  // Spread the wave across the fleet and collect in request order, keeping at
  // most the fleet's admission capacity of this query's rows outstanding, so
  // a wave wider than the queues runs in turns instead of shedding its own
  // tail. Each row's voltages depend only on (weights, PL row, seed, stream,
  // condition), so the routing is invisible in the result. A shed or failed
  // row fails the whole query, typed: nothing more is submitted, and the
  // rows already admitted are waited for before the error propagates, so no
  // row of a refused query runs after its answer.
  const std::size_t window = std::max<std::size_t>(1, dispatcher_.admission_capacity());
  std::vector<ResponseFuture> futures;
  futures.reserve(rows.size());
  std::vector<std::vector<float>> out;
  out.reserve(rows.size());
  std::size_t next = 0;  // the next future to collect
  try {
    for (const auto& row : rows) {
      if (futures.size() - next == window) out.push_back(futures[next++].get());
      futures.push_back(dispatcher_.submit(row.program_levels, seed, row.stream,
                                           /*deadline_micros=*/0, condition));
    }
    while (next < futures.size()) out.push_back(futures[next++].get());
  } catch (...) {
    for (std::size_t i = next; i < futures.size(); ++i) futures[i].wait();
    throw;
  }
  return out;
}

ThresholdService::ThresholdService(ReplicaDispatcher& dispatcher, ThresholdServiceOptions options)
    : sampler_(dispatcher), optimizer_(sampler_, options.optimizer), options_(std::move(options)) {
  worker_ = std::thread([this] { run(); });
}

ThresholdService::~ThresholdService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void ThresholdService::submit_async(const data::Condition& condition, Completion done) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t outstanding = queue_.size() + static_cast<std::size_t>(in_flight_);
    const bool full = options_.max_queue > 0 && outstanding >= options_.max_queue;
    if (closed_ || full) {
      // Counted here, where it is refused, like the batcher's and the
      // dispatcher's sheds.
      static stats::Counter& shed_total = stats::counter("serve.shed");
      shed_total.add();
      if (closed_) throw Overloaded("threshold service draining");
      std::ostringstream os;
      os << "threshold admission queue full (" << outstanding << "/" << options_.max_queue << ")";
      throw Overloaded(os.str());
    }
    queue_.push_back(Pending{condition, std::move(done)});
  }
  cv_.notify_one();
}

thresholds::ThresholdReport ThresholdService::query(const data::Condition& condition) {
  std::promise<thresholds::ThresholdReport> promise;
  auto future = promise.get_future();
  submit_async(condition,
               [&promise](thresholds::ThresholdReport report, std::exception_ptr error) {
                 if (error) {
                   promise.set_exception(error);
                 } else {
                   promise.set_value(std::move(report));
                 }
               });
  return future.get();
}

void ThresholdService::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
}

void ThresholdService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t ThresholdService::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + static_cast<std::size_t>(in_flight_);
}

void ThresholdService::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    // Admitted queries are always answered: even after stop_, the queue
    // drains through completions before the worker exits.
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();

    thresholds::ThresholdReport report;
    std::exception_ptr error;
    try {
      report = optimizer_.optimize(pending.condition);
    } catch (...) {
      error = std::current_exception();
    }
    pending.done(std::move(report), error);

    lock.lock();
    --in_flight_;
    idle_cv_.notify_all();
  }
}

ThresholdResponse to_response(const thresholds::ThresholdReport& report) {
  ThresholdResponse response;
  for (std::size_t k = 0; k < report.thresholds.size(); ++k)
    response.thresholds[k] = report.thresholds[k];
  for (std::size_t p = 0; p < report.page_ber.size(); ++p)
    response.page_ber[p] = report.page_ber[p];
  response.level_error_rate = report.level_error_rate;
  response.mutual_information_bits = report.mutual_information_bits;
  response.sample_cells = report.sample_cells;
  response.from_cache = report.from_cache;
  return response;
}

}  // namespace flashgen::serve
