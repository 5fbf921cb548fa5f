// End-to-end kThresholdQuery tests: the full client -> server -> threshold
// service -> replica dispatcher -> conditional model path, typed errors for
// unknown / condition-unaware models, per-tenant admission on the threshold
// path, and the determinism matrix — replies must be bit-identical across
// FLASHGEN_THREADS {1, 4}, replica counts {1, 2}, and cache-cold vs
// cache-warm (modulo the from_cache flag, which only reports provenance).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "models/cvae_gan.h"
#include "nn/module.h"
#include "serve/metrics_json.h"
#include "serve/server.h"

namespace flashgen::serve {
namespace {

using tensor::Shape;

constexpr int kSide = 8;

models::NetworkConfig tiny_network_config() {
  models::NetworkConfig config;
  config.array_size = kSide;
  config.base_channels = 4;
  config.z_dim = 4;
  return config;
}

// Deterministically initialized (seed-derived weights); the optimizer only
// samples, so training is unnecessary for exercising the serving path.
std::unique_ptr<models::GenerativeModel> temporal_model() {
  models::NetworkConfig config = tiny_network_config();
  config.condition_dims = 2;  // (PE, retention) at the default 10000 / 1000 scales
  return std::make_unique<models::CvaeGanModel>(config, /*seed=*/7);
}

// Condition-unaware stand-in (echoes program levels): threshold queries
// against it must be refused with a typed error at dispatch.
class EchoModel : public models::GenerativeModel {
 public:
  std::string name() const override { return "Echo"; }
  models::TrainStats fit(const data::PairedDataset&, const models::TrainConfig&,
                         flashgen::Rng&) override {
    return {};
  }
  void prepare_generation() override {}
  tensor::Tensor sample(const tensor::Tensor& pl, flashgen::Rng&) override {
    return tensor::Tensor::from_data(
        pl.shape(), std::vector<float>(pl.data().begin(), pl.data().end()));
  }
  nn::Module& root_module() override { return dummy_; }

 private:
  nn::Module dummy_;
};

std::string unique_socket(const std::string& tag) {
  const std::string test_name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return (std::filesystem::temp_directory_path() /
          ("flashgen_thresholds_" + test_name + tag + ".sock"))
      .string();
}

ServerOptions small_options(const std::string& socket_path) {
  ServerOptions options;
  options.endpoint = socket_path;
  options.threshold.optimizer.waves = 2;
  options.threshold.optimizer.batch_rows = 2;
  return options;
}

ThresholdQuery worn_query() {
  ThresholdQuery query;
  query.model = "Temporal";
  query.pe_cycles = 6000.0;
  query.retention_hours = 250.0;
  return query;
}

void expect_same_bits(const ThresholdResponse& a, const ThresholdResponse& b,
                      const std::string& what) {
  for (std::size_t k = 0; k < a.thresholds.size(); ++k)
    EXPECT_EQ(a.thresholds[k], b.thresholds[k]) << what << ": threshold " << k;
  for (std::size_t p = 0; p < a.page_ber.size(); ++p)
    EXPECT_EQ(a.page_ber[p], b.page_ber[p]) << what << ": page " << p;
  EXPECT_EQ(a.level_error_rate, b.level_error_rate) << what;
  EXPECT_EQ(a.mutual_information_bits, b.mutual_information_bits) << what;
  EXPECT_EQ(a.sample_cells, b.sample_cells) << what;
}

TEST(ThresholdServe, AnswersQueryWithValidReport) {
  ModelRegistry registry;
  registry.add("Temporal", temporal_model(), Shape({1, kSide, kSide}), /*warmup_batch=*/2);
  const std::string socket_path = unique_socket("");
  Server server(registry, small_options(socket_path));
  server.start();

  Client client(socket_path);
  const ThresholdResponse response = client.threshold_query(worn_query());
  for (std::size_t k = 0; k + 1 < response.thresholds.size(); ++k)
    EXPECT_LT(response.thresholds[k], response.thresholds[k + 1]);
  EXPECT_EQ(response.sample_cells, 2ull * 2 * kSide * kSide);  // waves * rows * cells
  EXPECT_FALSE(response.from_cache);
  EXPECT_GE(response.mutual_information_bits, 0.0);
  EXPECT_LE(response.mutual_information_bits, 3.0);
  for (double ber : response.page_ber) {
    EXPECT_GE(ber, 0.0);
    EXPECT_LE(ber, 1.0);
  }

  // Same condition again: served from the LRU, same bits, flagged as cached.
  const ThresholdResponse warm = client.threshold_query(worn_query());
  EXPECT_TRUE(warm.from_cache);
  expect_same_bits(response, warm, "cold vs warm");

  // Generate requests keep working on the same connection: the threshold
  // path must not disturb the existing request flow.
  GenerateRequest generate;
  generate.model = "Temporal";
  generate.seed = 3;
  generate.stream = 1;
  generate.side = kSide;
  generate.program_levels.assign(kSide * kSide, 0.0f);
  EXPECT_EQ(client.generate(generate).voltages.size(),
            static_cast<std::size_t>(kSide) * kSide);
  server.drain_and_stop();
}

TEST(ThresholdServe, UnknownAndConditionUnawareModelsAnswerTypedError) {
  ModelRegistry registry;
  registry.add("Temporal", temporal_model(), Shape({1, kSide, kSide}), /*warmup_batch=*/2);
  // A condition-unaware model in the same registry gets no threshold service.
  registry.add("Echo", std::make_unique<EchoModel>(), Shape({1, kSide, kSide}),
               /*warmup_batch=*/2);
  const std::string socket_path = unique_socket("");
  Server server(registry, small_options(socket_path));
  server.start();

  Client client(socket_path);
  ThresholdQuery query = worn_query();
  query.model = "nope";
  EXPECT_THROW((void)client.threshold_query(query), Error);
  query.model = "Echo";
  EXPECT_THROW((void)client.threshold_query(query), Error);
  // The connection survives both typed errors.
  query.model = "Temporal";
  EXPECT_FALSE(client.threshold_query(query).from_cache);
  server.drain_and_stop();
}

TEST(ThresholdServe, OverRateTenantIsShedWithRateLimited) {
  ModelRegistry registry;
  registry.add("Temporal", temporal_model(), Shape({1, kSide, kSide}), /*warmup_batch=*/2);
  const std::string socket_path = unique_socket("");
  ServerOptions options = small_options(socket_path);
  options.tenant.rate_per_sec = 1.0;  // refills far slower than the test runs
  options.tenant.burst = 1.0;
  Server server(registry, options);
  server.start();

  Client client(socket_path);
  ThresholdQuery query = worn_query();
  query.tenant_id = 7;
  EXPECT_FALSE(client.threshold_query(query).from_cache);
  EXPECT_THROW((void)client.threshold_query(query), RateLimited);
  // Another tenant's bucket is untouched — and the report comes from the
  // cache because admission happens before the cache lookup.
  query.tenant_id = 8;
  EXPECT_TRUE(client.threshold_query(query).from_cache);
  server.drain_and_stop();
}

// A query refused by the service's own admission (here: closed) is a shed,
// counted once in serve.shed where it is refused.
TEST(ThresholdServe, ServiceAdmissionShedCountsOnce) {
  auto model = temporal_model();
  InferenceEngine engine(*model);
  ReplicaDispatcher dispatcher({&engine}, Shape({1, kSide, kSide}), BatchPolicy{});
  ThresholdService service(dispatcher, small_options("").threshold);
  service.close();
  const stats::Counter& shed_total = stats::counter("serve.shed");
  const std::uint64_t before = shed_total.value();
  EXPECT_THROW(service.submit_async({6000.0, 250.0},
                                    [](thresholds::ThresholdReport, std::exception_ptr) {}),
               Overloaded);
  EXPECT_EQ(shed_total.value(), before + 1);
}

// A threshold query whose sampling is shed by a full fleet queue answers
// kOverloaded. The shed counts once, where the batcher refused the row: the
// top-level "shed" and process.counters["serve.shed"] move together. The
// query waits for the rows it already had admitted before it answers, so
// serve.rows_inferred does not move after the answer.
TEST(ThresholdServe, FleetShedDuringQueryCountsOnce) {
  ModelRegistry registry;
  registry.add("Temporal", temporal_model(), Shape({1, kSide, kSide}), /*warmup_batch=*/2);
  const std::string socket_path = unique_socket("");
  ServerOptions options = small_options(socket_path);
  options.policy.max_queue_depth = 2;
  // Under 8 rows a batch stays open this long, so the slots stay taken.
  options.policy.max_wait_micros = 1'000'000;
  Server server(registry, options);
  server.start();

  Client client(socket_path);
  const std::string before = client.stats();
  // A generate takes the first of the two slots ...
  std::thread generator([&socket_path] {
    Client other(socket_path);
    GenerateRequest generate;
    generate.model = "Temporal";
    generate.seed = 3;
    generate.side = kSide;
    generate.program_levels.assign(kSide * kSide, 0.0f);
    EXPECT_EQ(other.generate(generate).voltages.size(), static_cast<std::size_t>(kSide) * kSide);
  });
  while (metrics_count(client.stats(), "queue_depth_peak") < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // ... the query's first row the second, and its second row is shed.
  try {
    (void)client.threshold_query(worn_query());
    FAIL() << "the fleet admitted a sampling row past its queue bound";
  } catch (const Overloaded& e) {
    EXPECT_NE(std::string(e.what()).find("admission queue full (2/2)"), std::string::npos)
        << e.what();
  }
  const std::string answered = client.stats();
  generator.join();
  const std::string after = client.stats();
  // The generate and the query's admitted row ran (as one batch) before the
  // answer, and nothing ran after it.
  EXPECT_EQ(process_count(answered, "serve.rows_inferred"),
            process_count(before, "serve.rows_inferred") + 2)
      << answered;
  EXPECT_EQ(process_count(after, "serve.rows_inferred"),
            process_count(answered, "serve.rows_inferred"))
      << after;
  EXPECT_EQ(metrics_count(after, "shed"), metrics_count(before, "shed") + 1) << after;
  EXPECT_EQ(process_count(after, "serve.shed"), process_count(before, "serve.shed") + 1)
      << after;
  EXPECT_EQ(metrics_count(after, "shed"), process_count(after, "serve.shed")) << after;
  server.drain_and_stop();
}

// A fleet whose queues are shallower than a sampling wave still answers: the
// query keeps at most the admission capacity of its rows outstanding, and
// the report is the one an unbounded fleet gives.
TEST(ThresholdServe, QuerySucceedsWithQueueShallowerThanItsWave) {
  std::vector<ThresholdResponse> responses;
  for (const std::size_t depth : {std::size_t{0}, std::size_t{1}}) {
    ModelRegistry registry;
    registry.add("Temporal", temporal_model(), Shape({1, kSide, kSide}), /*warmup_batch=*/2);
    const std::string socket_path = unique_socket("_d" + std::to_string(depth));
    ServerOptions options = small_options(socket_path);
    options.policy.max_queue_depth = depth;  // 0: unbounded
    ASSERT_LT(depth, static_cast<std::size_t>(options.threshold.optimizer.batch_rows));
    Server server(registry, options);
    server.start();
    Client client(socket_path);
    const std::string before = client.stats();
    responses.push_back(client.threshold_query(worn_query()));
    EXPECT_EQ(metrics_count(client.stats(), "shed"), metrics_count(before, "shed"));
    server.drain_and_stop();
  }
  expect_same_bits(responses[0], responses[1], "queue depth 1 vs unbounded");
}

// The acceptance bar: one wear-state query answered bit-identically whatever
// the thread count, replica count, or cache temperature. Every (threads,
// replicas) cell runs its own freshly built server (identical seeds =>
// identical weights) and is queried cold then warm.
TEST(ThresholdServe, RepliesAreBitIdenticalAcrossThreadsReplicasAndCache) {
  std::vector<ThresholdResponse> responses;
  for (int threads : {1, 4}) {
    for (int replicas : {1, 2}) {
      common::set_num_threads(threads);
      ModelRegistry registry;
      registry.add("Temporal", temporal_model(), Shape({1, kSide, kSide}), /*warmup_batch=*/2);
      for (int r = 1; r < replicas; ++r)
        registry.add_replica("Temporal", temporal_model(), /*warmup_batch=*/2);
      const std::string socket_path =
          unique_socket("_t" + std::to_string(threads) + "r" + std::to_string(replicas));
      Server server(registry, small_options(socket_path));
      server.start();
      Client client(socket_path);
      const ThresholdResponse cold = client.threshold_query(worn_query());
      const ThresholdResponse warm = client.threshold_query(worn_query());
      EXPECT_FALSE(cold.from_cache);
      EXPECT_TRUE(warm.from_cache);
      responses.push_back(cold);
      responses.push_back(warm);
      server.drain_and_stop();
    }
  }
  common::set_num_threads(0);
  for (std::size_t i = 1; i < responses.size(); ++i)
    expect_same_bits(responses[0], responses[i], "config " + std::to_string(i));
}

}  // namespace
}  // namespace flashgen::serve
