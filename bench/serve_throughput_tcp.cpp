// TCP serving throughput at high connection counts: an in-process epoll
// server (replicated Gaussian engines behind the least-loaded dispatcher)
// driven by the open-loop load engine at fixed injection rates over 1k+
// concurrent TCP connections. Reports client-side p50/p90/p99/p999 measured
// from each request's *scheduled* injection time (coordinated-omission-free)
// plus the server's own metrics JSON.
//
// Also proves the determinism contract at scale: the same (seed, stream)
// workload is replayed over wildly different connection counts and against a
// single-replica server, and the order-independent response checksums must
// be equal — transport layout, pipelining, batching, and replica choice are
// all invisible in the bits.
//
// Run:  ./serve_throughput_tcp [--smoke] [output.json]
//   --smoke                         small fast run, asserts invariants, used
//                                   as the tier-1 ctest registration; writes
//                                   no report unless given output.json
//   output.json                     report path, replacing the default
//                                   <results dir>/serve_throughput_tcp.json
//   FLASHGEN_BENCH_TCP_CONNECTIONS  connections for the sweep (default 1000)
//   FLASHGEN_BENCH_TCP_REQUESTS     requests per sweep cell (default 8000)
//   FLASHGEN_BENCH_TCP_REPLICAS     replica engines (default 2)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/flashgen.h"
#include "serve/loadgen.h"
#include "serve/server.h"

using namespace flashgen;

namespace {

data::DatasetConfig bench_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 256;
  config.channel.rows = 32;
  config.channel.cols = 32;
  return config;
}

std::unique_ptr<models::GenerativeModel> trained_gaussian(data::PairedDataset& dataset) {
  auto model = core::make_model(core::ModelKind::Gaussian, models::NetworkConfig{}, /*seed=*/7);
  models::TrainConfig train;
  train.epochs = 1;
  train.batch_size = 8;
  train.log_every = 0;
  flashgen::Rng rng(2);
  model->fit(dataset, train, rng);
  return model;
}

serve::ModelRegistry make_registry(data::PairedDataset& dataset, int replicas) {
  serve::ModelRegistry registry;
  registry.add("Gaussian", trained_gaussian(dataset), tensor::Shape({1, 8, 8}),
               /*warmup_batch=*/8);
  for (int r = 1; r < replicas; ++r)
    registry.add_replica("Gaussian", trained_gaussian(dataset), /*warmup_batch=*/8);
  return registry;
}

serve::OpenLoopOptions loop_options(const std::string& endpoint, int connections, int requests,
                                    double rps) {
  serve::OpenLoopOptions options;
  options.endpoint = endpoint;
  options.model = "Gaussian";
  options.side = 8;
  options.seed = 1;
  options.connections = connections;
  options.total_requests = requests;
  options.target_rps = rps;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* output_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      output_path = argv[i];
    }
  }

  int connections = smoke ? 64 : 1000;
  int requests = smoke ? 512 : 8000;
  int replicas = 2;
  if (const char* env = std::getenv("FLASHGEN_BENCH_TCP_CONNECTIONS")) connections = std::atoi(env);
  if (const char* env = std::getenv("FLASHGEN_BENCH_TCP_REQUESTS")) requests = std::atoi(env);
  if (const char* env = std::getenv("FLASHGEN_BENCH_TCP_REPLICAS")) replicas = std::atoi(env);
  const std::vector<double> rates = smoke ? std::vector<double>{4000.0}
                                          : std::vector<double>{2000.0, 8000.0};

  flashgen::Rng data_rng(1);
  auto dataset = data::PairedDataset::generate(bench_dataset_config(), data_rng);

  serve::ModelRegistry registry = make_registry(dataset, replicas);
  serve::ServerOptions server_options;
  server_options.endpoint = "tcp:127.0.0.1:0";
  server_options.policy.max_batch_size = 8;
  server_options.policy.max_wait_micros = 200;
  server_options.policy.max_queue_depth = 0;  // latency bench: never shed
  serve::Server server(registry, server_options);
  server.start();
  const std::string endpoint = server.endpoint();

  bool failed = false;
  bench::JsonArray sweep;
  for (double rps : rates) {
    const serve::OpenLoopResult r =
        serve::run_open_loop(loop_options(endpoint, connections, requests, rps));
    std::printf(
        "conns=%d rps=%6.0f  achieved %8.1f/s  p50 %6lluus  p90 %6lluus  p99 %6lluus  "
        "p999 %6lluus  max %6lluus  ok=%llu shed=%llu err=%llu\n",
        connections, rps, r.achieved_rps, static_cast<unsigned long long>(r.p50_us),
        static_cast<unsigned long long>(r.p90_us), static_cast<unsigned long long>(r.p99_us),
        static_cast<unsigned long long>(r.p999_us), static_cast<unsigned long long>(r.max_us),
        static_cast<unsigned long long>(r.ok), static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.errors));
    if (r.ok != r.sent || r.errors != 0) failed = true;
    bench::JsonFields cell;
    cell.add("connections", connections)
        .add("target_rps", rps)
        .add("achieved_rps", r.achieved_rps)
        .add("requests", static_cast<std::int64_t>(r.sent))
        .add("ok", static_cast<std::int64_t>(r.ok))
        .add("shed", static_cast<std::int64_t>(r.shed))
        .add("errors", static_cast<std::int64_t>(r.errors))
        .add("elapsed_sec", r.elapsed_sec)
        .add("client_p50_us", static_cast<std::int64_t>(r.p50_us))
        .add("client_p90_us", static_cast<std::int64_t>(r.p90_us))
        .add("client_p99_us", static_cast<std::int64_t>(r.p99_us))
        .add("client_p999_us", static_cast<std::int64_t>(r.p999_us))
        .add("client_max_us", static_cast<std::int64_t>(r.max_us));
    sweep.push(cell);
  }

  // Determinism at scale: identical (seed, stream) workload over a handful
  // of connections vs. the full fleet, and against a single-replica server —
  // all three checksums must agree.
  const int determinism_requests = std::min(requests, 1024);
  const serve::OpenLoopResult few =
      serve::run_open_loop(loop_options(endpoint, 7, determinism_requests, 4000.0));
  const serve::OpenLoopResult many =
      serve::run_open_loop(loop_options(endpoint, connections, determinism_requests, 4000.0));

  serve::ModelRegistry single_registry = make_registry(dataset, /*replicas=*/1);
  serve::ServerOptions single_options = server_options;
  serve::Server single_server(single_registry, single_options);
  single_server.start();
  const serve::OpenLoopResult single =
      serve::run_open_loop(loop_options(single_server.endpoint(), 7, determinism_requests, 4000.0));
  single_server.stop();

  const bool checksums_match = few.checksum == many.checksum && few.checksum == single.checksum;
  std::printf("determinism: checksum %llu over 7 conns, %llu over %d conns, %llu single-replica%s\n",
              static_cast<unsigned long long>(few.checksum),
              static_cast<unsigned long long>(many.checksum), connections,
              static_cast<unsigned long long>(single.checksum),
              checksums_match ? " (match)" : " (MISMATCH)");
  if (!checksums_match || few.ok != few.sent || many.ok != many.sent || single.ok != single.sent) {
    failed = true;
  }

  server.drain_and_stop();

  bench::JsonFields config;
  config.add("array_side", 8)
      .add("replicas", replicas)
      .add("connections", connections)
      .add("requests_per_cell", requests)
      .add("smoke", smoke);
  bench::JsonFields metrics;
  metrics.add_raw("sweep", sweep.render());
  metrics.add("checksums_match", checksums_match);
  metrics.add_raw("server", server.metrics().to_json());
  if (output_path != nullptr) {
    bench::write_bench_report_to(
        output_path, bench::render_bench_report("serve_throughput_tcp", config, metrics));
  } else if (!smoke) {
    bench::write_bench_report("serve_throughput_tcp", config, metrics);
  }

  if (failed) {
    std::fprintf(stderr, "serve_throughput_tcp: invariant violated (see above)\n");
    return 1;
  }
  return 0;
}
