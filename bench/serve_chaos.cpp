// Chaos soak for the self-healing serve fleet: an in-process TCP server
// (replicated Gaussian engines behind supervised dispatchers) is driven
// open-loop while replica wedges are injected (`serve_replica_wedge`
// probability mode) and a hot tenant storms past its token-bucket rate.
//
// The run proves the chaos invariant end to end:
//   - zero request loss: every injected request is answered — healthy bits,
//     or a typed shed (kOverloaded / kRateLimited / kError from a
//     quarantine) — sent == ok + shed + rate_limited + errors per run;
//   - blast-radius isolation: the under-rate tenant is never rate-limited
//     while the hot tenant is;
//   - self-healing: after faults are disarmed the fleet returns to kReady
//     (every quarantined replica restarted) within a bounded recovery time;
//   - bit-identity through restarts: a post-recovery replay of the baseline
//     workload reports the same order-independent response checksum.
//
// Run:  ./serve_chaos [--smoke] [output.json]
//   --smoke                       small fast run, asserts invariants, used
//                                 as the tier-1 ctest registration; writes
//                                 no report unless given output.json
//   output.json                   report path, replacing the default
//                                 <results dir>/serve_chaos.json
//   FLASHGEN_BENCH_CHAOS_REPLICAS replica engines (default 3)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/faultinject.h"
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

serve::OpenLoopOptions loop_options(const std::string& endpoint, std::uint32_t tenant,
                                    int connections, int requests, double rps) {
  serve::OpenLoopOptions options;
  options.endpoint = endpoint;
  options.model = "Gaussian";
  options.side = 8;
  options.seed = 1;
  options.tenant_id = tenant;
  options.connections = connections;
  options.total_requests = requests;
  options.target_rps = rps;
  return options;
}

/// sent == ok + shed + rate_limited + errors: nothing hung, nothing vanished.
bool fully_accounted(const serve::OpenLoopResult& r) {
  return r.sent == r.ok + r.shed + r.rate_limited + r.errors;
}

bench::JsonFields loop_fields(const serve::OpenLoopResult& r) {
  bench::JsonFields fields;
  fields.add("sent", static_cast<std::int64_t>(r.sent))
      .add("ok", static_cast<std::int64_t>(r.ok))
      .add("shed", static_cast<std::int64_t>(r.shed))
      .add("rate_limited", static_cast<std::int64_t>(r.rate_limited))
      .add("errors", static_cast<std::int64_t>(r.errors))
      .add("elapsed_sec", r.elapsed_sec)
      .add("achieved_rps", r.achieved_rps)
      .add("client_p50_us", static_cast<std::int64_t>(r.p50_us))
      .add("client_p99_us", static_cast<std::int64_t>(r.p99_us))
      .add("client_max_us", static_cast<std::int64_t>(r.max_us))
      .add("checksum", static_cast<std::int64_t>(r.checksum));
  return fields;
}

/// Crude extraction of an integer metric from the server's flat metrics JSON.
std::int64_t json_counter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + needle.size());
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

  int replicas = 3;
  if (const char* env = std::getenv("FLASHGEN_BENCH_CHAOS_REPLICAS")) replicas = std::atoi(env);
  const int baseline_requests = smoke ? 256 : 1024;
  const double baseline_rps = 400.0;
  const int chaos_requests = smoke ? 512 : 4096;
  const double chaos_rps = 400.0;       // tenant 1: under the admission rate
  const int hot_requests = smoke ? 384 : 2048;
  const double hot_rps = 4000.0;        // tenant 7: storms past the rate
  const double tenant_rate = 800.0;     // per-tenant sustained admission
  // Burst must absorb the victim's open-loop catch-up after a scheduling
  // stall: quarantining a wedged replica joins its executor, which on a
  // small host can stall every thread for hundreds of ms, after which the
  // 400 rps victim fires its backlog at once. 512 tokens cover a >1s stall
  // so blast-radius isolation (victim rate_limited == 0) holds; the hot
  // tenant at 5x the sustained rate still drains the bucket and gets shed.
  // The smoke run is short (hot tenant sends only 384 requests), so its
  // burst stays small enough that the storm still overruns the bucket.
  const double tenant_burst = smoke ? 64.0 : 512.0;
  const double wedge_probability = smoke ? 0.1 : 0.05;
  const std::uint64_t wedge_timeout_micros = 150'000;
  const std::uint64_t recovery_bound_micros = 10'000'000;

  flashgen::Rng data_rng(1);
  auto dataset = data::PairedDataset::generate(bench_dataset_config(), data_rng);

  serve::ModelRegistry registry;
  registry.add("Gaussian", trained_gaussian(dataset), tensor::Shape({1, 8, 8}),
               /*warmup_batch=*/8);
  for (int r = 1; r < replicas; ++r)
    registry.add_replica("Gaussian", trained_gaussian(dataset), /*warmup_batch=*/8);

  serve::ServerOptions server_options;
  server_options.endpoint = "tcp:127.0.0.1:0";
  server_options.policy.max_batch_size = 8;
  server_options.policy.max_wait_micros = 200;
  server_options.policy.max_queue_depth = 256;
  server_options.supervisor.wedge_timeout_micros = wedge_timeout_micros;
  server_options.supervisor.check_interval_micros = 10'000;
  server_options.tenant.rate_per_sec = tenant_rate;
  server_options.tenant.burst = tenant_burst;
  serve::Server server(registry, server_options);
  server.start();
  const std::string endpoint = server.endpoint();

  bool failed = false;
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "serve_chaos: %s\n", what);
    failed = true;
  };

  // ---- Phase 1: healthy baseline (the reference checksum) ----
  const serve::OpenLoopResult baseline = serve::run_open_loop(
      loop_options(endpoint, /*tenant=*/2, 16, baseline_requests, baseline_rps));
  std::printf("baseline:  ok=%llu/%llu checksum=%llu p99=%lluus\n",
              static_cast<unsigned long long>(baseline.ok),
              static_cast<unsigned long long>(baseline.sent),
              static_cast<unsigned long long>(baseline.checksum),
              static_cast<unsigned long long>(baseline.p99_us));
  if (baseline.ok != baseline.sent) fail("baseline run was not fully healthy");

  // ---- Phase 2: chaos — replica wedges + a hot tenant storm ----
  {
    char spec[64];
    std::snprintf(spec, sizeof(spec), "serve_replica_wedge:%g", wedge_probability);
    faultinject::configure(spec, /*seed=*/9);
  }
  serve::OpenLoopResult victim, hot;
  std::thread victim_thread([&] {
    victim = serve::run_open_loop(
        loop_options(endpoint, /*tenant=*/1, 16, chaos_requests, chaos_rps));
  });
  std::thread hot_thread([&] {
    hot = serve::run_open_loop(loop_options(endpoint, /*tenant=*/7, 16, hot_requests, hot_rps));
  });
  victim_thread.join();
  hot_thread.join();
  const std::uint64_t wedges = faultinject::fired("serve_replica_wedge");
  faultinject::clear();

  std::printf("chaos t1:  ok=%llu shed=%llu rate_limited=%llu errors=%llu of %llu (wedges=%llu)\n",
              static_cast<unsigned long long>(victim.ok),
              static_cast<unsigned long long>(victim.shed),
              static_cast<unsigned long long>(victim.rate_limited),
              static_cast<unsigned long long>(victim.errors),
              static_cast<unsigned long long>(victim.sent),
              static_cast<unsigned long long>(wedges));
  std::printf("chaos t7:  ok=%llu shed=%llu rate_limited=%llu errors=%llu of %llu\n",
              static_cast<unsigned long long>(hot.ok), static_cast<unsigned long long>(hot.shed),
              static_cast<unsigned long long>(hot.rate_limited),
              static_cast<unsigned long long>(hot.errors),
              static_cast<unsigned long long>(hot.sent));
  if (!fully_accounted(victim) || !fully_accounted(hot)) {
    fail("request loss: a run's responses do not account for every request");
  }
  if (wedges == 0) fail("no wedge fired; the chaos phase tested nothing");
  if (victim.rate_limited != 0) fail("under-rate tenant was rate-limited");
  if (hot.rate_limited == 0) fail("hot tenant was never rate-limited");

  // ---- Phase 3: recovery — fleet returns to full health, bounded ----
  std::uint64_t recovery_micros = 0;
  {
    serve::Client probe(endpoint);
    const auto t0 = std::chrono::steady_clock::now();
    while (probe.health() != serve::HealthStatus::kReady) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0);
      if (static_cast<std::uint64_t>(waited.count()) > recovery_bound_micros) {
        fail("fleet did not return to kReady within the recovery bound");
        break;
      }
    }
    recovery_micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                              t0)
            .count());
  }

  // ---- Phase 4: post-recovery replay — bit-identical to the baseline ----
  const serve::OpenLoopResult replay = serve::run_open_loop(
      loop_options(endpoint, /*tenant=*/2, 16, baseline_requests, baseline_rps));
  const bool checksums_match = replay.checksum == baseline.checksum;
  std::printf("recovery:  %.1fms to kReady; replay checksum %llu %s baseline\n",
              static_cast<double>(recovery_micros) / 1000.0,
              static_cast<unsigned long long>(replay.checksum),
              checksums_match ? "==" : "!=");
  if (replay.ok != replay.sent) fail("post-recovery run was not fully healthy");
  if (!checksums_match) fail("restarted replicas changed the response bits");

  const std::string server_json = server.metrics().to_json();
  const std::int64_t quarantines = json_counter(server_json, "replica_quarantines");
  const std::int64_t restarts = json_counter(server_json, "replica_restarts");
  if (quarantines < 1) fail("no replica was ever quarantined");
  if (restarts < quarantines) fail("not every quarantined replica was restarted");
  server.drain_and_stop();

  bench::JsonFields config;
  config.add("array_side", 8)
      .add("replicas", replicas)
      .add("baseline_requests", baseline_requests)
      .add("chaos_requests", chaos_requests)
      .add("hot_requests", hot_requests)
      .add("chaos_rps", chaos_rps)
      .add("hot_rps", hot_rps)
      .add("tenant_rate_per_sec", tenant_rate)
      .add("tenant_burst", tenant_burst)
      .add("wedge_probability", wedge_probability)
      .add("wedge_timeout_micros", static_cast<std::int64_t>(wedge_timeout_micros))
      .add("smoke", smoke);
  bench::JsonFields metrics;
  metrics.add_raw("baseline", loop_fields(baseline).render());
  metrics.add_raw("chaos_tenant1", loop_fields(victim).render());
  metrics.add_raw("chaos_hot_tenant", loop_fields(hot).render());
  metrics.add("wedges_fired", static_cast<std::int64_t>(wedges));
  metrics.add("replica_quarantines", quarantines);
  metrics.add("replica_restarts", restarts);
  metrics.add("recovery_micros", static_cast<std::int64_t>(recovery_micros));
  metrics.add("checksums_match", checksums_match);
  metrics.add_raw("server", server_json);
  if (output_path != nullptr) {
    bench::write_bench_report_to(output_path,
                                 bench::render_bench_report("serve_chaos", config, metrics));
  } else if (!smoke) {
    bench::write_bench_report("serve_chaos", config, metrics);
  }

  if (failed) {
    std::fprintf(stderr, "serve_chaos: invariant violated (see above)\n");
    return 1;
  }
  return 0;
}
