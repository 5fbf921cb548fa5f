// Serving throughput sweep: samples/sec of the forward-only inference engine
// (workspace pooling + per-sample batch norm + batched forward) against the
// training-path baseline: the generator forward exactly as a training step
// runs it — gradient recording on, graph nodes allocated, zero-filled
// op buffers, one array per call.
//
// Also records the intermediate "generate" baseline (per-array generate(),
// which already runs graph-free with in-place ops) to separate the win from
// skipping autograd from the win from pooling + batching.
//
// Writes a thread-count x batch-size sweep as JSON via the shared bench
// report emitter (bench/results/serve_throughput.json; an optional argv[1]
// writes an extra copy to that path). The acceptance bar for the serving
// runtime is >= 2x the training-path samples/sec at batch 8.
//
// Run:  ./serve_throughput [output.json]   (output.json replaces the default report path)
//   FLASHGEN_BENCH_SERVE_REPS  - timed repetitions per cell (default 40)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/parallel.h"
#include "core/flashgen.h"
#include "serve/engine.h"

using namespace flashgen;

namespace {

// Tiny 8x8 geometry: serving overheads (graph bookkeeping, allocation, zero
// fills, per-call setup) are what this bench isolates, and the sweep
// finishes in seconds.
data::DatasetConfig bench_dataset_config() {
  data::DatasetConfig config;
  config.array_size = 8;
  config.num_arrays = 256;
  config.channel.rows = 32;
  config.channel.cols = 32;
  return config;
}

models::NetworkConfig bench_network_config() {
  models::NetworkConfig config;
  config.array_size = 8;
  config.base_channels = 4;
  config.z_dim = 4;
  return config;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

tensor::Tensor row_tensor(const tensor::Tensor& rows, tensor::Index s) {
  const auto row_elems = static_cast<std::size_t>(rows.numel() / rows.shape()[0]);
  const auto src = rows.data().subspan(static_cast<std::size_t>(s) * row_elems, row_elems);
  return tensor::Tensor::from_data(tensor::Shape({1, 1, 8, 8}), {src.begin(), src.end()});
}

/// Training-path baseline for the network models: the U-Net generator forward
/// exactly as a training step executes it — training mode, gradient recording
/// active (every op allocates a graph node and a zero-filled output), one
/// array per call, z drawn fresh. The graph is dropped without a backward
/// pass, as generation inside the training loop would after detaching.
double training_path_samples_per_sec(const tensor::Tensor& rows, int reps) {
  flashgen::Rng init_rng(7);
  models::UNetGenerator generator(bench_network_config(), init_rng);
  generator.set_training(true);
  const auto n = rows.shape()[0];
  flashgen::Rng rng(11);
  for (tensor::Index s = 0; s < n; ++s) {  // untimed warm-up pass
    tensor::Tensor z = tensor::Tensor::randn(tensor::Shape({1, 4}), rng);
    (void)generator.forward(row_tensor(rows, s), z, rng);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (tensor::Index s = 0; s < n; ++s) {
      tensor::Tensor z = tensor::Tensor::randn(tensor::Shape({1, 4}), rng);
      (void)generator.forward(row_tensor(rows, s), z, rng);
    }
  }
  return static_cast<double>(n) * reps / seconds_since(t0);
}

/// Per-array generate(): graph-free with in-place ops, but unpooled buffers
/// and no batching. For the Gaussian model this is also the training-path
/// baseline (there is no network, hence no autograd in its forward).
double generate_samples_per_sec(models::GenerativeModel& model, const tensor::Tensor& rows,
                                int reps) {
  const auto n = rows.shape()[0];
  for (tensor::Index s = 0; s < n; ++s) {  // untimed warm-up pass
    flashgen::Rng rng = flashgen::Rng::from_stream(1, static_cast<std::uint64_t>(s));
    (void)model.generate(row_tensor(rows, s), rng);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (tensor::Index s = 0; s < n; ++s) {
      flashgen::Rng rng = flashgen::Rng::from_stream(static_cast<std::uint64_t>(r),
                                                     static_cast<std::uint64_t>(s));
      (void)model.generate(row_tensor(rows, s), rng);
    }
  }
  return static_cast<double>(n) * reps / seconds_since(t0);
}

/// Serving path: warmed engine, `batch`-row coalesced calls.
double engine_samples_per_sec(serve::InferenceEngine& engine, const tensor::Tensor& rows,
                              tensor::Index batch, int reps) {
  const auto n = rows.shape()[0];
  const auto row_elems = static_cast<std::size_t>(rows.numel() / n);
  std::vector<float> out(static_cast<std::size_t>(batch) * row_elems);
  const auto src = rows.data().subspan(0, static_cast<std::size_t>(batch) * row_elems);
  tensor::Tensor pl =
      tensor::Tensor::from_data(tensor::Shape({batch, 1, 8, 8}), {src.begin(), src.end()});
  engine.warmup(pl, /*rounds=*/2);

  std::vector<flashgen::Rng> rngs(static_cast<std::size_t>(batch), flashgen::Rng(0));
  const int calls = reps * static_cast<int>(n / batch);
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < calls; ++c) {
    for (std::size_t i = 0; i < rngs.size(); ++i)
      rngs[i] = flashgen::Rng::from_stream(static_cast<std::uint64_t>(c), i);
    engine.generate_into(pl, rngs, out);
  }
  return static_cast<double>(batch) * calls / seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  int base_reps = 40;
  if (const char* env = std::getenv("FLASHGEN_BENCH_SERVE_REPS")) base_reps = std::atoi(env);

  flashgen::Rng data_rng(1);
  auto dataset = data::PairedDataset::generate(bench_dataset_config(), data_rng);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < 8; ++i) indices.push_back(i);
  auto [rows, vl] = dataset.batch(indices);
  (void)vl;

  bench::JsonArray sweep;
  for (core::ModelKind kind : {core::ModelKind::CvaeGan, core::ModelKind::Gaussian}) {
    auto model = core::make_model(kind, bench_network_config(), /*seed=*/7);
    models::TrainConfig train;
    train.epochs = 1;
    train.batch_size = 8;
    train.log_every = 0;
    flashgen::Rng train_rng(2);
    model->fit(dataset, train, train_rng);
    const bool has_network = kind != core::ModelKind::Gaussian;
    // The Gaussian sampler is ~30x faster than the network forward; scale its
    // repetitions so each timed window is long enough to be stable.
    const int reps = has_network ? base_reps : base_reps * 50;

    for (int threads : {1, 2}) {
      common::set_num_threads(threads);
      const double generate_sps = generate_samples_per_sec(*model, rows, reps);
      const double training_sps =
          has_network ? training_path_samples_per_sec(rows, reps) : generate_sps;
      serve::InferenceEngine engine(*model);
      for (tensor::Index batch : {tensor::Index{1}, tensor::Index{4}, tensor::Index{8}}) {
        const double serve_sps = engine_samples_per_sec(engine, rows, batch, reps);
        std::printf(
            "%-10s threads=%d batch=%lld  train-path %9.1f/s  generate %9.1f/s  "
            "serve %9.1f/s  %.2fx\n",
            core::to_string(kind).c_str(), threads, static_cast<long long>(batch),
            training_sps, generate_sps, serve_sps, serve_sps / training_sps);
        bench::JsonFields cell;
        cell.add("model", core::to_string(kind))
            .add("threads", threads)
            .add("batch_size", static_cast<std::int64_t>(batch))
            .add("training_path_samples_per_sec", training_sps)
            .add("generate_samples_per_sec", generate_sps)
            .add("serve_samples_per_sec", serve_sps)
            .add("speedup_vs_training_path", serve_sps / training_sps)
            .add("speedup_vs_generate", serve_sps / generate_sps);
        sweep.push(cell);
      }
    }
  }

  bench::JsonFields config;
  config.add("array_side", 8).add("reps", base_reps);
  bench::JsonFields metrics;
  metrics.add_raw("sweep", sweep.render());
  if (argc > 1) {
    bench::write_bench_report_to(argv[1],
                                 bench::render_bench_report("serve_throughput", config, metrics));
  } else {
    bench::write_bench_report("serve_throughput", config, metrics);
  }
  return 0;
}
