// flashgen-bench entry point.
//
//   flashgen_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--full-seconds S] [--results-dir DIR]
//                  [--git-sha SHA] [--src-digest HEX]
//
// Prints a text report, writes a JSON result file (metrics, provenance and,
// for traced runs, the per-span roll-up) into --results-dir, and prints one
// JSON object as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying every metric the run measured. Exits 1 when an output check
// failed, 2 on a usage or runtime error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "tensor/gemm_backend.h"

namespace {

using namespace fgbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* host_isa() {
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return "avx2";
  return "baseline";
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--full-seconds") o.full_seconds = std::stod(value);
    else if (key == "--results-dir") o.results_dir = value;
    else if (key == "--git-sha") o.git_sha = value;
    else if (key == "--src-digest") o.src_digest = value;
    else FG_CHECK(false, "unknown option " << key);
  }
  FG_CHECK(argc % 2 == 1, "options come in --key value pairs");
  FG_CHECK(!o.workload.empty(), "--workload is required");
  FG_CHECK(o.seconds > 0.0, "--seconds must be positive");
  if (o.results_dir.empty()) o.results_dir = ".";
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flashgen_bench: %s\n", e.what());
    return 2;
  }
  flashgen::set_log_level(flashgen::LogLevel::Warn);
  // One compute thread per parallel region unless the caller chose otherwise:
  // the driver, the epoll loop and the two replica executors then fit in a
  // 4-CPU budget.
  if (std::getenv("FLASHGEN_THREADS") == nullptr) flashgen::common::set_num_threads(1);
  const std::string backend = flashgen::tensor::gemm_backend_name();
  Spans::global().enable(options.trace);

  Run run;
  try {
    run_workload(options, run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flashgen_bench: %s: %s\n", options.workload.c_str(), e.what());
    return 2;
  }
  run.metric("error_share",
             static_cast<double>(run.failed()) / static_cast<double>(std::max<std::uint64_t>(1, run.attempted())),
             "ratio");
  const bool correct = run.failed() == 0 && run.attempted() > 0;
  const bool short_run = options.seconds < options.full_seconds;

  std::ostringstream provenance;
  provenance << "{\"host_cpus\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
             << ", \"isa\": " << json_string(host_isa())
             << ", \"gemm_backend\": " << json_string(backend)
             << ", \"flashgen_threads\": " << flashgen::common::num_threads()
             << ", \"git_sha\": " << json_string(options.git_sha)
             << ", \"src_digest\": " << json_string(options.src_digest)
             << ", \"seed\": " << options.seed << ", \"workload\": " << json_string(options.workload)
             << ", \"seconds\": " << number(options.seconds) << ", \"trace\": " << options.trace
             << ", \"short\": " << (short_run ? "true" : "false")
             << ", \"baseline_eligible\": " << (short_run ? "false" : "true") << "}";

  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  for (const auto& [name, entry] : run.metrics()) {
    metrics << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << number(entry.value)
            << ", \"unit\": " << json_string(entry.unit) << "}";
    first = false;
  }
  metrics << "}";

  std::printf("flashgen-bench %s seed %llu, %.1f s%s%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? ", traced" : "", short_run ? ", SHORT (not a baseline)" : "");
  std::printf("provenance %s\n", provenance.str().c_str());
  for (const std::string& note : run.notes()) std::printf("%s\n", note.c_str());
  for (const std::string& failure : run.failures()) std::printf("FAILED CHECK: %s\n", failure.c_str());
  for (const auto& [name, entry] : run.metrics())
    std::printf("  %-34s %14.4f %s\n", name.c_str(), entry.value, entry.unit.c_str());

  std::string rollup_rows = "[]";
  if (options.trace) {
    const auto rows = rollup(Spans::global().snapshot());
    std::printf("span roll-up (self time = total minus direct children):\n%s",
                rollup_text(rows).c_str());
    rollup_rows = rollup_json(rows);
  }

  const std::string result_path = options.results_dir + "/" + options.workload + "-seed" +
                                  std::to_string(options.seed) + (options.trace ? "-trace" : "") +
                                  (short_run ? "-short" : "") + ".json";
  std::ofstream out(result_path);
  out << "{\"name\": \"flashgen-bench\", \"provenance\": " << provenance.str()
      << ", \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << run.attempted()
      << ", \"failed\": " << run.failed() << ", \"metrics\": " << metrics.str()
      << ", \"rollup\": " << rollup_rows << "}\n";
  out.close();
  std::printf("result file %s\n", result_path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
