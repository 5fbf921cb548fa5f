// Statistics, the run record, the in-memory span recorder and its roll-up.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "bench.h"
#include "common/error.h"

namespace fgbench {

double process_cpu_us() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  std::size_t index = rank > 0.0 ? static_cast<std::size_t>(rank) - 1 : 0;
  return sample[std::min(index, sample.size() - 1)];
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

Tail tail(const std::vector<double>& sample, double wanted) {
  Tail t;
  t.n = sample.size();
  if (sample.empty()) return t;
  const double n = static_cast<double>(sample.size());
  t.q = std::min(wanted, std::max(0.5, 1.0 - 10.0 / n));
  t.value = quantile(sample, t.q);
  return t;
}

double best_window_median(const std::vector<double>& at_s, const std::vector<double>& values,
                          double seconds, int windows) {
  std::vector<std::vector<double>> bins(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto w = static_cast<std::size_t>(at_s[i] / seconds * windows);
    bins[std::min(w, bins.size() - 1)].push_back(values[i]);
  }
  double best = 0.0;
  bool found = false;
  for (auto& bin : bins) {
    if (bin.size() < 5) continue;
    const double m = median(std::move(bin));
    if (!found || m < best) best = m;
    found = true;
  }
  return found ? best : median(values);
}

// ---- Run ---------------------------------------------------------------------

void Run::metric(const std::string& name, double value, const std::string& unit) {
  FG_CHECK(std::isfinite(value), "metric " << name << " is not finite");
  metrics_[name] = Entry{value, unit};
}

bool Run::has(const std::string& name) const { return metrics_.count(name) != 0; }

double Run::value(const std::string& name) const {
  auto it = metrics_.find(name);
  FG_CHECK(it != metrics_.end(), "metric " << name << " was not measured");
  return it->second.value;
}

void Run::note(const std::string& line) { notes_.push_back(line); }

void Run::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  failures_.push_back(why);
}

// ---- Spans --------------------------------------------------------------------

namespace {

std::mutex g_spans_mutex;
std::vector<Spans::Span> g_spans;
thread_local std::vector<int> t_open;  // indices of this thread's open scopes

}  // namespace

Spans& Spans::global() {
  static Spans spans;
  return spans;
}

int Spans::add(const std::string& name, std::uint64_t t0_ns, std::uint64_t t1_ns, int parent,
               std::uint64_t request_id, double flops) {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(Span{name, t0_ns, t1_ns, parent, request_id, flops});
  return static_cast<int>(g_spans.size()) - 1;
}

std::vector<Spans::Span> Spans::snapshot() const {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  return g_spans;
}

void Spans::rename(int index, const std::string& name) {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.at(static_cast<std::size_t>(index)).name = name;
}

Spans::Scope::Scope(const char* name, std::uint64_t request_id, double flops) {
  Spans& spans = Spans::global();
  if (!spans.enabled()) return;
  const int parent = t_open.empty() ? -1 : t_open.back();
  index_ = spans.add(name, now_ns(), 0, parent, request_id, flops);
  t_open.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  const std::uint64_t t1 = now_ns();
  {
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    g_spans[static_cast<std::size_t>(index_)].t1_ns = t1;
  }
  t_open.pop_back();
}

std::vector<RollupRow> rollup(const std::vector<Spans::Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Spans::Span& s : spans) {
    if (s.parent >= 0 && s.t1_ns >= s.t0_ns)
      child_us[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
  }
  std::map<std::string, RollupRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Spans::Span& s = spans[i];
    if (s.t1_ns < s.t0_ns) continue;  // still open
    RollupRow& row = rows[s.name];
    row.name = s.name;
    const double us = static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
    ++row.calls;
    row.total_us += us;
    row.self_us += us - child_us[i];
    row.flops += s.flops;
  }
  std::vector<RollupRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const RollupRow& a, const RollupRow& b) { return a.self_us > b.self_us; });
  return out;
}

std::string rollup_text(const std::vector<RollupRow>& rows) {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %9s %13s %13s %10s %9s\n", "span", "calls", "total_us",
                "self_us", "self_%", "GFLOP/s");
  os << line;
  double self_total = 0.0;
  for (const RollupRow& r : rows) self_total += r.self_us;
  for (const RollupRow& r : rows) {
    std::snprintf(line, sizeof line, "%-34s %9llu %13.1f %13.1f %9.1f%% %9.2f\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.calls), r.total_us, r.self_us,
                  self_total > 0.0 ? 100.0 * r.self_us / self_total : 0.0, r.gflops());
    os << line;
  }
  return os.str();
}

std::string rollup_json(const std::vector<RollupRow>& rows) {
  std::ostringstream os;
  os.precision(10);
  os << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RollupRow& r = rows[i];
    os << (i ? ", " : "") << "{\"name\": \"" << r.name << "\", \"calls\": " << r.calls
       << ", \"total_us\": " << r.total_us << ", \"self_us\": " << r.self_us
       << ", \"gflops\": " << r.gflops() << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace fgbench
