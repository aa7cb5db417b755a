#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/json.hpp"

namespace perfbench {

void Results::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

void Results::latency(const Samples& samples) {
  const std::vector<double> latencies = samples.latencies();
  const auto [value, percentile] = tail(latencies);
  metrics["op_ms_p50"] = median(latencies);
  metrics["op_ms_tail"] = value;
  luis::JsonWriter w;
  w.begin_object();
  w.key("percentile");
  w.value(percentile, "%.3f");
  w.key("latencies");
  w.value(latencies.size());
  w.key("samples");
  w.value(samples.count());
  w.end_object();
  info["op_ms_tail"] = w.take();
}

std::vector<double> Samples::latencies() const {
  if (by_input_.size() == 1) return by_input_.front();
  std::vector<double> out;
  for (const std::vector<double>& v : by_input_)
    if (!v.empty()) out.push_back(quantile(v, kInputQuantile));
  return out;
}

double Samples::p50() const { return median(latencies()); }

std::size_t Samples::count() const {
  std::size_t n = 0;
  for (const std::vector<double>& v : by_input_) n += v.size();
  return n;
}

double Samples::sum() const {
  double total = 0.0;
  for (const std::vector<double>& v : by_input_)
    for (const double ms : v) total += ms;
  return total;
}

void Results::counter(const std::string& name, double value) {
  metrics[name] = value;
  luis::JsonWriter w;
  w.value(value);
  info["counter." + name] = w.take();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
}

std::pair<double, double> tail(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) return {values.back(), 100.0};
  return {values[n - 11], 100.0 * static_cast<double>(n - 10) /
                              static_cast<double>(n)};
}

std::map<std::string, double> drain_span_totals() {
  std::map<std::string, double> totals;
  // Spans nest per thread; snapshot() orders events by (tid, record order).
  std::map<std::uint32_t, std::vector<const luis::obs::TraceEvent*>> open;
  const std::vector<luis::obs::TraceEvent> events = luis::obs::trace().snapshot();
  for (const luis::obs::TraceEvent& e : events) {
    std::vector<const luis::obs::TraceEvent*>& stack = open[e.tid];
    if (e.phase == 'B') {
      stack.push_back(&e);
    } else if (e.phase == 'E' && !stack.empty()) {
      totals[stack.back()->name] += (e.ts_micros - stack.back()->ts_micros) / 1e3;
      stack.pop_back();
    }
  }
  luis::obs::trace().clear();
  return totals;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

const std::vector<std::string>& platform_names() {
  static const std::vector<std::string> names = {"Stm32", "Raspberry", "Intel",
                                                 "AMD"};
  return names;
}

std::string json_list(const std::vector<std::string>& items) {
  luis::JsonWriter w;
  w.begin_array();
  for (const std::string& item : items) w.value(item);
  w.end_array();
  return w.take();
}

std::string json_numbers(const std::vector<double>& values) {
  luis::JsonWriter w;
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
  return w.take();
}

void tuned_guards(Results& out, const luis::core::SweepResult& grid) {
  double log_sum = 0.0;
  std::vector<double> mpes;
  for (const luis::core::SweepJobResult& job : grid.jobs) {
    if (job.config == "TAFFO") continue;
    log_sum += std::log1p(job.speedup_percent / 100.0);
    mpes.push_back(job.mpe);
  }
  std::sort(mpes.begin(), mpes.end());
  const double n = static_cast<double>(mpes.size());
  out.metrics["tuned_speedup_geomean"] = std::exp(log_sum / n);
  out.metrics["tuned_mpe_p90"] =
      mpes[static_cast<std::size_t>(std::ceil(0.9 * n)) - 1];
}

void figure2_guards(Results& out) {
  luis::core::SweepOptions options;
  options.threads = 1;
  options.check_determinism = false;
  const luis::core::SweepResult grid = luis::core::run_sweep(options);
  if (grid.stats.failed != 0)
    out.fail("Figure 2 grid: " + std::to_string(grid.stats.failed) + " failed jobs");
  tuned_guards(out, grid);
}

} // namespace perfbench
