// Shared plumbing of the LUIS benchmark harness: command-line options,
// timing, sample statistics, trace-span totals and the result record
// every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Quantile of an input's samples taken as its latency. Contention from
/// other processes on a shared host only adds time, and a low quantile of
/// samples spread over the whole run stays near the uncontended cost.
inline constexpr double kInputQuantile = 0.05;

/// Op latencies (ms) grouped by the input they ran on. Workloads run
/// whole passes, so every input holds about the same number of samples.
class Samples {
public:
  explicit Samples(std::size_t inputs) : by_input_(inputs) {}
  void add(std::size_t input, double ms) { by_input_[input].push_back(ms); }
  /// Each input's kInputQuantile latency; with a single input, every
  /// sample.
  std::vector<double> latencies() const;
  /// Median over inputs of their latency.
  double p50() const;
  std::size_t count() const;
  double sum() const;

private:
  std::vector<std::vector<double>> by_input_;
};

/// Everything one run reports. `metrics` keys are metric names; `info`
/// carries the drawn composition, deterministic counters and sample
/// counts as pre-rendered JSON values.
struct Results {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures; ///< first few failure messages
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;

  void fail(const std::string& message);
  /// Records op_ms_p50 and op_ms_tail. Both are taken over per-input
  /// latencies: host noise moves single samples, and a pooled median
  /// would sit on the gap between two inputs' latencies.
  void latency(const Samples& samples);
  /// Records a deterministic work counter: as a metric and in `info`.
  void counter(const std::string& name, double value);
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Calls fn() and, when `slot` is set, adds its wall time (ms) to *slot:
/// the benchmark's own timer around one layer call.
template <typename F> auto timed(double* slot, F&& fn) {
  if (!slot) return fn();
  struct Charge {
    double* slot;
    Clock::time_point t0 = Clock::now();
    ~Charge() { *slot += ms_since(t0); }
  } charge{slot};
  return fn();
}

double median(std::vector<double> values);
/// The sample at rank floor(q * (n - 1)) of the sorted values.
double quantile(std::vector<double> values, double q);
/// The highest sample with at least ten samples beyond it (the maximum
/// when fewer than eleven were taken), and the percentile it sits at.
std::pair<double, double> tail(std::vector<double> values);

/// Summed durations (ms) of the recorded spans of each name, over every
/// thread; drains the process trace sink.
std::map<std::string, double> drain_span_totals();

/// Peak resident set of the process in MiB.
double peak_rss_mb();

/// Fisher-Yates shuffle driven by the run's seed.
template <typename T> void shuffle(std::vector<T>& items, luis::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.next_below(i)]);
}

/// The four characterized platforms of the paper's evaluation grid.
const std::vector<std::string>& platform_names();

/// `items` as a JSON array of strings.
std::string json_list(const std::vector<std::string>& items);
/// `values` as a JSON array of numbers.
std::string json_numbers(const std::vector<double>& values);

/// Records the Figure 2 guards over a sweep's ILP-preset jobs: the
/// geometric mean of the simulated speedup ratios t/t' and the 90th
/// percentile of the MPE (%).
void tuned_guards(Results& out, const luis::core::SweepResult& grid);
/// The same guards from a serial default sweep (the paper's grid), for
/// the workloads that do not sweep; checked, but not part of set-up.
void figure2_guards(Results& out);

/// Runs `pass` back to back until `seconds` have elapsed (at least once).
/// Workloads time whole passes over their composition, so every input is
/// sampled equally often whatever the machine's speed.
template <typename F> void for_seconds(double seconds, F&& pass) {
  const Clock::time_point t0 = Clock::now();
  do {
    pass();
  } while (std::chrono::duration<double>(Clock::now() - t0).count() < seconds);
}

/// Runs `setup` kSetupReps times and records the median as setup_s.
template <typename F> void timed_setup(Results& out, F&& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setup();
    seconds.push_back(ms_since(t0) / 1e3);
  }
  out.metrics["setup_s"] = median(seconds);
  out.info["setup_s_reps"] = json_numbers(seconds);
}

void run_tune(const Options& options, Results& out);
void run_execute(const Options& options, Results& out);
void run_sweep_workload(const Options& options, Results& out);

} // namespace perfbench
