// Workload `sweep`: repeated independent default run_sweep calls over the
// 480-job evaluation grid (30 kernels x 4 platforms x {Precise, Balanced,
// Fast, TAFFO}) on min(nproc, 4) threads with the determinism check on.
// One op is one kernel's part of the grid: a run_sweep call over its 16
// jobs, with fresh solver and program caches. A pass calls every kernel
// once, in the order the seed draws, and so covers the whole grid. Each
// call is held to a serial reference sweep of the grid computed in set-up.
//
// An op is one kernel, not the whole grid: on a shared host a 0.3 s grid
// call rarely runs in a quiet moment, while ops of milliseconds find
// quiet moments in every run (perfbench/README.md, "Noise").
#include <algorithm>
#include <thread>

#include "common.hpp"
#include "core/sweep.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"

namespace perfbench {
namespace {

using namespace luis;

std::string job_key(const core::SweepJobResult& job) {
  return job.kernel + "/" + job.config + "/" + job.platform;
}

} // namespace

void run_sweep_workload(const Options& options, Results& out) {
  core::SweepOptions sweep;
  sweep.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::vector<std::string> kernels(polybench::kernel_names().begin(),
                                   polybench::kernel_names().end());
  Rng rng(options.seed);
  shuffle(kernels, rng);
  JsonWriter composition;
  composition.begin_object();
  composition.key("kernel_order");
  composition.raw_value(json_list(kernels));
  composition.key("threads");
  composition.value(sweep.threads);
  composition.end_object();
  out.info["composition"] = composition.take();

  std::map<std::string, std::string> reference; // job key -> assignment
  std::map<std::string, int> jobs_per_kernel;
  core::SweepResult serial_result;
  timed_setup(out, [&] {
    core::SweepOptions serial = sweep;
    serial.kernels = kernels;
    serial.threads = 1;
    serial.check_determinism = false;
    core::SweepResult result = core::run_sweep(serial);
    if (result.stats.failed != 0)
      throw std::runtime_error("serial reference sweep: " +
                               std::to_string(result.stats.failed) + " failed jobs");
    reference.clear();
    jobs_per_kernel.clear();
    for (const core::SweepJobResult& job : result.jobs) {
      reference[job_key(job)] = job.assignment_text;
      ++jobs_per_kernel[job.kernel];
    }
    serial_result = result;
  });
  tuned_guards(out, serial_result);

  struct Call {
    double ms;
    core::SweepResult result;
  };
  const auto call = [&](std::size_t k) {
    sweep.kernels = {kernels[k]};
    const Clock::time_point t0 = Clock::now();
    core::SweepResult result = core::run_sweep(sweep);
    const double ms = ms_since(t0);
    ++out.attempted;
    const core::SweepStats& st = result.stats;
    if (st.jobs != jobs_per_kernel[kernels[k]] || st.failed != 0 ||
        st.determinism_mismatches != 0) {
      out.fail("sweep " + kernels[k] + ": " + std::to_string(st.jobs) + " jobs, " +
               std::to_string(st.failed) + " failed, " +
               std::to_string(st.determinism_mismatches) + " determinism mismatches");
    } else {
      for (const core::SweepJobResult& job : result.jobs)
        if (reference[job_key(job)] != job.assignment_text) {
          out.fail("sweep: " + job_key(job) + " differs from the serial reference");
          break;
        }
    }
    return Call{ms, std::move(result)};
  };

  Samples plain(kernels.size());
  for_seconds(options.trace ? options.seconds / 2 : options.seconds, [&] {
    for (std::size_t k = 0; k < kernels.size(); ++k) plain.add(k, call(k).ms);
  });
  if (!options.trace) {
    out.latency(plain);
    return;
  }

  // Traced half: the sweep's own obs spans attribute each call's wall
  // time to its phases and workers. Per-layer figures are per pass, that
  // is per whole grid, summed over its kernels' calls.
  Samples traced(kernels.size());
  std::map<std::string, std::vector<double>> per_pass;
  obs::trace().start();
  for_seconds(options.seconds / 2, [&] {
    std::map<std::string, double> spans;
    core::SweepStats sum;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const Call c = call(k);
      traced.add(k, c.ms);
      for (const auto& [name, ms] : drain_span_totals()) spans[name] += ms;
      const core::SweepStats& st = c.result.stats;
      sum.cache.lookups += st.cache.lookups;
      sum.cache.hits += st.cache.hits;
      sum.program_cache.lookups += st.program_cache.lookups;
      sum.program_cache.hits += st.program_cache.hits;
      sum.batch_unique_lanes += st.batch_unique_lanes;
      sum.solver_nodes += st.solver_nodes;
      sum.solver_iterations += st.solver_iterations;
    }
    per_pass["sweep.prepare_s"].push_back(spans["sweep.prepare"] / 1e3);
    per_pass["sweep.jobs_s"].push_back(spans["sweep.jobs"] / 1e3);
    per_pass["sweep.batch_execute_s"].push_back(spans["sweep.batch_execute"] / 1e3);
    per_pass["sweep.determinism_check_s"].push_back(
        spans["sweep.determinism_check"] / 1e3);
    per_pass["sweep.worker_busy_share"].push_back(
        spans["sweep.job"] / (spans["sweep.jobs"] * sweep.threads));
    per_pass["ilp.cache_hit_rate"].push_back(sum.cache.hit_rate());
    per_pass["interp.program_cache_hit_rate"].push_back(sum.program_cache.hit_rate());
    per_pass["obs.layer_coverage"].push_back(
        (spans["sweep.prepare"] + spans["sweep.jobs"] + spans["sweep.batch_execute"] +
         spans["sweep.determinism_check"]) /
        spans["sweep.run"]);
    per_pass["interp.batch_unique_lanes"].push_back(
        static_cast<double>(sum.batch_unique_lanes));
    per_pass["ilp.bnb_nodes"].push_back(static_cast<double>(sum.solver_nodes));
    per_pass["ilp.simplex_iterations"].push_back(
        static_cast<double>(sum.solver_iterations));
  });
  obs::trace().stop();
  out.latency(traced);
  out.metrics["obs.trace_overhead"] = traced.p50() - plain.p50();
  for (const auto& [name, values] : per_pass) out.metrics[name] = median(values);
  // Work counters of the grid, from the first traced pass; they repeat
  // exactly for a seed.
  for (const char* name :
       {"interp.batch_unique_lanes", "ilp.bnb_nodes", "ilp.simplex_iterations"})
    out.counter(name, per_pass[name].front());
}

} // namespace perfbench
