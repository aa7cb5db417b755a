// luis_perfbench: the LUIS benchmark harness. One process runs one
// workload for a fixed time and prints, as its last stdout line, one JSON
// object with the correctness verdict and every metric by name and unit
// (the end-to-end set untraced, the per-layer set with --trace 1).
//
//   luis_perfbench --workload tune --seed 7 --seconds 10 --trace 0
//
// Run it from the repository root (the tune workload reads
// examples/kernels/blur3.lk).
//
// Exit status: 0 when every op reproduced its set-up result, 1 when an
// op failed (the result line then reads "correct": false), 2 on usage or
// set-up errors (no result line).
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "common.hpp"
#include "support/json.hpp"

namespace {

using perfbench::Options;
using perfbench::Results;

using MetricTable = std::vector<std::pair<const char*, const char*>>;

const MetricTable kEndToEnd = {
    {"setup_s", "s"},          {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},      {"ok_rate", "ratio"},
    {"peak_rss_mb", "MiB"},    {"tuned_speedup_geomean", "x"},
    {"tuned_mpe_p90", "%"},
};

const MetricTable kPerLayer = {
    // tune
    {"frontend.compile_ms", "ms"},
    {"ir.parse_ms", "ms"},
    {"ir.passes_ms", "ms"},
    {"ir.instructions", "count"},
    {"vra.analyze_ms", "ms"},
    {"vra.fixpoint_passes", "count"},
    {"vra.widenings", "count"},
    {"core.allocate_ms", "ms"},
    {"core.model_build_ms", "ms"},
    {"core.model_variables", "count"},
    {"core.model_constraints", "count"},
    {"core.materialize_ms", "ms"},
    {"core.casts_inserted", "count"},
    {"ilp.presolve_ms", "ms"},
    {"ilp.bnb_ms", "ms"},
    {"ilp.bnb_nodes", "count"},
    {"ilp.simplex_iterations", "count"},
    {"analysis.certify_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"analysis.capped_bounds", "count"},
    // execute
    {"interp.run_ms_p50", "ms"},
    {"obs.profile_ms_p50", "ms"},
    {"interp.batch_ms_p50", "ms"},
    {"interp.compile_ms", "ms"},
    {"interp.execute_ms", "ms"},
    {"interp.steps", "count"},
    {"interp.ns_per_step", "ns"},
    {"interp.batch_ms_per_lane", "ms"},
    {"obs.shadow_overhead", "ratio"},
    {"obs.shadow_ops", "count"},
    {"numrep.quantize_ns.binary32", "ns"},
    {"numrep.quantize_ns.binary16", "ns"},
    {"numrep.quantize_ns.bfloat16", "ns"},
    {"numrep.quantize_ns.fix32_16", "ns"},
    {"numrep.quantize_ns.posit16", "ns"},
    {"numrep.quantize_ns.e4m3", "ns"},
    {"numrep.quantize_ns.fposit16", "ns"},
    {"analysis.cert_violations", "count"},
    // sweep
    {"sweep.prepare_s", "s"},
    {"sweep.jobs_s", "s"},
    {"sweep.batch_execute_s", "s"},
    {"sweep.determinism_check_s", "s"},
    {"sweep.worker_busy_share", "ratio"},
    {"ilp.cache_hit_rate", "ratio"},
    {"interp.program_cache_hit_rate", "ratio"},
    {"interp.batch_unique_lanes", "count"},
    // every workload
    {"obs.trace_overhead", "ms"},
    {"obs.layer_coverage", "ratio"},
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "luis_perfbench: %s\n"
               "usage: luis_perfbench --workload tune|execute|sweep "
               "--seed N --seconds S --trace 0|1\n",
               message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v.c_str());
    else if (a == "--trace") o.trace = v == "1";
    else usage("unknown option " + a);
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Results out;
  try {
    if (options.workload == "tune")
      perfbench::run_tune(options, out);
    else if (options.workload == "execute")
      perfbench::run_execute(options, out);
    else if (options.workload == "sweep")
      perfbench::run_sweep_workload(options, out);
    else
      usage("unknown workload '" + options.workload + "'");
    // Before the guard sweep: ru_maxrss is a process-lifetime peak.
    out.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
    if (!options.trace && !out.metrics.count("tuned_speedup_geomean"))
      perfbench::figure2_guards(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "luis_perfbench: set-up failed: %s\n", e.what());
    return 2;
  }
  out.metrics["ok_rate"] =
      out.attempted > 0
          ? static_cast<double>(out.attempted - out.failed) / out.attempted
          : 0.0;
  for (const std::string& f : out.failures)
    std::fprintf(stderr, "luis_perfbench: FAILED %s\n", f.c_str());

  // Details line: drawn composition, work counters, tail sample counts.
  luis::JsonWriter details;
  details.begin_object();
  details.key("workload");
  details.value(options.workload);
  details.key("seed");
  details.value(static_cast<long>(options.seed));
  details.key("trace");
  details.value(options.trace);
  for (const auto& [key, json] : out.info) {
    details.key(key);
    details.raw_value(json);
  }
  details.end_object();
  std::printf("details %s\n", details.str().c_str());

  const bool correct = out.failed == 0 && out.attempted > 0;
  luis::JsonWriter result;
  result.begin_object();
  result.key("correct");
  result.value(correct);
  result.key("attempted");
  result.value(out.attempted);
  result.key("failed");
  result.value(out.failed);
  result.key("metrics");
  result.begin_object();
  for (const auto& [name, unit] : options.trace ? kPerLayer : kEndToEnd) {
    const auto it = out.metrics.find(name);
    // Per-layer metrics of layers a workload does not exercise read 0.
    if (it == out.metrics.end() && !options.trace)
      throw std::logic_error(std::string("end-to-end metric not measured: ") + name);
    result.key(name);
    result.begin_object();
    result.key("value");
    result.value(it == out.metrics.end() ? 0.0 : it->second);
    result.key("unit");
    result.value(unit);
    result.end_object();
  }
  result.end_object();
  result.end_object();
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}
