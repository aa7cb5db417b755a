// Workload `tune`: serial, cold tuning of one kernel per op through the
// whole pipeline — parse (or kernel-language compile), IR passes, VRA,
// ILP allocation, cast materialization, VRA refresh, error certification
// and lint. No solver or program cache is shared between ops. The cells
// are 31 kernels x {Fast, Balanced, Precise, Multi} x 4 platforms, in an
// order the seed draws.
#include <fstream>
#include <sstream>

#include "analysis/error_bounds.hpp"
#include "analysis/lint.hpp"
#include "common.hpp"
#include "core/assignment_io.hpp"
#include "core/cast_materializer.hpp"
#include "core/config.hpp"
#include "core/ilp_allocator.hpp"
#include "frontend/parser.hpp"
#include "ir/parser.hpp"
#include "ir/passes.hpp"
#include "ir/printer.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"
#include "vra/range_analysis.hpp"

namespace perfbench {
namespace {

using namespace luis;

struct TuneKernel {
  std::string name;
  bool kernel_language = false; ///< `text` is .lk source, not printed IR
  std::string text;
};

struct TuneCell {
  const TuneKernel* kernel = nullptr;
  std::string config;
  std::string platform;
};

/// Benchmark-side layer times (ms), summed over the traced ops.
struct TuneLayers {
  double frontend = 0, parse = 0, passes = 0, vra = 0, allocate = 0,
         model_build = 0, presolve = 0, bnb = 0, materialize = 0, certify = 0,
         lint = 0;
};

/// Deterministic work counters, summed over one pass.
struct TuneCounters {
  long instructions = 0, vra_passes = 0, widenings = 0, variables = 0,
       constraints = 0, casts = 0, nodes = 0, iterations = 0, capped = 0;
};

struct TuneOutcome {
  double ms = 0.0; ///< wall time of the pipeline, checks excluded
  std::string error;
  std::string fingerprint; ///< status + serialized assignment + lint verdict
};

core::TuningConfig config_by_name(const std::string& name) {
  if (name == "Fast") return core::TuningConfig::fast();
  if (name == "Precise") return core::TuningConfig::precise();
  if (name == "Multi") return core::TuningConfig::multi();
  return core::TuningConfig::balanced();
}

std::size_t instruction_count(const ir::Function& f) {
  std::size_t n = 0;
  for (const auto& block : f.blocks()) n += block->instructions().size();
  return n;
}

/// One tune op. `layers`/`counters` are null on untraced ops.
TuneOutcome tune_once(const TuneCell& cell, TuneLayers* layers,
                      TuneCounters* counters) {
  TuneOutcome out;
  const Clock::time_point t0 = Clock::now();
  ir::Module module;
  ir::Function* function = nullptr;
  const TuneKernel& k = *cell.kernel;
  if (k.kernel_language) {
    const frontend::CompileResult compiled =
        timed(layers ? &layers->frontend : nullptr,
              [&] { return frontend::compile_kernel(module, k.text); });
    if (!compiled.ok()) {
      out.error = k.name + ": compile failed: " + compiled.error;
      return out;
    }
    function = compiled.function;
  } else {
    const ir::ParseResult parsed =
        timed(layers ? &layers->parse : nullptr,
              [&] { return ir::parse_function(module, k.text); });
    if (!parsed.ok()) {
      out.error = k.name + ": parse failed: " + parsed.error;
      return out;
    }
    function = parsed.function;
  }
  ir::Function& f = *function;
  const platform::OpTimeTable& table = *platform::platform_by_name(cell.platform);
  const core::TuningConfig config = config_by_name(cell.config);
  const vra::VraOptions vra_options;

  timed(layers ? &layers->passes : nullptr,
        [&] { return ir::run_default_pipeline(f); });
  analysis::DataflowStats vra_stats;
  vra::RangeMap ranges = timed(layers ? &layers->vra : nullptr, [&] {
    return vra::analyze_ranges(f, vra_options, &vra_stats);
  });
  core::AllocationResult allocation =
      timed(layers ? &layers->allocate : nullptr,
            [&] { return core::allocate_ilp(f, ranges, table, config); });
  const int casts = timed(layers ? &layers->materialize : nullptr, [&] {
    return core::materialize_casts(f, allocation.assignment);
  });
  ranges = timed(layers ? &layers->vra : nullptr,
                 [&] { return vra::analyze_ranges(f, vra_options); });
  const analysis::ErrorAnalysisResult errors =
      timed(layers ? &layers->certify : nullptr, [&] {
        return analysis::analyze_errors(f, allocation.assignment, ranges);
      });
  analysis::LintOptions lint_options;
  lint_options.casts_materialized = true;
  const analysis::DiagnosticEngine lint =
      timed(layers ? &layers->lint : nullptr, [&] {
        return analysis::run_lint(f, allocation.assignment, ranges,
                                  lint_options, &errors.errors);
      });
  out.ms = ms_since(t0);

  const core::AllocationStats& stats = allocation.stats;
  if (layers) layers->model_build += stats.model_build_seconds * 1e3;
  if (counters) {
    counters->instructions += static_cast<long>(instruction_count(f));
    counters->vra_passes += vra_stats.passes;
    counters->widenings += vra_stats.widenings;
    counters->variables += static_cast<long>(stats.model_variables);
    counters->constraints += static_cast<long>(stats.model_constraints);
    counters->casts += casts;
    counters->nodes += stats.nodes;
    counters->iterations += stats.iterations;
    counters->capped += errors.capped_bounds;
  }
  if (stats.status != ilp::SolveStatus::Optimal &&
      stats.status != ilp::SolveStatus::NodeLimit) {
    out.error = k.name + "/" + cell.config + "/" + cell.platform +
                ": solve status " + ilp::to_string(stats.status);
  }
  out.fingerprint = std::string(ilp::to_string(stats.status)) + "\n" +
                    core::assignment_to_text(f, allocation.assignment) +
                    "lint errors: " + (lint.has_errors() ? "yes" : "no");
  return out;
}

std::vector<TuneKernel> load_kernels() {
  std::vector<TuneKernel> kernels;
  for (const std::string& name : polybench::kernel_names()) {
    ir::Module module;
    polybench::BuiltKernel built = polybench::build_kernel(name, module);
    kernels.push_back({name, false, ir::print_function(*built.function)});
  }
  const std::string path = "examples/kernels/blur3.lk";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream source;
  source << in.rdbuf();
  kernels.push_back({"blur3", true, source.str()});
  return kernels;
}

} // namespace

void run_tune(const Options& options, Results& out) {
  static const std::vector<std::string> kConfigs = {"Fast", "Balanced",
                                                    "Precise", "Multi"};
  std::vector<TuneKernel> kernels;
  std::vector<TuneCell> cells;
  std::vector<std::string> fingerprints;
  TuneCounters pass_counters;

  timed_setup(out, [&] {
    Rng rng(options.seed);
    kernels = load_kernels();
    // Every platform, not one drawn per cell: a drawn platform decides
    // which Multi cells are the slowest, which split the tail latency of
    // different seeds into two clusters 40% apart.
    cells.clear();
    for (const TuneKernel& k : kernels)
      for (const std::string& config : kConfigs)
        for (const std::string& platform : platform_names())
          cells.push_back({&k, config, platform});
    shuffle(cells, rng);
    // Reference pass: the fingerprint every timed op must reproduce and
    // the per-pass work counters.
    fingerprints.clear();
    pass_counters = {};
    for (const TuneCell& cell : cells) {
      const TuneOutcome tuned = tune_once(cell, nullptr, &pass_counters);
      if (!tuned.error.empty()) throw std::runtime_error(tuned.error);
      fingerprints.push_back(tuned.fingerprint);
    }
  });

  JsonWriter composition;
  composition.begin_array();
  for (const TuneCell& cell : cells)
    composition.raw_value(json_list({cell.kernel->name, cell.config, cell.platform}));
  composition.end_array();
  out.info["composition"] = composition.take();

  auto op = [&](std::size_t i, Samples& samples, TuneLayers* layers) {
    const TuneOutcome tuned = tune_once(cells[i], layers, nullptr);
    samples.add(i, tuned.ms);
    ++out.attempted;
    if (!tuned.error.empty())
      out.fail(tuned.error);
    else if (tuned.fingerprint != fingerprints[i])
      out.fail(cells[i].kernel->name + "/" + cells[i].config + "/" +
               cells[i].platform + ": result differs from the set-up pass");
  };

  // A traced run spends half its time untraced (the overhead baseline)
  // and half with the benchmark's layer timers and the trace spans on.
  Samples plain(cells.size());
  for_seconds(options.trace ? options.seconds / 2 : options.seconds, [&] {
    for (std::size_t i = 0; i < cells.size(); ++i) op(i, plain, nullptr);
  });
  if (!options.trace) {
    out.latency(plain);
    return;
  }

  Samples traced(cells.size());
  TuneLayers layers;
  obs::trace().start();
  for_seconds(options.seconds / 2, [&] {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      op(i, traced, &layers);
      std::map<std::string, double> spans = drain_span_totals();
      layers.presolve += spans["ilp.presolve"];
      layers.bnb += spans["ilp.bnb"];
    }
  });
  obs::trace().stop();
  out.latency(traced);

  const double ops = static_cast<double>(traced.count());
  // Top-level layer calls; their sum is the op time the timers cover.
  const std::pair<const char*, double> calls[] = {
      {"frontend.compile_ms", layers.frontend}, {"ir.parse_ms", layers.parse},
      {"ir.passes_ms", layers.passes},          {"vra.analyze_ms", layers.vra},
      {"core.allocate_ms", layers.allocate},    {"core.materialize_ms", layers.materialize},
      {"analysis.certify_ms", layers.certify},  {"analysis.lint_ms", layers.lint},
  };
  double covered = 0.0;
  for (const auto& [name, total] : calls) {
    out.metrics[name] = total / ops;
    covered += total;
  }
  out.metrics["obs.layer_coverage"] = covered / traced.sum();
  // Inside allocate_ilp: model build (allocator stats), then the solver's
  // presolve and branch & bound (its trace spans).
  out.metrics["core.model_build_ms"] = layers.model_build / ops;
  out.metrics["ilp.presolve_ms"] = layers.presolve / ops;
  out.metrics["ilp.bnb_ms"] = layers.bnb / ops;
  out.metrics["obs.trace_overhead"] = traced.p50() - plain.p50();

  out.counter("ir.instructions", pass_counters.instructions);
  out.counter("vra.fixpoint_passes", pass_counters.vra_passes);
  out.counter("vra.widenings", pass_counters.widenings);
  out.counter("core.model_variables", pass_counters.variables);
  out.counter("core.model_constraints", pass_counters.constraints);
  out.counter("core.casts_inserted", pass_counters.casts);
  out.counter("ilp.bnb_nodes", pass_counters.nodes);
  out.counter("ilp.simplex_iterations", pass_counters.iterations);
  out.counter("analysis.capped_bounds", pass_counters.capped);
}

} // namespace perfbench
