// Gate for the sparse revised simplex core: tunes PolyBench kernels with
// the pre-existing solver configuration (dense tableau core, cold-started
// B&B, most-fractional branching) and with the new default (sparse revised
// core, warm-started B&B, pseudo-cost branching), then compares answers —
// they must agree on the optimum, ideally on the exact assignment — and
// work (nodes, simplex iterations).
//
// Both the merged type-class formulation (the default) and the paper's
// literal per-register formulation are measured; the literal models are an
// order of magnitude larger and are where the solver work concentrates.
//
// Writes BENCH_ilp.json (machine-readable record, one entry per kernel and
// shape) and exits nonzero on any optimum mismatch, so CI can run it as a
// smoke job on the largest models. Every recorded field is deterministic;
// solver time is measured by perfbench (ilp.bnb_ms in the `tune`
// workload's traced run).
//
// Usage: bench_ilp [--out FILE] [--merged-only] [kernel...]
//        (no kernels = all 30)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/assignment_io.hpp"
#include "core/pipeline.hpp"
#include "ilp/simplex.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"

using namespace luis;

namespace {

struct CoreRun {
  ilp::SolveStatus status = ilp::SolveStatus::Optimal;
  long nodes = 0;
  long iterations = 0;
  double objective = 0.0;
  std::size_t model_variables = 0;
  std::size_t model_constraints = 0;
  std::string assignment_text;
};

CoreRun run_config(const std::string& kernel, bool literal, bool baseline) {
  ir::Module mod;
  const polybench::BuiltKernel k = polybench::build_kernel(kernel, mod);
  core::TuningConfig cfg = core::TuningConfig::balanced();
  cfg.literal_model = literal;
  if (baseline) {
    // The solver as it existed before the revised core landed.
    cfg.solver.lp.core = ilp::LpCore::Dense;
    cfg.solver.branching = ilp::Branching::MostFractional;
    cfg.solver.warm_start = false;
  } else {
    cfg.solver.lp.core = ilp::LpCore::Revised;
    cfg.solver.branching = ilp::Branching::PseudoCost;
    cfg.solver.warm_start = true;
  }
  const core::PipelineResult tuned =
      core::tune_kernel(*k.function, platform::amd_table(), cfg);

  CoreRun out;
  out.status = tuned.allocation.stats.status;
  out.nodes = tuned.allocation.stats.nodes;
  out.iterations = tuned.allocation.stats.iterations;
  out.objective = tuned.allocation.stats.objective;
  out.model_variables = tuned.allocation.stats.model_variables;
  out.model_constraints = tuned.allocation.stats.model_constraints;
  out.assignment_text =
      core::assignment_to_text(*k.function, tuned.allocation.assignment);
  return out;
}

void write_run(JsonWriter& w, const CoreRun& r) {
  w.begin_object();
  w.key("status");
  w.value(to_string(r.status));
  w.key("nodes");
  w.value(r.nodes);
  w.key("iterations");
  w.value(r.iterations);
  w.key("objective");
  w.value(r.objective, "%.17g");
  w.end_object();
}

double ratio(double a, double b) { return a / std::max(b, 1e-12); }

} // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_ilp.json";
  bool merged_only = false;
  std::vector<std::string> kernels;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--merged-only") == 0) {
      merged_only = true;
    } else if (polybench::is_kernel(argv[i])) {
      kernels.emplace_back(argv[i]);
    } else {
      if (std::strcmp(argv[i], "--help") != 0)
        std::fprintf(stderr, "bench_ilp: unknown kernel or option '%s'\n",
                     argv[i]);
      std::fprintf(stderr, "usage: bench_ilp [--out FILE] [--merged-only] "
                           "[kernel...]\n");
      return 2;
    }
  }
  if (kernels.empty()) {
    const std::span<const std::string> all = polybench::kernel_names();
    kernels.assign(all.begin(), all.end());
  }

  std::printf("=== ILP solver gate: old (dense, cold, most-fractional) vs "
              "new (revised, warm, pseudo-cost) ===\n\n");
  std::printf("%-16s %-7s %6s %6s | %7s %8s | %7s %8s | %6s %s\n", "kernel",
              "shape", "vars", "rows", "o.nodes", "o.iters", "n.nodes",
              "n.iters", "nodeX", "assign");

  JsonWriter w;
  w.begin_object();
  w.key("benchmark");
  w.value("ilp_solver_gate");
  w.key("config");
  w.value("Balanced");
  w.key("platform");
  w.value("amd");
  w.key("kernels");
  w.begin_array();

  bool mismatch = false;
  double node_sum = 0.0;
  int cells = 0;
  double largest_vars = 0.0, largest_node_ratio = 0.0;
  std::string largest_kernel;
  for (const std::string& kernel : kernels) {
    for (const bool literal : {false, true}) {
      if (literal && merged_only) continue;
      const CoreRun before = run_config(kernel, literal, /*baseline=*/true);
      const CoreRun after = run_config(kernel, literal, /*baseline=*/false);

      const bool status_ok = before.status == after.status;
      const double scale = std::max(1.0, std::abs(before.objective));
      const bool objective_ok =
          status_ok && (before.status != ilp::SolveStatus::Optimal ||
                        std::abs(before.objective - after.objective) <=
                            1e-6 * scale);
      const bool assignment_same =
          before.assignment_text == after.assignment_text;
      if (!objective_ok) mismatch = true;

      const double nx = ratio(static_cast<double>(before.nodes),
                              static_cast<double>(after.nodes));
      node_sum += nx;
      ++cells;
      if (static_cast<double>(before.model_variables) > largest_vars) {
        largest_vars = static_cast<double>(before.model_variables);
        largest_kernel = kernel + (literal ? " (literal)" : " (merged)");
        largest_node_ratio = nx;
      }

      std::printf("%-16s %-7s %6zu %6zu | %7ld %8ld | %7ld %8ld | %5.1fx "
                  "%s%s\n",
                  kernel.c_str(), literal ? "literal" : "merged",
                  before.model_variables, before.model_constraints,
                  before.nodes, before.iterations, after.nodes,
                  after.iterations, nx, assignment_same ? "same" : "tied-alt",
                  objective_ok ? "" : "  ** OPTIMUM MISMATCH **");

      w.newline();
      w.begin_object();
      w.key("kernel");
      w.value(kernel);
      w.key("shape");
      w.value(literal ? "literal" : "merged");
      w.key("model_variables");
      w.value(before.model_variables);
      w.key("model_constraints");
      w.value(before.model_constraints);
      w.key("old");
      write_run(w, before);
      w.key("new");
      write_run(w, after);
      w.key("node_ratio");
      w.value(nx, "%.4g");
      w.key("objectives_match");
      w.value(objective_ok);
      w.key("assignments_identical");
      w.value(assignment_same);
      w.end_object();
    }
  }
  w.end_array();

  w.key("summary");
  w.newline();
  w.begin_object();
  w.key("cells");
  w.value(cells);
  w.key("mean_node_ratio");
  w.value(node_sum / cells, "%.4g");
  w.key("largest_model");
  w.value(largest_kernel);
  w.key("largest_node_ratio");
  w.value(largest_node_ratio, "%.4g");
  w.key("all_optima_match");
  w.value(!mismatch);
  w.end_object();
  w.end_object();
  w.newline();

  std::ofstream(out_path) << w.str();
  std::printf("\nMean node ratio %.2fx; largest model (%s): %.2fx nodes.\n"
              "Wrote %s\n",
              node_sum / cells, largest_kernel.c_str(), largest_node_ratio,
              out_path.c_str());
  if (mismatch) {
    std::printf("FAIL: old and new solvers disagree on at least one "
                "optimum.\n");
    return 1;
  }
  return 0;
}
