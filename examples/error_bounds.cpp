// Static error bounds for a tuned kernel — the workflow a safety-minded
// user runs before shipping a precision-tuned binary: tune for speed, then
// get a sound worst-case error certificate for the chosen types (or an
// honest "unbounded" where the analysis cannot certify). This is what
// `luis check` does from the command line.
#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/error_bounds.hpp"
#include "core/pipeline.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"

using namespace luis;

int main(int argc, char** argv) {
  const std::string kernel_name = argc > 1 ? argv[1] : "atax";
  if (argc > 2 || !polybench::is_kernel(kernel_name)) {
    std::fprintf(stderr, "usage: error_bounds [kernel]  (a PolyBench kernel "
                         "name; default atax)\n");
    return 2;
  }

  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel(kernel_name, module);
  const ir::Function& f = *kernel.function;

  std::printf("kernel %s, tuning with the Fast preset for Stm32...\n\n",
              kernel_name.c_str());
  core::PipelineOptions options;
  options.analyze_errors = true;
  const core::PipelineResult tuned =
      core::tune_kernel(*kernel.function, platform::stm32_table(),
                        core::TuningConfig::fast(), options);
  for (const auto& arr : f.arrays())
    std::printf("  %-8s -> %s\n", arr->name().c_str(),
                tuned.allocation.assignment.of(arr.get()).name().c_str());

  // The certificate bounds |quantized - exact|; a deviation measured
  // against a binary64 run also budgets binary64's own distance to exact.
  const analysis::ErrorAnalysisResult reference =
      analysis::analyze_errors(f, interp::TypeAssignment(), tuned.ranges);
  std::printf("\ncertified worst-case absolute error vs binary64 (%d "
              "passes%s):\n",
              tuned.errors.stats.passes,
              tuned.errors.stats.converged ? ", converged" : "");
  for (const auto& arr : f.arrays()) {
    const double bound =
        tuned.errors.errors.of(arr.get()) + reference.errors.of(arr.get());
    if (!std::isfinite(bound))
      std::printf("  %-8s unbounded (division over a range reaching zero, "
                  "or untrusted ranges)\n",
                  arr->name().c_str());
    else
      std::printf("  %-8s <= %.3e\n", arr->name().c_str(), bound);
  }

  // Cross-check against one measured execution.
  interp::ArrayStore ref = kernel.inputs;
  if (!run_function(f, interp::TypeAssignment(), ref).ok) return 1;
  interp::ArrayStore out = kernel.inputs;
  if (!run_function(f, tuned.allocation.assignment, out).ok) return 1;
  std::printf("\nmeasured worst deviation on the bundled inputs:\n");
  for (const std::string& o : kernel.outputs) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.at(o).size(); ++i)
      worst = std::max(worst, std::abs(ref.at(o)[i] - out.at(o)[i]));
    std::printf("  %-8s %.3e\n", o.c_str(), worst);
  }
  return 0;
}
