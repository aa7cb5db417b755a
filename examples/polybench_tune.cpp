// Tune a PolyBench kernel for a platform and configuration from the
// command line:
//
//   polybench_tune [kernel] [platform] [config]
//   polybench_tune gemm Stm32 Fast
//   polybench_tune list            # print the kernel names
//
// Defaults: gemm / Stm32 / Balanced. Prints the allocation, the precision
// mix, and the Speedup / MPE metrics of the tuned kernel.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/cast_materializer.hpp"
#include "core/pipeline.hpp"
#include "platform/cost_model.hpp"
#include "polybench/polybench.hpp"
#include "support/statistics.hpp"

using namespace luis;

int main(int argc, char** argv) {
  std::string kernel_name = argc > 1 ? argv[1] : "gemm";
  const std::string platform_name = argc > 2 ? argv[2] : "Stm32";
  const std::string config_name = argc > 3 ? argv[3] : "Balanced";

  if (kernel_name == "list") {
    for (const std::string& name : polybench::kernel_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }
  const auto usage = [] {
    std::fprintf(stderr, "usage: polybench_tune [kernel] [platform] [config] "
                         "| polybench_tune list\n");
    return 2;
  };
  if (argc > 4) return usage();
  if (!polybench::is_kernel(kernel_name)) {
    std::fprintf(stderr, "unknown kernel '%s' (polybench_tune list)\n",
                 kernel_name.c_str());
    return usage();
  }

  const platform::OpTimeTable* table = platform::platform_by_name(platform_name);
  if (!table) {
    std::fprintf(stderr, "unknown platform '%s' (Stm32/Raspberry/Intel/AMD)\n",
                 platform_name.c_str());
    return usage();
  }
  core::TuningConfig config;
  if (config_name == "Fast")
    config = core::TuningConfig::fast();
  else if (config_name == "Balanced")
    config = core::TuningConfig::balanced();
  else if (config_name == "Precise")
    config = core::TuningConfig::precise();
  else {
    std::fprintf(stderr, "unknown config '%s' (Fast/Balanced/Precise)\n",
                 config_name.c_str());
    return usage();
  }

  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel(kernel_name, module);
  std::printf("kernel %s: %zu instructions, %zu arrays\n", kernel_name.c_str(),
              kernel.function->instruction_count(),
              kernel.function->arrays().size());

  interp::ArrayStore reference = kernel.inputs;
  interp::TypeAssignment binary64;
  const interp::RunResult base =
      run_function(*kernel.function, binary64, reference);
  if (!base.ok) {
    std::fprintf(stderr, "baseline failed: %s\n", base.error.c_str());
    return 1;
  }

  const core::PipelineResult tuned =
      core::tune_kernel(*kernel.function, *table, config);
  std::printf("\nLUIS / %s / %s: model %zu vars x %zu rows, %ld nodes, "
              "VRA %.1f ms + allocation %.1f ms\n",
              table->machine().c_str(), config.name.c_str(),
              tuned.allocation.stats.model_variables,
              tuned.allocation.stats.model_constraints,
              tuned.allocation.stats.nodes, tuned.timings.vra_seconds * 1e3,
              tuned.timings.allocation_seconds * 1e3);
  std::printf("\narray types:\n");
  for (const auto& arr : kernel.function->arrays())
    std::printf("  %-8s -> %s\n", arr->name().c_str(),
                tuned.allocation.assignment.of(arr.get()).name().c_str());
  std::printf("instruction mix:");
  for (const auto& [cls, count] : tuned.allocation.stats.instruction_mix)
    std::printf("  %s: %d", cls.c_str(), count);
  std::printf("\ncasts to materialize: %d\n",
              core::count_type_boundaries(*kernel.function,
                                          tuned.allocation.assignment));

  interp::ArrayStore out = kernel.inputs;
  const interp::RunResult run =
      run_function(*kernel.function, tuned.allocation.assignment, out);
  if (!run.ok) {
    std::fprintf(stderr, "tuned run failed: %s\n", run.error.c_str());
    return 1;
  }
  const double t_base = platform::simulated_time(base.counters, *table);
  const double t_tuned = platform::simulated_time(run.counters, *table);

  std::vector<double> ref_all, out_all;
  for (const std::string& name : kernel.outputs) {
    ref_all.insert(ref_all.end(), reference.at(name).begin(),
                   reference.at(name).end());
    out_all.insert(out_all.end(), out.at(name).begin(), out.at(name).end());
  }
  std::printf("\nSpeedup: %.1f%%   MPE: %.3g%%\n",
              platform::speedup_percent(t_base, t_tuned),
              mean_percentage_error(ref_all, out_all));
  return 0;
}
