// Static error certificate vs measured error.
//
// For every PolyBench kernel tuned with the Fast preset on Stm32, compares
// the certified worst-case absolute error bound (analysis/error_bounds.hpp,
// the certificate behind `luis check`) against the measured worst absolute
// output deviation of the tuned execution from the binary64 one on the
// bundled inputs. The certificate bounds quantized-vs-exact error, so the
// budget for a measured quantized-vs-binary64 deviation is
// cert(tuned) + cert(binary64), as in cross_check_certificates. The
// "slack" column shows how conservative that budget is. Unbounded rows are
// outputs the analysis cannot certify (division over a zero-straddling
// divisor, untrusted ranges); a certificate near 1.8e+308 is a binary64
// representation cap, which holds only for runs that stay finite.
//
// Exits 1 when any output's measured error exceeds its certified budget or
// a kernel fails to run: the analysis claims soundness unconditionally.
#include <cmath>
#include <cstdio>

#include "analysis/error_bounds.hpp"
#include "core/pipeline.hpp"
#include "polybench/polybench.hpp"

using namespace luis;

int main() {
  std::printf("=== Static error certificate vs measured error (Fast preset, "
              "Stm32) ===\n\n");
  std::printf("%-16s %-8s %10s %10s %10s %10s\n", "kernel", "output",
              "cert", "cert(b64)", "measured", "slack");
  core::PipelineOptions options;
  options.analyze_errors = true;
  int sound = 0, total = 0, unbounded = 0, failed = 0;
  for (const std::string& name : polybench::kernel_names()) {
    ir::Module m;
    polybench::BuiltKernel kernel = polybench::build_kernel(name, m);
    const ir::Function& f = *kernel.function;
    const core::PipelineResult tuned = core::tune_kernel(
        *kernel.function, platform::stm32_table(), core::TuningConfig::fast(),
        options);
    const analysis::ErrorAnalysisResult reference =
        analysis::analyze_errors(f, interp::TypeAssignment(), tuned.ranges);

    interp::ArrayStore ref = kernel.inputs;
    interp::ArrayStore out = kernel.inputs;
    if (!run_function(f, interp::TypeAssignment(), ref).ok ||
        !run_function(f, tuned.allocation.assignment, out).ok) {
      std::printf("%-16s run failed\n", name.c_str());
      ++failed;
      continue;
    }

    for (const std::string& o : kernel.outputs) {
      double measured = 0.0;
      for (std::size_t i = 0; i < ref.at(o).size(); ++i)
        measured = std::max(measured, std::abs(ref.at(o)[i] - out.at(o)[i]));
      const ir::Array* arr = f.array_by_name(o);
      const double cert = tuned.errors.errors.of(arr);
      const double cert_b64 = reference.errors.of(arr);
      const double certified = cert + cert_b64;
      ++total;
      if (measured <= certified) ++sound;
      if (!std::isfinite(certified)) {
        ++unbounded;
        std::printf("%-16s %-8s %21s %10.3e %10s\n", name.c_str(), o.c_str(),
                    "unbounded", measured, "-");
      } else {
        std::printf("%-16s %-8s %10.3e %10.3e %10.3e %9.2gx%s\n", name.c_str(),
                    o.c_str(), cert, cert_b64, measured,
                    measured > 0 ? certified / measured : INFINITY,
                    measured <= certified ? "" : "  UNSOUND");
      }
    }
  }
  std::printf("\nsound on %d/%d outputs (%d unbounded)", sound, total,
              unbounded);
  if (failed > 0) std::printf(", %d kernels failed to run", failed);
  std::printf("\n");
  return sound == total && failed == 0 ? 0 : 1;
}
