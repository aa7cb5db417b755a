#include "testing/error_fuzz.hpp"

#include <cmath>

#include "analysis/certificate_check.hpp"
#include "analysis/error_bounds.hpp"
#include "interp/batch.hpp"
#include "support/string_utils.hpp"
#include "testing/ir_fuzz.hpp"
#include "vra/range_analysis.hpp"

namespace luis::testing {

namespace {

bool all_finite(const interp::ArrayStore& store) {
  for (const auto& [name, buf] : store)
    for (double v : buf)
      if (!std::isfinite(v)) return false;
  return true;
}

/// Bit-level agreement up to NaN identity (every NaN equals every NaN —
/// the profiler never distinguishes payloads).
bool same_value(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// The shadow-execution oracle: re-runs `assignment` through the VM with
/// the error profiler attached and checks every runtime claim the
/// profiler makes.
///
///   1. Profiling is a pure observer: the quantized outputs are
///      bit-identical to the unprofiled run.
///   2. The in-engine per-array stats and whole-program MPE equal an
///      external recomputation (finalize_error_profile) from the final
///      buffers.
///   3. With zero recorded control divergences, the shadow outputs are
///      bit-identical to the independent binary64 reference run.
///   4. The measured-vs-certified cross-check (the `luis profile
///      --errors` gate) reports no violation.
CheckResult check_shadow_oracle(const ir::Function& f,
                                const interp::ArrayStore& inputs,
                                const interp::TypeAssignment& assignment,
                                const interp::ArrayStore& quantized,
                                const interp::ArrayStore& reference) {
  interp::ArrayStore shadowed = inputs;
  interp::ErrorProfile ep;
  const interp::CompiledProgram program =
      interp::compile_program(f, assignment);
  const interp::BatchLane lane{&program, &shadowed, nullptr, &ep};
  const interp::RunResult run = interp::run_batch_programs({&lane, 1}, f)[0];
  if (!run.ok)
    return CheckResult::fail(
        "shadow-profiled run failed where the plain run succeeded: " +
        run.error);

  for (const auto& [name, buf] : quantized) {
    const auto it = shadowed.find(name);
    if (it == shadowed.end() || it->second.size() != buf.size())
      return CheckResult::fail("shadow run dropped or resized array @" + name);
    for (std::size_t i = 0; i < buf.size(); ++i)
      if (!same_value(buf[i], it->second[i]))
        return CheckResult::fail(format_string(
            "shadow profiling perturbed the quantized run at @%s[%zu]: "
            "%.17g vs %.17g",
            name.c_str(), i, buf[i], it->second[i]));
  }
  if (!ep.finalized)
    return CheckResult::fail(
        "error profile not finalized by a successful run");

  interp::ErrorProfile recomputed;
  std::vector<const std::vector<double>*> qp, sp;
  for (const interp::ArrayBinding& ab : program.arrays) {
    qp.push_back(&shadowed.at(ab.name));
    sp.push_back(&ep.shadow_arrays.at(ab.name));
  }
  interp::finalize_error_profile(recomputed, program, qp, sp);
  if (!same_value(recomputed.program_mpe, ep.program_mpe))
    return CheckResult::fail(format_string(
        "in-engine program MPE %.17g does not reconcile with external "
        "recomputation %.17g",
        ep.program_mpe, recomputed.program_mpe));
  if (recomputed.arrays.size() != ep.arrays.size())
    return CheckResult::fail("per-array stats count mismatch");
  for (std::size_t i = 0; i < ep.arrays.size(); ++i) {
    const interp::ArrayErrorStats& a = ep.arrays[i];
    const interp::ArrayErrorStats& b = recomputed.arrays[i];
    if (a.name != b.name || a.stored != b.stored ||
        a.elements != b.elements || a.finite != b.finite ||
        !same_value(a.max_abs, b.max_abs) ||
        !same_value(a.max_rel, b.max_rel) || !same_value(a.mpe, b.mpe))
      return CheckResult::fail("per-array stats of @" + a.name +
                               " do not reconcile with recomputation");
  }

  if (ep.control_divergences == 0) {
    for (const auto& [name, sbuf] : ep.shadow_arrays) {
      const auto rit = reference.find(name);
      if (rit == reference.end() || rit->second.size() != sbuf.size())
        return CheckResult::fail("shadow array @" + name +
                                 " missing from the reference run");
      for (std::size_t i = 0; i < sbuf.size(); ++i)
        if (!same_value(sbuf[i], rit->second[i]))
          return CheckResult::fail(format_string(
              "zero control divergences but shadow @%s[%zu] = %.17g differs "
              "from the binary64 reference %.17g",
              name.c_str(), i, sbuf[i], rit->second[i]));
    }
  }

  const analysis::CertificateCrossCheck cc =
      analysis::cross_check_certificates(f, assignment, ep.arrays,
                                         ep.control_divergences);
  for (const analysis::ArrayCertCheck& c : cc.arrays)
    if (c.violated)
      return CheckResult::fail(format_string(
          "certificate cross-check violated at @%s: measured %.17g > "
          "certified %.17g",
          c.name.c_str(), c.measured, c.certified));
  return CheckResult::pass();
}

} // namespace

CheckResult check_error_bounds_instance(const ir::Function& f,
                                        const interp::ArrayStore& inputs,
                                        Rng& type_rng,
                                        interp::EngineKind engine) {
  const auto exec = interp::make_engine(engine);

  // The binary64 reference run stands in for the exact execution; its own
  // distance to exactness is certified below and added to the budget.
  interp::ArrayStore reference = inputs;
  const interp::TypeAssignment binary64;
  const interp::RunResult ref_run = exec->run(f, binary64, reference);
  if (!ref_run.ok || !all_finite(reference))
    return CheckResult::pass(); // not this oracle's property (ir target's)

  const interp::TypeAssignment assignment = random_type_assignment(f, type_rng);
  interp::ArrayStore quantized = inputs;
  const interp::RunResult quant_run = exec->run(f, assignment, quantized);
  if (!quant_run.ok)
    return CheckResult::fail("quantized execution failed: " + quant_run.error);

  // join_stores makes the certificate self-contained: the only trusted
  // inputs are the array annotations, which the generator draws the input
  // data from.
  vra::VraOptions vra_options;
  vra_options.join_stores = true;
  const vra::RangeMap ranges = vra::analyze_ranges(f, vra_options);
  const analysis::ErrorAnalysisResult certified =
      analysis::analyze_errors(f, assignment, ranges);
  const analysis::ErrorAnalysisResult reference_err =
      analysis::analyze_errors(f, binary64, ranges);

  // The shadow-execution oracle runs on every trial — its observer and
  // reconciliation properties hold regardless of finiteness.
  const CheckResult shadow =
      check_shadow_oracle(f, inputs, assignment, quantized, reference);
  if (!shadow.ok) return shadow;

  // A non-finite quantized value voids the finite-run side condition that
  // float-format caps certify under; unconditional bounds still apply, but
  // a measured |quantized - reference| is not even well defined here.
  if (!all_finite(quantized))
    return CheckResult::pass();

  for (const auto& arr : f.arrays()) {
    const double bound = certified.errors.of(arr.get()) +
                         reference_err.errors.of(arr.get());
    if (!std::isfinite(bound)) continue; // no claim made
    const auto qit = quantized.find(arr->name());
    const auto rit = reference.find(arr->name());
    if (qit == quantized.end() || rit == reference.end() ||
        qit->second.size() != rit->second.size())
      return CheckResult::fail("engine dropped or resized array @" +
                               arr->name());
    for (std::size_t i = 0; i < qit->second.size(); ++i) {
      const double measured = std::abs(qit->second[i] - rit->second[i]);
      if (measured > bound)
        return CheckResult::fail(format_string(
            "certified bound violated at @%s[%zu]: measured %.17g > "
            "certified %.17g (assignment %s)",
            arr->name().c_str(), i, measured, bound,
            assignment.of(arr.get()).name().c_str()));
    }
  }
  return CheckResult::pass();
}

} // namespace luis::testing
