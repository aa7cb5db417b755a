// Shadow-execution error profiler (interp::ErrorProfile + obs error
// report + analysis certificate cross-check).
//
// The profiler's contract has three legs, each tested here: it is a pure
// observer (quantized outputs bit-identical with the shadow on or off,
// and with zero control divergences the shadow itself is bit-identical
// to an independent binary64 run); its whole-program MPE and per-array
// stats reconcile exactly with external recomputation from the final
// buffers; and its measured deviations never exceed the static
// certificates on the kernels `luis check` certifies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/certificate_check.hpp"
#include "interp/batch.hpp"
#include "interp/engine.hpp"
#include "interp/interpreter.hpp"
#include "ir/parser.hpp"
#include "obs/error_profile.hpp"
#include "obs/profile.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/statistics.hpp"

namespace luis {
namespace {

/// Runs a compiled program through the VM executor as a batch of one.
interp::RunResult run_one(const interp::CompiledProgram& program,
                          const ir::Function& f, interp::ArrayStore& store,
                          interp::VmProfile* profile = nullptr,
                          interp::ErrorProfile* errors = nullptr) {
  const interp::BatchLane lane{&program, &store, profile, errors};
  return interp::run_batch_programs({&lane, 1}, f)[0];
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct ProfiledRun {
  interp::CompiledProgram program;
  interp::ArrayStore outputs;
  interp::ErrorProfile errors;
};

/// Runs `kernel` under a uniform `type` through the VM with the shadow
/// attached; asserts the run succeeds and the profile finalizes.
ProfiledRun profiled_run(const std::string& kernel, ir::Module& module,
                         numrep::ConcreteType type,
                         interp::VmProfile* vm_profile = nullptr) {
  const polybench::BuiltKernel built = polybench::build_kernel(kernel, module);
  const interp::TypeAssignment types =
      interp::TypeAssignment::uniform(*built.function, type);
  ProfiledRun out;
  out.program = interp::compile_program(*built.function, types, {});
  out.outputs = built.inputs;
  const interp::RunResult run = run_one(out.program, *built.function,
                                       out.outputs, vm_profile, &out.errors);
  EXPECT_TRUE(run.ok) << kernel << ": " << run.error;
  EXPECT_TRUE(out.errors.finalized) << kernel;
  return out;
}

TEST(ErrorProfile, ShadowIsAPureObserver) {
  // Profiling must not perturb the quantized run by a single bit, and
  // with no control divergence the shadow must equal an independent
  // binary64 run of the same inputs.
  for (const char* kernel : {"atax", "trisolv", "gemm"}) {
    ir::Module m_plain, m_prof, m_ref;
    const polybench::BuiltKernel plain =
        polybench::build_kernel(kernel, m_plain);
    const interp::TypeAssignment b32 = interp::TypeAssignment::uniform(
        *plain.function, {numrep::kBinary32, 0});
    interp::ArrayStore unprofiled = plain.inputs;
    ASSERT_TRUE(run_one(interp::compile_program(*plain.function, b32, {}),
                        *plain.function, unprofiled)
                    .ok);

    const ProfiledRun prof =
        profiled_run(kernel, m_prof, {numrep::kBinary32, 0});
    for (const auto& [name, buf] : unprofiled)
      EXPECT_TRUE(bits_equal(buf, prof.outputs.at(name)))
          << kernel << " @" << name;

    ASSERT_EQ(prof.errors.control_divergences, 0) << kernel;
    const polybench::BuiltKernel ref = polybench::build_kernel(kernel, m_ref);
    interp::ArrayStore binary64 = ref.inputs;
    ASSERT_TRUE(run_one(interp::compile_program(*ref.function, {}, {}),
                        *ref.function, binary64)
                    .ok);
    for (const auto& [name, buf] : binary64)
      EXPECT_TRUE(bits_equal(buf, prof.errors.shadow_arrays.at(name)))
          << kernel << " shadow @" << name;
  }
}

TEST(ErrorProfile, ProgramMpeReconcilesWithExternalComputation) {
  // The in-engine MPE is mean_percentage_error over the stored-to arrays
  // concatenated in binding order, shadow as reference — recompute it
  // from the final buffers with the public statistics helper and demand
  // exact (not approximate) agreement.
  for (const char* kernel : {"atax", "bicg", "mvt"}) {
    ir::Module m;
    const ProfiledRun prof = profiled_run(kernel, m, {numrep::kBinary32, 0});
    std::vector<double> shadow_cat, quant_cat;
    for (const interp::ArrayErrorStats& a : prof.errors.arrays) {
      if (!a.stored) continue;
      const std::vector<double>& q = prof.outputs.at(a.name);
      const std::vector<double>& s = prof.errors.shadow_arrays.at(a.name);
      ASSERT_EQ(q.size(), s.size());
      quant_cat.insert(quant_cat.end(), q.begin(), q.end());
      shadow_cat.insert(shadow_cat.end(), s.begin(), s.end());
    }
    EXPECT_EQ(mean_percentage_error(shadow_cat, quant_cat),
              prof.errors.program_mpe)
        << kernel;
    // binary32 on real data: some error, but far from catastrophic.
    EXPECT_GT(prof.errors.program_mpe, 0.0) << kernel;
    EXPECT_LT(prof.errors.program_mpe, 1.0) << kernel;
  }
}

TEST(ErrorProfile, ArrayStatsMatchTheFinalBuffers) {
  ir::Module m;
  const ProfiledRun prof = profiled_run("atax", m, {numrep::kBinary32, 0});
  for (const interp::ArrayErrorStats& a : prof.errors.arrays) {
    const std::vector<double>& q = prof.outputs.at(a.name);
    const std::vector<double>& s = prof.errors.shadow_arrays.at(a.name);
    ASSERT_EQ(static_cast<long>(q.size()), a.elements);
    double max_abs = 0.0;
    bool finite = true;
    for (std::size_t i = 0; i < q.size(); ++i) {
      max_abs = std::max(max_abs, std::abs(q[i] - s[i]));
      finite = finite && std::isfinite(q[i]) && std::isfinite(s[i]);
    }
    EXPECT_EQ(max_abs, a.max_abs) << a.name;
    EXPECT_EQ(finite, a.finite) << a.name;
  }
}

TEST(ErrorProfile, SpikeFieldsFireOnACoarseFormat) {
  // An 8-bit fixed format loses most of the mantissa: relative errors
  // blow straight through the default 1e-3 spike threshold, so the
  // first-spike fields must identify a concrete source line and step.
  const char* text = R"(func @coarse {
  array @A[8] range [0.25, 1.0]
entry:
  br loop
loop:
  %0 = phi int [ 0, entry ], [ %4, loop ]
  %1 = load @A[%0]
  %2 = mul %1, 0.8125
  %3 = add %2, 0.09375
  store %3, @A[%0]
  %4 = iadd %0, 1
  %5 = icmp lt %4, 8
  condbr %5, loop, done
done:
  ret
})";
  ir::Module m;
  const ir::ParseResult parsed = ir::parse_function(m, text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const interp::TypeAssignment coarse = interp::TypeAssignment::uniform(
      *parsed.function, {numrep::NumericFormat::fixed(8), 3});
  interp::ArrayStore store;
  store["A"] = {0.25, 0.375, 0.5, 0.625, 0.6875, 0.75, 0.875, 1.0};
  interp::ErrorProfile ep;
  const interp::CompiledProgram program =
      interp::compile_program(*parsed.function, coarse, {});
  ASSERT_TRUE(run_one(program, *parsed.function, store, nullptr, &ep).ok);

  EXPECT_GE(ep.first_spike_step, 0);
  EXPECT_GE(ep.first_spike_src, 0);
  EXPECT_GT(ep.first_spike_rel, ep.spike_rel_threshold);
  const obs::ErrorReport rep =
      obs::build_error_report(program, *parsed.function, ep);
  EXPECT_GE(rep.first_spike_ordinal, 0);
  EXPECT_GT(rep.max_rel, 1e-3);
}

TEST(ErrorProfile, ReportAlignsWithTheHotSpotTable) {
  // The error table is priced next to the time table: every error line's
  // ordinal must name a line the hot-spot report also attributes, and
  // the two documents must agree on the instruction text.
  ir::Module m;
  interp::VmProfile vm_profile;
  const ProfiledRun prof =
      profiled_run("trisolv", m, {numrep::kBinary32, 0}, &vm_profile);
  const ir::Function* f = m.functions().front().get();
  const obs::HotSpotReport hot = obs::build_hotspot_report(
      prof.program, *f, vm_profile, platform::stm32_table());
  const obs::ErrorReport rep =
      obs::build_error_report(prof.program, *f, prof.errors);
  ASSERT_FALSE(rep.lines.empty());

  std::map<int, std::string> hot_text;
  for (const obs::HotSpot& h : hot.entries)
    hot_text[h.ordinal] = h.text;
  long observations = 0;
  for (const obs::ErrorLine& ln : rep.lines) {
    observations += ln.count;
    EXPECT_LE(ln.mean_rel, ln.max_rel) << ln.text;
    EXPECT_LE(ln.p50_rel, ln.p90_rel) << ln.text;
    EXPECT_LE(ln.p90_rel, ln.p99_rel) << ln.text;
    EXPECT_LE(ln.max_rel, rep.max_rel) << ln.text;
    const auto it = hot_text.find(ln.ordinal);
    if (it != hot_text.end())
      EXPECT_EQ(it->second, ln.text) << "ordinal " << ln.ordinal;
  }
  EXPECT_EQ(observations, rep.total_observations);

  const std::string text = obs::error_report_text(rep);
  EXPECT_NE(text.find("program MPE"), std::string::npos) << text;
  const std::string json = obs::error_report_json(rep);
  EXPECT_NE(json.find("\"program_mpe\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_rel\""), std::string::npos);
}

TEST(CertificateCrossCheck, MeasuredStaysWithinCertifiedOnRealKernels) {
  // The headline property, on kernels whose Balanced-grade certificates
  // are finite: the shadow-measured deviation must sit under the static
  // bound, with a sane (>= 1) tightness ratio.
  for (const char* kernel : {"atax", "bicg", "mvt"}) {
    ir::Module m;
    const ProfiledRun prof = profiled_run(kernel, m, {numrep::kBinary32, 0});
    const ir::Function* f = m.functions().front().get();
    const interp::TypeAssignment b32 =
        interp::TypeAssignment::uniform(*f, {numrep::kBinary32, 0});
    const analysis::CertificateCrossCheck cc =
        analysis::cross_check_certificates(*f, b32, prof.errors.arrays,
                                           prof.errors.control_divergences);
    EXPECT_FALSE(cc.any_violation) << kernel;
    EXPECT_TRUE(cc.shadow_is_reference) << kernel;
    int checked = 0;
    for (const analysis::ArrayCertCheck& c : cc.arrays) {
      if (!c.checked) continue;
      ++checked;
      EXPECT_LE(c.measured, c.certified) << kernel << " @" << c.name;
      EXPECT_GE(c.tightness, 1.0) << kernel << " @" << c.name;
    }
    EXPECT_GT(checked, 0) << kernel << ": no finite certificate checked";
  }
}

TEST(CertificateCrossCheck, FabricatedExcessTripsTheViolationGate) {
  // The gate must actually fire: feed the checker measured stats above
  // any plausible bound and demand a violation verdict (this is the
  // path `luis profile --errors` exits nonzero on).
  ir::Module m;
  const polybench::BuiltKernel built = polybench::build_kernel("atax", m);
  const interp::TypeAssignment b32 = interp::TypeAssignment::uniform(
      *built.function, {numrep::kBinary32, 0});
  std::vector<interp::ArrayErrorStats> fake;
  for (const auto& arr : built.function->arrays()) {
    interp::ArrayErrorStats s;
    s.name = arr->name();
    s.stored = true;
    s.elements = 1;
    s.max_abs = 1e6; // far beyond any finite certificate
    s.max_rel = 1e6;
    s.mpe = 100.0;
    fake.push_back(std::move(s));
  }
  const analysis::CertificateCrossCheck cc =
      analysis::cross_check_certificates(*built.function, b32, fake, 0);
  EXPECT_TRUE(cc.any_violation);
  bool any_checked_violated = false;
  for (const analysis::ArrayCertCheck& c : cc.arrays) {
    if (c.violated) {
      EXPECT_TRUE(c.checked) << c.name;
      EXPECT_LT(c.tightness, 1.0) << c.name;
      any_checked_violated = true;
    }
  }
  EXPECT_TRUE(any_checked_violated);

  const std::string text = analysis::certificate_check_text(cc);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos) << text;
  EXPECT_NE(text.find("FAIL"), std::string::npos) << text;
  const std::string json = analysis::certificate_check_json(cc);
  EXPECT_NE(json.find("\"any_violation\":true"), std::string::npos) << json;
}

TEST(CertificateCrossCheck, ControlDivergenceVoidsEveryClaim) {
  // When the quantized run took a different branch than the shadow, the
  // shadow is no longer the reference execution — nothing may be checked
  // (and in particular nothing may be declared violated).
  ir::Module m;
  const polybench::BuiltKernel built = polybench::build_kernel("atax", m);
  const interp::TypeAssignment b32 = interp::TypeAssignment::uniform(
      *built.function, {numrep::kBinary32, 0});
  std::vector<interp::ArrayErrorStats> fake(1);
  fake[0].name = built.function->arrays().front()->name();
  fake[0].stored = true;
  fake[0].elements = 1;
  fake[0].max_abs = 1e6;
  const analysis::CertificateCrossCheck cc =
      analysis::cross_check_certificates(*built.function, b32, fake,
                                         /*control_divergences=*/3);
  EXPECT_FALSE(cc.shadow_is_reference);
  EXPECT_FALSE(cc.any_violation);
  for (const analysis::ArrayCertCheck& c : cc.arrays) {
    EXPECT_FALSE(c.checked) << c.name;
    EXPECT_FALSE(c.violated) << c.name;
  }
  const std::string text = analysis::certificate_check_text(cc);
  EXPECT_NE(text.find("advisory only"), std::string::npos) << text;
}

} // namespace
} // namespace luis
