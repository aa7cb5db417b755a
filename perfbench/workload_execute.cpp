// Workload `execute`: serial execution of tuned PolyBench kernels (Mini
// dataset) on the bytecode VM. Each kernel carries thirteen assignments
// made in set-up — Fast, Balanced and Multi tuned for each of the four
// platforms, plus one seeded random assignment — and every result is held
// bit-identical to the reference engine. The op is one single-lane
// VmEngine::run per (kernel, assignment). The traced run adds the two
// other uses of the same executor, each gated too:
//
//   profile  the single-lane run with an ErrorProfile shadow, whose
//            measured error must equal the set-up shadow run's, which
//            cross_check_certificates held within its certificate
//   batch    one VmEngine::run_batch per kernel, its assignments as lanes
#include <algorithm>
#include <cstring>
#include <memory>

#include "analysis/certificate_check.hpp"
#include "common.hpp"
#include "core/pipeline.hpp"
#include "interp/engine.hpp"
#include "numrep/quantize.hpp"
#include "platform/optime.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"
#include "testing/ir_fuzz.hpp"

namespace perfbench {
namespace {

using namespace luis;

/// What every timed op must reproduce: the reference engine's result.
struct Expected {
  bool ok = false;
  std::string error;
  long steps = 0;
  interp::ArrayStore store;
  /// Profile ops: the measured stats of the set-up shadow run, which
  /// passed cross_check_certificates.
  std::vector<interp::ArrayErrorStats> measured;
};

struct ExecKernel {
  std::string name;
  std::unique_ptr<ir::Module> module;
  ir::Function* function = nullptr;
  interp::ArrayStore inputs;
  std::vector<std::string> labels; ///< preset@platform, then "random"
  std::vector<interp::TypeAssignment> assignments;
  std::vector<std::string> random_formats; ///< formats of the random lane
  std::vector<Expected> expected;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_stats(const interp::ArrayErrorStats& a, const interp::ArrayErrorStats& b) {
  return a.name == b.name && a.elements == b.elements &&
         same_bits({a.max_abs, a.max_rel, a.mpe}, {b.max_abs, b.max_rel, b.mpe});
}

/// Empty when `run`/`store` reproduce `want`; otherwise what differs.
std::string compare(const interp::RunResult& run, const interp::ArrayStore& store,
                    const Expected& want) {
  if (run.ok != want.ok || run.error != want.error)
    return "trap diagnostic differs ('" + run.error + "' vs '" + want.error + "')";
  if (run.steps != want.steps) return "step count differs";
  if (store.size() != want.store.size()) return "array set differs";
  for (const auto& [name, values] : want.store) {
    const auto it = store.find(name);
    if (it == store.end() || !same_bits(it->second, values))
      return "array " + name + " differs";
  }
  return {};
}

/// Checks a shadow run's measured errors against the set-up shadow run.
/// Bit-equality keeps each op within the certificate that set-up checked.
std::string compare_profile(const interp::ErrorProfile& ep, const Expected& want) {
  if (ep.arrays.size() != want.measured.size()) return "error profile differs";
  for (std::size_t a = 0; a < ep.arrays.size(); ++a)
    if (!same_stats(ep.arrays[a], want.measured[a]))
      return "measured error of " + ep.arrays[a].name + " differs";
  return {};
}

long shadow_ops(const interp::ErrorProfile& ep) {
  long n = 0;
  for (const interp::ErrorCell& c : ep.instr) n += c.count;
  for (const interp::ErrorCell& c : ep.moves) n += c.count;
  return n;
}

struct Setup {
  std::vector<ExecKernel> kernels;
  long cert_violations = 0;
};

Setup build(const Options& options, bool profile) {
  Setup s;
  Rng rng(options.seed);
  std::vector<std::string> names(polybench::kernel_names().begin(),
                                 polybench::kernel_names().end());
  shuffle(names, rng);
  const interp::ReferenceEngine reference;
  const interp::VmEngine vm;
  for (const std::string& name : names) {
    ExecKernel k;
    k.name = name;
    k.module = std::make_unique<ir::Module>();
    polybench::BuiltKernel built = polybench::build_kernel(
        name, *k.module, true, polybench::DatasetSize::Mini);
    k.function = built.function;
    k.inputs = built.inputs;
    const ir::Function& f = *k.function;

    for (const core::TuningConfig& config :
         {core::TuningConfig::fast(), core::TuningConfig::balanced(),
          core::TuningConfig::multi()})
      for (const std::string& platform : platform_names()) {
        core::PipelineResult tuned = core::tune_kernel(
            *k.function, *platform::platform_by_name(platform), config);
        k.labels.push_back(config.name + "@" + platform);
        k.assignments.push_back(std::move(tuned.allocation.assignment));
      }
    k.labels.push_back("random");
    k.assignments.push_back(testing::random_type_assignment(f, rng));
    for (const auto& [value, type] : k.assignments.back().entries())
      if (std::find(k.random_formats.begin(), k.random_formats.end(),
                    type.name()) == k.random_formats.end())
        k.random_formats.push_back(type.name());
    std::sort(k.random_formats.begin(), k.random_formats.end());

    for (std::size_t a = 0; a < k.assignments.size(); ++a) {
      Expected want;
      want.store = k.inputs;
      const interp::RunResult run =
          reference.run(f, k.assignments[a], want.store);
      want.ok = run.ok;
      want.error = run.error;
      want.steps = run.steps;
      if (profile) {
        interp::ArrayStore store = k.inputs;
        interp::ErrorProfile ep;
        interp::RunOptions ropt;
        ropt.error_profile = &ep;
        vm.run(f, k.assignments[a], store, ropt);
        const analysis::CertificateCrossCheck check =
            analysis::cross_check_certificates(f, k.assignments[a], ep.arrays,
                                               ep.control_divergences);
        for (const analysis::ArrayCertCheck& c : check.arrays)
          s.cert_violations += c.violated;
        want.measured = ep.arrays;
      }
      k.expected.push_back(std::move(want));
    }
    s.kernels.push_back(std::move(k));
  }
  return s;
}

/// Nanoseconds per numrep::quantize call, per format, over every input
/// value of the workload's kernels (median of five sweeps).
void time_quantize(const Setup& s, Results& out) {
  std::vector<double> values;
  for (const ExecKernel& k : s.kernels)
    for (const auto& [name, data] : k.inputs) values.insert(values.end(), data.begin(), data.end());
  const std::pair<const char*, numrep::ConcreteType> formats[] = {
      {"binary32", {numrep::kBinary32, 0}},  {"binary16", {numrep::kBinary16, 0}},
      {"bfloat16", {numrep::kBfloat16, 0}},  {"fix32_16", {numrep::kFixed32, 16}},
      {"posit16", {numrep::kPosit16, 0}},    {"e4m3", {numrep::kFp8E4M3, 0}},
      {"fposit16", {numrep::kFixedPosit16, 0}},
  };
  volatile double sink = 0.0;
  for (const auto& [label, type] : formats) {
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
      double acc = 0.0;
      const Clock::time_point t0 = Clock::now();
      for (const double v : values) acc += numrep::quantize(type, v);
      ns.push_back(ms_since(t0) * 1e6 / static_cast<double>(values.size()));
      sink = sink + acc;
    }
    out.metrics[std::string("numrep.quantize_ns.") + label] = median(ns);
  }
}

} // namespace

void run_execute(const Options& options, Results& out) {
  Setup s;
  timed_setup(out, [&] { s = build(options, options.trace); });
  if (s.cert_violations > 0)
    out.fail(std::to_string(s.cert_violations) +
             " measured errors exceed their certificates in set-up");

  JsonWriter composition;
  composition.begin_array();
  for (const ExecKernel& k : s.kernels) {
    composition.begin_object();
    composition.key("kernel");
    composition.value(k.name);
    composition.key("assignments");
    composition.raw_value(json_list(k.labels));
    composition.key("random_formats");
    composition.raw_value(json_list(k.random_formats));
    composition.end_object();
  }
  composition.end_array();
  out.info["composition"] = composition.take();

  const interp::VmEngine vm; // no program cache: every op compiles
  const auto label = [&](const ExecKernel& k, std::size_t a) {
    return k.name + "/" + k.labels[a] + ": ";
  };
  // Layer accumulators, filled during the traced half only.
  struct {
    double compile_ms = 0, execute_ms = 0;
    long steps = 0, shadow_ops = 0, runs = 0;
  } acc;
  bool account = false;

  const auto run_op = [&](const ExecKernel& k, std::size_t a, bool shadow) {
    interp::ArrayStore store = k.inputs;
    interp::ErrorProfile ep;
    interp::RunOptions ropt;
    if (shadow) ropt.error_profile = &ep;
    const Clock::time_point t0 = Clock::now();
    const interp::RunResult run = vm.run(*k.function, k.assignments[a], store, ropt);
    const double ms = ms_since(t0);
    ++out.attempted;
    std::string diff = compare(run, store, k.expected[a]);
    if (diff.empty() && shadow) diff = compare_profile(ep, k.expected[a]);
    if (!diff.empty()) out.fail(label(k, a) + diff);
    if (account && shadow) {
      acc.shadow_ops += shadow_ops(ep);
    } else if (account) {
      acc.compile_ms += run.compile_seconds * 1e3;
      acc.execute_ms += run.execute_seconds * 1e3;
      acc.steps += run.steps;
      ++acc.runs;
    }
    return ms;
  };
  const auto batch_op = [&](const ExecKernel& k) {
    std::vector<interp::ArrayStore> stores(k.assignments.size(), k.inputs);
    std::vector<interp::BatchRequest> lanes(k.assignments.size());
    for (std::size_t a = 0; a < lanes.size(); ++a)
      lanes[a] = {&k.assignments[a], &stores[a], nullptr, nullptr};
    const Clock::time_point t0 = Clock::now();
    const std::vector<interp::RunResult> runs = vm.run_batch(*k.function, lanes);
    const double ms = ms_since(t0);
    ++out.attempted;
    for (std::size_t a = 0; a < lanes.size(); ++a) {
      const std::string diff = compare(runs[a], stores[a], k.expected[a]);
      if (!diff.empty()) {
        out.fail(label(k, a) + "batch lane: " + diff);
        break;
      }
    }
    return ms;
  };

  // Inputs: (kernel, assignment) pairs for run/profile ops, kernels for
  // batch ops.
  const std::size_t lanes = s.kernels.front().assignments.size();
  const std::size_t pairs = s.kernels.size() * lanes;

  // The workload's own op stream, in whole passes over every kernel.
  Samples plain(pairs);
  for_seconds(options.trace ? options.seconds / 2 : options.seconds, [&] {
    for (std::size_t ki = 0; ki < s.kernels.size(); ++ki)
      for (std::size_t a = 0; a < lanes; ++a)
        plain.add(ki * lanes + a, run_op(s.kernels[ki], a, false));
  });
  if (!options.trace) {
    out.latency(plain);
    return;
  }

  // Traced half: whole passes over all three op types with the engine's
  // trace spans on, so every execute layer metric comes from one run.
  Samples run_ms(pairs), profile_ms(pairs), batch_ms(s.kernels.size());
  long pass_steps = -1, pass_shadow_ops = -1;
  account = true;
  obs::trace().start();
  for_seconds(options.seconds / 2, [&] {
    for (std::size_t ki = 0; ki < s.kernels.size(); ++ki) {
      const ExecKernel& k = s.kernels[ki];
      for (std::size_t a = 0; a < lanes; ++a) {
        run_ms.add(ki * lanes + a, run_op(k, a, false));
        profile_ms.add(ki * lanes + a, run_op(k, a, true));
      }
      batch_ms.add(ki, batch_op(k));
      drain_span_totals();
    }
    if (pass_steps < 0) { // work counters of exactly one pass
      pass_steps = acc.steps;
      pass_shadow_ops = acc.shadow_ops;
    }
  });
  obs::trace().stop();

  out.latency(run_ms);
  out.metrics["obs.trace_overhead"] = run_ms.p50() - plain.p50();
  out.metrics["interp.run_ms_p50"] = run_ms.p50();
  out.metrics["obs.profile_ms_p50"] = profile_ms.p50();
  out.metrics["interp.batch_ms_p50"] = batch_ms.p50();
  const double runs = static_cast<double>(acc.runs);
  out.metrics["interp.compile_ms"] = acc.compile_ms / runs;
  out.metrics["interp.execute_ms"] = acc.execute_ms / runs;
  out.metrics["interp.ns_per_step"] = acc.execute_ms * 1e6 / static_cast<double>(acc.steps);
  out.metrics["obs.layer_coverage"] = (acc.compile_ms + acc.execute_ms) / run_ms.sum();
  out.metrics["interp.batch_ms_per_lane"] = batch_ms.p50() / static_cast<double>(lanes);
  out.metrics["obs.shadow_overhead"] = profile_ms.p50() / run_ms.p50();
  out.counter("interp.steps", static_cast<double>(pass_steps));
  out.counter("obs.shadow_ops", static_cast<double>(pass_shadow_ops));
  out.counter("analysis.cert_violations", static_cast<double>(s.cert_violations));
  time_quantize(s, out);
}

} // namespace perfbench
