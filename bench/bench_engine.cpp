// Batched-execution gate: the lanes the sweep driver hands the engine
// must run bit-identically to the tree-walking ReferenceEngine.
//
// Set-up: every kernel's (config x platform) grid — the Multi preset plus
// the three Table III presets over all four platforms — is tuned via
// core::run_sweep, and each job's tuned assignment is reloaded through
// assignment_io. That reproduces the sweep's interpretation workload
// faithfully, duplicates included: distinct (config, platform) jobs
// frequently tune to the same assignment, and the sweep's batch path
// dedups them into unique lanes (core/sweep.cpp) the same way this gate
// does.
//
// Gate, per kernel: one engine.run_batch() over the unique lanes, each
// lane checked bit-for-bit against a reference run — verdict, error text,
// step count, cost counters, and every output buffer. A mismatch prints
// the kernel, lane and field and exits 1.
//
//   bench_engine [--kernels a,b,c] [--configs c1,c2] [--json PATH]
//
// Prints one line per kernel (jobs, unique lanes) and the program-cache
// counts. --json writes the same deterministic record (BENCH_engine.json,
// uploaded by the bench-engine-smoke CI job). Timing lives in perfbench:
// the `execute` workload's traced run reports interp.batch_ms_per_lane
// against interp.run_ms_p50.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/assignment_io.hpp"
#include "core/sweep.hpp"
#include "interp/engine.hpp"
#include "polybench/polybench.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

using namespace luis;

namespace {

struct Lane {
  std::string label; ///< "config/platform" of the job that tuned it
  std::string text;  ///< canonical serialization, the dedup key
  interp::TypeAssignment types;
};

/// Tunes the kernel's whole grid and reloads every job's assignment
/// against `f`. Aborts the bench if any tuning job failed — a partial
/// grid would silently shrink the workload.
std::vector<Lane> tuned_grid_lanes(const std::string& kernel,
                                   const ir::Function& f,
                                   const std::vector<std::string>& configs) {
  core::SweepOptions opt;
  opt.kernels = {kernel};
  opt.configs = configs;
  opt.include_taffo = false;
  opt.check_determinism = false;
  opt.threads = 1;
  const core::SweepResult sweep = core::run_sweep(opt);

  std::vector<Lane> lanes;
  for (const core::SweepJobResult& job : sweep.jobs) {
    if (!job.ok) {
      std::fprintf(stderr, "bench_engine: tuning %s/%s/%s failed: %s\n",
                   job.kernel.c_str(), job.config.c_str(),
                   job.platform.c_str(), job.error.c_str());
      std::exit(1);
    }
    const core::AssignmentParseResult parsed =
        core::assignment_from_text(f, job.assignment_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_engine: reloading %s/%s/%s: %s\n",
                   job.kernel.c_str(), job.config.c_str(),
                   job.platform.c_str(), parsed.error.c_str());
      std::exit(1);
    }
    lanes.push_back({job.config + "/" + job.platform, job.assignment_text,
                     parsed.assignment});
  }
  return lanes;
}

/// Indices of the first occurrence of each distinct assignment text — the
/// same dedup the sweep's batch path performs before run_batch().
std::vector<std::size_t> unique_lane_indices(const std::vector<Lane>& lanes) {
  std::vector<std::size_t> unique;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    bool seen = false;
    for (const std::size_t u : unique)
      if (lanes[u].text == lanes[i].text) {
        seen = true;
        break;
      }
    if (!seen) unique.push_back(i);
  }
  return unique;
}

bool buffers_bit_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// One batched run over the unique lanes, checked bit-for-bit against a
/// reference run per lane. Returns false (after printing the mismatch) on
/// any divergence.
bool verify_lanes(const interp::VmEngine& vm, const ir::Function& f,
                  const std::vector<Lane>& lanes,
                  const std::vector<std::size_t>& unique,
                  const interp::ArrayStore& inputs) {
  const interp::ReferenceEngine ref;
  std::vector<interp::ArrayStore> stores(unique.size(), inputs);
  std::vector<interp::BatchRequest> reqs(unique.size());
  for (std::size_t i = 0; i < unique.size(); ++i)
    reqs[i] = {&lanes[unique[i]].types, &stores[i], nullptr};
  const std::vector<interp::RunResult> got = vm.run_batch(f, reqs);

  for (std::size_t i = 0; i < unique.size(); ++i) {
    const Lane& lane = lanes[unique[i]];
    interp::ArrayStore ref_store = inputs;
    const interp::RunResult want = ref.run(f, lane.types, ref_store);
    const char* field = nullptr;
    if (want.ok != got[i].ok || want.error != got[i].error)
      field = "verdict";
    else if (want.steps != got[i].steps)
      field = "steps";
    else if (want.counters.ops != got[i].counters.ops ||
             want.counters.non_real_ops != got[i].counters.non_real_ops)
      field = "cost counters";
    else
      for (const auto& [name, buf] : ref_store)
        if (!buffers_bit_equal(buf, stores[i].at(name))) {
          field = "output buffers";
          break;
        }
    if (field != nullptr) {
      std::fprintf(stderr,
                   "bench_engine: %s lane %s: batch disagrees with the "
                   "reference engine on %s\n",
                   f.name().c_str(), lane.label.c_str(), field);
      return false;
    }
  }
  return true;
}

struct KernelRow {
  std::string kernel;
  std::size_t jobs = 0;
  std::size_t unique = 0;
};

} // namespace


int main(int argc, char** argv) {
  const char* const kUsage = "usage: bench_engine [--kernels a,b,c] "
                             "[--configs c1,c2] [--json PATH]\n";
  std::vector<std::string> kernels = {"gemm", "atax", "bicg",
                                      "mvt",  "syrk", "jacobi-2d"};
  std::vector<std::string> configs = {"Fast", "Balanced", "Precise", "Multi"};
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kernels" && i + 1 < argc) {
      kernels = split_fields(argv[++i], ',');
    } else if (a == "--configs" && i + 1 < argc) {
      configs = split_fields(argv[++i], ',');
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  for (const std::string& name : kernels)
    if (!polybench::is_kernel(name)) {
      std::fprintf(stderr, "bench_engine: unknown kernel '%s'\n%s",
                   name.c_str(), kUsage);
      return 2;
    }

  interp::ProgramCache cache;
  const interp::VmEngine vm(&cache);

  std::printf("%-14s %6s %8s\n", "kernel", "jobs", "unique");
  std::vector<KernelRow> rows;
  std::size_t jobs_total = 0, unique_total = 0;
  for (const std::string& name : kernels) {
    ir::Module module;
    const polybench::BuiltKernel kernel = polybench::build_kernel(name, module);
    const std::vector<Lane> lanes =
        tuned_grid_lanes(name, *kernel.function, configs);
    const std::vector<std::size_t> unique = unique_lane_indices(lanes);
    if (!verify_lanes(vm, *kernel.function, lanes, unique, kernel.inputs))
      return 1;
    jobs_total += lanes.size();
    unique_total += unique.size();
    rows.push_back({name, lanes.size(), unique.size()});
    std::printf("%-14s %6zu %8zu\n", name.c_str(), lanes.size(),
                unique.size());
  }
  const interp::ProgramCache::Stats stats = cache.stats();
  std::printf("\nprogram cache: %ld lookups, %ld hits, %ld insertions\n",
              stats.lookups, stats.hits, stats.insertions);
  std::printf("aggregate: %zu jobs, %zu unique lanes, all lanes verified "
              "against the reference engine\n",
              jobs_total, unique_total);

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("benchmark"), w.value("engine_batch");
    w.key("configs");
    w.begin_array();
    for (const std::string& c : configs) w.value(c);
    w.end_array();
    w.newline();
    w.key("kernels");
    w.begin_array();
    for (const KernelRow& row : rows) {
      w.newline();
      w.begin_object();
      w.key("kernel"), w.value(row.kernel);
      w.key("jobs"), w.value(row.jobs);
      w.key("unique_lanes"), w.value(row.unique);
      w.end_object();
    }
    w.newline();
    w.end_array();
    w.newline();
    w.key("aggregate");
    w.begin_object();
    w.key("jobs"), w.value(jobs_total);
    w.key("unique_lanes"), w.value(unique_total);
    w.key("verified"), w.value(true);
    w.end_object();
    w.end_object();
    w.newline();
    std::ofstream os(json_path);
    os << w.str();
    if (!os.good()) {
      std::fprintf(stderr, "bench_engine: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}
