// luis — command line driver for the LUIS precision tuner.
//
//   luis kernels                          list the bundled PolyBench kernels
//   luis formats                          list every registered number
//                                         format (name, class, width,
//                                         executability, range)
//   luis emit <kernel> [-o out.ir]        write a kernel's textual IR
//   luis print <file.ir>                  parse + verify + pretty-print
//   luis verify <file.ir>                 verify and report problems
//   luis ranges <file.ir>                 show the VRA result per register
//   luis tune <file.ir> [options]         run the full pipeline, report the
//                                         allocation, optionally emit tuned
//                                         IR with materialized casts
//   luis lint <file.ir> [options]         run the pipeline and the precision
//                                         lint over its output (or over a
//                                         saved assignment), report findings
//   luis check <file.ir> [options]        statically certify worst-case
//                                         rounding-error bounds for the
//                                         pipeline's allocation (or a saved
//                                         assignment); exits non-zero when
//                                         --max-rel-error is exceeded
//   luis run <file.ir> [--type T]         execute with a uniform type and
//                                         print per-array checksums
//   luis disasm <file.ir> [--type T]      lower to bytecode and print the
//                                         compiled program
//   luis compile <file.lk> [-o out.ir]    compile kernel-language source
//   luis apply <file.ir> <types.txt>      execute under a saved assignment
//   luis characterize [-o t.optime]       measure this machine's op-times
//   luis sweep [options]                  batch-tune kernel x config x
//                                         platform jobs on a thread pool
//                                         and report per-stage statistics
//   luis fuzz [options]                   property-based differential
//                                         fuzzing of the solver, IR, and
//                                         quantization layers
//   luis profile <file.ir> [options]      execute on the VM with per-
//                                         instruction counting and print
//                                         a ranked hot-spot report (the
//                                         per-line costs sum exactly to
//                                         the run's simulated time)
//   luis version                          print the build stamp
//
// global options (any verb, see docs/OBSERVABILITY.md):
//   --trace-out FILE      record spans across the pipeline, solver, sweep
//                         workers, and VM, and write a Chrome trace-event
//                         JSON file (open in Perfetto / chrome://tracing)
//   --metrics-out FILE    write the process metrics registry as JSON
//   --log-level L         error|warn|info|debug (default info)
//
// profile options:
//   --platform P          op-time table pricing the report (as in tune)
//   --platform-file F     saved characterization instead of a named one
//   --type T              uniform representation to run under
//                         (default binary64)
//   --assignment F        profile under a saved type assignment instead
//   --top N               rows to print (default 20, 0 = all)
//   --json FILE           also write the full report as JSON
//   --errors              shadow-execute in binary64 alongside the
//                         quantized run: adds the per-line numerical-
//                         error table, the per-array deviation summary
//                         with the in-engine whole-program MPE, and the
//                         measured-vs-certified cross-check against the
//                         `luis check` certificates (exits non-zero when
//                         a measured error exceeds a certified bound)
//
// run/apply options:
//   --engine vm|ref       execution engine (default vm; results are
//                         bit-identical, see docs/INTERP.md)
//
// fuzz options:
//   --target ilp|ir|numrep|error|all
//                         generator/oracle pairs to run (default all);
//                         `error` checks measured quantized-vs-reference
//                         deviation against the static certified bound
//   --trials N            random trials per target (default 200)
//   --seconds N           unbounded mode: fuzz for N wall-clock seconds
//   --seed S              campaign base seed (default 1)
//   --artifacts DIR       write minimized failing inputs here
//                         (default fuzz-artifacts)
//   --corpus DIR          also replay every .lp/.ir seed file in DIR
//   --engine vm|ref       primary engine for the IR differential oracle
//                         (default ref; either way both engines run and
//                         are compared bit for bit)
//   --quiet               suppress progress lines on stderr
// Every failure is shrunk to a minimal repro and written as an artifact
// (.lp for solver models, .ir for IR programs); the exit status is
// non-zero if any corpus file or random trial fails.
//
// sweep options:
//   --kernels a,b,c       subset of PolyBench kernels (default: all 30)
//   --configs a,b         subset of Precise,Balanced,Fast,Multi (default:
//                         Precise,Balanced,Fast; Multi tunes over every
//                         executable registry format)
//   --platforms a,b       subset of Stm32,Raspberry,Intel,AMD (default: all)
//   --threads N           worker threads (default: hardware concurrency;
//                         1 = serial reference path, same results)
//   --max-nodes N         branch & bound node limit per solve (default 3000)
//   --no-taffo            skip the greedy TAFFO baseline rows
//   --errors              shadow-execute every tuned job: per-job rows
//                         (text, JSON, metrics registry) gain the
//                         in-engine shadow MPE, max abs/rel deviation,
//                         and control-divergence count
//   --engine vm|ref       execution engine for every interpretation
//                         (default vm: compile once per (kernel,
//                         assignment), cache the program, run each
//                         kernel's tuned assignments as lanes of one
//                         batch; ref: one reference run per lane)
//   --no-cache            disable the shared solver result cache and the
//                         vm engine's compiled-program cache
//   --no-check            skip the serial determinism re-check
//   --json <path>         also write the full per-job report as JSON
//   --quiet               suppress per-kernel progress on stderr
// Exits non-zero if any job fails or the determinism check finds a
// mismatch.
//
// tune also accepts --platform-file <t.optime> to tune against a saved
// characterization (the paper's cross-compilation workflow).
//
// VRA fixpoint knobs (tune, lint, check, sweep; recorded in the sweep and
// check JSON reports):
//   --vra-max-passes N    fixpoint sweep cap (default 50)
//   --vra-widen-after N   sweeps before widening engages (default 10)
//   --vra-clamp X         range clamp / "don't know" magnitude (default 1e30)
//   --join-stores         flow store ranges back into arrays (annotation
//                         checking mode; check uses it for self-contained
//                         certificates)
//
// check options (plus --platform/--platform-file/--config/--types/--literal/
// --optimize and the VRA knobs above):
//   --assignment <types.txt>    certify a saved assignment instead of
//                               running the allocator
//   --max-rel-error X           fail (exit 1) when any output array's
//                               certified relative bound exceeds X
//   --format text|json          stdout format (default text)
//   --json FILE                 also write the full certificate (with the
//                               build stamp) to FILE
//
// tune options:
//   --platform Stm32|Raspberry|Intel|AMD|host     (default Stm32)
//   --config Fast|Balanced|Precise|Multi          (default Balanced; Multi
//                                                 draws T from the format
//                                                 registry and overrides
//                                                 --types)
//   --types fix32,binary32,binary64               candidate set T (any
//                                                 `luis formats` name)
//   --literal                                     paper-exact ILP model
//   --optimize                                    IR cleanup passes first
//   --lint=warn|error                             precision lint the result
//                                                 (error: non-zero exit on
//                                                 error-severity findings)
//   -o <out.ir>                                   emit tuned IR with casts
//
// lint options (plus --platform/--platform-file/--config/--types/--literal/
// --optimize as in tune):
//   --assignment <types.txt>    lint a saved assignment instead of running
//                               the allocator
//   --materialize               materialize casts first, then lint
//   --format text|json          report format (default text)
//   --threshold N               L005 guaranteed-IEBW drop threshold
//   --max-rel-error X           L008 certified relative-error budget
//   --werror                    exit non-zero on warnings too
// lint always runs the static error-bound analysis, so the error-aware
// rules (L008-L011, see docs/ANALYSIS.md) fire alongside the structural
// ones.
//
// Every verb that parses IR verifies it and exits non-zero on verifier
// errors, so the tool is usable as a pre-commit check. A numeric option
// must be one whole, finite number in its range (counts >= 0, --max-nodes
// and --vra-max-passes >= 1, --vra-clamp > 0); anything else, like an
// unknown sweep kernel, config or platform name, exits 2 with a message.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/certificate_check.hpp"
#include "analysis/error_bounds.hpp"
#include "analysis/lint.hpp"
#include "core/assignment_io.hpp"
#include "core/cast_materializer.hpp"
#include "frontend/parser.hpp"
#include "core/pipeline.hpp"
#include "core/sweep.hpp"
#include "interp/engine.hpp"
#include "ir/parser.hpp"
#include "ir/passes.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "obs/build_info.hpp"
#include "obs/error_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "numrep/registry.hpp"
#include "platform/cost_model.hpp"
#include "platform/microbench.hpp"
#include "polybench/polybench.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"
#include "testing/fuzz.hpp"

using namespace luis;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: luis [--trace-out F] [--metrics-out F] [--log-level L] "
               "<kernels|formats|emit|compile|print|verify|ranges|tune|"
               "lint|check|run|disasm|characterize|sweep|fuzz|profile|version> "
               "[args]\n(see the "
               "header of tools/luis_cli.cpp for the full option list)\n");
  return 2;
}

/// Strict numeric flag value: the whole token must parse as a T (decimal;
/// unsigned flags also take a 0x hex prefix), be finite, and lie in
/// [lo, hi]. Otherwise reports, naming the flag, and returns false; the
/// caller exits 2.
template <typename T>
bool parse_flag(const std::string& flag, const std::string& text, T lo, T hi,
                T& out) {
  const char* first = text.data();
  const char* const last = first + text.size();
  int base = 10;
  if constexpr (std::is_unsigned_v<T>)
    if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
      first += 2;
      base = 16;
    }
  T value{};
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>)
    r = std::from_chars(first, last, value);
  else
    r = std::from_chars(first, last, value, base);
  bool ok = first != last && r.ec == std::errc() && r.ptr == last &&
            value >= lo && value <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::ostringstream range;
    range << '[' << lo << ", " << hi << ']';
    std::fprintf(stderr, "luis: %s wants a number in %s, got '%s'\n",
                 flag.c_str(), range.str().c_str(), text.c_str());
    return false;
  }
  out = value;
  return true;
}

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr long kLongMax = std::numeric_limits<long>::max();
constexpr double kRealMax = std::numeric_limits<double>::max();

/// The numeric VRA fixpoint knobs shared by tune, lint, check and sweep.
bool is_vra_flag(const std::string& flag) {
  return flag == "--vra-max-passes" || flag == "--vra-widen-after" ||
         flag == "--vra-clamp";
}

/// Parses the value of an is_vra_flag() flag into `vra`.
bool parse_vra_flag(const std::string& flag, const std::string& value,
                    vra::VraOptions& vra) {
  if (flag == "--vra-max-passes")
    return parse_flag(flag, value, 1, kIntMax, vra.max_passes);
  if (flag == "--vra-widen-after")
    return parse_flag(flag, value, 0, kIntMax, vra.widen_after);
  return parse_flag(flag, value, std::numeric_limits<double>::min(), kRealMax,
                    vra.clamp);
}

/// Parses an --engine value; reports and returns nullopt on junk.
std::optional<interp::EngineKind> engine_or_die(const std::string& name) {
  const auto kind = interp::parse_engine(name);
  if (!kind)
    std::fprintf(stderr, "luis: unknown engine '%s' (want vm or ref)\n",
                 name.c_str());
  return kind;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

ir::Function* parse_or_die(ir::Module& module, const std::string& path) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "luis: cannot read %s\n", path.c_str());
    return nullptr;
  }
  const ir::ParseResult parsed = ir::parse_function(module, *text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "luis: parse error in %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    return nullptr;
  }
  return parsed.function;
}

/// Parses and verifies; returns nullptr (caller exits non-zero) when the
/// file does not parse or the IR is structurally broken.
ir::Function* parse_and_verify_or_die(ir::Module& module,
                                      const std::string& path) {
  ir::Function* f = parse_or_die(module, path);
  if (!f) return nullptr;
  const ir::VerifyResult vr = ir::verify(*f);
  if (!vr.ok()) {
    std::fputs(vr.message().c_str(), stderr);
    return nullptr;
  }
  return f;
}

/// Resolves --platform / --platform-file ("@path") / "host" to an op-time
/// table, using `storage` for tables that have to be built on the fly.
const platform::OpTimeTable* resolve_platform(const std::string& platform_name,
                                              platform::OpTimeTable& storage) {
  const platform::OpTimeTable* table = platform::platform_by_name(platform_name);
  if (table) return table;
  if (platform_name == "host") {
    std::fprintf(stderr, "characterizing host...\n");
    storage = platform::run_microbenchmark();
    return &storage;
  }
  if (!platform_name.empty() && platform_name[0] == '@') {
    const auto text = read_file(platform_name.substr(1));
    if (!text) {
      std::fprintf(stderr, "luis: cannot read %s\n", platform_name.c_str() + 1);
      return nullptr;
    }
    const auto parsed_table = platform::parse_optime_table(*text);
    if (!parsed_table) {
      std::fprintf(stderr, "luis: malformed op-time table file\n");
      return nullptr;
    }
    storage = *parsed_table;
    return &storage;
  }
  std::fprintf(stderr, "luis: unknown platform '%s'\n", platform_name.c_str());
  return nullptr;
}

/// Applies a Table III preset by name, preserving flag-driven fields.
bool apply_config_preset(const std::string& config_name,
                         core::TuningConfig& config) {
  if (config_name == "Balanced") return true;
  const bool literal = config.literal_model;
  const auto types = config.types;
  if (config_name == "Fast") {
    config = core::TuningConfig::fast();
  } else if (config_name == "Precise") {
    config = core::TuningConfig::precise();
  } else if (config_name == "Multi") {
    // Multi's whole point is its registry-derived candidate set, so it
    // overrides --types instead of preserving it.
    config = core::TuningConfig::multi();
    config.literal_model = literal;
    return true;
  } else {
    std::fprintf(stderr, "luis: unknown config '%s'\n", config_name.c_str());
    return false;
  }
  config.literal_model = literal;
  config.types = types;
  return true;
}

/// Parses a --types list into `config.types`; false on unknown formats
/// (the registry's parser diagnostics name the offending token and point
/// at `luis formats`).
bool parse_types_list(const std::string& list, core::TuningConfig& config) {
  config.types.clear();
  for (const std::string& tok : split_fields(list, ',')) {
    std::string error;
    const auto fmt = numrep::parse_format(std::string(trim(tok)), &error);
    if (!fmt) {
      std::fprintf(stderr, "luis: %s\n", error.c_str());
      return false;
    }
    config.types.push_back(*fmt);
  }
  return true;
}

/// Deterministic inputs for `run`: every array is filled from its range
/// annotation with a fixed-seed generator, so runs are reproducible.
interp::ArrayStore synth_inputs(const ir::Function& f) {
  interp::ArrayStore store;
  Rng rng(0xC0FFEE);
  for (const auto& arr : f.arrays()) {
    double lo = 0.0, hi = 1.0;
    if (arr->range_annotation()) {
      lo = arr->range_annotation()->first;
      hi = arr->range_annotation()->second;
    }
    auto& buf = store[arr->name()];
    for (std::int64_t i = 0; i < arr->element_count(); ++i)
      buf.push_back(rng.next_double(lo, hi));
  }
  return store;
}

void print_array_summary(const interp::ArrayStore& store) {
  for (const auto& [name, buf] : store) {
    double sum = 0.0, mn = buf.empty() ? 0 : buf[0], mx = mn;
    for (double v : buf) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    std::printf("  %-12s n=%-6zu sum=%-14.8g min=%-12.6g max=%-12.6g\n",
                name.c_str(), buf.size(), sum, mn, mx);
  }
}

int cmd_kernels() {
  for (const std::string& name : polybench::kernel_names())
    std::printf("%s\n", name.c_str());
  return 0;
}

const char* format_class_label(numrep::FormatClass cls) {
  switch (cls) {
  case numrep::FormatClass::FixedPoint: return "fixed";
  case numrep::FormatClass::FloatingPoint: return "float";
  case numrep::FormatClass::Posit: return "posit";
  case numrep::FormatClass::FixedPosit: return "fixed-posit";
  default: return "ext";
  }
}

int cmd_formats() {
  const numrep::FormatRegistry& reg = numrep::FormatRegistry::instance();
  std::printf("%-16s %-11s %5s %4s %-8s %13s %13s\n", "name", "class", "width",
              "exec", "cost", "max", "minpos");
  for (const numrep::NumericFormat& f : reg.formats()) {
    const numrep::FormatClassOps& ops = reg.ops(f.format_class());
    // Fixed point's range depends on the per-variable fractional split;
    // report the integer-only layout (frac = 0) for it.
    const numrep::ConcreteType t{f, 0};
    std::printf("%-16s %-11s %5d %4s %-8s %13.6g %13.6g\n", f.name().c_str(),
                format_class_label(f.format_class()), f.width(),
                ops.executable(f) ? "yes" : "no", ops.cost_class(f).c_str(),
                ops.max_value(t), ops.min_positive(t));
  }
  return 0;
}

int cmd_emit(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string out_path;
  for (std::size_t i = 1; i + 1 < args.size() + 1; ++i)
    if (args[i - 1] == "-o" && i < args.size()) out_path = args[i];
  if (!polybench::is_kernel(args[0])) {
    std::fprintf(stderr, "luis emit: unknown kernel '%s' (see luis kernels)\n",
                 args[0].c_str());
    return usage();
  }
  ir::Module module;
  polybench::BuiltKernel kernel = polybench::build_kernel(args[0], module);
  const std::string text = ir::print_function(*kernel.function);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream os(out_path);
    os << text;
    std::printf("wrote %s (%zu instructions)\n", out_path.c_str(),
                kernel.function->instruction_count());
  }
  return 0;
}

int cmd_print(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  ir::Module module;
  ir::Function* f = parse_or_die(module, args[0]);
  if (!f) return 1;
  // Print even when broken (the text is the debugging aid), but report the
  // problems and fail so scripted use catches them.
  std::fputs(ir::print_function(*f).c_str(), stdout);
  const ir::VerifyResult vr = ir::verify(*f);
  if (!vr.ok()) {
    std::fputs(vr.message().c_str(), stderr);
    return 1;
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  ir::Module module;
  ir::Function* f = parse_or_die(module, args[0]);
  if (!f) return 1;
  const ir::VerifyResult vr = ir::verify(*f);
  if (vr.ok()) {
    std::printf("%s: OK (%zu blocks, %zu instructions, %zu arrays)\n",
                f->name().c_str(), f->blocks().size(), f->instruction_count(),
                f->arrays().size());
    return 0;
  }
  std::fputs(vr.message().c_str(), stderr);
  return 1;
}

int cmd_ranges(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, args[0]);
  if (!f) return 1;
  const vra::RangeMap ranges = vra::analyze_ranges(*f);
  const auto ids = ir::number_instructions(*f);
  for (const auto& arr : f->arrays())
    std::printf("@%-10s %s\n", arr->name().c_str(),
                ranges.of(arr.get()).to_string().c_str());
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ir::ScalarType::Real)
        std::printf("%%%-10d %s\n", ids.at(inst.get()),
                    ranges.of(inst.get()).to_string().c_str());
  return 0;
}

int cmd_tune(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string path = args[0];
  std::string platform_name = "Stm32", config_name = "Balanced", out_path;
  std::string assignment_path;
  core::TuningConfig config = core::TuningConfig::balanced();
  core::PipelineOptions options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return ++i < args.size() ? args[i] : std::string();
    };
    if (a == "--platform") {
      platform_name = next();
    } else if (a == "--platform-file") {
      platform_name = "@" + next();
    } else if (a == "--config") {
      config_name = next();
    } else if (a == "--literal") {
      config.literal_model = true;
    } else if (a == "--optimize") {
      options.optimize_ir = true;
    } else if (a == "-o") {
      out_path = next();
      options.materialize_casts = true;
    } else if (a == "--save-assignment") {
      assignment_path = next();
    } else if (a == "--lint=warn") {
      options.lint = core::LintMode::Warn;
    } else if (a == "--lint=error") {
      options.lint = core::LintMode::Error;
    } else if (a == "--types") {
      if (!parse_types_list(next(), config)) return 2;
    } else if (is_vra_flag(a)) {
      if (!parse_vra_flag(a, next(), options.vra)) return 2;
    } else if (a == "--join-stores") {
      options.vra.join_stores = true;
    } else {
      std::fprintf(stderr, "luis: unknown option '%s'\n", a.c_str());
      return 2;
    }
  }
  if (!apply_config_preset(config_name, config)) return 2;

  platform::OpTimeTable storage;
  const platform::OpTimeTable* table = resolve_platform(platform_name, storage);
  if (!table) return 2;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, path);
  if (!f) return 1;

  const core::PipelineResult tuned = core::tune_kernel(*f, *table, config, options);
  std::printf("pipeline: %d IR rewrites, VRA %.2f ms, allocation %.2f ms "
              "(%zu vars x %zu rows, %ld nodes, %s)\n",
              tuned.ir_changes, tuned.timings.vra_seconds * 1e3,
              tuned.timings.allocation_seconds * 1e3,
              tuned.allocation.stats.model_variables,
              tuned.allocation.stats.model_constraints,
              tuned.allocation.stats.nodes,
              ilp::to_string(tuned.allocation.stats.status));
  std::printf("classes: %d over %d registers, %d uses; casts inserted: %d\n",
              tuned.allocation.stats.num_classes,
              tuned.allocation.stats.num_registers,
              tuned.allocation.stats.num_uses, tuned.casts_inserted);
  std::printf("instruction mix:");
  for (const auto& [cls, count] : tuned.allocation.stats.instruction_mix)
    std::printf(" %s=%d", cls.c_str(), count);
  std::printf("\narray types:\n");
  for (const auto& arr : f->arrays())
    std::printf("  @%-10s %s\n", arr->name().c_str(),
                tuned.allocation.assignment.of(arr.get()).name().c_str());

  if (!assignment_path.empty()) {
    std::ofstream os(assignment_path);
    os << core::assignment_to_text(*f, tuned.allocation.assignment);
    std::printf("wrote type assignment to %s\n", assignment_path.c_str());
  }
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    os << ir::print_function(*f);
    std::printf("wrote tuned IR (explicit casts) to %s\n", out_path.c_str());
  }
  if (options.lint != core::LintMode::Off) {
    std::printf("lint: %.2f ms\n%s", tuned.timings.lint_seconds * 1e3,
                tuned.lint.to_text().c_str());
    if (!tuned.lint_ok) {
      std::fprintf(stderr, "luis: lint found error-severity diagnostics\n");
      return 1;
    }
  }
  return 0;
}

int cmd_lint(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string path = args[0];
  std::string platform_name = "Stm32", config_name = "Balanced";
  std::string assignment_path, format = "text";
  bool materialize = false, werror = false;
  core::TuningConfig config = core::TuningConfig::balanced();
  analysis::LintOptions lint_options;
  core::PipelineOptions options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return ++i < args.size() ? args[i] : std::string();
    };
    if (a == "--platform") {
      platform_name = next();
    } else if (a == "--platform-file") {
      platform_name = "@" + next();
    } else if (a == "--config") {
      config_name = next();
    } else if (a == "--literal") {
      config.literal_model = true;
    } else if (a == "--optimize") {
      options.optimize_ir = true;
    } else if (a == "--materialize") {
      materialize = true;
    } else if (a == "--assignment") {
      assignment_path = next();
    } else if (a == "--format") {
      format = next();
    } else if (a == "--threshold") {
      if (!parse_flag(a, next(), 0, kIntMax,
                      lint_options.precision_loss_threshold))
        return 2;
    } else if (a == "--max-rel-error") {
      if (!parse_flag(a, next(), 0.0, kRealMax, lint_options.max_rel_error))
        return 2;
    } else if (a == "--werror") {
      werror = true;
    } else if (a == "--types") {
      if (!parse_types_list(next(), config)) return 2;
    } else if (is_vra_flag(a)) {
      if (!parse_vra_flag(a, next(), options.vra)) return 2;
    } else if (a == "--join-stores") {
      options.vra.join_stores = true;
    } else {
      std::fprintf(stderr, "luis: unknown option '%s'\n", a.c_str());
      return 2;
    }
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "luis: unknown lint format '%s'\n", format.c_str());
    return 2;
  }
  if (!apply_config_preset(config_name, config)) return 2;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, path);
  if (!f) return 1;

  analysis::DiagnosticEngine engine;
  if (!assignment_path.empty()) {
    // Lint a saved (possibly hand-edited) assignment against this IR.
    const auto text = read_file(assignment_path);
    if (!text) {
      std::fprintf(stderr, "luis: cannot read %s\n", assignment_path.c_str());
      return 1;
    }
    const core::AssignmentParseResult parsed =
        core::assignment_from_text(*f, *text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "luis: %s: %s\n", assignment_path.c_str(),
                   parsed.error.c_str());
      return 1;
    }
    const vra::RangeMap ranges = vra::analyze_ranges(*f, options.vra);
    const analysis::ErrorAnalysisResult errors =
        analysis::analyze_errors(*f, parsed.assignment, ranges);
    engine = analysis::run_lint(*f, parsed.assignment, ranges, lint_options,
                                &errors.errors);
  } else {
    platform::OpTimeTable storage;
    const platform::OpTimeTable* table =
        resolve_platform(platform_name, storage);
    if (!table) return 2;
    options.materialize_casts = materialize;
    options.lint = core::LintMode::Error;
    options.lint_options = lint_options;
    options.analyze_errors = true;
    const core::PipelineResult tuned =
        core::tune_kernel(*f, *table, config, options);
    engine = tuned.lint;
  }

  std::fputs(format == "json" ? engine.to_json().c_str()
                              : engine.to_text().c_str(),
             stdout);
  if (engine.has_errors() || (werror && engine.has_warnings())) return 1;
  return 0;
}

/// `luis check`: static rounding-error certification. Runs the pipeline
/// (or loads a saved assignment), then the error-bound analysis, and
/// reports a certified worst-case absolute/relative bound per array. With
/// --max-rel-error the exit status enforces the budget on output arrays.
int cmd_check(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string path = args[0];
  std::string platform_name = "Stm32", config_name = "Balanced";
  std::string assignment_path, json_path, format = "text";
  double max_rel_error = std::numeric_limits<double>::infinity();
  core::TuningConfig config = core::TuningConfig::balanced();
  core::PipelineOptions options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return ++i < args.size() ? args[i] : std::string();
    };
    if (a == "--platform") {
      platform_name = next();
    } else if (a == "--platform-file") {
      platform_name = "@" + next();
    } else if (a == "--config") {
      config_name = next();
    } else if (a == "--literal") {
      config.literal_model = true;
    } else if (a == "--optimize") {
      options.optimize_ir = true;
    } else if (a == "--assignment") {
      assignment_path = next();
    } else if (a == "--max-rel-error") {
      if (!parse_flag(a, next(), 0.0, kRealMax, max_rel_error)) return 2;
    } else if (a == "--format") {
      format = next();
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--types") {
      if (!parse_types_list(next(), config)) return 2;
    } else if (is_vra_flag(a)) {
      if (!parse_vra_flag(a, next(), options.vra)) return 2;
    } else if (a == "--join-stores") {
      options.vra.join_stores = true;
    } else {
      std::fprintf(stderr, "luis: unknown option '%s'\n", a.c_str());
      return 2;
    }
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "luis: unknown check format '%s'\n", format.c_str());
    return 2;
  }
  if (!apply_config_preset(config_name, config)) return 2;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, path);
  if (!f) return 1;

  interp::TypeAssignment assignment;
  vra::RangeMap ranges;
  analysis::ErrorAnalysisResult errors;
  std::string source = "pipeline";
  if (!assignment_path.empty()) {
    source = "assignment";
    const auto text = read_file(assignment_path);
    if (!text) {
      std::fprintf(stderr, "luis: cannot read %s\n", assignment_path.c_str());
      return 1;
    }
    const core::AssignmentParseResult parsed =
        core::assignment_from_text(*f, *text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "luis: %s: %s\n", assignment_path.c_str(),
                   parsed.error.c_str());
      return 1;
    }
    assignment = parsed.assignment;
    ranges = vra::analyze_ranges(*f, options.vra);
    errors = analysis::analyze_errors(*f, assignment, ranges);
  } else {
    platform::OpTimeTable storage;
    const platform::OpTimeTable* table =
        resolve_platform(platform_name, storage);
    if (!table) return 2;
    options.analyze_errors = true;
    const core::PipelineResult tuned =
        core::tune_kernel(*f, *table, config, options);
    assignment = tuned.allocation.assignment;
    ranges = tuned.ranges;
    errors = tuned.errors;
  }

  // The caller observes the arrays the kernel writes; those are the
  // values the certificate (and the budget) is about.
  std::set<const ir::Value*> outputs;
  for (const auto& bb : f->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->opcode() == ir::Opcode::Store)
        outputs.insert(inst->operand(1));

  double worst_rel = 0.0;
  bool all_outputs_finite = true, budget_ok = true;
  for (const auto& arr : f->arrays()) {
    if (outputs.count(arr.get()) == 0) continue;
    const double abs = errors.errors.of(arr.get());
    const double rel = errors.relative(arr.get(), ranges);
    worst_rel = std::max(worst_rel, rel);
    if (!std::isfinite(abs)) all_outputs_finite = false;
    if (rel > max_rel_error) budget_ok = false;
  }

  const auto error_value = [](JsonWriter& w, double v) {
    if (std::isfinite(v)) w.value(v, "%.17g");
    else w.value("unbounded");
  };
  JsonWriter w;
  w.begin_object();
  w.newline();
  w.key("build");
  w.raw_value(obs::build_info_json());
  w.newline();
  w.key("function");
  w.value(f->name());
  w.key("source");
  w.value(source);
  w.key("config");
  w.value(config.name);
  w.newline();
  w.key("vra");
  w.begin_object();
  w.key("max_passes");
  w.value(options.vra.max_passes);
  w.key("widen_after");
  w.value(options.vra.widen_after);
  w.key("clamp");
  w.value(options.vra.clamp, "%.17g");
  w.key("join_stores");
  w.value(options.vra.join_stores);
  w.end_object();
  w.newline();
  w.key("error_analysis");
  w.begin_object();
  w.key("passes");
  w.value(errors.stats.passes);
  w.key("transfers");
  w.value(errors.stats.transfers);
  w.key("widenings");
  w.value(errors.stats.widenings);
  w.key("converged");
  w.value(errors.stats.converged);
  w.key("divergent_control");
  w.value(errors.divergent_control);
  w.key("capped_bounds");
  w.value(errors.capped_bounds);
  w.key("assumes_finite_run");
  w.value(errors.assumes_finite_run);
  w.end_object();
  w.newline();
  w.key("max_rel_error");
  if (std::isfinite(max_rel_error)) w.value(max_rel_error, "%.17g");
  else w.raw_value("null");
  w.newline();
  w.key("arrays");
  w.begin_array();
  for (const auto& arr : f->arrays()) {
    const vra::Interval range = ranges.of(arr.get());
    w.newline();
    w.indent(2);
    w.begin_object();
    w.key("name");
    w.value(arr->name());
    w.key("type");
    w.value(assignment.of(arr.get()).name());
    w.key("output");
    w.value(outputs.count(arr.get()) > 0);
    w.key("lo");
    w.value(range.lo, "%.17g");
    w.key("hi");
    w.value(range.hi, "%.17g");
    w.key("abs_error");
    error_value(w, errors.errors.of(arr.get()));
    w.key("rel_error");
    error_value(w, errors.relative(arr.get(), ranges));
    w.end_object();
  }
  w.newline();
  w.end_array();
  w.newline();
  w.key("worst_output_rel_error");
  error_value(w, worst_rel);
  w.key("certified");
  w.value(all_outputs_finite);
  w.key("budget_ok");
  w.value(budget_ok);
  w.newline();
  w.end_object();
  w.newline();

  if (format == "json") {
    std::fputs(w.str().c_str(), stdout);
  } else {
    std::printf("check: %s (%s, %s), error analysis %s in %d passes "
                "(%ld widenings)%s%s\n",
                f->name().c_str(), source.c_str(), config.name.c_str(),
                errors.stats.converged ? "converged" : "NOT CONVERGED",
                errors.stats.passes, errors.stats.widenings,
                errors.divergent_control ? ", divergent control flow" : "",
                errors.assumes_finite_run ? ", assumes finite run" : "");
    if (errors.capped_bounds > 0)
      std::printf("  %ld bound(s) saturated at the representation cap\n",
                  errors.capped_bounds);
    for (const auto& arr : f->arrays()) {
      const vra::Interval range = ranges.of(arr.get());
      std::printf("  @%-10s %-14s range [%-11.6g, %-11.6g] abs %-12.6g "
                  "rel %-12.6g%s\n",
                  arr->name().c_str(),
                  assignment.of(arr.get()).name().c_str(), range.lo, range.hi,
                  errors.errors.of(arr.get()),
                  errors.relative(arr.get(), ranges),
                  outputs.count(arr.get()) ? "  (output)" : "");
    }
    std::printf("worst output rel error: %g%s\n", worst_rel,
                all_outputs_finite ? "" : " (UNBOUNDED)");
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "luis check: cannot write %s\n", json_path.c_str());
      return 1;
    }
    os << w.str();
    if (format != "json") std::printf("wrote %s\n", json_path.c_str());
  }

  if (!budget_ok) {
    std::fprintf(stderr,
                 "luis check: certified relative error %g exceeds budget %g\n",
                 worst_rel, max_rel_error);
    return 1;
  }
  return 0;
}

int cmd_apply(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  interp::EngineKind engine_kind = interp::EngineKind::Vm;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--engine" && i + 1 < args.size()) {
      const auto kind = engine_or_die(args[++i]);
      if (!kind) return 2;
      engine_kind = *kind;
    }
  }
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, args[0]);
  if (!f) return 1;
  const auto text = read_file(args[1]);
  if (!text) {
    std::fprintf(stderr, "luis: cannot read %s\n", args[1].c_str());
    return 1;
  }
  const core::AssignmentParseResult parsed =
      core::assignment_from_text(*f, *text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "luis: %s: %s\n", args[1].c_str(),
                 parsed.error.c_str());
    return 1;
  }
  interp::ArrayStore store = synth_inputs(*f);
  const auto engine = interp::make_engine(engine_kind);
  const interp::RunResult run = engine->run(*f, parsed.assignment, store);
  if (!run.ok) {
    std::fprintf(stderr, "luis: execution failed: %s\n", run.error.c_str());
    return 1;
  }
  std::printf("executed %ld steps under the saved assignment\n", run.steps);
  print_array_summary(store);
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  numrep::ConcreteType type{numrep::kBinary64, 0};
  interp::EngineKind engine_kind = interp::EngineKind::Vm;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--type" && i + 1 < args.size()) {
      const auto fmt = numrep::parse_format(args[++i]);
      if (!fmt) {
        std::fprintf(stderr, "luis: unknown format '%s'\n", args[i].c_str());
        return 2;
      }
      type.format = *fmt;
      if (fmt->is_fixed()) type.frac_bits = fmt->width() / 2;
    } else if (args[i] == "--engine" && i + 1 < args.size()) {
      const auto kind = engine_or_die(args[++i]);
      if (!kind) return 2;
      engine_kind = *kind;
    }
  }
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, args[0]);
  if (!f) return 1;
  interp::ArrayStore store = synth_inputs(*f);
  const interp::TypeAssignment types = interp::TypeAssignment::uniform(*f, type);
  const auto engine = interp::make_engine(engine_kind);
  const interp::RunResult run = engine->run(*f, types, store);
  if (!run.ok) {
    std::fprintf(stderr, "luis: execution failed: %s\n", run.error.c_str());
    return 1;
  }
  std::printf("executed %ld steps (%ld real ops) in %s\n", run.steps,
              run.counters.total_real_ops(), type.name().c_str());
  print_array_summary(store);
  return 0;
}

int cmd_disasm(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  numrep::ConcreteType type{numrep::kBinary64, 0};
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--type" && i + 1 < args.size()) {
      const auto fmt = numrep::parse_format(args[++i]);
      if (!fmt) {
        std::fprintf(stderr, "luis: unknown format '%s'\n", args[i].c_str());
        return 2;
      }
      type.format = *fmt;
      if (fmt->is_fixed()) type.frac_bits = fmt->width() / 2;
    }
  }
  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, args[0]);
  if (!f) return 1;
  const interp::TypeAssignment types = interp::TypeAssignment::uniform(*f, type);
  const interp::CompiledProgram program =
      interp::compile_program(*f, types, {});
  std::fputs(interp::disassemble(program).c_str(), stdout);
  return 0;
}

int cmd_compile(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string out_path;
  for (std::size_t i = 1; i + 1 < args.size() + 1; ++i)
    if (args[i - 1] == "-o" && i < args.size()) out_path = args[i];
  const auto source = read_file(args[0]);
  if (!source) {
    std::fprintf(stderr, "luis: cannot read %s\n", args[0].c_str());
    return 1;
  }
  ir::Module module;
  const frontend::CompileResult r = frontend::compile_kernel(module, *source);
  if (!r.ok()) {
    std::fprintf(stderr, "luis: %s:%d:%d: %s\n", args[0].c_str(), r.line,
                 r.column, r.error.c_str());
    return 1;
  }
  const ir::VerifyResult vr = ir::verify(*r.function);
  if (!vr.ok()) {
    std::fputs(vr.message().c_str(), stderr);
    return 1;
  }
  const std::string text = ir::print_function(*r.function);
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream os(out_path);
    os << text;
    std::printf("compiled %s -> %s (%zu instructions)\n", args[0].c_str(),
                out_path.c_str(), r.function->instruction_count());
  }
  return 0;
}

int cmd_characterize(const std::vector<std::string>& args) {
  std::string out_path;
  for (std::size_t i = 1; i + 1 < args.size() + 1; ++i)
    if (args[i - 1] == "-o" && i < args.size()) out_path = args[i];
  const platform::OpTimeTable host = platform::run_microbenchmark();
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    os << host.to_text();
    std::printf("wrote characterization to %s\n", out_path.c_str());
    return 0;
  }
  for (const auto& [key, time] : host.entries())
    std::printf("%-12s %-8s %8.2f\n", key.first.c_str(), key.second.c_str(),
                time);
  return 0;
}

/// The presets core::run_sweep tunes by name.
constexpr std::string_view kSweepConfigs[] = {"Precise", "Balanced", "Fast",
                                              "Multi"};

int cmd_sweep(const std::vector<std::string>& args) {
  core::SweepOptions opt;
  opt.verbose = true; // --quiet turns the progress lines off
  std::string json_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    if (a == "--kernels" && has_value) {
      opt.kernels = split_fields(args[++i], ',');
    } else if (a == "--configs" && has_value) {
      opt.configs = split_fields(args[++i], ',');
    } else if (a == "--platforms" && has_value) {
      opt.platforms = split_fields(args[++i], ',');
    } else if (a == "--threads" && has_value) {
      if (!parse_flag(a, args[++i], 0, kIntMax, opt.threads)) return 2;
    } else if (a == "--max-nodes" && has_value) {
      if (!parse_flag(a, args[++i], 1L, kLongMax, opt.solver_max_nodes))
        return 2;
    } else if (a == "--no-taffo") {
      opt.include_taffo = false;
    } else if (a == "--engine" && has_value) {
      opt.engine = args[++i];
      if (!engine_or_die(opt.engine)) return 2;
    } else if (a == "--no-cache") {
      opt.use_cache = false;
    } else if (a == "--no-check") {
      opt.check_determinism = false;
    } else if (a == "--errors") {
      opt.errors = true;
    } else if (a == "--json" && has_value) {
      json_path = args[++i];
    } else if (is_vra_flag(a) && has_value) {
      if (!parse_vra_flag(a, args[++i], opt.vra)) return 2;
    } else if (a == "--join-stores") {
      opt.vra.join_stores = true;
    } else if (a == "--quiet") {
      opt.verbose = false;
    } else {
      std::fprintf(stderr, "luis sweep: unknown option %s\n", a.c_str());
      return usage();
    }
  }
  for (const std::string& k : opt.kernels)
    if (!polybench::is_kernel(k)) {
      std::fprintf(stderr,
                   "luis sweep: unknown kernel '%s' (see luis kernels)\n",
                   k.c_str());
      return usage();
    }
  for (const std::string& c : opt.configs)
    if (std::find(std::begin(kSweepConfigs), std::end(kSweepConfigs), c) ==
        std::end(kSweepConfigs)) {
      std::fprintf(stderr,
                   "luis sweep: unknown config '%s' (want Precise, Balanced, "
                   "Fast or Multi)\n",
                   c.c_str());
      return usage();
    }
  for (const std::string& p : opt.platforms)
    if (!platform::platform_by_name(p)) {
      std::fprintf(stderr,
                   "luis sweep: unknown platform '%s' (want Stm32, "
                   "Raspberry, Intel or AMD)\n",
                   p.c_str());
      return usage();
    }
  const core::SweepResult result = core::run_sweep(opt);

  std::printf("%-14s %-9s %-10s %10s %10s %9s %6s%s\n", "kernel", "config",
              "platform", "speedup%", "mpe%", "tune[ms]", "nodes",
              opt.errors ? "   shadow-mpe%    max-rel  div" : "");
  for (const core::SweepJobResult& job : result.jobs) {
    if (!job.ok) {
      std::printf("%-14s %-9s %-10s FAILED: %s\n", job.kernel.c_str(),
                  job.config.c_str(), job.platform.c_str(), job.error.c_str());
      continue;
    }
    std::printf("%-14s %-9s %-10s %10.2f %10.3g %9.2f %6ld",
                job.kernel.c_str(), job.config.c_str(), job.platform.c_str(),
                job.speedup_percent, job.mpe,
                job.timings.allocation_seconds * 1e3, job.stats.nodes);
    if (job.errors_profiled)
      std::printf(" %12.3g %10.3g %4ld", job.shadow_mpe, job.max_rel_error,
                  job.control_divergences);
    std::printf("\n");
  }
  std::printf("\n%s", core::sweep_summary_text(result).c_str());

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "luis sweep: cannot write %s\n", json_path.c_str());
      return 1;
    }
    os << core::sweep_report_json(result);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (result.stats.failed > 0) return 1;
  if (result.stats.determinism_mismatches > 0) return 1;
  return 0;
}

int cmd_fuzz(const std::vector<std::string>& args) {
  testing::CampaignOptions opt;
  opt.artifacts_dir = "fuzz-artifacts";
  opt.verbose = true;
  std::string corpus_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    if (a == "--target" && has_value) {
      const std::string target = args[++i];
      if (target == "ilp") {
        opt.targets = {testing::FuzzTarget::Ilp};
      } else if (target == "ir") {
        opt.targets = {testing::FuzzTarget::Ir};
      } else if (target == "numrep") {
        opt.targets = {testing::FuzzTarget::Numrep};
      } else if (target == "error") {
        opt.targets = {testing::FuzzTarget::ErrorBounds};
      } else if (target != "all") {
        std::fprintf(stderr, "luis fuzz: unknown target '%s'\n", target.c_str());
        return 2;
      }
    } else if (a == "--trials" && has_value) {
      if (!parse_flag(a, args[++i], 0L, kLongMax, opt.trials)) return 2;
    } else if (a == "--seconds" && has_value) {
      if (!parse_flag(a, args[++i], 0.0, kRealMax, opt.seconds)) return 2;
    } else if (a == "--seed" && has_value) {
      if (!parse_flag(a, args[++i], std::uint64_t{0},
                      std::numeric_limits<std::uint64_t>::max(), opt.seed))
        return 2;
    } else if (a == "--artifacts" && has_value) {
      opt.artifacts_dir = args[++i];
    } else if (a == "--corpus" && has_value) {
      corpus_dir = args[++i];
    } else if (a == "--engine" && has_value) {
      const auto kind = engine_or_die(args[++i]);
      if (!kind) return 2;
      opt.engine = *kind;
    } else if (a == "--quiet") {
      opt.verbose = false;
    } else {
      std::fprintf(stderr, "luis fuzz: unknown option %s\n", a.c_str());
      return usage();
    }
  }

  int failures = 0;
  if (!corpus_dir.empty()) {
    const testing::CorpusResult corpus =
        testing::replay_corpus(corpus_dir, opt.engine);
    if (!corpus.error.empty()) {
      std::fprintf(stderr, "luis fuzz: %s\n", corpus.error.c_str());
      return 1;
    }
    for (const auto& entry : corpus.entries) {
      if (entry.result.ok) continue;
      ++failures;
      std::printf("corpus FAIL %s: %s\n", entry.path.c_str(),
                  entry.result.message.c_str());
    }
    std::printf("corpus: %zu seed files, %d failing\n", corpus.entries.size(),
                failures);
  }

  const testing::CampaignResult result = testing::run_campaign(opt);
  std::printf("fuzz: %ld trials/target over %zu targets, %zu failures\n",
              result.trials, opt.targets.size(), result.failures.size());
  for (const testing::FuzzFailure& f : result.failures) {
    std::printf("FAIL [%s] seed %016llx: %s\n", testing::to_string(f.target),
                static_cast<unsigned long long>(f.seed), f.message.c_str());
    if (!f.artifact_path.empty())
      std::printf("  minimized repro written to %s\n", f.artifact_path.c_str());
  }
  return failures == 0 && result.ok() ? 0 : 1;
}

int cmd_profile(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string path = args[0];
  std::string platform_name = "Stm32", assignment_path, json_path;
  numrep::ConcreteType type{numrep::kBinary64, 0};
  std::size_t top = 20;
  bool with_errors = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return ++i < args.size() ? args[i] : std::string();
    };
    if (a == "--platform") {
      platform_name = next();
    } else if (a == "--platform-file") {
      platform_name = "@" + next();
    } else if (a == "--type") {
      const std::string name = next();
      const auto fmt = numrep::parse_format(name);
      if (!fmt) {
        std::fprintf(stderr, "luis: unknown format '%s'\n", name.c_str());
        return 2;
      }
      type.format = *fmt;
      if (fmt->is_fixed()) type.frac_bits = fmt->width() / 2;
    } else if (a == "--assignment") {
      assignment_path = next();
    } else if (a == "--top") {
      if (!parse_flag(a, next(), std::size_t{0},
                      std::numeric_limits<std::size_t>::max(), top))
        return 2;
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--errors") {
      with_errors = true;
    } else {
      std::fprintf(stderr, "luis profile: unknown option %s\n", a.c_str());
      return usage();
    }
  }

  platform::OpTimeTable storage;
  const platform::OpTimeTable* table = resolve_platform(platform_name, storage);
  if (!table) return 2;

  ir::Module module;
  ir::Function* f = parse_and_verify_or_die(module, path);
  if (!f) return 1;

  interp::TypeAssignment types = interp::TypeAssignment::uniform(*f, type);
  if (!assignment_path.empty()) {
    const auto text = read_file(assignment_path);
    if (!text) {
      std::fprintf(stderr, "luis: cannot read %s\n", assignment_path.c_str());
      return 1;
    }
    const core::AssignmentParseResult parsed =
        core::assignment_from_text(*f, *text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "luis: %s: %s\n", assignment_path.c_str(),
                   parsed.error.c_str());
      return 1;
    }
    types = parsed.assignment;
  }

  const interp::CompiledProgram program = interp::compile_program(*f, types, {});
  interp::ArrayStore store = synth_inputs(*f);
  interp::VmProfile profile;
  interp::ErrorProfile errors;
  const interp::BatchLane lane{&program, &store, &profile,
                               with_errors ? &errors : nullptr};
  const interp::RunResult run = interp::run_batch_programs({&lane, 1}, *f)[0];
  if (!run.ok) {
    std::fprintf(stderr, "luis: execution failed: %s\n", run.error.c_str());
    return 1;
  }

  const obs::HotSpotReport report =
      obs::build_hotspot_report(program, *f, profile, *table);
  std::fputs(obs::hotspot_text(report, top).c_str(), stdout);

  // The report's attribution is exact by construction; cross-check it
  // against the cost model so a drift between the two is loud, not silent.
  const double simulated = platform::simulated_time(run.counters, *table);
  const double drift = std::abs(report.total_cost - simulated);
  if (drift > 1e-9 * std::max(1.0, std::abs(simulated))) {
    std::fprintf(stderr,
                 "luis profile: attribution drift: report %.17g vs "
                 "simulated %.17g\n",
                 report.total_cost, simulated);
    return 1;
  }

  int exit_code = 0;
  std::string json_doc = obs::hotspot_json(report);
  if (with_errors) {
    // The per-line error table, priced next to the time table: same
    // ordinals, so the two reports line up row for row.
    const obs::ErrorReport erep = obs::build_error_report(program, *f, errors);
    std::fputs(obs::error_report_text(erep, top).c_str(), stdout);
    const analysis::CertificateCrossCheck cert =
        analysis::cross_check_certificates(*f, types, errors.arrays,
                                           errors.control_divergences);
    std::fputs(analysis::certificate_check_text(cert).c_str(), stdout);
    if (cert.any_violation) exit_code = 1;
    JsonWriter w;
    w.begin_object();
    w.newline();
    w.key("hotspots");
    w.raw_value(json_doc);
    w.key("errors");
    w.raw_value(obs::error_report_json(erep));
    w.key("certificate_check");
    w.raw_value(analysis::certificate_check_json(cert));
    w.newline();
    w.end_object();
    w.newline();
    json_doc = w.take();
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "luis profile: cannot write %s\n", json_path.c_str());
      return 1;
    }
    os << json_doc;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return exit_code;
}

int cmd_version() {
  std::printf("%s\n", obs::version_string().c_str());
  return 0;
}

/// Extracts the process-global observability flags (usable with any verb)
/// from the raw argument list, leaving the verb and its own options in
/// `rest`. Returns false (after reporting) on a malformed value.
bool extract_global_flags(const std::vector<std::string>& all,
                          std::vector<std::string>& rest,
                          std::string& trace_path, std::string& metrics_path) {
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& a = all[i];
    auto value_of = [&](const char* flag, std::string& out) {
      const std::string eq = std::string(flag) + "=";
      if (a.compare(0, eq.size(), eq) == 0) {
        out = a.substr(eq.size());
        return true;
      }
      if (a == flag && i + 1 < all.size()) {
        out = all[++i];
        return true;
      }
      return false;
    };
    std::string level;
    if (value_of("--trace-out", trace_path)) continue;
    if (value_of("--metrics-out", metrics_path)) continue;
    if (value_of("--log-level", level)) {
      const auto parsed = parse_log_level(level);
      if (!parsed) {
        std::fprintf(stderr,
                     "luis: unknown log level '%s' (want error|warn|info|"
                     "debug)\n",
                     level.c_str());
        return false;
      }
      set_log_level(*parsed);
      continue;
    }
    rest.push_back(a);
  }
  return true;
}

int run_command(const std::string& cmd, const std::vector<std::string>& args) {
  if (cmd == "kernels") return cmd_kernels();
  if (cmd == "formats") return cmd_formats();
  if (cmd == "emit") return cmd_emit(args);
  if (cmd == "print") return cmd_print(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "ranges") return cmd_ranges(args);
  if (cmd == "tune") return cmd_tune(args);
  if (cmd == "lint") return cmd_lint(args);
  if (cmd == "check") return cmd_check(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "disasm") return cmd_disasm(args);
  if (cmd == "compile") return cmd_compile(args);
  if (cmd == "apply") return cmd_apply(args);
  if (cmd == "characterize") return cmd_characterize(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "fuzz") return cmd_fuzz(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "version") return cmd_version();
  return usage();
}

} // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> all(argv + 1, argv + argc);
  std::vector<std::string> rest;
  std::string trace_path, metrics_path;
  if (!extract_global_flags(all, rest, trace_path, metrics_path)) return 2;
  if (rest.empty()) return usage();
  const std::string cmd = rest[0];
  const std::vector<std::string> args(rest.begin() + 1, rest.end());

  if (!trace_path.empty()) obs::trace().start();
  const int rc = run_command(cmd, args);

  if (!trace_path.empty()) {
    obs::trace().stop();
    if (!obs::trace().write_file(trace_path)) {
      std::fprintf(stderr, "luis: cannot write trace to %s\n",
                   trace_path.c_str());
      return rc != 0 ? rc : 1;
    }
    std::fprintf(stderr, "luis: wrote %zu trace events to %s\n",
                 obs::trace().event_count(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (os) {
      os << obs::metrics().to_json();
      std::fprintf(stderr, "luis: wrote metrics to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "luis: cannot write metrics to %s\n",
                   metrics_path.c_str());
      return rc != 0 ? rc : 1;
    }
  }
  return rc;
}
