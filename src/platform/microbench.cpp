#include "platform/microbench.hpp"

#include <cmath>
#include <cstdint>
#include <ctime>
#include <limits>

#include "numrep/fixed_posit.hpp"
#include "numrep/soft_float.hpp"

namespace luis::platform {
namespace {

double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Times `iters` executions of `step` on a dependent value chain, taking
/// the minimum over `blocks` runs. The dependent chain defeats both
/// dead-code elimination and out-of-order overlap, which is what an
/// instruction-latency characterization wants.
template <typename T, typename Step>
double time_blocks(const MicrobenchOptions& opt, T seed, Step step) {
  volatile T sink = seed; // defeat constant folding across blocks
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < opt.blocks; ++b) {
    T x = sink;
    const double start = now_seconds();
    for (int i = 0; i < opt.iterations_per_block; ++i) x = step(x);
    const double elapsed = now_seconds() - start;
    sink = x;
    if (elapsed > 0.0 && elapsed < best) best = elapsed;
  }
  return best;
}

/// The five arithmetic rows of a software-emulated type class, timed as
/// the VM executes them: the double op, then `quantize` into the format.
/// The chains are the native double rows' chains; every value stays
/// finite and nonzero in both emulated formats.
template <typename Quantize>
void set_emulated_rows(OpTimeTable& table, const MicrobenchOptions& opt,
                       const char* type, Quantize quantize) {
  table.set("add", type, time_blocks<double>(opt, 1.0, [&](double x) {
              return quantize(x + 1.25);
            }));
  table.set("sub", type, time_blocks<double>(opt, 1.0, [&](double x) {
              return quantize(x - 1.25);
            }));
  table.set("mul", type, time_blocks<double>(opt, 1.5, [&](double x) {
              return quantize(x * 0.999999999);
            }));
  table.set("div", type, time_blocks<double>(opt, 1.5, [&](double x) {
              return quantize(x / 1.000000001);
            }));
  table.set("rem", type, time_blocks<double>(opt, 123.456, [&](double x) {
              return quantize(std::fmod(x, 7.89) + 123.0);
            }));
}

} // namespace

OpTimeTable run_microbenchmark(const MicrobenchOptions& opt) {
  OpTimeTable table("host");

  // Arithmetic. Operand values keep every chain numerically stable so the
  // loop cannot hit inf/NaN slow paths. The add/sub/mul chains outrun
  // int32 over the blocks, so they wrap in uint32 (defined, and the same
  // instructions as signed arithmetic).
  table.set("add", "fix", time_blocks<std::uint32_t>(opt, 1, [](std::uint32_t x) {
              return x + 12345u;
            }));
  table.set("sub", "fix", time_blocks<std::uint32_t>(opt, 1, [](std::uint32_t x) {
              return x - 12345u;
            }));
  table.set("mul", "fix", time_blocks<std::uint32_t>(opt, 3, [](std::uint32_t x) {
              return x * 3u;
            }));
  table.set("div", "fix", time_blocks<std::int32_t>(opt, 1 << 30,
                                                    [](std::int32_t x) {
                                                      return x / 3 + (1 << 30);
                                                    }));
  table.set("rem", "fix", time_blocks<std::int32_t>(opt, 1 << 30,
                                                    [](std::int32_t x) {
                                                      return x % 1234567 + (1 << 30);
                                                    }));

  table.set("add", "float",
            time_blocks<float>(opt, 1.0f, [](float x) { return x + 1.25f; }));
  table.set("sub", "float",
            time_blocks<float>(opt, 1.0f, [](float x) { return x - 1.25f; }));
  table.set("mul", "float", time_blocks<float>(opt, 1.5f, [](float x) {
              return x * 0.99999f;
            }));
  table.set("div", "float", time_blocks<float>(opt, 1.5f, [](float x) {
              return x / 1.00001f;
            }));
  table.set("rem", "float", time_blocks<float>(opt, 123.456f, [](float x) {
              return std::fmod(x, 7.89f) + 123.0f;
            }));

  table.set("add", "double",
            time_blocks<double>(opt, 1.0, [](double x) { return x + 1.25; }));
  table.set("sub", "double",
            time_blocks<double>(opt, 1.0, [](double x) { return x - 1.25; }));
  table.set("mul", "double", time_blocks<double>(opt, 1.5, [](double x) {
              return x * 0.999999999;
            }));
  table.set("div", "double", time_blocks<double>(opt, 1.5, [](double x) {
              return x / 1.000000001;
            }));
  table.set("rem", "double", time_blocks<double>(opt, 123.456, [](double x) {
              return std::fmod(x, 7.89) + 123.0;
            }));

  // Software-emulated classes (no hardware unit on any host): fp8 priced
  // by e4m3, fposit by fposit16_1_4, the formats the canned tables'
  // kSoftEmulated ratios were measured on.
  set_emulated_rows(table, opt, "fp8", [](double x) {
    return numrep::round_to_format(numrep::kFp8E4M3, x);
  });
  set_emulated_rows(table, opt, "fposit", [](double x) {
    return numrep::quantize_fixed_posit(numrep::kFixedPosit16, x);
  });

  // Casts: each block round-trips through the target type; the cast pair
  // dominates the loop body.
  table.set("cast_fix", "fix", time_blocks<std::int32_t>(opt, 7, [](std::int32_t x) {
              return (x << 1) >> 1; // fixed-point shift realignment
            }));
  table.set("cast_fix", "float",
            time_blocks<std::int32_t>(opt, 7, [](std::int32_t x) {
              return static_cast<std::int32_t>(static_cast<float>(x) + 1.0f);
            }));
  table.set("cast_fix", "double",
            time_blocks<std::int32_t>(opt, 7, [](std::int32_t x) {
              return static_cast<std::int32_t>(static_cast<double>(x) + 1.0);
            }));
  table.set("cast_float", "fix", time_blocks<float>(opt, 7.5f, [](float x) {
              return static_cast<float>(static_cast<std::int32_t>(x)) + 0.5f;
            }));
  table.set("cast_float", "double", time_blocks<float>(opt, 7.5f, [](float x) {
              return static_cast<float>(static_cast<double>(x) + 0.1);
            }));
  table.set("cast_double", "fix", time_blocks<double>(opt, 7.5, [](double x) {
              return static_cast<double>(static_cast<std::int32_t>(x)) + 0.5;
            }));
  table.set("cast_double", "float", time_blocks<double>(opt, 7.5, [](double x) {
              return static_cast<double>(static_cast<float>(x)) + 0.25;
            }));

  table.normalize();
  return table;
}

} // namespace luis::platform
