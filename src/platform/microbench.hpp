// Host platform characterization — the measurement procedure of §IV-C.
//
// Measures the execution time of 128-iteration blocks of each elementary
// operation (add/sub/mul/div/rem) in each native type class (int32 for
// fixed point, float, double) and of every cross-class cast, using
// clock_gettime(CLOCK_PROCESS_CPUTIME_ID) exactly as the paper does on the
// Linux machines. Beyond §IV-C, the same procedure prices the software-
// emulated classes fp8 and fposit: each of their arithmetic rows times a
// double op followed by the quantize into e4m3 / fposit16_1_4, which is
// what the VM executes for them. The resulting table is normalized to the fastest
// operation. The benchmark only needs to run once per target and is
// independent of the program being tuned.
#pragma once

#include "platform/optime.hpp"

namespace luis::platform {

struct MicrobenchOptions {
  /// Iterations per timed block (the paper uses 128).
  int iterations_per_block = 128;
  /// Timed blocks per operation; the minimum over blocks is used, which
  /// rejects scheduler noise.
  int blocks = 2000;
};

/// Characterizes the machine this process runs on. Returns a normalized
/// OpTimeTable with the same (op, type) vocabulary as Table II.
OpTimeTable run_microbenchmark(const MicrobenchOptions& options = {});

} // namespace luis::platform
