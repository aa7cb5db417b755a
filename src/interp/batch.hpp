// The VM executor: runs compiled programs, one lane or many.
//
// run_batch_programs() runs N programs compiled from the SAME Function by
// one compile_programs() call — identical control skeletons, different
// numeric bindings — over a struct-of-arrays register file: real register
// slot r of lane l lives at reals[r * L + l]. Control flow (integer
// arithmetic, addressing, comparisons on integers, branches, phi moves of
// int registers) is type-independent, so it executes once per *lane
// group* instead of once per lane; only the real-valued work fans out.
// One source serves both uses: a batch of one (VmEngine::run) runs a
// one-lane instantiation whose stride is the constant 1 and whose
// registers are all uniform, so it carries none of the group bookkeeping.
//
// Lane groups and retirement. All lanes start in one lockstep group. A
// CondBr whose condition differs across lanes (conditions derive from
// FCmp, which sees per-lane quantized values) splits the group; the two
// halves proceed independently, each with a private copy of the uniform
// (type-independent) registers. A group retires all of its lanes at once
// on Ret or on a trap (phi with no incoming edge, fall-through, step
// limit, an out-of-bounds array index common to the group), carrying the
// reference interpreter's diagnostics and step counts — which is how one
// lane can trap and retire while the survivors keep running. An
// out-of-bounds index that differs across lanes retires only the lanes
// that fault. Within a group every lane observes identical control
// decisions, so per-lane steps, counters, ranges, and trap messages are
// bit-identical to running each lane alone as a batch of one.
//
// SWAR packing. Eligible fixed-point additive ops (Add/Sub where every
// lane in a run shares one FixedSpec of width w with w + 2 <= 16 and
// needs no operand conversion) execute packed: raw integers are biased
// into 2^ceil-width fields of one 64-bit word (8 lanes for w <= 6, 4 for
// w <= 14, 2 for w <= 16 with 32-bit fields) and added in a single
// integer op, then unpacked, saturated, and rescaled. In-format fixed
// values are exact multiples of 2^-f whose scaled sum fits a double
// exactly, so the packed path reproduces quantize_fixed() bit for bit.
// See docs/INTERP.md ("Batched execution") for the eligibility rules and
// why FP8 lanes are not packed.
#pragma once

#include <span>
#include <vector>

#include "interp/bytecode.hpp"

namespace luis::interp {

/// One execution lane: a program from a compile_programs() batch (or
/// compile_program() for a batch of one) plus the lane's private array
/// store (seeded with inputs, receives outputs) and optional per-lane
/// instrumentation (same layouts as RunOptions::vm_profile /
/// ::error_profile).
struct BatchLane {
  const CompiledProgram* program = nullptr;
  ArrayStore* store = nullptr;
  VmProfile* profile = nullptr;
  ErrorProfile* errors = nullptr;
};

struct BatchRunOptions {
  /// Run options applied to every lane (max_steps, count_costs,
  /// range tracking, ...). RunOptions::vm_profile and ::error_profile are
  /// ignored — use BatchLane::profile / ::errors for per-lane attribution.
  RunOptions run;
  /// Pack eligible <=16-bit fixed-point additive lanes into 64-bit SWAR
  /// words. Bit-identical either way; off is useful for differential
  /// testing of the packing itself. Shadow execution (any lane with an
  /// ErrorProfile) disables packing for the whole batch — the packed path
  /// computes no shadow values, and packing is bit-identical anyway.
  bool swar = true;
};

/// Executes all lanes and returns one RunResult per lane, bit-identical
/// (outputs, steps, counters, ranges, trap diagnostics) to running each
/// lane's program alone, and to run_function(). `f` must have the printed
/// IR the programs were compiled from (asserted by shape); it is only
/// consulted to attribute register ranges back to Instruction pointers.
std::vector<RunResult>
run_batch_programs(std::span<const BatchLane> lanes, const ir::Function& f,
                   const BatchRunOptions& options = {});

} // namespace luis::interp
