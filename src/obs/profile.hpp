// VM hot-spot profiling: prices the per-pc execution counts of a VM run
// (interp::VmProfile) with a platform op-time table and maps the cost back
// to source IR instructions, producing a ranked "where does the modeled
// time go" report.
//
// The attribution is exact, not approximate: every cost the interpreter
// bills — operation counters, operand-fetch casts (including the
// chosen-side cast of a select), phi-move casts on CFG edges, and the flat
// non-real step cost — is assigned to exactly one source instruction
// ordinal, so the per-instruction costs sum to the run's
// platform::simulated_time. obs_test locks this invariant in.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "interp/bytecode.hpp"
#include "platform/cost_model.hpp"

namespace luis::obs {

struct HotSpot {
  /// Source instruction ordinal (block order, phis and terminators
  /// included); -1 collects synthetic costs not tied to an instruction.
  int ordinal = -1;
  std::string text;     ///< the instruction as the IR printer renders it
  long executions = 0;  ///< dynamic executions (phi: edge applications)
  double cost = 0.0;    ///< modeled op-time units attributed here
  double share = 0.0;   ///< cost / total_cost (0 when total is 0)
};

struct HotSpotReport {
  std::string function_name;
  std::string platform;
  double total_cost = 0.0; ///< equals simulated_time of the profiled run
  long total_executions = 0;
  std::vector<HotSpot> entries; ///< cost-descending, ties by ordinal
};

/// One text line per source instruction, in block order — the same
/// ordinals the compiler assigns. Derived from the IR printer's output so
/// reports show instructions exactly as `luis` prints them. Shared by the
/// hot-spot and numerical-error report builders.
std::vector<std::string> instruction_texts(const ir::Function& f);

/// Builds the report for one profiled run of `program` (compiled from
/// `f`). `profile` must come from a run of the same program (a BatchLane's
/// VmProfile, or RunOptions::vm_profile of a VmEngine run).
HotSpotReport build_hotspot_report(const interp::CompiledProgram& program,
                                   const ir::Function& f,
                                   const interp::VmProfile& profile,
                                   const platform::OpTimeTable& table,
                                   const platform::CostModelOptions& opt = {});

/// Human-readable ranking. `top` limits the number of rows (0 = all).
std::string hotspot_text(const HotSpotReport& report, std::size_t top = 0);

/// JSON document with the build stamp and every entry.
std::string hotspot_json(const HotSpotReport& report);

} // namespace luis::obs
