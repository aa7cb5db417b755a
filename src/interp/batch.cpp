#include "interp/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "obs/trace.hpp"
#include "support/diag.hpp"
#include "support/statistics.hpp"

namespace luis::interp {

namespace {

using ir::Instruction;
using ir::Opcode;

template <typename T> bool compare(ir::CmpPred pred, T a, T b) {
  switch (pred) {
  case ir::CmpPred::EQ: return a == b;
  case ir::CmpPred::NE: return a != b;
  case ir::CmpPred::LT: return a < b;
  case ir::CmpPred::LE: return a <= b;
  case ir::CmpPred::GT: return a > b;
  case ir::CmpPred::GE: return a >= b;
  }
  LUIS_UNREACHABLE("unknown predicate");
}

/// Compile-time taint analysis over the shared skeleton: which integer /
/// boolean registers can differ across lanes. Real registers are always
/// per-lane (their values are quantized into per-lane formats). The only
/// source of lane-dependence outside the reals is RealCmp (it compares
/// per-lane stored representations); the taint propagates through int
/// arithmetic, int comparisons, int selects, and int phi moves. Because
/// every lane of a *group* has the same control history, a register whose
/// sources are all untainted holds one value per group — which is what
/// lets the executor run the control skeleton once per group instead of
/// once per lane.
std::vector<std::uint8_t> compute_varying(const CompiledProgram& p) {
  std::vector<std::uint8_t> varying(static_cast<std::size_t>(p.num_regs), 0);
  const auto tainted = [&](const IntArg& a) {
    return a.reg >= 0 && varying[static_cast<std::size_t>(a.reg)];
  };
  bool changed = true;
  while (changed) {
    changed = false;
    const auto mark = [&](std::int32_t r) {
      if (r >= 0 && !varying[static_cast<std::size_t>(r)]) {
        varying[static_cast<std::size_t>(r)] = 1;
        changed = true;
      }
    };
    for (const BInst& bi : p.code) {
      switch (bi.kind) {
      case BInst::Kind::RealCmp:
        mark(bi.dst);
        break;
      case BInst::Kind::IntCmp:
      case BInst::Kind::IntArith:
        if (tainted(bi.ia) || tainted(bi.ib)) mark(bi.dst);
        break;
      case BInst::Kind::SelectInt:
        if ((bi.cond >= 0 && varying[static_cast<std::size_t>(bi.cond)]) ||
            tainted(bi.ia) || tainted(bi.ib))
          mark(bi.dst);
        break;
      default:
        break;
      }
    }
    for (const PhiMove& m : p.moves)
      if (!m.is_real && m.isrc.reg >= 0 &&
          varying[static_cast<std::size_t>(m.isrc.reg)])
        mark(m.dst);
  }
  return varying;
}

/// A set of lanes executing in lockstep: same pc, same control history.
/// Type-independent ("uniform") registers are stored once per group; a
/// divergent CondBr splits the group, each half inheriting a copy. The
/// one-lane executor leaves `lanes` empty: its only lane is lane 0.
struct Group {
  std::vector<std::int32_t> lanes;
  long steps = 0;
  long non_real = 0;
  std::int32_t edge = -1;  ///< edge to apply when (re)scheduled
  std::int32_t block = -1; ///< block entered after the edge
  std::vector<std::int64_t> uints;
  std::vector<std::uint8_t> ubools;
};

/// The lane list of the one-lane executor.
constexpr std::int32_t kLaneZero[1] = {0};

/// What flat_index returns for an out-of-bounds access.
constexpr std::size_t kOutOfBounds = std::numeric_limits<std::size_t>::max();

/// The executor, instantiated for one lane (kOne) and for many. With one
/// lane the register-file stride is the constant 1, lane loops have a
/// fixed extent of one, per-lane tables resolve to lane 0, and every
/// register is uniform — so the taint analysis, the per-lane integer and
/// boolean files, the per-lane index check and the CondBr split drop out.
/// The hottest helpers (fetch_real, geti, unpacked_one) are forced inline:
/// this function is large enough that GCC's growth limits otherwise leave
/// them out of line, which measured 5-10% slower per instruction.
template <bool kOne>
std::vector<RunResult> run_lanes(std::span<const BatchLane> lanes,
                                 const ir::Function& f,
                                 const BatchRunOptions& options) {
  const std::size_t L = kOne ? 1 : lanes.size();
  const CompiledProgram& p0 = *lanes[0].program;
  const RunOptions& opt = options.run;
  const long max_steps = opt.max_steps;
  std::vector<RunResult> results(L);

  // Shape checks: every lane must come from one compile_programs() batch
  // over this function (identical skeleton).
  LUIS_ASSERT(f.instruction_count() == p0.source_instruction_count,
              "compiled program does not match the function shape");
  LUIS_ASSERT(f.arrays().size() == p0.arrays.size(),
              "compiled program does not match the function arrays");
  std::vector<const CompiledProgram*> progs(kOne ? 0 : L);
  if constexpr (!kOne) {
    for (std::size_t l = 0; l < L; ++l) {
      const CompiledProgram& p = *lanes[l].program;
      progs[l] = &p;
      LUIS_ASSERT(p.code.size() == p0.code.size() &&
                      p.num_regs == p0.num_regs &&
                      p.blocks.size() == p0.blocks.size() &&
                      p.edges.size() == p0.edges.size() &&
                      p.moves.size() == p0.moves.size() &&
                      p.arrays.size() == p0.arrays.size() &&
                      p.entry_edge == p0.entry_edge,
                  "batch lanes do not share one compiled skeleton");
    }
  }

  // Per-lane views: the lane's program, its instruction at a pc, its
  // instrumentation. The one-lane instantiation resolves them to lane 0.
  VmProfile* const profile0 = lanes[0].profile;
  ErrorProfile* const errors0 = lanes[0].errors;
  const auto prog = [&](std::int32_t l) -> const CompiledProgram& {
    if constexpr (kOne) return p0;
    else return *progs[static_cast<std::size_t>(l)];
  };
  const auto inst = [&](std::int32_t l, std::int32_t pc) -> const BInst& {
    return prog(l).code[static_cast<std::size_t>(pc)];
  };
  const auto profile_of = [&](std::int32_t l) {
    if constexpr (kOne) return profile0;
    else return lanes[static_cast<std::size_t>(l)].profile;
  };
  const auto errors_of = [&](std::int32_t l) {
    if constexpr (kOne) return errors0;
    else return lanes[static_cast<std::size_t>(l)].errors;
  };
  const auto lanes_of = [&](const Group& g) {
    if constexpr (kOne) return std::span<const std::int32_t, 1>(kLaneZero);
    else return std::span<const std::int32_t>(g.lanes);
  };
  const auto lead = [&](const Group& g) -> std::int32_t {
    if constexpr (kOne) return 0;
    else return g.lanes.front();
  };
  // Slot of register (or array, or phi move) r for lane l in a
  // struct-of-arrays file.
  const auto at = [&](std::int32_t r, std::int32_t l) {
    return static_cast<std::size_t>(r) * L + static_cast<std::size_t>(l);
  };

  const bool track_regs = opt.track_register_ranges;
  const bool track_arrays = opt.track_array_ranges;

  // Per-lane array range observation (NaN-skipping min/max).
  std::vector<std::map<std::string, std::pair<double, double>>> array_ranges(L);
  const auto observe_array = [&](std::int32_t l, const std::string& name,
                                 double v) {
    if (std::isnan(v)) return;
    auto [it, fresh] =
        array_ranges[static_cast<std::size_t>(l)].try_emplace(name, v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  };

  // Shadow execution: when any lane carries an ErrorProfile, the batch
  // maintains a lockstep binary64 shadow for every lane (uniform indexing
  // keeps the hot loop simple; sweep batches enable errors for all lanes
  // or none). Deviations are recorded only into lanes that asked.
  bool any_errors = false;
  for (const BatchLane& lane : lanes) {
    ErrorProfile* const ep = lane.errors;
    if (!ep) continue;
    any_errors = true;
    ep->instr.assign(p0.code.size(), ErrorCell{});
    ep->moves.assign(p0.moves.size(), ErrorCell{});
    ep->first_spike_step = -1;
    ep->first_spike_pc = -1;
    ep->first_spike_src = -1;
    ep->first_spike_rel = 0.0;
    ep->control_divergences = 0;
    ep->first_control_divergence_step = -1;
    ep->arrays.clear();
    ep->program_mpe = 0.0;
    ep->finalized = false;
    ep->shadow_arrays.clear();
  }

  // Bind every lane's array buffers by name and quantize initial contents
  // with the lane's own array formats: buffers[at(array, lane)]. Shadow
  // buffers capture the raw (pre-quantization) contents — the shadow
  // world never quantizes, including at initialization.
  std::vector<std::vector<double>*> buffers(p0.arrays.size() * L);
  std::vector<std::vector<double>> shadow_buffers(
      any_errors ? p0.arrays.size() * L : 0);
  for (std::size_t l = 0; l < L; ++l) {
    const CompiledProgram& p = prog(static_cast<std::int32_t>(l));
    ArrayStore& store = *lanes[l].store;
    for (std::size_t ai = 0; ai < p.arrays.size(); ++ai) {
      const ArrayBinding& ab = p.arrays[ai];
      auto& buf = store[ab.name];
      buf.resize(static_cast<std::size_t>(ab.element_count), 0.0);
      if (any_errors) shadow_buffers[ai * L + l] = buf;
      const numrep::QuantSpec& spec =
          p.specs[static_cast<std::size_t>(ab.spec)];
      for (double& v : buf) {
        v = ab.init_conv(spec, v);
        if (track_arrays)
          observe_array(static_cast<std::int32_t>(l), ab.name, v);
      }
      buffers[ai * L + l] = &buf;
    }
  }

  if (p0.blocks.empty()) {
    for (RunResult& r : results) r.error = "no entry block";
    return results;
  }

  // Register ordinal -> Instruction*, for range attribution only.
  std::vector<const Instruction*> inst_of;
  std::vector<std::map<const Instruction*, std::pair<double, double>>>
      register_ranges(L);
  if (track_regs) {
    inst_of.reserve(static_cast<std::size_t>(p0.num_regs));
    for (const auto& bb : f.blocks())
      for (const auto& in : bb->instructions()) inst_of.push_back(in.get());
  }
  const auto observe_reg = [&](std::int32_t l, std::int32_t r, double v) {
    if (std::isnan(v)) return;
    auto [it, fresh] = register_ranges[static_cast<std::size_t>(l)].try_emplace(
        inst_of[static_cast<std::size_t>(r)], v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  };

  // Struct-of-arrays register file: slot r of lane l at at(r, l). Integer
  // and boolean registers that can differ across lanes live in the
  // per-lane files; the rest live once per group.
  const auto nregs = static_cast<std::size_t>(p0.num_regs);
  std::vector<double> reals(nregs * L, 0.0);
  std::vector<double> shadow_reals(any_errors ? nregs * L : 0, 0.0);
  std::vector<std::int64_t> vints(kOne ? 0 : nregs * L, 0);
  std::vector<std::uint8_t> vbools(kOne ? 0 : nregs * L, 0);
  std::vector<std::uint8_t> varying;
  if constexpr (!kOne) varying = compute_varying(p0);
  const auto varies = [&](std::int32_t r) {
    if constexpr (kOne) return false;
    else return varying[static_cast<std::size_t>(r)] != 0;
  };

  // Per-lane dense counters over the lane's own counter table.
  std::vector<std::vector<long>> counts(L);
  for (std::size_t l = 0; l < L; ++l)
    counts[l].assign(prog(static_cast<std::int32_t>(l)).counter_keys.size(), 0);
  long* const counts0 = counts[0].data();
  const auto bump = [&](std::int32_t l, std::int32_t counter) {
    if constexpr (kOne) ++counts0[counter];
    else ++counts[static_cast<std::size_t>(l)][static_cast<std::size_t>(counter)];
  };

  // Per-lane profiles (per-pc counts attributed to each lane).
  bool any_profile = false;
  for (const BatchLane& lane : lanes) {
    VmProfile* const prof = lane.profile;
    if (!prof) continue;
    any_profile = true;
    prof->instr_executions.assign(p0.code.size(), 0);
    prof->edge_applications.assign(p0.edges.size(), 0);
    prof->select_real_first.assign(p0.code.size(), 0);
  }

  const auto fetch_real = [&](const RealArg& a, std::int32_t l)
      __attribute__((always_inline)) {
    double v = a.reg >= 0 ? reals[at(a.reg, l)] : a.imm;
    if (a.cast_counter >= 0) bump(l, a.cast_counter);
    if (a.conv) v = a.conv(prog(l).specs[static_cast<std::size_t>(a.spec)], v);
    return v;
  };
  const auto fetch_exact = [&](const RealArg& a, std::int32_t l) {
    if (a.cast_counter >= 0) bump(l, a.cast_counter);
    return a.reg >= 0 ? reals[at(a.reg, l)] : a.imm;
  };
  // Shadow operand fetch / register write: raw values, never converted.
  const auto fetch_shadow = [&](const RealArg& a, std::int32_t l) {
    return a.reg >= 0 ? shadow_reals[at(a.reg, l)] : a.shadow_imm;
  };
  const auto set_shadow = [&](std::int32_t r, std::int32_t l, double s) {
    shadow_reals[at(r, l)] = s;
  };
  // Records the deviation of one quantized real write against its shadow
  // value. `at_pc` is -1 for phi moves (they have no program counter;
  // their spikes carry the move's destination register instead).
  const auto record = [&](std::int32_t l, ErrorCell& cell, double q, double s,
                          std::int32_t at_pc, std::int32_t at_src, long step) {
    ErrorProfile& ep = *errors_of(l);
    double abs_err = std::fabs(q - s);
    if (std::isnan(abs_err)) abs_err = std::numeric_limits<double>::infinity();
    double rel_err;
    if (std::fabs(s) > 0.0)
      rel_err = abs_err / std::fabs(s);
    else
      rel_err = abs_err > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    const bool spike = rel_err > ep.spike_rel_threshold &&
                       cell.max_rel <= ep.spike_rel_threshold;
    cell.observe(abs_err, rel_err);
    if (spike) {
      if (ep.first_spike_step < 0) {
        ep.first_spike_step = step;
        ep.first_spike_pc = at_pc;
        ep.first_spike_src = at_src;
        ep.first_spike_rel = rel_err;
      }
      obs::Args args;
      args.str("function", p0.function_name);
      if (!kOne) args.num("lane", l);
      obs::instant("vm.error_spike", "vm",
                   args.num("pc", at_pc)
                       .num("src", at_src)
                       .num("rel", rel_err)
                       .num("step", step)
                       .done());
    }
  };

  // Integer/boolean reads route to the group's uniform copy or the
  // per-lane slot depending on the taint analysis.
  const auto geti = [&](const IntArg& a, const Group& g, std::int32_t l)
      __attribute__((always_inline)) {
    if (a.reg < 0) return a.imm;
    return varies(a.reg) ? vints[at(a.reg, l)]
                         : g.uints[static_cast<std::size_t>(a.reg)];
  };
  const auto getb = [&](std::int32_t r, const Group& g, std::int32_t l) {
    return (varies(r) ? vbools[at(r, l)]
                      : g.ubools[static_cast<std::size_t>(r)]) != 0;
  };

  // Does any index operand of this Load/Store differ across lanes?
  std::vector<std::uint8_t> index_varying(kOne ? 0 : p0.code.size(), 0);
  std::vector<std::size_t> lane_flat(kOne ? 0 : L);
  if constexpr (!kOne) {
    for (std::size_t pc = 0; pc < p0.code.size(); ++pc) {
      const BInst& bi = p0.code[pc];
      if (bi.kind != BInst::Kind::Load && bi.kind != BInst::Kind::Store)
        continue;
      for (std::int32_t d = 0; d < bi.index_count; ++d) {
        const IntArg& a =
            p0.index_args[static_cast<std::size_t>(bi.index_start + d)];
        if (a.reg >= 0 && varies(a.reg)) index_varying[pc] = 1;
      }
    }
  }

  // Flat element index of a Load/Store for lane l, or kOutOfBounds.
  const auto flat_index = [&](const BInst& bi, const Group& g,
                              std::int32_t l) {
    const ArrayBinding& ab = p0.arrays[static_cast<std::size_t>(bi.array)];
    std::size_t flat = 0;
    for (std::int32_t d = 0; d < bi.index_count; ++d) {
      const std::int64_t idx = geti(
          p0.index_args[static_cast<std::size_t>(bi.index_start + d)], g, l);
      const std::int64_t dim = ab.dims[static_cast<std::size_t>(d)];
      if (idx < 0 || idx >= dim) return kOutOfBounds;
      flat = flat * static_cast<std::size_t>(dim) + static_cast<std::size_t>(idx);
    }
    return flat;
  };

  // SWAR eligibility, resolved once per (pc, lane): an Arith2 Add/Sub in a
  // fixed format of width w with w + 2 <= 16 (so the biased field fits an
  // 8/16-bit subword; widths 15..16 use 32-bit fields) whose operands need
  // no conversion and bill no cast — i.e. both are already in the result
  // format, which makes the packed integer add exact. FP8 lanes are never
  // packed: their ops are dominated by the software decode/encode, not the
  // add itself (see docs/INTERP.md).
  std::vector<const numrep::FixedSpec*> swar_spec;
  if (!kOne && options.swar && !any_errors) {
    swar_spec.assign(p0.code.size() * L, nullptr);
    for (std::size_t pc = 0; pc < p0.code.size(); ++pc) {
      const BInst& b0 = p0.code[pc];
      if (b0.op != Opcode::Add && b0.op != Opcode::Sub) continue;
      for (std::size_t l = 0; l < L; ++l) {
        const CompiledProgram& p = *progs[l];
        const BInst& bl = p.code[pc];
        if (bl.kind != BInst::Kind::Arith2) continue;
        const numrep::QuantSpec& spec =
            p.specs[static_cast<std::size_t>(bl.spec)];
        if (!spec.format.is_fixed()) continue;
        if (spec.fixed.width > 16) continue;
        if (bl.a.conv || bl.b.conv || bl.a.cast_counter >= 0 ||
            bl.b.cast_counter >= 0)
          continue;
        swar_spec[pc * L + l] = &spec.fixed;
      }
    }
  }

  // Retirement. Counters and ranges are only materialized on Ret; a trap
  // reports its diagnostic and the steps taken up to and including the
  // faulting instruction, like the reference interpreter.
  const auto retire_lane_error = [&](std::int32_t l, const Group& g,
                                     const std::string& message) {
    RunResult& r = results[static_cast<std::size_t>(l)];
    r.error = message;
    r.steps = g.steps;
  };
  const auto retire_error = [&](const Group& g, const std::string& message) {
    for (const std::int32_t l : lanes_of(g)) retire_lane_error(l, g, message);
  };
  const auto retire_ok = [&](const Group& g) {
    for (const std::int32_t l : lanes_of(g)) {
      RunResult& r = results[static_cast<std::size_t>(l)];
      r.ok = true;
      r.steps = g.steps;
      if (opt.count_costs) {
        const CompiledProgram& p = prog(l);
        const std::vector<long>& c = counts[static_cast<std::size_t>(l)];
        for (std::size_t i = 0; i < c.size(); ++i)
          if (c[i] > 0) r.counters.ops[p.counter_keys[i]] = c[i];
        r.counters.non_real_ops = g.non_real;
      }
      if (ErrorProfile* const ep = errors_of(l)) {
        std::vector<const std::vector<double>*> qp, sp;
        qp.reserve(p0.arrays.size());
        sp.reserve(p0.arrays.size());
        for (std::size_t ai = 0; ai < p0.arrays.size(); ++ai) {
          const std::size_t slot = at(static_cast<std::int32_t>(ai), l);
          qp.push_back(buffers[slot]);
          sp.push_back(&shadow_buffers[slot]);
        }
        finalize_error_profile(*ep, prog(l), qp, sp);
      }
      r.array_ranges = std::move(array_ranges[static_cast<std::size_t>(l)]);
      r.register_ranges =
          std::move(register_ranges[static_cast<std::size_t>(l)]);
    }
  };

  // Resolves a Load/Store's element index for the group: once when no
  // index operand differs across lanes (into `flat`), else per lane (into
  // lane_flat). An out-of-bounds index traps: a uniform one retires the
  // whole group, a lane-varying one only the lanes that fault. Returns
  // false when no lane is left running.
  const auto resolve_index = [&](const BInst& bi, std::int32_t pc, Group& g,
                                 std::size_t& flat) {
    const auto trap = [&] {
      return "array index out of bounds on " +
             p0.arrays[static_cast<std::size_t>(bi.array)].name;
    };
    if (kOne || !index_varying[static_cast<std::size_t>(pc)]) {
      flat = flat_index(bi, g, lead(g));
      if (flat != kOutOfBounds) return true;
      retire_error(g, trap());
      return false;
    }
    std::size_t kept = 0;
    for (const std::int32_t l : g.lanes) {
      const std::size_t fl = flat_index(bi, g, l);
      if (fl == kOutOfBounds) {
        retire_lane_error(l, g, trap());
        continue;
      }
      lane_flat[static_cast<std::size_t>(l)] = fl;
      g.lanes[kept++] = l;
    }
    g.lanes.resize(kept);
    return kept > 0;
  };

  // Phi scratch: simultaneous read, then commit, per lane.
  std::size_t max_moves = 0;
  for (const EdgeMoves& e : p0.edges)
    max_moves = std::max(max_moves, static_cast<std::size_t>(e.count));
  std::vector<double> scratch_real(max_moves * L);
  std::vector<double> scratch_shadow(any_errors ? max_moves * L : 0);
  std::vector<std::int64_t> scratch_int(kOne ? 0 : max_moves * L);
  std::vector<std::int64_t> scratch_uint(max_moves);

  // Applies one phi edge for the whole group. Returns false on an edge
  // trap (the caller retires the group with the message).
  std::string edge_trap_message;
  const auto apply_edge = [&](Group& g, std::int32_t id) {
    const EdgeMoves& e = p0.edges[static_cast<std::size_t>(id)];
    if (e.trap_msg >= 0) {
      edge_trap_message = p0.messages[static_cast<std::size_t>(e.trap_msg)];
      return false;
    }
    if (any_profile)
      for (const std::int32_t l : lanes_of(g))
        if (VmProfile* const prof = profile_of(l))
          ++prof->edge_applications[static_cast<std::size_t>(id)];
    for (std::int32_t i = 0; i < e.count; ++i) {
      const PhiMove& m0 = p0.moves[static_cast<std::size_t>(e.start + i)];
      if (m0.is_real) {
        for (const std::int32_t l : lanes_of(g)) {
          const RealArg& src =
              prog(l).moves[static_cast<std::size_t>(e.start + i)].rsrc;
          scratch_real[at(i, l)] = fetch_real(src, l);
          if (any_errors) scratch_shadow[at(i, l)] = fetch_shadow(src, l);
        }
      } else if (varies(m0.dst)) {
        for (const std::int32_t l : lanes_of(g))
          scratch_int[at(i, l)] = geti(m0.isrc, g, l);
      } else {
        scratch_uint[static_cast<std::size_t>(i)] = geti(m0.isrc, g, lead(g));
      }
    }
    for (std::int32_t i = 0; i < e.count; ++i) {
      const PhiMove& m0 = p0.moves[static_cast<std::size_t>(e.start + i)];
      if (m0.is_real) {
        for (const std::int32_t l : lanes_of(g)) {
          const double v = scratch_real[at(i, l)];
          reals[at(m0.dst, l)] = v;
          if (any_errors) {
            const double s = scratch_shadow[at(i, l)];
            set_shadow(m0.dst, l, s);
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->moves[static_cast<std::size_t>(e.start + i)], v,
                     s, -1, m0.dst, g.steps);
          }
          if (track_regs) observe_reg(l, m0.dst, v);
        }
      } else if (varies(m0.dst)) {
        for (const std::int32_t l : lanes_of(g))
          vints[at(m0.dst, l)] = scratch_int[at(i, l)];
      } else {
        g.uints[static_cast<std::size_t>(m0.dst)] =
            scratch_uint[static_cast<std::size_t>(i)];
      }
    }
    g.steps += e.count;
    return true;
  };

  // Packed fixed-point Add/Sub over a run of same-spec lanes. Raw values
  // are biased by 2^w into fields of 2^ceil(log2(w+2)) bits, summed in one
  // 64-bit op (the bias keeps every field non-negative so no carry or
  // borrow crosses a boundary), then unpacked, saturated, and rescaled —
  // bit-identical to the unpacked kernel because in-format operands make
  // both the double add and the llround inside quantize_fixed exact.
  const auto swar_run = [&](const BInst& b0, std::int32_t pc, const Group& g,
                            std::size_t first, std::size_t last,
                            const numrep::FixedSpec& spec) {
    const bool is_sub = b0.op == Opcode::Sub;
    const int w = spec.width;
    const int fb = w + 2 <= 8 ? 8 : (w + 2 <= 16 ? 16 : 32);
    const std::size_t per = static_cast<std::size_t>(64 / fb);
    const std::uint64_t mask = (std::uint64_t{1} << fb) - 1;
    const std::int64_t beta = std::int64_t{1} << w;
    const std::int64_t raw_max = spec.is_signed
                                     ? (std::int64_t{1} << (w - 1)) - 1
                                     : (std::int64_t{1} << w) - 1;
    const std::int64_t raw_min =
        spec.is_signed ? -(std::int64_t{1} << (w - 1)) : 0;
    for (std::size_t k0 = first; k0 < last; k0 += per) {
      const std::size_t cnt = std::min(per, last - k0);
      std::uint64_t wa = 0, wb = 0, wbias = 0;
      for (std::size_t t = 0; t < cnt; ++t) {
        const std::int32_t l = g.lanes[k0 + t];
        const BInst& bl = inst(l, pc);
        const double av = bl.a.reg >= 0 ? reals[at(bl.a.reg, l)] : bl.a.imm;
        const double bv = bl.b.reg >= 0 ? reals[at(bl.b.reg, l)] : bl.b.imm;
        const auto ma = static_cast<std::int64_t>(std::ldexp(av, spec.frac));
        const auto mb = static_cast<std::int64_t>(std::ldexp(bv, spec.frac));
        const int shift = static_cast<int>(t) * fb;
        wa |= static_cast<std::uint64_t>(ma + beta) << shift;
        wb |= static_cast<std::uint64_t>(mb + beta) << shift;
        wbias |= static_cast<std::uint64_t>(beta) << shift;
      }
      // add: fields hold (ma+b)+(mb+b) = ma+mb+2b; sub: (ma+2b)-(mb+b) =
      // ma-mb+b. Both stay in (0, 2^(w+2)) <= field size, so fieldwise.
      const std::uint64_t sum = is_sub ? (wa + wbias) - wb : wa + wb;
      const std::int64_t unbias = is_sub ? beta : 2 * beta;
      for (std::size_t t = 0; t < cnt; ++t) {
        const std::int32_t l = g.lanes[k0 + t];
        const BInst& bl = inst(l, pc);
        std::int64_t m = static_cast<std::int64_t>(
                             (sum >> (static_cast<int>(t) * fb)) & mask) -
                         unbias;
        m = std::clamp(m, raw_min, raw_max);
        const double r = std::ldexp(static_cast<double>(m), -spec.frac);
        reals[at(bl.dst, l)] = r;
        bump(l, bl.op_counter);
        if (track_regs) observe_reg(l, bl.dst, r);
      }
    }
  };

  // Initial group: every lane, lockstep, about to apply the entry edge.
  std::vector<Group> work;
  {
    Group g0;
    if constexpr (!kOne) {
      g0.lanes.resize(L);
      for (std::size_t l = 0; l < L; ++l)
        g0.lanes[l] = static_cast<std::int32_t>(l);
    }
    g0.edge = p0.entry_edge;
    g0.block = 0;
    g0.uints.assign(nregs, 0);
    g0.ubools.assign(nregs, 0);
    work.push_back(std::move(g0));
  }

  while (!work.empty()) {
    Group g = std::move(work.back());
    work.pop_back();
    if (!apply_edge(g, g.edge)) {
      retire_error(g, edge_trap_message);
      continue;
    }
    std::int32_t pc = p0.blocks[static_cast<std::size_t>(g.block)].entry;
    bool running = true;
    while (running) {
      const BInst& bi = p0.code[static_cast<std::size_t>(pc)];
      if (bi.kind == BInst::Kind::Trap) {
        retire_error(g, p0.messages[static_cast<std::size_t>(bi.trap_msg)]);
        break;
      }
      if (++g.steps > max_steps) {
        retire_error(g, "step limit exceeded");
        break;
      }
      if (any_profile)
        for (const std::int32_t l : lanes_of(g))
          if (VmProfile* const prof = profile_of(l))
            ++prof->instr_executions[static_cast<std::size_t>(pc)];
      switch (bi.kind) {
      case BInst::Kind::Arith2:
      case BInst::Kind::ExactFixed2: {
        // Kinds may differ per lane (exact fixed only fires on fixed
        // result types), so dispatch on the lane's own instruction.
        const auto unpacked_one = [&](std::int32_t l)
            __attribute__((always_inline)) {
          const CompiledProgram& p = prog(l);
          const BInst& bl = inst(l, pc);
          double r;
          if (bl.kind == BInst::Kind::ExactFixed2) {
            const double a = fetch_exact(bl.a, l);
            const double b = fetch_exact(bl.b, l);
            r = bl.exact(
                p.exact_binds[static_cast<std::size_t>(bl.exact_bind)], a, b);
          } else {
            const double a = fetch_real(bl.a, l);
            const double b = fetch_real(bl.b, l);
            r = bl.kernel2(p.specs[static_cast<std::size_t>(bl.spec)], a, b);
          }
          reals[at(bl.dst, l)] = r;
          if (any_errors) {
            const double s = shadow_op2(bl.op, fetch_shadow(bl.a, l),
                                        fetch_shadow(bl.b, l));
            set_shadow(bl.dst, l, s);
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->instr[static_cast<std::size_t>(pc)], r, s, pc,
                     bl.src, g.steps);
          }
          bump(l, bl.op_counter);
          if (track_regs) observe_reg(l, bl.dst, r);
        };
        if (!kOne && !swar_spec.empty() &&
            (bi.op == Opcode::Add || bi.op == Opcode::Sub)) {
          // Pack maximal runs of adjacent same-spec eligible lanes.
          const auto eligible = [&](std::size_t k) {
            return swar_spec[at(pc, g.lanes[k])];
          };
          std::size_t i = 0;
          while (i < g.lanes.size()) {
            const numrep::FixedSpec* s = eligible(i);
            std::size_t j = i + 1;
            if (s)
              while (j < g.lanes.size() && eligible(j) && *eligible(j) == *s)
                ++j;
            if (j - i >= 2)
              swar_run(bi, pc, g, i, j, *s);
            else
              unpacked_one(g.lanes[i]);
            i = j;
          }
        } else {
          for (const std::int32_t l : lanes_of(g)) unpacked_one(l);
        }
        ++pc;
        break;
      }
      case BInst::Kind::Arith1: {
        for (const std::int32_t l : lanes_of(g)) {
          const BInst& bl = inst(l, pc);
          const double a = fetch_real(bl.a, l);
          const double r =
              bl.kernel1(prog(l).specs[static_cast<std::size_t>(bl.spec)], a);
          reals[at(bl.dst, l)] = r;
          if (any_errors) {
            const double s = shadow_op1(bl.op, fetch_shadow(bl.a, l));
            set_shadow(bl.dst, l, s);
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->instr[static_cast<std::size_t>(pc)], r, s, pc,
                     bl.src, g.steps);
          }
          bump(l, bl.op_counter);
          if (track_regs) observe_reg(l, bl.dst, r);
        }
        ++pc;
        break;
      }
      case BInst::Kind::CastReal: {
        for (const std::int32_t l : lanes_of(g)) {
          const BInst& bl = inst(l, pc);
          const double r = fetch_real(bl.a, l);
          reals[at(bl.dst, l)] = r;
          if (any_errors) {
            // Representation change only: the shadow value passes through.
            const double s = fetch_shadow(bl.a, l);
            set_shadow(bl.dst, l, s);
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->instr[static_cast<std::size_t>(pc)], r, s, pc,
                     bl.src, g.steps);
          }
          if (track_regs) observe_reg(l, bl.dst, r);
        }
        ++pc;
        break;
      }
      case BInst::Kind::IntToReal: {
        for (const std::int32_t l : lanes_of(g)) {
          const BInst& bl = inst(l, pc);
          const std::int64_t iv = geti(bi.ia, g, l);
          const double r =
              bl.a.conv(prog(l).specs[static_cast<std::size_t>(bl.a.spec)],
                        static_cast<double>(iv));
          reals[at(bl.dst, l)] = r;
          if (any_errors) {
            const double s = static_cast<double>(iv);
            set_shadow(bl.dst, l, s);
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->instr[static_cast<std::size_t>(pc)], r, s, pc,
                     bl.src, g.steps);
          }
          bump(l, bl.op_counter);
          if (track_regs) observe_reg(l, bl.dst, r);
        }
        ++pc;
        break;
      }
      case BInst::Kind::Load: {
        std::size_t flat = 0;
        if (!resolve_index(bi, pc, g, flat)) {
          running = false;
          break;
        }
        const bool uniform_index =
            kOne || !index_varying[static_cast<std::size_t>(pc)];
        for (const std::int32_t l : lanes_of(g)) {
          const BInst& bl = inst(l, pc);
          const std::size_t fi =
              uniform_index ? flat : lane_flat[static_cast<std::size_t>(l)];
          double v = (*buffers[at(bi.array, l)])[fi];
          if (bl.a.cast_counter >= 0) bump(l, bl.a.cast_counter);
          if (bl.a.conv)
            v = bl.a.conv(prog(l).specs[static_cast<std::size_t>(bl.a.spec)],
                          v);
          reals[at(bl.dst, l)] = v;
          if (any_errors) {
            const double s = shadow_buffers[at(bi.array, l)][fi];
            set_shadow(bl.dst, l, s);
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->instr[static_cast<std::size_t>(pc)], v, s, pc,
                     bl.src, g.steps);
          }
          if (track_regs) observe_reg(l, bl.dst, v);
        }
        ++g.non_real;
        ++pc;
        break;
      }
      case BInst::Kind::Store: {
        std::size_t flat = 0;
        if (!resolve_index(bi, pc, g, flat)) {
          running = false;
          break;
        }
        const bool uniform_index =
            kOne || !index_varying[static_cast<std::size_t>(pc)];
        for (const std::int32_t l : lanes_of(g)) {
          const BInst& bl = inst(l, pc);
          const std::size_t fi =
              uniform_index ? flat : lane_flat[static_cast<std::size_t>(l)];
          const double v = fetch_real(bl.a, l);
          (*buffers[at(bi.array, l)])[fi] = v;
          if (any_errors) {
            const double s = fetch_shadow(bl.a, l);
            shadow_buffers[at(bi.array, l)][fi] = s;
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->instr[static_cast<std::size_t>(pc)], v, s, pc,
                     bl.src, g.steps);
          }
          if (track_arrays)
            observe_array(
                l, p0.arrays[static_cast<std::size_t>(bi.array)].name, v);
        }
        ++g.non_real;
        ++pc;
        break;
      }
      case BInst::Kind::IntArith: {
        const auto eval = [&](std::int64_t a, std::int64_t b) {
          switch (bi.op) {
          case Opcode::IAdd: return a + b;
          case Opcode::ISub: return a - b;
          case Opcode::IMul: return a * b;
          case Opcode::IDiv: return b == 0 ? 0 : a / b;
          case Opcode::IRem: return b == 0 ? 0 : a % b;
          case Opcode::IMin: return std::min(a, b);
          case Opcode::IMax: return std::max(a, b);
          default: LUIS_UNREACHABLE("not an int op");
          }
        };
        if (varies(bi.dst)) {
          for (const std::int32_t l : lanes_of(g))
            vints[at(bi.dst, l)] = eval(geti(bi.ia, g, l), geti(bi.ib, g, l));
        } else {
          // Uniform dst implies uniform operands (taint analysis): the
          // shared control work runs once per group, not once per lane.
          const std::int32_t l0 = lead(g);
          g.uints[static_cast<std::size_t>(bi.dst)] =
              eval(geti(bi.ia, g, l0), geti(bi.ib, g, l0));
        }
        ++g.non_real;
        ++pc;
        break;
      }
      case BInst::Kind::IntCmp: {
        if (varies(bi.dst)) {
          for (const std::int32_t l : lanes_of(g))
            vbools[at(bi.dst, l)] =
                compare(bi.pred, geti(bi.ia, g, l), geti(bi.ib, g, l)) ? 1 : 0;
        } else {
          const std::int32_t l0 = lead(g);
          g.ubools[static_cast<std::size_t>(bi.dst)] =
              compare(bi.pred, geti(bi.ia, g, l0), geti(bi.ib, g, l0)) ? 1 : 0;
        }
        ++g.non_real;
        ++pc;
        break;
      }
      case BInst::Kind::RealCmp: {
        for (const std::int32_t l : lanes_of(g)) {
          const BInst& bl = inst(l, pc);
          const bool c =
              compare(bl.pred, fetch_real(bl.a, l), fetch_real(bl.b, l));
          // A RealCmp result varies across lanes whenever there are lanes.
          if constexpr (kOne)
            g.ubools[static_cast<std::size_t>(bi.dst)] = c ? 1 : 0;
          else
            vbools[at(bi.dst, l)] = c ? 1 : 0;
          if (any_errors) {
            if (ErrorProfile* const ep = errors_of(l)) {
              // Control stays lockstep on the quantized outcome; a
              // disagreement with the shadow values means an independent
              // binary64 run could take a different path from here on.
              const bool sc = compare(bl.pred, fetch_shadow(bl.a, l),
                                      fetch_shadow(bl.b, l));
              if (sc != c) {
                if (ep->control_divergences == 0)
                  ep->first_control_divergence_step = g.steps;
                ++ep->control_divergences;
              }
            }
          }
        }
        ++g.non_real;
        ++pc;
        break;
      }
      case BInst::Kind::SelectReal: {
        for (const std::int32_t l : lanes_of(g)) {
          const BInst& bl = inst(l, pc);
          const bool c = getb(bi.cond, g, l);
          if (any_profile && c)
            if (VmProfile* const prof = profile_of(l))
              ++prof->select_real_first[static_cast<std::size_t>(pc)];
          const double v = fetch_real(c ? bl.a : bl.b, l);
          reals[at(bl.dst, l)] = v;
          if (any_errors) {
            // The shadow takes the side the quantized condition chose.
            const double s = fetch_shadow(c ? bl.a : bl.b, l);
            set_shadow(bl.dst, l, s);
            if (ErrorProfile* const ep = errors_of(l))
              record(l, ep->instr[static_cast<std::size_t>(pc)], v, s, pc,
                     bl.src, g.steps);
          }
          if (track_regs) observe_reg(l, bl.dst, v);
        }
        ++g.non_real;
        ++pc;
        break;
      }
      case BInst::Kind::SelectInt: {
        if (varies(bi.dst)) {
          for (const std::int32_t l : lanes_of(g)) {
            const bool c = getb(bi.cond, g, l);
            vints[at(bi.dst, l)] = geti(c ? bi.ia : bi.ib, g, l);
          }
        } else {
          const std::int32_t l0 = lead(g);
          const bool c = getb(bi.cond, g, l0);
          g.uints[static_cast<std::size_t>(bi.dst)] =
              geti(c ? bi.ia : bi.ib, g, l0);
        }
        ++g.non_real;
        ++pc;
        break;
      }
      case BInst::Kind::Br:
        ++g.non_real;
        if (!apply_edge(g, bi.edge0)) {
          retire_error(g, edge_trap_message);
          running = false;
          break;
        }
        pc = p0.blocks[static_cast<std::size_t>(bi.target0)].entry;
        break;
      case BInst::Kind::CondBr: {
        ++g.non_real;
        const bool c0 = getb(bi.cond, g, lead(g));
        if (varies(bi.cond)) {
          // A varying condition may still agree across this group's lanes.
          std::vector<std::int32_t> taken, other;
          for (const std::int32_t l : g.lanes)
            (getb(bi.cond, g, l) == c0 ? taken : other).push_back(l);
          if (!other.empty()) {
            // Divergence: the not-taken half resumes later with a private
            // copy of the uniform registers and the same step count.
            Group rest;
            rest.lanes = std::move(other);
            rest.steps = g.steps;
            rest.non_real = g.non_real;
            rest.edge = c0 ? bi.edge1 : bi.edge0;
            rest.block = c0 ? bi.target1 : bi.target0;
            rest.uints = g.uints;
            rest.ubools = g.ubools;
            work.push_back(std::move(rest));
            g.lanes = std::move(taken);
          }
        }
        if (!apply_edge(g, c0 ? bi.edge0 : bi.edge1)) {
          retire_error(g, edge_trap_message);
          running = false;
          break;
        }
        pc = p0.blocks[static_cast<std::size_t>(c0 ? bi.target0 : bi.target1)]
                 .entry;
        break;
      }
      case BInst::Kind::Ret:
        retire_ok(g);
        running = false;
        break;
      case BInst::Kind::Trap:
        LUIS_UNREACHABLE("handled before the step check");
      }
    }
  }
  return results;
}

} // namespace

std::vector<RunResult>
run_batch_programs(std::span<const BatchLane> lanes, const ir::Function& f,
                   const BatchRunOptions& options) {
  LUIS_ASSERT(!lanes.empty(), "run_batch_programs needs at least one lane");
  return lanes.size() == 1 ? run_lanes<true>(lanes, f, options)
                           : run_lanes<false>(lanes, f, options);
}

} // namespace luis::interp
