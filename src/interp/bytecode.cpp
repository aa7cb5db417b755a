#include "interp/bytecode.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "ir/printer.hpp"
#include "numrep/quantize.hpp"
#include "support/diag.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"

namespace luis::interp {

using ir::Instruction;
using ir::Opcode;
using ir::ScalarType;
using numrep::ConcreteType;

namespace {

numrep::KernelOp2 kernel_op2(Opcode op) {
  switch (op) {
  case Opcode::Add: return numrep::KernelOp2::Add;
  case Opcode::Sub: return numrep::KernelOp2::Sub;
  case Opcode::Mul: return numrep::KernelOp2::Mul;
  case Opcode::Div: return numrep::KernelOp2::Div;
  case Opcode::Rem: return numrep::KernelOp2::Rem;
  case Opcode::Pow: return numrep::KernelOp2::Pow;
  case Opcode::Min: return numrep::KernelOp2::Min;
  case Opcode::Max: return numrep::KernelOp2::Max;
  default: LUIS_UNREACHABLE("not a binary real op");
  }
}

numrep::KernelOp1 kernel_op1(Opcode op) {
  switch (op) {
  case Opcode::Neg: return numrep::KernelOp1::Neg;
  case Opcode::Abs: return numrep::KernelOp1::Abs;
  case Opcode::Sqrt: return numrep::KernelOp1::Sqrt;
  case Opcode::Exp: return numrep::KernelOp1::Exp;
  default: LUIS_UNREACHABLE("not a unary real op");
  }
}

double const_real_value(const ir::Value* v) {
  return static_cast<const ir::ConstReal*>(v)->value();
}

/// Lowers one Function against N type assignments ("lanes") in a single
/// IR walk. Everything structural — register numbering, pc layout, block
/// entries, branch targets, edge/move ids, trap placement — is computed
/// once and is identical across lanes by construction; the per-lane loop
/// only re-resolves the type-dependent bindings (kernels, specs,
/// immediates, conversions, cast counters). The batched executor depends
/// on that skeleton identity.
class Compiler {
public:
  Compiler(const ir::Function& f, std::span<const TypeAssignment* const> lanes,
           const CompileOptions& options)
      : f_(f), opt_(options), lanes_(lanes.size()) {
    LUIS_ASSERT(!lanes.empty(), "compile_programs needs at least one lane");
    for (std::size_t i = 0; i < lanes.size(); ++i) lanes_[i].types = lanes[i];
  }

  std::vector<CompiledProgram> compile() {
    // Dense register slots: one per instruction, in block order (the same
    // ordinal the reference interpreter's slot map uses).
    std::int32_t n = 0;
    for (const auto& bb : f_.blocks())
      for (const auto& inst : bb->instructions()) reg_[inst.get()] = n++;

    for (Lane& L : lanes_) {
      L.p.function_name = f_.name();
      L.p.options = opt_;
      L.p.num_regs = n;
      L.p.source_instruction_count = static_cast<std::size_t>(n);
    }

    for (const auto& arr : f_.arrays()) {
      array_id_[arr.get()] =
          static_cast<std::int32_t>(lanes_[0].p.arrays.size());
      for (Lane& L : lanes_) {
        ArrayBinding ab;
        ab.name = arr->name();
        ab.dims.assign(arr->dims().begin(), arr->dims().end());
        ab.element_count = arr->element_count();
        const ConcreteType at = L.types->of(arr.get());
        ab.spec = spec_id(L, at);
        ab.init_conv = numrep::bind_quantizer(at);
        L.p.arrays.push_back(std::move(ab));
      }
    }

    for (std::size_t i = 0; i < f_.blocks().size(); ++i)
      block_id_[f_.blocks()[i].get()] = static_cast<std::int32_t>(i);
    for (Lane& L : lanes_) L.p.blocks.resize(f_.blocks().size());

    for (std::size_t i = 0; i < f_.blocks().size(); ++i)
      compile_block(static_cast<std::int32_t>(i), *f_.blocks()[i]);

    if (!f_.blocks().empty()) {
      const std::int32_t entry = edge_id(f_.entry(), nullptr);
      for (Lane& L : lanes_) L.p.entry_edge = entry;
    }
    std::vector<CompiledProgram> out;
    out.reserve(lanes_.size());
    for (Lane& L : lanes_) out.push_back(std::move(L.p));
    return out;
  }

private:
  /// Per-lane compilation state: the program under construction plus the
  /// lane-local interning tables (counter slots, quant specs, exact binds
  /// depend on the lane's types, so their ids are lane-private).
  struct Lane {
    const TypeAssignment* types = nullptr;
    CompiledProgram p;
    std::map<std::pair<std::string, std::string>, std::int32_t> counter_ids;
    std::vector<ConcreteType> spec_types; ///< parallel to p.specs
  };

  std::int32_t reg(const ir::Value* v) const { return reg_.at(v); }

  std::int32_t counter_id(Lane& L, const std::string& op,
                          const std::string& type) {
    const auto key = std::make_pair(op, type);
    const auto it = L.counter_ids.find(key);
    if (it != L.counter_ids.end()) return it->second;
    const auto id = static_cast<std::int32_t>(L.p.counter_keys.size());
    L.p.counter_keys.push_back(key);
    L.counter_ids.emplace(key, id);
    return id;
  }

  std::int32_t spec_id(Lane& L, const ConcreteType& type) {
    for (std::size_t i = 0; i < L.spec_types.size(); ++i)
      if (L.spec_types[i] == type) return static_cast<std::int32_t>(i);
    L.spec_types.push_back(type);
    L.p.specs.push_back(numrep::make_quant_spec(type));
    return static_cast<std::int32_t>(L.p.specs.size() - 1);
  }

  /// Messages are emitted at structurally determined points, so the id is
  /// the same in every lane; intern into all of them and return it.
  std::int32_t message_id(const std::string& message) {
    std::int32_t id = -1;
    for (Lane& L : lanes_) {
      std::int32_t lane_id = -1;
      for (std::size_t i = 0; i < L.p.messages.size(); ++i)
        if (L.p.messages[i] == message) {
          lane_id = static_cast<std::int32_t>(i);
          break;
        }
      if (lane_id < 0) {
        lane_id = static_cast<std::int32_t>(L.p.messages.size());
        L.p.messages.push_back(message);
      }
      LUIS_ASSERT(id < 0 || id == lane_id, "message ids diverged across lanes");
      id = lane_id;
    }
    return id;
  }

  std::int32_t exact_bind_id(Lane& L, const numrep::ExactFixedBind& bind) {
    for (std::size_t i = 0; i < L.p.exact_binds.size(); ++i)
      if (L.p.exact_binds[i].a == bind.a && L.p.exact_binds[i].b == bind.b &&
          L.p.exact_binds[i].out == bind.out)
        return static_cast<std::int32_t>(i);
    L.p.exact_binds.push_back(bind);
    return static_cast<std::int32_t>(L.p.exact_binds.size() - 1);
  }

  IntArg int_arg(const ir::Value* v) {
    IntArg a;
    if (v->kind() == ir::Value::Kind::ConstInt)
      a.imm = static_cast<const ir::ConstInt*>(v)->value();
    else
      a.reg = reg(v);
    return a;
  }

  /// Resolves a real operand with the reference interpreter's
  /// real_operand() semantics: constants materialize in the target format
  /// when aligned (raw otherwise, never billed); register operands bill a
  /// cast when the formats differ — except the fixed->fixed realignment of
  /// a non-aligning op, which is folded into the op's own rescale — and
  /// are numerically converted only when aligned.
  RealArg real_arg(Lane& L, const ir::Value* v, const ConcreteType& target,
                   bool align) {
    RealArg a;
    if (v->is_constant()) {
      const double raw = const_real_value(v);
      a.imm = align ? numrep::quantize(target, raw) : raw;
      a.shadow_imm = raw;
      return a;
    }
    a.reg = reg(v);
    const ConcreteType& from = L.types->of(v);
    if (from == target) return a;
    const bool folded_shift =
        !align && from.format.is_fixed() && target.format.is_fixed();
    if (!folded_shift)
      a.cast_counter =
          counter_id(L, "cast_" + cost_class(from), cost_class(target));
    if (align) {
      a.conv = numrep::bind_quantizer(target);
      a.spec = spec_id(L, target);
    }
    return a;
  }

  /// Rewrites an already-billed operand for the exact fixed point path,
  /// which reads raw stored values: alignment conversion dropped,
  /// constants kept unquantized.
  void make_raw(RealArg& a, const ir::Value* v) {
    a.conv = nullptr;
    a.spec = -1;
    if (v->is_constant()) a.imm = const_real_value(v);
  }

  /// The phi moves for entering `to` from `from` (nullptr = function
  /// entry), deduplicated per edge. A phi with no matching incoming edge
  /// turns the whole edge into a trap, exactly like the reference
  /// interpreter erroring before it commits the batch. Whether an edge
  /// traps and how many moves it has are type-independent, so the edge id
  /// and move slice layout are shared across lanes.
  std::int32_t edge_id(const ir::BasicBlock* to, const ir::BasicBlock* from) {
    const auto key = std::make_pair(to, from);
    const auto it = edge_ids_.find(key);
    if (it != edge_ids_.end()) return it->second;

    // Resolve the incoming operand of each leading phi once.
    const auto& insts = to->instructions();
    std::vector<std::pair<const Instruction*, int>> phis;
    bool trap = false;
    for (std::size_t i = 0; i < insts.size() && insts[i]->is_phi(); ++i) {
      const Instruction* phi = insts[i].get();
      int incoming = -1;
      for (std::size_t k = 0; k < phi->incoming_blocks().size(); ++k)
        if (phi->incoming_blocks()[k] == from) incoming = static_cast<int>(k);
      if (incoming < 0) {
        trap = true;
        break;
      }
      phis.emplace_back(phi, incoming);
    }

    std::int32_t trap_id = -1;
    if (trap) trap_id = message_id("phi has no incoming edge for predecessor");

    std::int32_t id = -1;
    for (Lane& L : lanes_) {
      EdgeMoves e;
      e.start = static_cast<std::int32_t>(L.p.moves.size());
      e.trap_msg = trap_id;
      if (!trap) {
        for (const auto& [phi, incoming] : phis) {
          PhiMove m;
          m.dst = reg(phi);
          const ir::Value* in =
              phi->operand(static_cast<std::size_t>(incoming));
          if (phi->type() == ScalarType::Int) {
            m.isrc = int_arg(in);
          } else {
            m.is_real = true;
            const ConcreteType to_ty = L.types->of(phi);
            if (in->is_constant()) {
              m.rsrc.imm = numrep::quantize(to_ty, const_real_value(in));
              m.rsrc.shadow_imm = const_real_value(in);
            } else {
              m.rsrc.reg = reg(in);
              const ConcreteType& from_ty = L.types->of(in);
              if (!(from_ty == to_ty)) {
                m.rsrc.cast_counter = counter_id(
                    L, "cast_" + cost_class(from_ty), cost_class(to_ty));
                m.rsrc.conv = numrep::bind_quantizer(to_ty);
                m.rsrc.spec = spec_id(L, to_ty);
              }
            }
          }
          L.p.moves.push_back(m);
          ++e.count;
        }
      }
      const auto lane_id = static_cast<std::int32_t>(L.p.edges.size());
      L.p.edges.push_back(e);
      LUIS_ASSERT(id < 0 || id == lane_id, "edge ids diverged across lanes");
      id = lane_id;
    }
    edge_ids_.emplace(key, id);
    return id;
  }

  void compile_block(std::int32_t id, const ir::BasicBlock& bb) {
    for (Lane& L : lanes_)
      L.p.blocks[static_cast<std::size_t>(id)].entry =
          static_cast<std::int32_t>(L.p.code.size());
    const auto& insts = bb.instructions();
    std::size_t i = 0;
    while (i < insts.size() && insts[i]->is_phi()) ++i; // edges carry these
    bool terminated = false;
    for (; i < insts.size(); ++i) {
      const Instruction* inst = insts[i].get();
      LUIS_ASSERT(!inst->is_phi(), "phi in non-leading position");
      if (inst->is_terminator()) {
        compile_terminator(&bb, inst);
        terminated = true;
        break;
      }
      for (Lane& L : lanes_) compile_instruction(L, inst);
    }
    if (!terminated) {
      BInst bi;
      bi.kind = BInst::Kind::Trap;
      bi.trap_msg = message_id("block fell through without a terminator");
      for (Lane& L : lanes_) L.p.code.push_back(bi);
    }
  }

  void compile_terminator(const ir::BasicBlock* from, const Instruction* inst) {
    BInst bi;
    bi.op = inst->opcode();
    bi.src = reg(inst);
    switch (inst->opcode()) {
    case Opcode::Ret:
      bi.kind = BInst::Kind::Ret;
      break;
    case Opcode::Br:
      bi.kind = BInst::Kind::Br;
      bi.target0 = block_id_.at(inst->target(0));
      bi.edge0 = edge_id(inst->target(0), from);
      break;
    case Opcode::CondBr:
      bi.kind = BInst::Kind::CondBr;
      bi.cond = reg(inst->operand(0));
      bi.target0 = block_id_.at(inst->target(0));
      bi.edge0 = edge_id(inst->target(0), from);
      bi.target1 = block_id_.at(inst->target(1));
      bi.edge1 = edge_id(inst->target(1), from);
      break;
    default: LUIS_UNREACHABLE("not a terminator");
    }
    // Terminators carry no type-dependent state: one BInst for every lane.
    for (Lane& L : lanes_) L.p.code.push_back(bi);
  }

  void compile_instruction(Lane& L, const Instruction* inst) {
    BInst bi;
    bi.op = inst->opcode();
    bi.dst = reg(inst);
    bi.src = bi.dst;
    const ConcreteType ty = L.types->of(inst);
    switch (inst->opcode()) {
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
    case Opcode::Rem: case Opcode::Pow: case Opcode::Min: case Opcode::Max: {
      // Additive ops align operands into the result format; multiplicative
      // ones rescale only the result.
      const bool align = inst->opcode() == Opcode::Add ||
                         inst->opcode() == Opcode::Sub ||
                         inst->opcode() == Opcode::Min ||
                         inst->opcode() == Opcode::Max;
      bi.a = real_arg(L, inst->operand(0), ty, align);
      bi.b = real_arg(L, inst->operand(1), ty, align);
      bi.op_counter =
          counter_id(L, ir::opcode_name(inst->opcode()), cost_class(ty));
      bool exact = false;
      if (opt_.exact_fixed_arithmetic && ty.format.is_fixed()) {
        const auto operand_type = [&](const ir::Value* v) {
          return v->is_constant() ? ty : L.types->of(v);
        };
        const ConcreteType ta = operand_type(inst->operand(0));
        const ConcreteType tb = operand_type(inst->operand(1));
        const numrep::ExactKernel kernel =
            numrep::bind_exact_fixed(kernel_op2(inst->opcode()));
        if (kernel && ta.format.is_fixed() && tb.format.is_fixed()) {
          bi.kind = BInst::Kind::ExactFixed2;
          bi.exact = kernel;
          bi.exact_bind =
              exact_bind_id(L, {numrep::FixedSpec::from(ta),
                                numrep::FixedSpec::from(tb),
                                numrep::FixedSpec::from(ty)});
          make_raw(bi.a, inst->operand(0));
          make_raw(bi.b, inst->operand(1));
          exact = true;
        }
      }
      if (!exact) {
        bi.kind = BInst::Kind::Arith2;
        bi.kernel2 = numrep::bind_kernel2(kernel_op2(inst->opcode()), ty);
        bi.spec = spec_id(L, ty);
      }
      break;
    }
    case Opcode::Neg: case Opcode::Abs: case Opcode::Sqrt: case Opcode::Exp:
      bi.kind = BInst::Kind::Arith1;
      bi.a = real_arg(L, inst->operand(0), ty, /*align=*/false);
      bi.kernel1 = numrep::bind_kernel1(kernel_op1(inst->opcode()), ty);
      bi.spec = spec_id(L, ty);
      bi.op_counter =
          counter_id(L, ir::opcode_name(inst->opcode()), cost_class(ty));
      break;
    case Opcode::Cast:
      // Explicit representation change: the conversion cost is carried by
      // the operand fetch.
      bi.kind = BInst::Kind::CastReal;
      bi.a = real_arg(L, inst->operand(0), ty, /*align=*/true);
      break;
    case Opcode::IntToReal:
      bi.kind = BInst::Kind::IntToReal;
      bi.ia = int_arg(inst->operand(0));
      bi.a.conv = numrep::bind_quantizer(ty);
      bi.a.spec = spec_id(L, ty);
      bi.op_counter = counter_id(L, "cast_fix", cost_class(ty));
      break;
    case Opcode::Load: {
      const auto* arr = static_cast<const ir::Array*>(inst->operand(0));
      bi.kind = BInst::Kind::Load;
      bi.array = array_id_.at(arr);
      compile_indices(L, bi, inst, 1, arr);
      const ConcreteType at = L.types->of(arr);
      if (!(at == ty)) {
        bi.a.cast_counter =
            counter_id(L, "cast_" + cost_class(at), cost_class(ty));
        bi.a.conv = numrep::bind_quantizer(ty);
        bi.a.spec = spec_id(L, ty);
      }
      break;
    }
    case Opcode::Store: {
      const auto* arr = static_cast<const ir::Array*>(inst->operand(1));
      bi.kind = BInst::Kind::Store;
      bi.array = array_id_.at(arr);
      bi.a = real_arg(L, inst->operand(0), L.types->of(arr), /*align=*/true);
      compile_indices(L, bi, inst, 2, arr);
      break;
    }
    case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul:
    case Opcode::IDiv: case Opcode::IRem: case Opcode::IMin:
    case Opcode::IMax:
      bi.kind = BInst::Kind::IntArith;
      bi.ia = int_arg(inst->operand(0));
      bi.ib = int_arg(inst->operand(1));
      break;
    case Opcode::ICmp:
      bi.kind = BInst::Kind::IntCmp;
      bi.pred = inst->predicate();
      bi.ia = int_arg(inst->operand(0));
      bi.ib = int_arg(inst->operand(1));
      break;
    case Opcode::FCmp:
      // Comparison happens on the stored representations directly.
      bi.kind = BInst::Kind::RealCmp;
      bi.pred = inst->predicate();
      bi.a = real_arg(L, inst->operand(0), ty, /*align=*/false);
      bi.b = real_arg(L, inst->operand(1), ty, /*align=*/false);
      bi.a.cast_counter = bi.b.cast_counter = -1; // raw reads, never billed
      break;
    case Opcode::Select:
      bi.cond = reg(inst->operand(0));
      if (inst->type() == ScalarType::Int) {
        bi.kind = BInst::Kind::SelectInt;
        bi.ia = int_arg(inst->operand(1));
        bi.ib = int_arg(inst->operand(2));
      } else {
        bi.kind = BInst::Kind::SelectReal;
        bi.a = real_arg(L, inst->operand(1), ty, /*align=*/true);
        bi.b = real_arg(L, inst->operand(2), ty, /*align=*/true);
      }
      break;
    case Opcode::Phi: case Opcode::Br: case Opcode::CondBr: case Opcode::Ret:
      LUIS_UNREACHABLE("handled by the block walk");
    }
    L.p.code.push_back(std::move(bi));
  }

  void compile_indices(Lane& L, BInst& bi, const Instruction* inst,
                       std::size_t first_operand, const ir::Array* arr) {
    bi.index_start = static_cast<std::int32_t>(L.p.index_args.size());
    bi.index_count = static_cast<std::int32_t>(arr->dims().size());
    for (std::size_t d = 0; d < arr->dims().size(); ++d)
      L.p.index_args.push_back(int_arg(inst->operand(first_operand + d)));
  }

  const ir::Function& f_;
  const CompileOptions opt_;
  std::vector<Lane> lanes_;
  std::map<const ir::Value*, std::int32_t> reg_;
  std::map<const ir::BasicBlock*, std::int32_t> block_id_;
  std::map<const ir::Array*, std::int32_t> array_id_;
  std::map<std::pair<const ir::BasicBlock*, const ir::BasicBlock*>,
           std::int32_t>
      edge_ids_;
};

} // namespace

CompiledProgram compile_program(const ir::Function& f,
                                const TypeAssignment& types,
                                const CompileOptions& options) {
  const TypeAssignment* const one[] = {&types};
  return std::move(Compiler(f, one, options).compile().front());
}

std::vector<CompiledProgram>
compile_programs(const ir::Function& f,
                 std::span<const TypeAssignment* const> lanes,
                 const CompileOptions& options) {
  return Compiler(f, lanes, options).compile();
}

void finalize_error_profile(
    ErrorProfile& ep, const CompiledProgram& p,
    std::span<const std::vector<double>* const> quantized,
    std::span<const std::vector<double>* const> shadow) {
  LUIS_ASSERT(quantized.size() == p.arrays.size() &&
                  shadow.size() == p.arrays.size(),
              "error-profile finalization needs one buffer pair per array");
  std::vector<std::uint8_t> is_stored(p.arrays.size(), 0);
  for (const BInst& bi : p.code)
    if (bi.kind == BInst::Kind::Store && bi.array >= 0)
      is_stored[static_cast<std::size_t>(bi.array)] = 1;

  // Whole-program MPE: the stored-to arrays concatenated in binding order,
  // shadow as the reference — the same mean_percentage_error definition
  // the sweep driver applies to its binary64 baseline.
  std::vector<double> all_q, all_s;
  for (std::size_t ai = 0; ai < p.arrays.size(); ++ai) {
    const std::vector<double>& q = *quantized[ai];
    const std::vector<double>& s = *shadow[ai];
    ArrayErrorStats st;
    st.name = p.arrays[ai].name;
    st.stored = is_stored[ai] != 0;
    st.elements = static_cast<long>(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!std::isfinite(q[i]) || !std::isfinite(s[i])) st.finite = false;
      double abs_err = std::fabs(q[i] - s[i]);
      if (std::isnan(abs_err))
        abs_err = std::numeric_limits<double>::infinity();
      st.max_abs = std::max(st.max_abs, abs_err);
      if (std::fabs(s[i]) > 0.0)
        st.max_rel = std::max(st.max_rel, abs_err / std::fabs(s[i]));
      else if (abs_err > 0.0)
        st.max_rel = std::numeric_limits<double>::infinity();
    }
    st.mpe = mean_percentage_error(s, q);
    if (st.stored) {
      all_q.insert(all_q.end(), q.begin(), q.end());
      all_s.insert(all_s.end(), s.begin(), s.end());
    }
    ep.shadow_arrays[st.name] = s;
    ep.arrays.push_back(std::move(st));
  }
  ep.program_mpe = mean_percentage_error(all_s, all_q);
  ep.finalized = true;
}

std::string disassemble(const CompiledProgram& p) {
  std::string out = "program " + p.function_name +
                    format_string(": %d regs, %zu blocks, %zu counters\n",
                                  p.num_regs, p.blocks.size(),
                                  p.counter_keys.size());
  const auto real_arg_text = [](const RealArg& a) {
    std::string s = a.reg >= 0 ? format_string("r%d", a.reg)
                               : format_string("#%g", a.imm);
    if (a.conv) s += "!";             // aligned into the result format
    if (a.cast_counter >= 0) s += "$"; // fetch bills a cast
    return s;
  };
  const auto int_arg_text = [](const IntArg& a) {
    return a.reg >= 0 ? format_string("r%d", a.reg)
                      : format_string("#%lld", static_cast<long long>(a.imm));
  };
  for (std::size_t b = 0; b < p.blocks.size(); ++b) {
    out += format_string("b%zu:\n", b);
    const std::int32_t end = b + 1 < p.blocks.size()
                                 ? p.blocks[b + 1].entry
                                 : static_cast<std::int32_t>(p.code.size());
    for (std::int32_t pc = p.blocks[b].entry; pc < end; ++pc) {
      const BInst& bi = p.code[static_cast<std::size_t>(pc)];
      out += format_string("  %4d: ", pc);
      switch (bi.kind) {
      case BInst::Kind::Arith2:
      case BInst::Kind::ExactFixed2:
        out += format_string("r%d = %s%s %s, %s", bi.dst,
                             ir::opcode_name(bi.op),
                             bi.kind == BInst::Kind::ExactFixed2 ? ".exact" : "",
                             real_arg_text(bi.a).c_str(),
                             real_arg_text(bi.b).c_str());
        break;
      case BInst::Kind::Arith1:
        out += format_string("r%d = %s %s", bi.dst, ir::opcode_name(bi.op),
                             real_arg_text(bi.a).c_str());
        break;
      case BInst::Kind::CastReal:
        out += format_string("r%d = cast %s", bi.dst,
                             real_arg_text(bi.a).c_str());
        break;
      case BInst::Kind::IntToReal:
        out += format_string("r%d = inttoreal %s", bi.dst,
                             int_arg_text(bi.ia).c_str());
        break;
      case BInst::Kind::Load:
      case BInst::Kind::Store: {
        std::string idx;
        for (std::int32_t d = 0; d < bi.index_count; ++d) {
          if (d) idx += ", ";
          idx += int_arg_text(
              p.index_args[static_cast<std::size_t>(bi.index_start + d)]);
        }
        const std::string& arr =
            p.arrays[static_cast<std::size_t>(bi.array)].name;
        if (bi.kind == BInst::Kind::Load)
          out += format_string("r%d = load @%s[%s]", bi.dst, arr.c_str(),
                               idx.c_str());
        else
          out += format_string("store %s -> @%s[%s]",
                               real_arg_text(bi.a).c_str(), arr.c_str(),
                               idx.c_str());
        break;
      }
      case BInst::Kind::IntArith:
        out += format_string("r%d = %s %s, %s", bi.dst, ir::opcode_name(bi.op),
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::IntCmp:
        out += format_string("r%d = icmp %s %s, %s", bi.dst,
                             ir::to_string(bi.pred),
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::RealCmp:
        out += format_string("r%d = fcmp %s %s, %s", bi.dst,
                             ir::to_string(bi.pred),
                             real_arg_text(bi.a).c_str(),
                             real_arg_text(bi.b).c_str());
        break;
      case BInst::Kind::SelectReal:
        out += format_string("r%d = select r%d, %s, %s", bi.dst, bi.cond,
                             real_arg_text(bi.a).c_str(),
                             real_arg_text(bi.b).c_str());
        break;
      case BInst::Kind::SelectInt:
        out += format_string("r%d = select r%d, %s, %s", bi.dst, bi.cond,
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::Br:
        out += format_string("br b%d", bi.target0);
        break;
      case BInst::Kind::CondBr:
        out += format_string("condbr r%d, b%d, b%d", bi.cond, bi.target0,
                             bi.target1);
        break;
      case BInst::Kind::Ret:
        out += "ret";
        break;
      case BInst::Kind::Trap:
        out += "trap \"" +
               p.messages[static_cast<std::size_t>(bi.trap_msg)] + "\"";
        break;
      }
      out += "\n";
    }
  }
  return out;
}

std::string program_cache_key(const ir::Function& f,
                              const TypeAssignment& types,
                              const CompileOptions& options) {
  std::string key = options.exact_fixed_arithmetic ? "exact_fixed\n" : "model\n";
  key += ir::print_function(f);
  key += "#types\n";
  for (const auto& arr : f.arrays()) {
    key += types.of(arr.get()).name();
    key += '\n';
  }
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ScalarType::Real) {
        key += types.of(inst.get()).name();
        key += '\n';
      }
  return key;
}

} // namespace luis::interp
