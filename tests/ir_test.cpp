#include <gtest/gtest.h>

#include "ir/kernel_builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace luis::ir {
namespace {

/// A small loop-nest kernel used across the structural tests:
/// for i in [0,4): for j in [0,4): C[i][j] = A[i][j] * s + C[i][j]
Function* build_axpy_kernel(Module& m) {
  KernelBuilder kb(m, "axpy2d");
  Array* A = kb.array("A", {4, 4}, -1.0, 1.0);
  Array* C = kb.array("C", {4, 4}, -10.0, 10.0);
  RVal s = kb.real(0.5);
  kb.for_loop("i", 0, 4, [&](IVal i) {
    kb.for_loop("j", 0, 4, [&](IVal j) {
      RVal v = kb.load(A, {i, j}) * s + kb.load(C, {i, j});
      kb.store(v, C, {i, j});
    });
  });
  return kb.finish();
}

TEST(KernelBuilder, ProducesVerifiableLoopNest) {
  Module m;
  Function* f = build_axpy_kernel(m);
  const VerifyResult vr = verify(*f);
  EXPECT_TRUE(vr.ok()) << vr.message();
  // entry + 2 loops x 4 blocks each.
  EXPECT_EQ(f->blocks().size(), 9u);
  EXPECT_EQ(f->arrays().size(), 2u);
}

TEST(KernelBuilder, LoopPhiHasTwoIncomingEdges) {
  Module m;
  Function* f = build_axpy_kernel(m);
  int phi_count = 0;
  for (const auto& bb : f->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (!inst->is_phi()) continue;
      ++phi_count;
      EXPECT_EQ(inst->num_operands(), 2u);
      EXPECT_EQ(inst->type(), ScalarType::Int);
    }
  }
  EXPECT_EQ(phi_count, 2);
}

TEST(KernelBuilder, IfThenElseStructure) {
  Module m;
  KernelBuilder kb(m, "guarded");
  Array* A = kb.array("A", {8}, 0.0, 1.0);
  kb.for_loop("i", 0, 8, [&](IVal i) {
    kb.if_then_else(
        i < kb.idx(4), [&] { kb.store(kb.real(1.0), A, {i}); },
        [&] { kb.store(kb.real(2.0), A, {i}); });
  });
  Function* f = kb.finish();
  const VerifyResult vr = verify(*f);
  EXPECT_TRUE(vr.ok()) << vr.message();
}

TEST(KernelBuilder, ScalarCellsAreOneElementArrays) {
  Module m;
  KernelBuilder kb(m, "cells");
  ScalarCell sum = kb.scalar("sum", -100.0, 100.0);
  kb.set(sum, kb.real(0.0));
  kb.set(sum, kb.get(sum) + kb.real(1.0));
  Function* f = kb.finish();
  EXPECT_TRUE(verify(*f).ok());
  Array* cell = f->array_by_name("sum");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->element_count(), 1);
  ASSERT_TRUE(cell->range_annotation().has_value());
  EXPECT_DOUBLE_EQ(cell->range_annotation()->first, -100.0);
}

TEST(Verifier, CatchesUnterminatedBlock) {
  Module m;
  Function* f = m.add_function("bad");
  f->add_block("entry");
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("not terminated"), std::string::npos);
}

TEST(Verifier, CatchesPhiPredecessorMismatch) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  BasicBlock* next = f->add_block("next");
  IRBuilder b(f);
  b.set_insertion_block(entry);
  b.br(next);
  b.set_insertion_block(next);
  Instruction* phi = b.phi(ScalarType::Int);
  phi->add_incoming(f->const_int(0), next); // wrong: should be entry
  b.ret();
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("incoming blocks"), std::string::npos);
}

TEST(Verifier, CatchesUseBeforeDefInBlock) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  // Hand-build: %1 = add %0, 1.0 placed before %0 = add 1.0, 1.0
  auto later = std::make_unique<Instruction>(
      Opcode::Add, ScalarType::Real,
      std::vector<Value*>{f->const_real(1.0), f->const_real(1.0)});
  Instruction* later_ptr = later.get();
  auto first = std::make_unique<Instruction>(
      Opcode::Add, ScalarType::Real,
      std::vector<Value*>{later_ptr, f->const_real(1.0)});
  entry->append(std::move(first));
  entry->append(std::move(later));
  auto ret = std::make_unique<Instruction>(Opcode::Ret, ScalarType::Void,
                                           std::vector<Value*>{});
  entry->append(std::move(ret));
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("use before def"), std::string::npos);
}

TEST(Verifier, CatchesOperandTypeErrors) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  // add with an int operand.
  entry->append(std::make_unique<Instruction>(
      Opcode::Add, ScalarType::Real,
      std::vector<Value*>{f->const_int(1), f->const_real(1.0)}));
  entry->append(std::make_unique<Instruction>(Opcode::Ret, ScalarType::Void,
                                              std::vector<Value*>{}));
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("must be real"), std::string::npos);
}

TEST(Verifier, CatchesUnreachableBlock) {
  Module m;
  Function* f = m.add_function("bad");
  BasicBlock* entry = f->add_block("entry");
  BasicBlock* island = f->add_block("island");
  IRBuilder b(f);
  b.set_insertion_block(entry);
  b.ret();
  b.set_insertion_block(island);
  b.ret();
  const VerifyResult vr = verify(*f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("unreachable"), std::string::npos);
}

TEST(Dominators, LoopNestStructure) {
  Module m;
  Function* f = build_axpy_kernel(m);
  const auto idom = compute_dominators(*f);
  // Every reachable block is in the dominator map.
  EXPECT_EQ(idom.size(), f->blocks().size());
  // The entry dominates everything.
  for (const auto& bb : f->blocks())
    EXPECT_TRUE(dominates(idom, f->entry(), bb.get())) << bb->name();
  // An inner body never dominates the outer exit.
  const BasicBlock* inner_body = nullptr;
  const BasicBlock* outer_exit = nullptr;
  for (const auto& bb : f->blocks()) {
    if (bb->name().find("j.body") == 0) inner_body = bb.get();
    if (bb->name().find("i.exit") == 0) outer_exit = bb.get();
  }
  ASSERT_NE(inner_body, nullptr);
  ASSERT_NE(outer_exit, nullptr);
  EXPECT_FALSE(dominates(idom, inner_body, outer_exit));
}

TEST(Printer, RoundTripsThroughParser) {
  Module m1;
  Function* f1 = build_axpy_kernel(m1);
  const std::string text1 = print_function(*f1);

  Module m2;
  const ParseResult parsed = parse_function(m2, text1);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const VerifyResult vr = verify(*parsed.function);
  EXPECT_TRUE(vr.ok()) << vr.message();

  // The round trip is a fixed point of printing.
  const std::string text2 = print_function(*parsed.function);
  EXPECT_EQ(text1, text2);
}

TEST(Printer, RoundTripsControlFlowAndMathOps) {
  Module m1;
  KernelBuilder kb(m1, "mixed");
  Array* A = kb.array("A", {4}, 0.1, 4.0);
  ScalarCell acc = kb.scalar("acc", 0.0, 100.0);
  kb.set(acc, kb.real(0.0));
  kb.for_loop("i", 0, 4, [&](IVal i) {
    RVal x = kb.load(A, {i});
    RVal y = kb.sqrt(x) + kb.exp(kb.neg(x));
    kb.if_then(kb.fcmp(CmpPred::GT, y, kb.real(1.0)),
               [&] { kb.set(acc, kb.get(acc) + y); });
    RVal clamped = kb.select(y > kb.real(2.0), kb.real(2.0), y);
    kb.store(clamped, A, {i});
  });
  Function* f1 = kb.finish();
  ASSERT_TRUE(verify(*f1).ok()) << verify(*f1).message();

  const std::string text1 = print_function(*f1);
  Module m2;
  const ParseResult parsed = parse_function(m2, text1);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(verify(*parsed.function).ok()) << verify(*parsed.function).message();
  EXPECT_EQ(print_function(*parsed.function), text1);
}

TEST(Parser, ReadsArrayAnnotations) {
  Module m;
  const ParseResult parsed = parse_function(m, R"(func @tiny {
  array @A[2][3] range [-2.5, 7]
entry:
  %0 = load @A[0][1]
  store %0, @A[1][2]
  ret
})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Array* a = parsed.function->array_by_name("A");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->rank(), 2u);
  EXPECT_EQ(a->dims()[1], 3);
  ASSERT_TRUE(a->range_annotation().has_value());
  EXPECT_DOUBLE_EQ(a->range_annotation()->first, -2.5);
  EXPECT_DOUBLE_EQ(a->range_annotation()->second, 7.0);
}

TEST(Parser, RejectsMalformedInput) {
  Module m;
  EXPECT_FALSE(parse_function(m, "not a function").ok());
  EXPECT_FALSE(parse_function(m, "func @f {\nentry:\n  %0 = bogus 1, 2\n}").ok());
  EXPECT_FALSE(parse_function(m, "func @f {\nentry:\n  br nowhere\n}").ok());
  EXPECT_FALSE(
      parse_function(m, "func @f {\nentry:\n  %0x = add 1.0, 2.0\n  ret\n}")
          .ok());
  EXPECT_FALSE(parse_function(m, "func @f {\nentry:\n  ret 0\n}").ok());
}

// Every operand, extent and range token must parse in full: a token with
// trailing garbage is an error naming its line, never silently read as
// its numeric prefix.
std::string parse_error(const std::string& array_decl,
                        const std::string& store_addr) {
  Module m;
  return parse_function(m, "func @f {\n  " + array_decl + "\nentry:\n" +
                               "  %0 = load @C[0][1]\n" +
                               "  store %0, " + store_addr + "\n  ret\n}")
      .error;
}

TEST(Parser, RejectsCommaInsideIndex) {
  const std::string err = parse_error("array @C[2][3]", "@C[%0,%0][1]");
  EXPECT_NE(err.find("line 5"), std::string::npos) << err;
  EXPECT_NE(err.find("'%0,%0'"), std::string::npos) << err;
}

TEST(Parser, RejectsTrailingGarbageInId) {
  const std::string err = parse_error("array @C[2][3]", "@C[%0xyz][1]");
  EXPECT_NE(err.find("line 5"), std::string::npos) << err;
  EXPECT_NE(err.find("'%0xyz'"), std::string::npos) << err;
}

TEST(Parser, RejectsNonNumericIndex) {
  const std::string err = parse_error("array @C[2][3]", "@C[abc][1]");
  EXPECT_NE(err.find("line 5"), std::string::npos) << err;
  EXPECT_NE(err.find("'abc'"), std::string::npos) << err;
}

TEST(Parser, RejectsNonNumericExtent) {
  const std::string err = parse_error("array @C[x2][3]", "@C[1][0]");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("'x2'"), std::string::npos) << err;
}

TEST(Parser, RejectsMalformedRangeBound) {
  const std::string err =
      parse_error("array @C[2][3] range [-1.5x, 2]", "@C[1][0]");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Function, ConstantInterning) {
  Module m;
  Function* f = m.add_function("f");
  EXPECT_EQ(f->const_real(1.5), f->const_real(1.5));
  EXPECT_NE(f->const_real(1.5), f->const_real(2.5));
  EXPECT_EQ(f->const_int(3), f->const_int(3));
}

TEST(Function, InstructionCountAndLookup) {
  Module m;
  Function* f = build_axpy_kernel(m);
  EXPECT_GE(f->instruction_count(), 20u);
  EXPECT_NE(f->array_by_name("A"), nullptr);
  EXPECT_EQ(f->array_by_name("nope"), nullptr);
  EXPECT_NE(f->block_by_name("entry"), nullptr);
  EXPECT_NE(m.function_by_name("axpy2d"), nullptr);
}

TEST(BasicBlock, InsertBeforePlacesInstruction) {
  Module m;
  Function* f = m.add_function("f");
  BasicBlock* entry = f->add_block("entry");
  IRBuilder b(f);
  b.set_insertion_block(entry);
  Instruction* a = b.add(f->const_real(1.0), f->const_real(2.0));
  b.ret();
  auto cast = std::make_unique<Instruction>(Opcode::Cast, ScalarType::Real,
                                            std::vector<Value*>{a});
  Instruction* inserted = entry->insert_before(entry->instructions()[1].get(),
                                               std::move(cast));
  EXPECT_EQ(entry->instructions()[1].get(), inserted);
  EXPECT_EQ(entry->instructions().size(), 3u);
  EXPECT_TRUE(verify(*f).ok());
}

} // namespace
} // namespace luis::ir
