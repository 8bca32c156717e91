/**
 * @file
 * Unit tests for the IR: types and layout, constants, builder, printer,
 * and the verifier's acceptance/rejection behaviour.
 */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/semantics.h"
#include "ir/verifier.h"

namespace sulong
{
namespace
{

TEST(TypeTest, PrimitiveSizesMatchLP64)
{
    TypeContext types;
    EXPECT_EQ(types.i1()->size(), 1u);
    EXPECT_EQ(types.i8()->size(), 1u);
    EXPECT_EQ(types.i16()->size(), 2u);
    EXPECT_EQ(types.i32()->size(), 4u);
    EXPECT_EQ(types.i64()->size(), 8u);
    EXPECT_EQ(types.f32()->size(), 4u);
    EXPECT_EQ(types.f64()->size(), 8u);
    EXPECT_EQ(types.ptr()->size(), 8u);
    EXPECT_EQ(types.voidTy()->size(), 0u);
}

TEST(TypeTest, IntBits)
{
    TypeContext types;
    EXPECT_EQ(types.i1()->intBits(), 1u);
    EXPECT_EQ(types.i32()->intBits(), 32u);
    EXPECT_EQ(types.intType(16), types.i16());
    EXPECT_THROW(types.ptr()->intBits(), InternalError);
}

TEST(TypeTest, ArrayInterning)
{
    TypeContext types;
    const Type *a = types.arrayType(types.i32(), 10);
    const Type *b = types.arrayType(types.i32(), 10);
    const Type *c = types.arrayType(types.i32(), 11);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a->size(), 40u);
    EXPECT_EQ(a->align(), 4u);
    EXPECT_EQ(a->arrayLength(), 10u);
    EXPECT_EQ(a->elemType(), types.i32());
}

TEST(TypeTest, StructLayoutWithPadding)
{
    TypeContext types;
    // struct { char c; int i; char d; long l; }
    const Type *s = types.structType("padded", {
        {"c", types.i8()}, {"i", types.i32()}, {"d", types.i8()},
        {"l", types.i64()},
    });
    EXPECT_EQ(s->fields()[0].offset, 0u);
    EXPECT_EQ(s->fields()[1].offset, 4u);
    EXPECT_EQ(s->fields()[2].offset, 8u);
    EXPECT_EQ(s->fields()[3].offset, 16u);
    EXPECT_EQ(s->size(), 24u);
    EXPECT_EQ(s->align(), 8u);
}

TEST(TypeTest, StructFieldLookup)
{
    TypeContext types;
    const Type *s = types.structType("pair", {
        {"first", types.i32()}, {"second", types.i32()},
    });
    EXPECT_EQ(s->fieldAt(0), 0);
    EXPECT_EQ(s->fieldAt(3), 0);
    EXPECT_EQ(s->fieldAt(4), 1);
    EXPECT_EQ(s->fieldAt(8), -1);
    ASSERT_NE(s->fieldNamed("second"), nullptr);
    EXPECT_EQ(s->fieldNamed("second")->offset, 4u);
    EXPECT_EQ(s->fieldNamed("missing"), nullptr);
    EXPECT_EQ(types.findStruct("pair"), s);
    EXPECT_EQ(types.findStruct("nope"), nullptr);
}

TEST(TypeTest, EmptyStructHasNonZeroSize)
{
    TypeContext types;
    const Type *s = types.structType("empty", {});
    EXPECT_GT(s->size(), 0u);
}

TEST(TypeTest, FunctionTypeInterning)
{
    TypeContext types;
    const Type *a = types.functionType(types.i32(), {types.ptr()}, false);
    const Type *b = types.functionType(types.i32(), {types.ptr()}, false);
    const Type *c = types.functionType(types.i32(), {types.ptr()}, true);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_TRUE(c->isVarArg());
    EXPECT_EQ(a->returnType(), types.i32());
}

TEST(TypeTest, ToString)
{
    TypeContext types;
    EXPECT_EQ(types.i32()->toString(), "i32");
    EXPECT_EQ(types.arrayType(types.i8(), 4)->toString(), "[4 x i8]");
    const Type *s = types.structType("node", {{"v", types.i32()}});
    EXPECT_EQ(s->toString(), "%struct.node");
}

TEST(ModuleTest, ConstantInterning)
{
    Module module;
    EXPECT_EQ(module.constI32(7), module.constI32(7));
    EXPECT_NE(module.constI32(7), module.constI32(8));
    EXPECT_NE(module.constI32(7), module.constI64(7));
    EXPECT_EQ(module.constNull(), module.constNull());
    EXPECT_EQ(module.constFP(module.types().f64(), 1.5),
              module.constFP(module.types().f64(), 1.5));
}

TEST(ModuleTest, ConstantNormalization)
{
    Module module;
    // i8 constant 0xFF is canonicalized to -1.
    ConstantInt *c = module.constInt(module.types().i8(), 255);
    EXPECT_EQ(c->value(), -1);
    EXPECT_EQ(sem::zextInt(c->value(), 8), 255u);
    EXPECT_EQ(c, module.constInt(module.types().i8(), -1));
}

TEST(ModuleTest, GlobalsAndFunctions)
{
    Module module;
    GlobalVariable *g = module.addGlobal(module.types().i32(), "counter",
                                         Initializer::makeInt(5));
    EXPECT_EQ(module.findGlobal("counter"), g);
    EXPECT_EQ(module.findGlobal("other"), nullptr);
    EXPECT_EQ(g->init().intValue, 5);

    const Type *fn_type =
        module.types().functionType(module.types().i32(), {}, false);
    Function *f = module.addFunction(fn_type, "main");
    EXPECT_EQ(module.findFunction("main"), f);
    EXPECT_EQ(f->id(), 0u);
    EXPECT_EQ(module.functionById(0), f);
    EXPECT_TRUE(f->isDeclaration());
}

/** Build a minimal valid function: int f(int a) { return a + 1; } */
Function *
buildAddOne(Module &module)
{
    const Type *fn_type = module.types().functionType(
        module.types().i32(), {module.types().i32()}, false);
    Function *f = module.addFunction(fn_type, "addone");
    IRBuilder b(module);
    BasicBlock *entry = f->addBlock("entry");
    b.setInsertPoint(entry);
    Instruction *sum =
        b.createBinOp(Opcode::add, f->arg(0), module.constI32(1));
    b.createRet(sum);
    module.finalize();
    return f;
}

TEST(BuilderTest, SlotNumbering)
{
    Module module;
    Function *f = buildAddOne(module);
    // Argument occupies slot 0; the add gets slot 1.
    EXPECT_EQ(f->numSlots(), 2u);
    const Instruction *add = f->entry()->insts()[0].get();
    EXPECT_EQ(add->slot(), 1);
    const Instruction *ret = f->entry()->insts()[1].get();
    EXPECT_EQ(ret->slot(), -1);
}

TEST(BuilderTest, BlockTerminated)
{
    Module module;
    const Type *fn_type =
        module.types().functionType(module.types().voidTy(), {}, false);
    Function *f = module.addFunction(fn_type, "f");
    IRBuilder b(module);
    b.setInsertPoint(f->addBlock("entry"));
    EXPECT_FALSE(b.blockTerminated());
    b.createRet();
    EXPECT_TRUE(b.blockTerminated());
}

TEST(VerifierTest, AcceptsValidFunction)
{
    Module module;
    buildAddOne(module);
    auto issues = verifyModule(module);
    EXPECT_TRUE(issues.empty()) << formatIssues(issues);
}

TEST(VerifierTest, RejectsMissingTerminator)
{
    Module module;
    const Type *fn_type =
        module.types().functionType(module.types().i32(), {}, false);
    Function *f = module.addFunction(fn_type, "f");
    IRBuilder b(module);
    b.setInsertPoint(f->addBlock("entry"));
    b.createBinOp(Opcode::add, module.constI32(1), module.constI32(2));
    module.finalize();
    EXPECT_FALSE(moduleIsValid(module));
}

TEST(VerifierTest, RejectsTypeMismatchedBinop)
{
    Module module;
    const Type *fn_type =
        module.types().functionType(module.types().i32(), {}, false);
    Function *f = module.addFunction(fn_type, "f");
    IRBuilder b(module);
    b.setInsertPoint(f->addBlock("entry"));
    // i32 + i64 mismatch.
    auto inst = std::make_unique<Instruction>(Opcode::add,
                                              module.types().i32());
    inst->addOperand(module.constI32(1));
    inst->addOperand(module.constI64(2));
    b.insertBlock()->append(std::move(inst));
    b.createRet(module.constI32(0));
    module.finalize();
    EXPECT_FALSE(moduleIsValid(module));
}

TEST(VerifierTest, RejectsBadReturnType)
{
    Module module;
    const Type *fn_type =
        module.types().functionType(module.types().i32(), {}, false);
    Function *f = module.addFunction(fn_type, "f");
    IRBuilder b(module);
    b.setInsertPoint(f->addBlock("entry"));
    b.createRet(module.constI64(0)); // i64 from i32 function
    module.finalize();
    EXPECT_FALSE(moduleIsValid(module));
}

TEST(VerifierTest, RejectsWrongArgumentCount)
{
    Module module;
    Function *callee = buildAddOne(module);
    const Type *fn_type =
        module.types().functionType(module.types().i32(), {}, false);
    Function *f = module.addFunction(fn_type, "caller");
    IRBuilder b(module);
    b.setInsertPoint(f->addBlock("entry"));
    Instruction *call = b.createCall(callee, module.types().i32(), {});
    b.createRet(call);
    module.finalize();
    EXPECT_FALSE(moduleIsValid(module));
}

TEST(VerifierTest, RejectsCondbrOnNonBool)
{
    Module module;
    const Type *fn_type =
        module.types().functionType(module.types().i32(), {}, false);
    Function *f = module.addFunction(fn_type, "f");
    IRBuilder b(module);
    BasicBlock *entry = f->addBlock("entry");
    BasicBlock *next = f->addBlock("next");
    b.setInsertPoint(entry);
    b.createCondBr(module.constI32(1), next, next); // i32 condition
    b.setInsertPoint(next);
    b.createRet(module.constI32(0));
    module.finalize();
    EXPECT_FALSE(moduleIsValid(module));
}

TEST(PrinterTest, FunctionDump)
{
    Module module;
    Function *f = buildAddOne(module);
    std::string text = printFunction(*f);
    EXPECT_NE(text.find("define i32 @addone(i32 %a0)"), std::string::npos);
    EXPECT_NE(text.find("add"), std::string::npos);
    EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(PrinterTest, ModuleDumpIncludesGlobals)
{
    Module module;
    module.addGlobal(module.types().arrayType(module.types().i8(), 3),
                     "buf", Initializer::makeBytes(std::string("ab\0", 3)));
    std::string text = printModule(module);
    EXPECT_NE(text.find("@buf"), std::string::npos);
    EXPECT_NE(text.find("[3 x i8]"), std::string::npos);
}

TEST(PrinterTest, OpcodeNamesComplete)
{
    // Spot-check a few; a missing case would return "<bad-op>".
    EXPECT_STREQ(opcodeName(Opcode::alloca_), "alloca");
    EXPECT_STREQ(opcodeName(Opcode::gep), "gep");
    EXPECT_STREQ(opcodeName(Opcode::fneg), "fneg");
    EXPECT_STREQ(opcodeName(Opcode::unreachable_), "unreachable");
    EXPECT_STREQ(intPredName(IntPred::ule), "ule");
    EXPECT_STREQ(floatPredName(FloatPred::oge), "oge");
}

TEST(InitializerTest, Factories)
{
    Initializer zero = Initializer::makeZero();
    EXPECT_TRUE(zero.isZero());
    Initializer i = Initializer::makeInt(42);
    EXPECT_EQ(i.kind, Initializer::Kind::intVal);
    EXPECT_EQ(i.intValue, 42);
    Initializer fp = Initializer::makeFP(1.5);
    EXPECT_DOUBLE_EQ(fp.fpValue, 1.5);
    Initializer bytes = Initializer::makeBytes("hi");
    EXPECT_EQ(bytes.bytes, "hi");
}

TEST(FunctionTest, RemoveBlocks)
{
    Module module;
    const Type *fn_type =
        module.types().functionType(module.types().voidTy(), {}, false);
    Function *f = module.addFunction(fn_type, "f");
    IRBuilder b(module);
    BasicBlock *entry = f->addBlock("entry");
    f->addBlock("dead");
    b.setInsertPoint(entry);
    b.createRet();
    f->removeBlocksIf({false, true});
    EXPECT_EQ(f->blocks().size(), 1u);
    EXPECT_EQ(f->entry()->name(), "entry");
    EXPECT_EQ(f->entry()->index(), 0u);
}

} // namespace
} // namespace sulong
