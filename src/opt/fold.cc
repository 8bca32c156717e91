/**
 * @file
 * Constant folding: arithmetic, casts, comparisons, selects, and gep
 * index absorption.
 */

#include "opt/passes.h"

#include "ir/semantics.h"

namespace sulong
{

namespace
{

const ConstantInt *
asConstInt(const Value *v)
{
    return v->valueKind() == ValueKind::constantInt
        ? static_cast<const ConstantInt *>(v) : nullptr;
}

const ConstantFP *
asConstFP(const Value *v)
{
    return v->valueKind() == ValueKind::constantFP
        ? static_cast<const ConstantFP *>(v) : nullptr;
}

/** Fold one instruction to a constant, or return nullptr. */
Value *
foldInstruction(Module &module, const Instruction &inst)
{
    switch (inst.op()) {
      case Opcode::add: case Opcode::sub: case Opcode::mul:
      case Opcode::sdiv: case Opcode::udiv: case Opcode::srem:
      case Opcode::urem: case Opcode::and_: case Opcode::or_:
      case Opcode::xor_: case Opcode::shl: case Opcode::lshr:
      case Opcode::ashr: {
        const ConstantInt *l = asConstInt(inst.operand(0));
        const ConstantInt *r = asConstInt(inst.operand(1));
        if (l == nullptr || r == nullptr)
            return nullptr;
        std::optional<int64_t> out = sem::intBinOp(
            inst.op(), l->value(), r->value(), inst.type()->intBits());
        // Division by zero stays for the engines to raise.
        return out ? module.constInt(inst.type(), *out) : nullptr;
      }
      case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
      case Opcode::fdiv: {
        const ConstantFP *l = asConstFP(inst.operand(0));
        const ConstantFP *r = asConstFP(inst.operand(1));
        if (l == nullptr || r == nullptr)
            return nullptr;
        return module.constFP(
            inst.type(), sem::floatBinOp(inst.op(), l->value(), r->value(),
                                         inst.type()->fpBits()));
      }
      case Opcode::icmp: {
        const ConstantInt *l = asConstInt(inst.operand(0));
        const ConstantInt *r = asConstInt(inst.operand(1));
        if (l == nullptr || r == nullptr)
            return nullptr;
        return module.constBool(
            sem::icmp(inst.intPred(), l->value(), r->value()));
      }
      case Opcode::trunc: case Opcode::sext: case Opcode::zext: {
        const ConstantInt *v = asConstInt(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        return module.constInt(
            inst.type(), sem::intCast(inst.op(), v->value(),
                                      v->type()->intBits(),
                                      inst.type()->intBits()));
      }
      case Opcode::sitofp: case Opcode::uitofp: {
        const ConstantInt *v = asConstInt(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        return module.constFP(
            inst.type(), sem::intToFP(inst.op(), v->value(),
                                      v->type()->intBits(),
                                      inst.type()->fpBits()));
      }
      case Opcode::fpext: case Opcode::fptrunc: {
        // constFP rounds an f32 constant.
        const ConstantFP *v = asConstFP(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        return module.constFP(inst.type(), v->value());
      }
      case Opcode::select: {
        const ConstantInt *cond = asConstInt(inst.operand(0));
        if (cond == nullptr)
            return nullptr;
        return inst.operand(cond->value() != 0 ? 1 : 2);
      }
      default:
        return nullptr;
    }
}

} // namespace

void
replaceAllUses(Function &fn, const Value *from, Value *to)
{
    for (auto &bb : fn.blocks()) {
        for (auto &inst : bb->insts()) {
            for (size_t i = 0; i < inst->numOperands(); i++) {
                if (inst->operand(i) == from)
                    inst->setOperand(i, to);
            }
        }
    }
}

unsigned
foldConstants(Module &module)
{
    unsigned changes = 0;
    for (auto &fn : module.ownFunctions()) {
        if (fn->isDeclaration())
            continue;
        for (auto &bb : fn->blocks()) {
            for (auto &inst : bb->insts()) {
                // Absorb constant gep indices into the constant offset.
                if (inst->op() == Opcode::gep && inst->numOperands() == 2) {
                    if (const ConstantInt *idx =
                            asConstInt(inst->operand(1))) {
                        inst->setGep(inst->gepConstOffset() +
                                     idx->value() *
                                     static_cast<int64_t>(inst->gepScale()),
                                     0);
                        inst->mutableOperands().pop_back();
                        changes++;
                        continue;
                    }
                }
                Value *folded = foldInstruction(module, *inst);
                if (folded != nullptr && folded != inst.get()) {
                    replaceAllUses(*fn, inst.get(), folded);
                    changes++;
                }
            }
        }
    }
    if (changes > 0)
        module.finalize();
    return changes;
}

} // namespace sulong
