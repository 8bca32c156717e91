/**
 * @file
 * Constant folding: arithmetic, casts, comparisons, selects, and gep
 * index absorption.
 */

#include "opt/passes.h"

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
        unsigned width = inst.type()->intBits();
        uint64_t lz = l->zextValue();
        uint64_t rz = r->zextValue();
        int64_t out;
        switch (inst.op()) {
          // add/sub/mul wrap through uint64_t: signed overflow would be
          // host UB.
          case Opcode::add:
            out = static_cast<int64_t>(static_cast<uint64_t>(l->value()) +
                                       static_cast<uint64_t>(r->value()));
            break;
          case Opcode::sub:
            out = static_cast<int64_t>(static_cast<uint64_t>(l->value()) -
                                       static_cast<uint64_t>(r->value()));
            break;
          case Opcode::mul:
            out = static_cast<int64_t>(
                static_cast<uint64_t>(l->value()) *
                static_cast<uint64_t>(r->value()));
            break;
          case Opcode::sdiv:
            if (r->value() == 0 ||
                (l->value() == INT64_MIN && r->value() == -1)) {
                return nullptr;
            }
            out = l->value() / r->value();
            break;
          case Opcode::udiv:
            if (rz == 0)
                return nullptr;
            out = static_cast<int64_t>(lz / rz);
            break;
          case Opcode::srem:
            if (r->value() == 0 ||
                (l->value() == INT64_MIN && r->value() == -1)) {
                return nullptr;
            }
            out = l->value() % r->value();
            break;
          case Opcode::urem:
            if (rz == 0)
                return nullptr;
            out = static_cast<int64_t>(lz % rz);
            break;
          case Opcode::and_: out = l->value() & r->value(); break;
          case Opcode::or_: out = l->value() | r->value(); break;
          case Opcode::xor_: out = l->value() ^ r->value(); break;
          case Opcode::shl:
            out = static_cast<int64_t>(lz << (rz & (width - 1)));
            break;
          case Opcode::lshr:
            out = static_cast<int64_t>(lz >> (rz & (width - 1)));
            break;
          default:
            out = l->value() >> (rz & (width - 1));
            break;
        }
        return module.constInt(inst.type(), out);
      }
      case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
      case Opcode::fdiv: {
        const ConstantFP *l = asConstFP(inst.operand(0));
        const ConstantFP *r = asConstFP(inst.operand(1));
        if (l == nullptr || r == nullptr)
            return nullptr;
        double out;
        if (inst.type()->kind() == TypeKind::f32) {
            // f32 arithmetic rounds each result to float, as the engines
            // compute it.
            float lf = static_cast<float>(l->value());
            float rf = static_cast<float>(r->value());
            switch (inst.op()) {
              case Opcode::fadd: out = lf + rf; break;
              case Opcode::fsub: out = lf - rf; break;
              case Opcode::fmul: out = lf * rf; break;
              default: out = lf / rf; break;
            }
        } else {
            switch (inst.op()) {
              case Opcode::fadd: out = l->value() + r->value(); break;
              case Opcode::fsub: out = l->value() - r->value(); break;
              case Opcode::fmul: out = l->value() * r->value(); break;
              default: out = l->value() / r->value(); break;
            }
        }
        return module.constFP(inst.type(), out);
      }
      case Opcode::icmp: {
        const ConstantInt *l = asConstInt(inst.operand(0));
        const ConstantInt *r = asConstInt(inst.operand(1));
        if (l == nullptr || r == nullptr)
            return nullptr;
        bool out;
        switch (inst.intPred()) {
          case IntPred::eq: out = l->value() == r->value(); break;
          case IntPred::ne: out = l->value() != r->value(); break;
          case IntPred::slt: out = l->value() < r->value(); break;
          case IntPred::sle: out = l->value() <= r->value(); break;
          case IntPred::sgt: out = l->value() > r->value(); break;
          case IntPred::sge: out = l->value() >= r->value(); break;
          case IntPred::ult: out = l->zextValue() < r->zextValue(); break;
          case IntPred::ule: out = l->zextValue() <= r->zextValue(); break;
          case IntPred::ugt: out = l->zextValue() > r->zextValue(); break;
          default: out = l->zextValue() >= r->zextValue(); break;
        }
        return module.constBool(out);
      }
      case Opcode::trunc: case Opcode::sext: {
        const ConstantInt *v = asConstInt(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        return module.constInt(inst.type(), v->value());
      }
      case Opcode::zext: {
        const ConstantInt *v = asConstInt(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        return module.constInt(inst.type(),
                               static_cast<int64_t>(v->zextValue()));
      }
      case Opcode::sitofp: {
        const ConstantInt *v = asConstInt(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        return module.constFP(inst.type(),
                              static_cast<double>(v->value()));
      }
      case Opcode::uitofp: {
        const ConstantInt *v = asConstInt(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        return module.constFP(inst.type(),
                              static_cast<double>(v->zextValue()));
      }
      case Opcode::fpext: case Opcode::fptrunc: {
        const ConstantFP *v = asConstFP(inst.operand(0));
        if (v == nullptr)
            return nullptr;
        double d = inst.op() == Opcode::fptrunc
            ? static_cast<double>(static_cast<float>(v->value()))
            : v->value();
        return module.constFP(inst.type(), d);
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
    for (auto &fn : module.functions()) {
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
