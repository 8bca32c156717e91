/**
 * @file
 * Undefined-behaviour-exploiting folds: redundant null-check removal and
 * constant global-load folding (incl. the out-of-bounds fold of Fig. 13).
 */

#include <cstring>
#include <set>

#include "opt/passes.h"

namespace sulong
{

unsigned
removeRedundantNullChecks(Module &module)
{
    unsigned changes = 0;
    for (auto &fn : module.ownFunctions()) {
        if (fn->isDeclaration())
            continue;
        for (auto &bb : fn->blocks()) {
            // Pointers dereferenced so far in this block: comparing them
            // against null afterwards is "redundant" under C semantics
            // (a null dereference would have been UB), so the compiler
            // folds the check away — even though on a real machine the
            // check might have been protecting later code.
            std::set<const Value *> dereferenced;
            for (auto &inst : bb->insts()) {
                if (inst->op() == Opcode::load) {
                    dereferenced.insert(inst->operand(0));
                } else if (inst->op() == Opcode::store) {
                    dereferenced.insert(inst->operand(1));
                } else if (inst->op() == Opcode::icmp &&
                           (inst->intPred() == IntPred::eq ||
                            inst->intPred() == IntPred::ne)) {
                    const Value *a = inst->operand(0);
                    const Value *b = inst->operand(1);
                    const Value *ptr = nullptr;
                    if (a->valueKind() == ValueKind::constantNull &&
                        dereferenced.count(b)) {
                        ptr = b;
                    } else if (b->valueKind() == ValueKind::constantNull &&
                               dereferenced.count(a)) {
                        ptr = a;
                    }
                    if (ptr != nullptr) {
                        bool result = inst->intPred() == IntPred::ne;
                        replaceAllUses(*fn, inst.get(),
                                       module.constBool(result));
                        changes++;
                    }
                }
            }
        }
    }
    if (changes > 0)
        module.finalize();
    return changes;
}

namespace
{

/** Evaluate @p init at byte offset for a scalar of @p type; true when a
 *  constant value could be produced. */
bool
initializerValueAt(const Initializer &init, const Type *value_type,
                   uint64_t offset, const Type *access_type,
                   int64_t &out_int, double &out_fp)
{
    switch (init.kind) {
      case Initializer::Kind::zero:
        out_int = 0;
        out_fp = 0;
        return true;
      case Initializer::Kind::intVal:
        if (offset != 0 || value_type != access_type)
            return false;
        out_int = init.intValue;
        return true;
      case Initializer::Kind::fpVal:
        if (offset != 0 || value_type != access_type)
            return false;
        out_fp = init.fpValue;
        return true;
      case Initializer::Kind::bytes: {
        unsigned size = static_cast<unsigned>(access_type->size());
        if (!access_type->isInteger() ||
            offset + size > init.bytes.size()) {
            return false;
        }
        uint64_t bits = 0;
        std::memcpy(&bits, init.bytes.data() + offset, size);
        out_int = static_cast<int64_t>(bits);
        return true;
      }
      case Initializer::Kind::array: {
        uint64_t stride = value_type->elemType()->size();
        if (stride == 0)
            return false;
        uint64_t index = offset / stride;
        if (index >= init.elems.size())
            return false;
        return initializerValueAt(init.elems[index],
                                  value_type->elemType(),
                                  offset % stride, access_type, out_int,
                                  out_fp);
      }
      case Initializer::Kind::structVal: {
        int field = value_type->fieldAt(offset);
        if (field < 0 ||
            static_cast<size_t>(field) >= init.elems.size()) {
            return false;
        }
        const StructField &sf =
            value_type->fields()[static_cast<size_t>(field)];
        return initializerValueAt(init.elems[static_cast<size_t>(field)],
                                  sf.type, offset - sf.offset, access_type,
                                  out_int, out_fp);
      }
      default:
        return false;
    }
}

} // namespace

unsigned
foldConstantGlobalLoads(Module &module)
{
    unsigned changes = 0;
    for (auto &fn : module.ownFunctions()) {
        if (fn->isDeclaration())
            continue;
        for (auto &bb : fn->blocks()) {
            for (auto &inst : bb->insts()) {
                if (inst->op() != Opcode::load)
                    continue;
                const Value *ptr = inst->operand(0);
                const GlobalVariable *global = nullptr;
                int64_t offset = 0;
                if (ptr->valueKind() == ValueKind::global) {
                    global = static_cast<const GlobalVariable *>(ptr);
                } else if (ptr->valueKind() == ValueKind::instruction) {
                    const auto *gep = static_cast<const Instruction *>(ptr);
                    if (gep->op() == Opcode::gep &&
                        gep->operand(0)->valueKind() == ValueKind::global) {
                        bool constant_offset = true;
                        offset = gep->gepConstOffset();
                        if (gep->numOperands() == 2) {
                            const Value *idx = gep->operand(1);
                            if (idx->valueKind() == ValueKind::constantInt) {
                                offset += static_cast<const ConstantInt *>(
                                    idx)->value() *
                                    static_cast<int64_t>(gep->gepScale());
                            } else {
                                constant_offset = false;
                            }
                        }
                        if (constant_offset) {
                            global = static_cast<const GlobalVariable *>(
                                gep->operand(0));
                        }
                    }
                }
                if (global == nullptr)
                    continue;
                const Type *access = inst->accessType();
                uint64_t size = global->valueType()->size();
                if (offset < 0 ||
                    static_cast<uint64_t>(offset) + access->size() > size) {
                    // Statically out of bounds: undefined behaviour, so
                    // the compiler may produce anything — it produces
                    // zero, and the bug is gone (Fig. 13, even at -O0).
                    Value *zero = access->isFloat()
                        ? static_cast<Value *>(module.constFP(access, 0.0))
                        : (access->isPointer()
                               ? static_cast<Value *>(module.constNull())
                               : static_cast<Value *>(
                                     module.constInt(access, 0)));
                    replaceAllUses(*fn, inst.get(), zero);
                    changes++;
                    continue;
                }
                // In-bounds constant folding only for read-only globals.
                if (!global->isConst())
                    continue;
                int64_t int_value = 0;
                double fp_value = 0;
                if (!initializerValueAt(global->init(),
                                        global->valueType(),
                                        static_cast<uint64_t>(offset),
                                        access, int_value, fp_value)) {
                    continue;
                }
                Value *folded = access->isFloat()
                    ? static_cast<Value *>(module.constFP(access, fp_value))
                    : (access->isInteger()
                           ? static_cast<Value *>(
                                 module.constInt(access, int_value))
                           : nullptr);
                if (folded != nullptr) {
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

void
runO0Pipeline(Module &module)
{
    // Even with optimizations "disabled", residual backend folding can
    // remove statically out-of-bounds constant accesses (Fig. 13).
    foldConstantGlobalLoads(module);
    eliminateDeadCode(module);
}

void
runO3Pipeline(Module &module)
{
    for (int iter = 0; iter < 5; iter++) {
        unsigned changes = 0;
        changes += foldConstants(module);
        changes += forwardStores(module);
        changes += removeRedundantNullChecks(module);
        changes += foldConstantGlobalLoads(module);
        changes += removeDeadStores(module);
        changes += eliminateDeadCode(module);
        changes += simplifyControlFlow(module);
        if (changes == 0)
            break;
    }
    module.finalize();
}

} // namespace sulong
