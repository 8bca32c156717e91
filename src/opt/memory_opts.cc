/**
 * @file
 * Memory optimizations: store-to-load forwarding and the UB-exploiting
 * dead-store elimination of Fig. 3.
 */

#include <map>
#include <set>

#include "opt/passes.h"

namespace sulong
{

unsigned
forwardStores(Module &module)
{
    unsigned changes = 0;
    for (auto &fn : module.ownFunctions()) {
        if (fn->isDeclaration())
            continue;
        for (auto &bb : fn->blocks()) {
            // Known memory contents within this block, keyed by the exact
            // pointer value. A call or a store through a different
            // pointer value conservatively clobbers everything (two
            // distinct pointer SSA values may alias).
            std::map<const Value *, Value *> known;
            for (auto &inst : bb->insts()) {
                switch (inst->op()) {
                  case Opcode::store: {
                    const Value *ptr = inst->operand(1);
                    Value *stored = inst->operand(0);
                    auto isAlloca = [](const Value *v) {
                        return v->valueKind() == ValueKind::instruction &&
                            static_cast<const Instruction *>(v)->op() ==
                                Opcode::alloca_;
                    };
                    for (auto it = known.begin(); it != known.end();) {
                        // Two distinct allocas can never alias; anything
                        // else is clobbered conservatively.
                        bool keep = it->first != ptr &&
                            isAlloca(it->first) && isAlloca(ptr);
                        if (keep)
                            ++it;
                        else
                            it = known.erase(it);
                    }
                    known[ptr] = stored;
                    break;
                  }
                  case Opcode::load: {
                    auto it = known.find(inst->operand(0));
                    if (it != known.end() &&
                        it->second->type() == inst->type()) {
                        replaceAllUses(*fn, inst.get(), it->second);
                        changes++;
                    } else {
                        // Load-load CSE: later loads of the same pointer
                        // reuse this result.
                        known[inst->operand(0)] = inst.get();
                    }
                    break;
                  }
                  case Opcode::call:
                    known.clear();
                    break;
                  default:
                    break;
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

/**
 * Address-taken analysis of one alloca: collect all values derived from
 * it by gep, and classify whether the memory is ever loaded or whether
 * the address escapes (call argument, stored as a value, compared,
 * converted, returned).
 */
struct AllocaUsage
{
    std::set<const Value *> addresses;
    bool loaded = false;
    bool escaped = false;
};

AllocaUsage
analyzeAlloca(const Function &fn, const Instruction *alloca_inst)
{
    AllocaUsage usage;
    usage.addresses.insert(alloca_inst);
    // Fixpoint over derived addresses (geps of geps).
    bool grew = true;
    while (grew) {
        grew = false;
        for (const auto &bb : fn.blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->op() == Opcode::gep &&
                    usage.addresses.count(inst->operand(0)) &&
                    !usage.addresses.count(inst.get())) {
                    usage.addresses.insert(inst.get());
                    grew = true;
                }
            }
        }
    }
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->insts()) {
            for (size_t i = 0; i < inst->numOperands(); i++) {
                if (!usage.addresses.count(inst->operand(i)))
                    continue;
                switch (inst->op()) {
                  case Opcode::load:
                    usage.loaded = true;
                    break;
                  case Opcode::store:
                    if (i == 0)
                        usage.escaped = true; // address stored as a value
                    break;
                  case Opcode::gep:
                    if (i != 0)
                        usage.escaped = true; // address used as an index
                    break;
                  default:
                    usage.escaped = true;
                    break;
                }
            }
        }
    }
    return usage;
}

} // namespace

unsigned
removeDeadStores(Module &module)
{
    unsigned changes = 0;
    for (auto &fn : module.ownFunctions()) {
        if (fn->isDeclaration())
            continue;
        // Find dead allocas: never loaded, address never escaping. The
        // compiler may delete every store into them — including the
        // out-of-bounds ones (undefined behaviour), hiding the bug.
        std::set<const Value *> dead_addresses;
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->op() != Opcode::alloca_)
                    continue;
                AllocaUsage usage = analyzeAlloca(*fn, inst.get());
                if (!usage.loaded && !usage.escaped) {
                    dead_addresses.insert(usage.addresses.begin(),
                                          usage.addresses.end());
                }
            }
        }
        if (dead_addresses.empty())
            continue;
        for (auto &bb : fn->blocks()) {
            auto &insts = bb->mutableInsts();
            for (size_t i = 0; i < insts.size();) {
                if (insts[i]->op() == Opcode::store &&
                    dead_addresses.count(insts[i]->operand(1))) {
                    insts.erase(insts.begin() +
                                static_cast<long>(i));
                    changes++;
                } else {
                    i++;
                }
            }
        }
    }
    if (changes > 0)
        module.finalize();
    return changes;
}

} // namespace sulong
