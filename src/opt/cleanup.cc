/**
 * @file
 * Cleanup passes: dead-code elimination and control-flow simplification.
 */

#include <map>
#include <queue>
#include <set>

#include "opt/passes.h"

namespace sulong
{

unsigned
eliminateDeadCode(Module &module)
{
    unsigned changes = 0;
    for (auto &fn : module.ownFunctions()) {
        if (fn->isDeclaration())
            continue;
        bool changed = true;
        while (changed) {
            changed = false;
            // Count uses.
            std::map<const Value *, unsigned> uses;
            for (const auto &bb : fn->blocks()) {
                for (const auto &inst : bb->insts()) {
                    for (const Value *operand : inst->operands())
                        uses[operand]++;
                }
            }
            for (auto &bb : fn->blocks()) {
                auto &insts = bb->mutableInsts();
                for (size_t i = 0; i < insts.size();) {
                    const Instruction &inst = *insts[i];
                    bool removable = false;
                    switch (inst.op()) {
                      case Opcode::alloca_: case Opcode::gep:
                      case Opcode::add: case Opcode::sub: case Opcode::mul:
                      case Opcode::sdiv: case Opcode::udiv:
                      case Opcode::srem: case Opcode::urem:
                      case Opcode::and_: case Opcode::or_:
                      case Opcode::xor_: case Opcode::shl:
                      case Opcode::lshr: case Opcode::ashr:
                      case Opcode::fadd: case Opcode::fsub:
                      case Opcode::fmul: case Opcode::fdiv:
                      case Opcode::frem: case Opcode::fneg:
                      case Opcode::icmp: case Opcode::fcmp:
                      case Opcode::trunc: case Opcode::zext:
                      case Opcode::sext: case Opcode::fptosi:
                      case Opcode::fptoui: case Opcode::sitofp:
                      case Opcode::uitofp: case Opcode::fpext:
                      case Opcode::fptrunc: case Opcode::ptrtoint:
                      case Opcode::inttoptr: case Opcode::select:
                      // Unused loads are removable under LLVM semantics —
                      // even when they would have trapped or been caught.
                      case Opcode::load:
                        removable = uses[&inst] == 0;
                        break;
                      default:
                        removable = false;
                        break;
                    }
                    if (removable) {
                        insts.erase(insts.begin() + static_cast<long>(i));
                        changes++;
                        changed = true;
                    } else {
                        i++;
                    }
                }
            }
        }
    }
    if (changes > 0)
        module.finalize();
    return changes;
}

unsigned
simplifyControlFlow(Module &module)
{
    unsigned changes = 0;
    for (auto &fn : module.ownFunctions()) {
        if (fn->isDeclaration())
            continue;
        // Fold conditional branches on constants.
        for (auto &bb : fn->blocks()) {
            Instruction *term = bb->terminator();
            if (term == nullptr || term->op() != Opcode::condbr)
                continue;
            const Value *cond = term->operand(0);
            if (cond->valueKind() != ValueKind::constantInt)
                continue;
            BasicBlock *target = static_cast<const ConstantInt *>(cond)
                ->value() != 0 ? term->target(0) : term->target(1);
            auto br = std::make_unique<Instruction>(
                Opcode::br, module.types().voidTy());
            br->setTargets(target);
            br->setLoc(term->loc());
            bb->mutableInsts().back() = std::move(br);
            bb->mutableInsts().back()->setParent(bb.get());
            changes++;
        }
        // Drop unreachable blocks.
        std::set<const BasicBlock *> reachable;
        std::queue<const BasicBlock *> worklist;
        if (fn->entry() != nullptr) {
            reachable.insert(fn->entry());
            worklist.push(fn->entry());
        }
        while (!worklist.empty()) {
            const BasicBlock *bb = worklist.front();
            worklist.pop();
            const Instruction *term = bb->terminator();
            if (term == nullptr)
                continue;
            for (unsigned t = 0; t < 2; t++) {
                BasicBlock *target = term->target(t);
                if (target != nullptr && !reachable.count(target)) {
                    reachable.insert(target);
                    worklist.push(target);
                }
            }
        }
        std::vector<bool> dead(fn->blocks().size(), false);
        bool any_dead = false;
        for (size_t i = 0; i < fn->blocks().size(); i++) {
            if (!reachable.count(fn->blocks()[i].get())) {
                dead[i] = true;
                any_dead = true;
                changes++;
            }
        }
        if (any_dead)
            fn->removeBlocksIf(dead);
    }
    if (changes > 0)
        module.finalize();
    return changes;
}

} // namespace sulong
