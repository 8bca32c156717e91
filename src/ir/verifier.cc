#include "ir/verifier.h"

#include <map>
#include <set>
#include <sstream>

#include "ir/cfg.h"
#include "ir/printer.h"

namespace sulong
{

namespace
{

/** Collects issues for one function. */
class FunctionVerifier
{
  public:
    FunctionVerifier(const Function &fn, std::vector<VerifyIssue> &issues)
        : fn_(fn), issues_(issues)
    {}

    void
    run()
    {
        if (fn_.blocks().empty())
            return;
        blockSet_.clear();
        for (const auto &bb : fn_.blocks())
            blockSet_.insert(bb.get());
        for (const auto &bb : fn_.blocks())
            checkBlock(*bb);
    }

  private:
    void
    fail(const Instruction *inst, const std::string &message)
    {
        std::string text = message;
        if (inst != nullptr)
            text += " [" + printInstruction(*inst) + "]";
        issues_.push_back(VerifyIssue{fn_.name(), text});
    }

    void
    checkBlock(const BasicBlock &bb)
    {
        if (bb.empty()) {
            fail(nullptr, "empty block ^" + bb.name());
            return;
        }
        for (size_t i = 0; i < bb.insts().size(); i++) {
            const Instruction &inst = *bb.insts()[i];
            bool last = (i == bb.insts().size() - 1);
            if (inst.isTerminator() != last) {
                fail(&inst, last ? "block does not end in a terminator"
                                 : "terminator in the middle of a block");
            }
            checkInst(inst);
        }
    }

    void
    expect(const Instruction &inst, bool cond, const char *what)
    {
        if (!cond)
            fail(&inst, what);
    }

    void
    checkInst(const Instruction &inst)
    {
        if (inst.producesValue() && inst.slot() < 0)
            fail(&inst, "value-producing instruction has no slot "
                        "(finalize() not run?)");
        for (const Value *operand : inst.operands()) {
            if (operand == nullptr) {
                fail(&inst, "null operand");
                return;
            }
        }
        switch (inst.op()) {
          case Opcode::alloca_:
            expect(inst, inst.accessType() != nullptr &&
                   inst.accessType()->size() > 0,
                   "alloca needs a sized type");
            expect(inst, inst.type()->isPointer(), "alloca must yield ptr");
            break;
          case Opcode::load:
            expect(inst, inst.numOperands() == 1, "load takes 1 operand");
            expect(inst, inst.operand(0)->type()->isPointer(),
                   "load address must be ptr");
            expect(inst, inst.accessType() == inst.type(),
                   "load result type must equal access type");
            expect(inst, inst.type()->isScalar(),
                   "load must produce a scalar");
            break;
          case Opcode::store:
            expect(inst, inst.numOperands() == 2, "store takes 2 operands");
            expect(inst, inst.operand(1)->type()->isPointer(),
                   "store address must be ptr");
            expect(inst, inst.accessType() == inst.operand(0)->type(),
                   "store access type must equal value type");
            break;
          case Opcode::gep:
            expect(inst, inst.numOperands() >= 1 && inst.numOperands() <= 2,
                   "gep takes 1-2 operands");
            expect(inst, inst.operand(0)->type()->isPointer(),
                   "gep base must be ptr");
            if (inst.numOperands() == 2) {
                expect(inst, inst.operand(1)->type()->isInteger(),
                       "gep index must be an integer");
            }
            break;
          case Opcode::add: case Opcode::sub: case Opcode::mul:
          case Opcode::sdiv: case Opcode::udiv: case Opcode::srem:
          case Opcode::urem: case Opcode::and_: case Opcode::or_:
          case Opcode::xor_: case Opcode::shl: case Opcode::lshr:
          case Opcode::ashr:
            expect(inst, inst.numOperands() == 2, "binop takes 2 operands");
            expect(inst, inst.type()->isInteger(),
                   "integer binop must produce an integer");
            expect(inst, inst.operand(0)->type() == inst.type() &&
                   inst.operand(1)->type() == inst.type(),
                   "binop operand types must match result");
            break;
          case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
          case Opcode::fdiv: case Opcode::frem:
            expect(inst, inst.numOperands() == 2, "binop takes 2 operands");
            expect(inst, inst.type()->isFloat(),
                   "float binop must produce a float");
            expect(inst, inst.operand(0)->type() == inst.type() &&
                   inst.operand(1)->type() == inst.type(),
                   "binop operand types must match result");
            break;
          case Opcode::fneg:
            expect(inst, inst.numOperands() == 1, "fneg takes 1 operand");
            expect(inst, inst.type()->isFloat() &&
                   inst.operand(0)->type() == inst.type(),
                   "fneg operates on floats");
            break;
          case Opcode::icmp:
            expect(inst, inst.numOperands() == 2, "icmp takes 2 operands");
            expect(inst, inst.type()->kind() == TypeKind::i1,
                   "icmp yields i1");
            expect(inst, inst.operand(0)->type() == inst.operand(1)->type(),
                   "icmp operand types must match");
            expect(inst, inst.operand(0)->type()->isInteger() ||
                   inst.operand(0)->type()->isPointer(),
                   "icmp compares integers or pointers");
            break;
          case Opcode::fcmp:
            expect(inst, inst.numOperands() == 2, "fcmp takes 2 operands");
            expect(inst, inst.type()->kind() == TypeKind::i1,
                   "fcmp yields i1");
            expect(inst, inst.operand(0)->type()->isFloat() &&
                   inst.operand(0)->type() == inst.operand(1)->type(),
                   "fcmp compares matching float types");
            break;
          case Opcode::trunc:
            checkCast(inst, true, true);
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->isInteger() &&
                   inst.type()->isInteger() &&
                   inst.operand(0)->type()->intBits() > inst.type()->intBits(),
                   "trunc must narrow an integer");
            break;
          case Opcode::zext: case Opcode::sext:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->isInteger() &&
                   inst.type()->isInteger() &&
                   inst.operand(0)->type()->intBits() < inst.type()->intBits(),
                   "ext must widen an integer");
            break;
          case Opcode::fptosi: case Opcode::fptoui:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->isFloat() &&
                   inst.type()->isInteger(), "fp-to-int cast types");
            break;
          case Opcode::sitofp: case Opcode::uitofp:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->isInteger() &&
                   inst.type()->isFloat(), "int-to-fp cast types");
            break;
          case Opcode::fpext:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->kind() == TypeKind::f32 &&
                   inst.type()->kind() == TypeKind::f64, "fpext f32->f64");
            break;
          case Opcode::fptrunc:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->kind() == TypeKind::f64 &&
                   inst.type()->kind() == TypeKind::f32, "fptrunc f64->f32");
            break;
          case Opcode::ptrtoint:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->isPointer() &&
                   inst.type()->isInteger(), "ptrtoint types");
            break;
          case Opcode::inttoptr:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->isInteger() &&
                   inst.type()->isPointer(), "inttoptr types");
            break;
          case Opcode::select:
            expect(inst, inst.numOperands() == 3, "select takes 3 operands");
            expect(inst, inst.operand(0)->type()->kind() == TypeKind::i1,
                   "select condition must be i1");
            expect(inst, inst.operand(1)->type() == inst.type() &&
                   inst.operand(2)->type() == inst.type(),
                   "select arm types must match result");
            break;
          case Opcode::call:
            checkCall(inst);
            break;
          case Opcode::br:
            expect(inst, inst.target(0) != nullptr &&
                   blockSet_.count(inst.target(0)),
                   "br target must be a block of this function");
            break;
          case Opcode::condbr:
            expect(inst, inst.numOperands() == 1 &&
                   inst.operand(0)->type()->kind() == TypeKind::i1,
                   "condbr condition must be i1");
            expect(inst, inst.target(0) != nullptr &&
                   inst.target(1) != nullptr &&
                   blockSet_.count(inst.target(0)) &&
                   blockSet_.count(inst.target(1)),
                   "condbr targets must be blocks of this function");
            break;
          case Opcode::ret:
            if (fn_.returnType()->isVoid()) {
                expect(inst, inst.numOperands() == 0,
                       "void function returns a value");
            } else {
                expect(inst, inst.numOperands() == 1 &&
                       inst.operand(0)->type() == fn_.returnType(),
                       "ret value type must match the function signature");
            }
            break;
          case Opcode::unreachable_:
            break;
          case Opcode::p2Move:
          case Opcode::p2Ret:
          case Opcode::p2CallDirect:
          case Opcode::p2CallIndirect:
            expect(inst, false, "tier-2 pseudo-opcode in IR");
            break;
        }
    }

    void
    checkCast(const Instruction &inst, bool, bool)
    {
        expect(inst, inst.numOperands() == 1, "cast takes 1 operand");
    }

    void
    checkCall(const Instruction &inst)
    {
        expect(inst, inst.numOperands() >= 1, "call needs a callee");
        const Value *callee = inst.operand(0);
        expect(inst, callee->type()->isPointer(),
               "callee must be a function pointer");
        if (callee->valueKind() == ValueKind::function) {
            const auto *fn = static_cast<const Function *>(callee);
            const Type *fn_type = fn->fnType();
            size_t fixed = fn_type->paramTypes().size();
            size_t actual = inst.numOperands() - 1;
            if (fn_type->isVarArg()) {
                expect(inst, actual >= fixed,
                       "too few arguments to varargs function");
            } else {
                expect(inst, actual == fixed,
                       "argument count does not match callee");
            }
            for (size_t i = 0; i < std::min(fixed, actual); i++) {
                expect(inst,
                       inst.operand(i + 1)->type() ==
                           fn_type->paramTypes()[i],
                       "argument type does not match callee parameter");
            }
            expect(inst, inst.type() == fn_type->returnType(),
                   "call result type must match callee return type");
        }
    }

    const Function &fn_;
    std::vector<VerifyIssue> &issues_;
    std::set<const BasicBlock *> blockSet_;
};

/** Warning-tier lint checks for one function definition. */
class FunctionLinter
{
  public:
    FunctionLinter(const Function &fn, std::vector<VerifyIssue> &issues)
        : fn_(fn), cfg_(fn), issues_(issues)
    {}

    void
    run()
    {
        checkUnreachableBlocks();
        checkDominance();
        checkDeadAllocaStores();
    }

  private:
    void
    warn(const Instruction *inst, const std::string &message)
    {
        std::string text = message;
        if (inst != nullptr)
            text += " [" + printInstruction(*inst) + "]";
        issues_.push_back(VerifyIssue{fn_.name(), text});
    }

    void
    checkUnreachableBlocks()
    {
        for (const auto &bb : fn_.blocks()) {
            if (!cfg_.reachable(bb->index()))
                warn(nullptr, "unreachable block ^" + bb->name());
        }
    }

    void
    checkDominance()
    {
        // Position of every instruction within its block, for same-block
        // definition-before-use checks.
        std::map<const Instruction *, size_t> position;
        for (const auto &bb : fn_.blocks()) {
            for (size_t i = 0; i < bb->insts().size(); i++)
                position[bb->insts()[i].get()] = i;
        }
        for (const auto &bb : fn_.blocks()) {
            if (!cfg_.reachable(bb->index()))
                continue;
            for (const auto &inst : bb->insts()) {
                for (const Value *operand : inst->operands()) {
                    if (operand == nullptr ||
                        operand->valueKind() != ValueKind::instruction)
                        continue;
                    const auto *def =
                        static_cast<const Instruction *>(operand);
                    const BasicBlock *def_bb = def->parent();
                    if (def_bb == nullptr ||
                        def_bb->parent() != bb->parent()) {
                        warn(inst.get(), "operand defined outside this "
                                         "function");
                        continue;
                    }
                    bool dominated;
                    if (def_bb == bb.get()) {
                        dominated =
                            position[def] < position[inst.get()];
                    } else {
                        dominated = cfg_.reachable(def_bb->index()) &&
                            cfg_.dominates(def_bb->index(), bb->index());
                    }
                    if (!dominated) {
                        warn(inst.get(),
                             "use not dominated by its definition (" +
                                 printInstruction(*def) + ")");
                    }
                }
            }
        }
    }

    void
    checkDeadAllocaStores()
    {
        // An alloca whose address only ever feeds the address operand of
        // stores is written but never read: every such store is dead.
        // Any other use (load, gep, call argument, stored *as a value*,
        // compare, ...) counts as an escape and disables the check.
        for (const auto &bb : fn_.blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->op() != Opcode::alloca_)
                    continue;
                bool escapes = false;
                unsigned stores = 0;
                for (const auto &bb2 : fn_.blocks()) {
                    for (const auto &use : bb2->insts()) {
                        for (size_t i = 0; i < use->numOperands(); i++) {
                            if (use->operand(i) != inst.get())
                                continue;
                            if (use->op() == Opcode::store && i == 1)
                                stores++;
                            else
                                escapes = true;
                        }
                    }
                }
                if (!escapes && stores > 0) {
                    warn(inst.get(),
                         std::to_string(stores) +
                             " dead store(s) to never-loaded alloca");
                }
            }
        }
    }

    const Function &fn_;
    Cfg cfg_;
    std::vector<VerifyIssue> &issues_;
};

} // namespace

std::vector<VerifyIssue>
verifyModule(const Module &module)
{
    std::vector<VerifyIssue> issues;
    // A linked library's functions were verified when it was built.
    for (const auto &fn : module.ownFunctions()) {
        FunctionVerifier verifier(*fn, issues);
        verifier.run();
    }
    return issues;
}

std::vector<VerifyIssue>
lintModule(const Module &module)
{
    std::vector<VerifyIssue> issues;
    for (const auto &fn : module.functions()) {
        if (fn->isDeclaration())
            continue;
        FunctionLinter linter(*fn, issues);
        linter.run();
    }
    return issues;
}

bool
moduleIsValid(const Module &module)
{
    return verifyModule(module).empty();
}

std::string
formatIssues(const std::vector<VerifyIssue> &issues)
{
    std::ostringstream os;
    for (const auto &issue : issues)
        os << issue.toString() << "\n";
    return os.str();
}

} // namespace sulong
