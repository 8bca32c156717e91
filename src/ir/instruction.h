/**
 * @file
 * Instructions and basic blocks of the MiniSulong IR.
 *
 * The instruction set mirrors the LLVM IR subset that Clang -O0 emits for
 * C and that Sulong executes: stack allocation, typed loads/stores,
 * pointer arithmetic (gep), integer/float arithmetic, comparisons, casts,
 * select, calls (incl. varargs) and branches. Every instruction carries a
 * SourceLoc so engines can produce source-level bug reports.
 */

#ifndef MS_IR_INSTRUCTION_H
#define MS_IR_INSTRUCTION_H

#include <memory>
#include <vector>

#include "ir/value.h"
#include "support/diagnostics.h"

namespace sulong
{

class BasicBlock;
class Function;

/** Opcodes. Suffix underscores avoid keyword collisions. */
enum class Opcode : uint8_t
{
    // Memory.
    alloca_,    ///< reserve a stack object of accessType()
    load,       ///< load accessType() from operand 0 (ptr)
    store,      ///< store operand 0 into operand 1 (ptr)
    gep,        ///< operand 0 (ptr) + gepConstOffset + operand1 * gepScale

    // Integer arithmetic (operands and result share an integer type).
    add, sub, mul, sdiv, udiv, srem, urem,
    and_, or_, xor_, shl, lshr, ashr,

    // Floating-point arithmetic.
    fadd, fsub, fmul, fdiv, frem, fneg,

    // Comparisons produce i1.
    icmp, fcmp,

    // Conversions; result type is type(), source is operand 0.
    trunc, zext, sext, fptosi, fptoui, sitofp, uitofp, fpext, fptrunc,
    ptrtoint, inttoptr,

    // Misc.
    select,     ///< operand 0 (i1) ? operand 1 : operand 2
    call,       ///< operand 0 = callee, rest = arguments

    // Terminators.
    br,         ///< unconditional jump to target(0)
    condbr,     ///< operand 0 (i1) ? target(0) : target(1)
    ret,        ///< optional operand 0
    unreachable_,

    // Tier-2 pseudo-opcodes (interp/tier2). Never appear in IR: the
    // pre-decoder emits them for inlined callee bodies (argument/return
    // moves) and for call sites with an inline cache. The verifier
    // rejects them in real instruction streams.
    p2Move,         ///< slot move: dest = operand a
    p2Ret,          ///< inlined return: optional move to dest, jump t0
    p2CallDirect,   ///< call through a monomorphic direct call site
    p2CallIndirect, ///< call through a function-pointer inline cache
};

/** icmp predicates. */
enum class IntPred : uint8_t
{
    eq, ne, slt, sle, sgt, sge, ult, ule, ugt, uge,
};

/** fcmp predicates: the ordered ones are false when an operand is NaN;
 *  `une` (C's `!=`) is true then. */
enum class FloatPred : uint8_t
{
    oeq, one, olt, ole, ogt, oge, une,
};

const char *opcodeName(Opcode op);
const char *intPredName(IntPred pred);
const char *floatPredName(FloatPred pred);

/**
 * A single IR instruction. One flat class with opcode-specific extra
 * fields (rather than a subclass per opcode) keeps the five interpreters
 * in this repository simple and fast.
 */
class Instruction : public Value
{
  public:
    Instruction(Opcode op, const Type *result_type)
        : Value(ValueKind::instruction, result_type), op_(op)
    {}

    Opcode op() const { return op_; }

    /** Set the result type (IR construction from text, where binop
     *  result types are inferred after operand resolution). */
    void setResultType(const Type *type) { type_ = type; }

    const std::vector<Value *> &operands() const { return operands_; }
    Value *operand(size_t i) const { return operands_[i]; }
    size_t numOperands() const { return operands_.size(); }
    void addOperand(Value *v) { operands_.push_back(v); }
    void setOperand(size_t i, Value *v) { operands_[i] = v; }
    /** Mutable operand list for optimizer passes. */
    std::vector<Value *> &mutableOperands() { return operands_; }

    /// Allocated type (alloca), accessed type (load/store), or the static
    /// allocation-type hint on malloc-like calls (Section 3.3 mementos).
    const Type *accessType() const { return accessType_; }
    void setAccessType(const Type *type) { accessType_ = type; }

    IntPred intPred() const { return static_cast<IntPred>(pred_); }
    FloatPred floatPred() const { return static_cast<FloatPred>(pred_); }
    void setIntPred(IntPred pred) { pred_ = static_cast<uint8_t>(pred); }
    void setFloatPred(FloatPred pred) { pred_ = static_cast<uint8_t>(pred); }

    int64_t gepConstOffset() const { return gepConstOffset_; }
    uint64_t gepScale() const { return gepScale_; }
    void setGep(int64_t const_offset, uint64_t scale)
    {
        gepConstOffset_ = const_offset;
        gepScale_ = scale;
    }

    BasicBlock *target(unsigned i) const { return targets_[i]; }
    void setTargets(BasicBlock *t0, BasicBlock *t1 = nullptr)
    {
        targets_[0] = t0;
        targets_[1] = t1;
    }

    /// Frame slot of the result (-1 when the result type is void).
    int slot() const { return slot_; }
    void setSlot(int slot) { slot_ = slot; }

    const SourceLoc &loc() const { return loc_; }
    void setLoc(SourceLoc loc) { loc_ = std::move(loc); }

    BasicBlock *parent() const { return parent_; }
    void setParent(BasicBlock *bb) { parent_ = bb; }

    bool isTerminator() const
    {
        return op_ == Opcode::br || op_ == Opcode::condbr ||
            op_ == Opcode::ret || op_ == Opcode::unreachable_;
    }

    bool producesValue() const { return !type_->isVoid(); }

  private:
    Opcode op_;
    std::vector<Value *> operands_;
    const Type *accessType_ = nullptr;
    uint8_t pred_ = 0;
    int64_t gepConstOffset_ = 0;
    uint64_t gepScale_ = 0;
    BasicBlock *targets_[2] = {nullptr, nullptr};
    int slot_ = -1;
    SourceLoc loc_;
    BasicBlock *parent_ = nullptr;
};

/**
 * A basic block: a straight-line instruction sequence ending in a
 * terminator.
 */
class BasicBlock
{
  public:
    BasicBlock(Function *parent, std::string name, unsigned index)
        : parent_(parent), name_(std::move(name)), index_(index)
    {}

    const std::string &name() const { return name_; }
    unsigned index() const { return index_; }
    void setIndex(unsigned index) { index_ = index; }
    Function *parent() const { return parent_; }

    const std::vector<std::unique_ptr<Instruction>> &insts() const
    {
        return insts_;
    }

    /** Mutable access for optimizer passes. */
    std::vector<std::unique_ptr<Instruction>> &mutableInsts()
    {
        return insts_;
    }

    Instruction *append(std::unique_ptr<Instruction> inst)
    {
        inst->setParent(this);
        insts_.push_back(std::move(inst));
        return insts_.back().get();
    }

    /** Remove the instruction at position @p i (optimizer use). */
    void erase(size_t i) { insts_.erase(insts_.begin() + i); }

    bool empty() const { return insts_.empty(); }
    Instruction *terminator() const
    {
        return insts_.empty() ? nullptr : insts_.back().get();
    }

  private:
    Function *parent_;
    std::string name_;
    unsigned index_;
    std::vector<std::unique_ptr<Instruction>> insts_;
};

} // namespace sulong

#endif // MS_IR_INSTRUCTION_H
