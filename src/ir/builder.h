/**
 * @file
 * Convenience builder used by the front end, the optimizer and tests to
 * create IR.
 */

#ifndef MS_IR_BUILDER_H
#define MS_IR_BUILDER_H

#include "ir/module.h"

namespace sulong
{

/**
 * Appends instructions to a current basic block, inferring result types.
 */
class IRBuilder
{
  public:
    explicit IRBuilder(Module &module) : module_(module) {}

    void setInsertPoint(BasicBlock *bb) { block_ = bb; }
    BasicBlock *insertBlock() const { return block_; }
    Module &module() { return module_; }
    TypeContext &types() { return module_.types(); }

    void setLoc(SourceLoc loc) { loc_ = std::move(loc); }
    const SourceLoc &loc() const { return loc_; }

    // --- Memory ----------------------------------------------------------

    Instruction *createAlloca(const Type *allocated, std::string name = "");
    Instruction *createLoad(const Type *type, Value *ptr);
    Instruction *createStore(Value *value, Value *ptr);
    /** ptr + const_offset + index * scale (index may be null). */
    Instruction *createGep(Value *ptr, int64_t const_offset,
                           Value *index = nullptr, uint64_t scale = 0);

    // --- Arithmetic ------------------------------------------------------

    Instruction *createBinOp(Opcode op, Value *lhs, Value *rhs);
    Instruction *createFNeg(Value *v);
    Instruction *createICmp(IntPred pred, Value *lhs, Value *rhs);
    Instruction *createFCmp(FloatPred pred, Value *lhs, Value *rhs);
    Instruction *createCast(Opcode op, Value *v, const Type *to);
    Instruction *createSelect(Value *cond, Value *then_v, Value *else_v);

    // --- Calls and control flow ------------------------------------------

    Instruction *createCall(Value *callee, const Type *ret_type,
                            const std::vector<Value *> &args);
    Instruction *createBr(BasicBlock *target);
    Instruction *createCondBr(Value *cond, BasicBlock *then_bb,
                              BasicBlock *else_bb);
    Instruction *createRet(Value *value = nullptr);
    Instruction *createUnreachable();

    /** True if the current block already ends in a terminator. */
    bool blockTerminated() const
    {
        Instruction *term = block_ ? block_->terminator() : nullptr;
        return term != nullptr && term->isTerminator();
    }

  private:
    Instruction *insert(std::unique_ptr<Instruction> inst);

    Module &module_;
    BasicBlock *block_ = nullptr;
    SourceLoc loc_;
};

} // namespace sulong

#endif // MS_IR_BUILDER_H
