/**
 * @file
 * The native execution engine: executes IR on the flat memory model with
 * no checks of its own — the baseline "compiled by Clang and run on the
 * machine" world of the paper. Instrumentation tools (ASan, Memcheck)
 * are NativeHooks plugged into this engine.
 */

#ifndef MS_NATIVE_NATIVE_ENGINE_H
#define MS_NATIVE_NATIVE_ENGINE_H

#include <memory>

#include "native/hooks.h"
#include "tools/engine.h"

namespace sulong
{

class NativeEngine : public Engine
{
  public:
    /**
     * @param name  display name ("Clang -O0", "ASan", ...)
     * @param hooks instrumentation runtime; may be null (plain execution)
     */
    NativeEngine(std::string name, std::shared_ptr<NativeHooks> hooks);
    explicit NativeEngine(std::string name = "Clang")
        : NativeEngine(std::move(name), nullptr)
    {}
    ~NativeEngine() override;

    std::string name() const override { return name_; }

    ExecutionResult run(const Module &module,
                        const std::vector<std::string> &args,
                        const std::string &stdin_data) override;

    uint64_t executedSteps() const { return guard_.steps(); }
    NativeHooks *hooks() const { return hooks_.get(); }

  private:
    struct Frame
    {
        std::vector<NValue> slots;
        uint64_t savedSp = 0;
        uint64_t vaSpill = 0;
        uint64_t vaCount = 0;
        /// hooks_->checksAccessesIn(function), asked once per frame.
        bool checked = false;
    };

    /// Cached intrinsic ids (avoids name comparisons on hot paths).
    enum class Intr : uint8_t
    {
        unknown, mallocFn, freeFn, callocFn, reallocFn,
        sysExit, sysWrite, sysGetchar, sysAllocSize,
        vaStart, vaArgPtr, vaEnd, vaCount,
        mSqrt, mSin, mCos, mTan, mAtan, mAtan2, mExp, mLog, mPow,
        mFloor, mCeil, mFabs, mFmod,
    };
    Intr intrinsicId(const Function *fn);

    NValue callFunction(const Function *fn, std::vector<NValue> args,
                        const std::vector<NValue> &varargs);
    NValue interpret(const Function *fn, Frame &frame);
    NValue evalOperand(const Value *v, Frame &frame);
    NValue execInstruction(const Instruction &inst, Frame &frame);
    NValue execCall(const Instruction &inst, Frame &frame);
    NValue callIntrinsic(const Function *fn, const Instruction *site,
                         std::vector<NValue> &args, Frame &frame);
    NValue loadFrom(uint64_t addr, const Type *type, const SourceLoc &loc,
                    bool checked);
    void storeTo(uint64_t addr, const Type *type, const NValue &v,
                 const SourceLoc &loc, bool checked);
    void step();

    std::string name_;
    std::shared_ptr<NativeHooks> hooks_;
    bool chargeChecks_ = false;
    bool trackDefined_ = false;
    const Module *module_ = nullptr;
    std::unique_ptr<NativeMemory> mem_;
    GuestIO io_;
    /// Per-run resource accounting; the simulated memory and guest IO
    /// report into it by stable address.
    ResourceGuard guard_;
    std::map<const Function *, Intr> intrCache_;
};

} // namespace sulong

#endif // MS_NATIVE_NATIVE_ENGINE_H
