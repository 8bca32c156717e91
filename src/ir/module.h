/**
 * @file
 * Functions and the Module (translation-unit container) of the IR.
 */

#ifndef MS_IR_MODULE_H
#define MS_IR_MODULE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.h"

namespace sulong
{

class Module;
class SharedLibrary;

/**
 * A function: signature, arguments and (for definitions) basic blocks.
 *
 * Functions without blocks are either host intrinsics (the `__sys_*`,
 * `__va_*` and math entry points that stand in for system calls, see
 * DESIGN.md) or unresolved externals, which engines report as
 * engine-errors when called.
 */
class Function : public Value
{
  public:
    Function(const Type *ptr_type, const Type *fn_type, std::string name)
        : Value(ValueKind::function, ptr_type), fnType_(fn_type)
    {
        name_ = std::move(name);
        const auto &params = fn_type->paramTypes();
        for (unsigned i = 0; i < params.size(); i++) {
            args_.push_back(
                std::make_unique<Argument>(params[i], i, "arg" + std::to_string(i)));
        }
    }

    const Type *fnType() const { return fnType_; }
    const Type *returnType() const { return fnType_->returnType(); }
    bool isVarArg() const { return fnType_->isVarArg(); }

    const std::vector<std::unique_ptr<Argument>> &args() const
    {
        return args_;
    }
    Argument *arg(unsigned i) const { return args_[i].get(); }
    unsigned numArgs() const { return static_cast<unsigned>(args_.size()); }

    const std::vector<std::unique_ptr<BasicBlock>> &blocks() const
    {
        return blocks_;
    }
    BasicBlock *entry() const
    {
        return blocks_.empty() ? nullptr : blocks_.front().get();
    }
    bool isDeclaration() const { return blocks_.empty(); }

    BasicBlock *addBlock(std::string name)
    {
        blocks_.push_back(std::make_unique<BasicBlock>(
            this, std::move(name), static_cast<unsigned>(blocks_.size())));
        return blocks_.back().get();
    }

    /** Remove unreachable blocks and renumber (optimizer use). */
    void removeBlocksIf(const std::vector<bool> &dead);

    /**
     * Assign dense frame slots: arguments first, then every
     * value-producing instruction. Must run after construction or any
     * structural change and before execution.
     */
    void numberSlots();

    /** Number of frame slots required to execute this function. */
    unsigned numSlots() const { return numSlots_; }

    /// True for engine-implemented builtins (no IR body by design).
    bool isIntrinsic() const { return intrinsic_; }
    void setIntrinsic(bool intrinsic) { intrinsic_ = intrinsic; }

    Module *parent() const { return parent_; }
    void setParent(Module *m) { parent_ = m; }

    /// Stable id used for function pointers and inline caches.
    unsigned id() const { return id_; }
    void setId(unsigned id) { id_ = id; }

    /// Logical source file of the definition ("libc/...", "<input>", ...);
    /// ASan uses this to tell instrumented user code from libc.
    const std::string &sourceFile() const { return sourceFile_; }
    void setSourceFile(std::string file) { sourceFile_ = std::move(file); }

  private:
    const Type *fnType_;
    std::vector<std::unique_ptr<Argument>> args_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    unsigned numSlots_ = 0;
    bool intrinsic_ = false;
    Module *parent_ = nullptr;
    unsigned id_ = 0;
    std::string sourceFile_;
};

/**
 * A whole program: types, globals, functions and interned constants.
 *
 * One Module is produced per compilation (user program + the selected
 * libc variant linked in) and is then executed — unmodified or after
 * optimization — by any of the engines.
 *
 * A program linked against a SharedLibrary (ir/clone.h) does not copy
 * the library: functions() and globals() show the library's functions
 * (at their library ids) and globals (at their places) next to the
 * program's own, but the module owns, changes and frees only its own
 * functions (ownFunctions()), globals and constants. The library's
 * objects are never changed once built.
 */
class Module
{
  public:
    /** A module whose types extend @p base_types (see TypeContext). */
    explicit Module(std::shared_ptr<const TypeContext> base_types = nullptr)
        : types_(std::make_shared<TypeContext>(std::move(base_types)))
    {}
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    TypeContext &types() { return *types_; }
    const TypeContext &types() const { return *types_; }
    /** The types, for a context that extends them (kept alive by it). */
    std::shared_ptr<const TypeContext> sharedTypes() const { return types_; }

    // --- Constants (interned, owned by the module) ----------------------
    // Values are kept in the canonical form of ir/semantics.h: an integer
    // sign-extended from its type's width, an f32 value rounded to float.

    ConstantInt *constInt(const Type *type, int64_t value);
    ConstantInt *constI32(int32_t value)
    {
        return constInt(types_->i32(), value);
    }
    ConstantInt *constI64(int64_t value)
    {
        return constInt(types_->i64(), value);
    }
    ConstantInt *constBool(bool value)
    {
        return constInt(types_->i1(), value ? 1 : 0);
    }
    ConstantFP *constFP(const Type *type, double value);
    ConstantNull *constNull();

    // --- Globals ---------------------------------------------------------

    GlobalVariable *addGlobal(const Type *value_type, std::string name,
                              Initializer init, bool is_const = false);
    /** Append @p global, a linked library's, to globals(). */
    void addLibraryGlobal(GlobalVariable *global);
    /** Rename @p global, one of this module's own. */
    void renameGlobal(GlobalVariable *global, std::string name);
    GlobalVariable *findGlobal(const std::string &name) const;
    /** Every global, the library's included, in layout order. */
    const std::vector<GlobalVariable *> &globals() const { return globals_; }

    // --- Functions -------------------------------------------------------

    /** A function of this module's own, with the next free id. */
    Function *addFunction(const Type *fn_type, std::string name);
    /** A function of this module's own at library id @p id, which the
     *  library only declares (a program defining an intrinsic). */
    Function *overrideFunction(unsigned id, const Type *fn_type,
                               std::string name);
    Function *findFunction(const std::string &name) const;
    /** Give each function the id of its place in @p by_id, a
     *  permutation of functions() (aligning a library stage). */
    void renumberFunctions(std::vector<Function *> by_id);
    /** Every function, by id. */
    const std::vector<Function *> &functions() const { return functions_; }
    Function *functionById(unsigned id) const { return functions_[id]; }
    /** The functions this module owns and may change, in creation
     *  order: all of them unless a library is linked. */
    const std::vector<std::unique_ptr<Function>> &ownFunctions() const
    {
        return ownFunctions_;
    }
    bool owns(const Function &fn) const { return fn.parent() == this; }

    // --- Linking (see ir/clone.h) ---------------------------------------

    /**
     * Reserve the library's function ids in this empty module: each
     * shows the library's declaration until linkLibrary() or
     * overrideFunction() puts another function there.
     */
    void useLibrary(const SharedLibrary &library);
    /** The library this module is linked against, or null. */
    const SharedLibrary *library() const { return library_; }
    /** Show @p fn, a library function, at its id. */
    void showLibraryFunction(Function *fn) { functions_[fn->id()] = fn; }

    /** Run numberSlots() on every function definition of its own. */
    void finalize();

  private:
    /** An own function at @p id: the next one, or a reserved one. */
    Function *createFunction(unsigned id, const Type *fn_type,
                             std::string name);

    std::shared_ptr<TypeContext> types_;
    std::vector<GlobalVariable *> globals_;
    std::vector<Function *> functions_;
    std::vector<std::unique_ptr<GlobalVariable>> ownGlobals_;
    std::vector<std::unique_ptr<Function>> ownFunctions_;
    const SharedLibrary *library_ = nullptr;
    std::map<std::string, GlobalVariable *> globalsByName_;
    std::map<std::string, Function *> functionsByName_;
    std::map<std::pair<const Type *, int64_t>,
             std::unique_ptr<ConstantInt>> intConstants_;
    /// Keyed by the value's bits: NaN and -0.0 are constants of their
    /// own, which comparing doubles would merge with others.
    std::map<std::pair<const Type *, uint64_t>,
             std::unique_ptr<ConstantFP>> fpConstants_;
    std::unique_ptr<ConstantNull> nullConstant_;
    unsigned anonGlobalCount_ = 0;
};

} // namespace sulong

#endif // MS_IR_MODULE_H
