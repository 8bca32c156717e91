/**
 * @file
 * Semantic analysis + IR generation for mini-C.
 *
 * Mirrors what Clang -O0 does for the supported subset: every local lives
 * in an alloca, expressions lower to loads/stores/gep without any
 * optimization, and no undefined-behaviour-based transformation happens
 * here (the risk the paper attributes to real front ends is modelled
 * separately by the optimizer pipelines in src/opt/).
 */

#ifndef MS_FRONTEND_CODEGEN_H
#define MS_FRONTEND_CODEGEN_H

#include <unordered_map>

#include "frontend/ast.h"
#include "ir/builder.h"

namespace sulong
{

/**
 * A precompiled library as the sources compiled after it see it. The IR
 * objects are the library module's; the C types belong to whichever
 * context the declarations were taken in or imported into.
 */
struct LibraryDecls
{
    const Module *module = nullptr;
    /// C type of each library function, in id order.
    std::vector<const CType *> functionTypes;
    /// C types of the file-scope globals: the module's first globals.
    std::vector<const CType *> globalTypes;
    /// For each later global, which the library's initializers and
    /// function bodies created: the C type of a static local, or null
    /// for a string literal.
    std::vector<const CType *> createdGlobalTypes;
};

class CodeGen
{
  public:
    /**
     * With @p library, the module starts as if the library's sources had
     * been lowered into it first: its function declarations (same ids),
     * its file-scope globals, and, once the unit's file-scope globals
     * exist, the globals its own initializers and bodies created, in the
     * same order, names and string-literal sharing. Only its function
     * bodies are missing; linkLibrary() supplies the reachable ones.
     */
    CodeGen(Module &module, CTypeContext &types, DiagnosticEngine &diags,
            const LibraryDecls *library = nullptr);

    /** Lower a translation unit into the module. */
    void generate(const TranslationUnit &unit);

    /** The declarations generate() produced, for units compiled later. */
    LibraryDecls exportDecls() const;

    /** Where each library global ended up (after generate()). */
    const std::unordered_map<const GlobalVariable *, GlobalVariable *> &
    libraryGlobals() const
    {
        return libraryGlobals_;
    }

  private:
    /** An expression result: an IR value plus its C type. */
    struct RValue
    {
        Value *value = nullptr;
        const CType *type = nullptr;
    };

    /** An addressable location: address value plus the located C type. */
    struct LValue
    {
        Value *addr = nullptr;
        const CType *type = nullptr;
    };

    struct LocalVar
    {
        Value *addr = nullptr;
        const CType *type = nullptr;
    };

    // --- Declarations ------------------------------------------------
    void declareFunctions(const TranslationUnit &unit);
    void emitGlobals(const TranslationUnit &unit);
    void emitFunction(const FunctionDecl &decl);
    /** Create the library globals its bodies created (see the ctor). */
    void replayLibraryGlobals();
    /** @p init, a library global's initializer, in this module. */
    Initializer relink(const Initializer &init);
    /** This module's copy of library global @p global. */
    GlobalVariable *relinkGlobal(const GlobalVariable *global);
    Initializer constInitializer(const Expr *init, const CType *type);

    // --- Statements ---------------------------------------------------
    void emitStmt(const Stmt &stmt);
    void emitLocalDecl(const VarDecl &var);
    void emitLocalInit(Value *addr, const CType *type, const Expr &init);
    void emitZeroInit(Value *addr, const CType *type);
    void emitSwitch(const SwitchStmt &stmt);

    // --- Expressions ---------------------------------------------------
    RValue emitExpr(const Expr &expr);
    LValue emitLValue(const Expr &expr);
    RValue loadLValue(const LValue &lv, const SourceLoc &loc);
    RValue emitBinary(const BinaryExpr &expr);
    RValue emitBinaryOp(BinaryOp op, RValue lhs, RValue rhs,
                        const SourceLoc &loc);
    RValue emitAssign(const AssignExpr &expr);
    RValue emitUnary(const UnaryExpr &expr);
    RValue emitCall(const CallExpr &expr);
    RValue emitConditional(const ConditionalExpr &expr);
    RValue emitLogical(const BinaryExpr &expr);
    void emitStructCopy(Value *dst, Value *src, const CType *type);

    /** Truthiness of a scalar as an i1 value. */
    Value *emitCondition(const Expr &expr);
    Value *toBool(RValue v, const SourceLoc &loc);

    /** Implicit/explicit conversion of @p v to @p to. */
    RValue convert(RValue v, const CType *to, const SourceLoc &loc,
                   bool explicit_cast = false);
    /** Array-to-pointer and function-to-pointer decay. */
    RValue decay(RValue v);
    /** Default argument promotions for variadic arguments. */
    RValue defaultPromote(RValue v, const SourceLoc &loc);

    // --- Helpers --------------------------------------------------------
    GlobalVariable *stringLiteral(const std::string &bytes);
    Value *zeroValue(const CType *type);
    const CType *typeOfMember(const CType *struct_type,
                              const std::string &name, uint64_t &offset,
                              const SourceLoc &loc);
    [[noreturn]] void semaError(const SourceLoc &loc,
                                const std::string &message);
    void pushScope() { scopes_.emplace_back(); }
    void popScope() { scopes_.pop_back(); }
    LocalVar *findLocal(const std::string &name);
    BasicBlock *newBlock(const std::string &hint);
    /** Create an alloca in the entry block (hoisted, Clang-style). */
    Instruction *createLocalAlloca(const Type *type, std::string name);

    Module &module_;
    CTypeContext &types_;
    DiagnosticEngine &diags_;
    IRBuilder builder_;
    const LibraryDecls *library_ = nullptr;
    std::unordered_map<const GlobalVariable *, GlobalVariable *>
        libraryGlobals_;
    /// C type of each static local created, for exportDecls().
    std::unordered_map<const GlobalVariable *, const CType *>
        staticLocalTypes_;

    const TranslationUnit *unit_ = nullptr;
    Function *curFn_ = nullptr;
    const CType *curFnType_ = nullptr;
    BasicBlock *entryBlock_ = nullptr;
    std::vector<std::unordered_map<std::string, LocalVar>> scopes_;
    std::vector<BasicBlock *> breakTargets_;
    std::vector<BasicBlock *> continueTargets_;
    std::unordered_map<std::string, GlobalVariable *> stringPool_;
    std::unordered_map<std::string, const CType *> globalTypes_;
    std::unordered_map<std::string, const CType *> functionTypes_;
    unsigned blockCount_ = 0;
    unsigned staticLocalCount_ = 0;
};

/** Thrown to abort codegen of one function after a semantic error. */
struct SemaAbort
{
};

} // namespace sulong

#endif // MS_FRONTEND_CODEGEN_H
