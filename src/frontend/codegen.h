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
 * A precompiled library as the sources compiled after it see it: the
 * name tables its own codegen ended with. The IR objects are the shared
 * library's; the C types are those of the library's CTypeContext, which
 * every context compiled against it extends.
 */
struct LibraryDecls
{
    const SharedLibrary *library = nullptr;
    /// C type of every library function, by name.
    std::unordered_map<std::string, const CType *> functionTypes;
    /// C type of every file-scope global, by name. These are the
    /// module's first globals; the globals after them are the ones its
    /// bodies created (static locals and string literals).
    std::unordered_map<std::string, const CType *> globalTypes;
    /// The library's string literals, by contents.
    std::unordered_map<std::string, GlobalVariable *> literals;
    /// How many `.str` names and static-local numbers the library used.
    unsigned literalNames = 0;
    unsigned staticLocals = 0;
};

class CodeGen
{
  public:
    /**
     * With @p library, @p module (which must have called useLibrary())
     * is lowered as if the library's sources had been lowered into it
     * first: library names resolve to the library's functions (same
     * ids) and globals, which the module shows — its file-scope globals
     * first and, once the unit's file-scope globals exist, the globals
     * its bodies created — in the same order, with the same names and
     * string-literal sharing. Nothing of the library is created here;
     * linkLibrary() then shows the library bodies the module reaches.
     *
     * String literals are named `.str<n>` in the order code first uses
     * them; those only initializers use come last. The library's names
     * thus stay its own in any program compiled after it.
     */
    CodeGen(Module &module, CTypeContext &types, DiagnosticEngine &diags,
            const LibraryDecls *library = nullptr);

    /** Lower a translation unit into the module. */
    void generate(const TranslationUnit &unit);

    /** The name tables generate() ended with, for units compiled
     *  later (LibraryDecls::library is left to the caller). */
    LibraryDecls exportDecls() const;

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
    /** Show the library globals its bodies created (see the ctor). */
    void showLibraryBodyGlobals();
    Initializer constInitializer(const Expr *init, const CType *type);

    // --- Names, this unit's first, then the library's ------------------
    const CType *functionType(const std::string &name) const;
    const CType *globalType(const std::string &name) const;
    /** The function named @p name (a library one: the library's own
     *  object, not the module's view of it). */
    Function *findFunction(const std::string &name) const;

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
    /** Name @p literal, which code now uses for the first time. */
    void nameLiteral(GlobalVariable *literal);
    std::string nextLiteralName();
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
    /// Library literals shown before the library's body globals.
    std::vector<const GlobalVariable *> shownLibraryLiterals_;

    const TranslationUnit *unit_ = nullptr;
    Function *curFn_ = nullptr;
    const CType *curFnType_ = nullptr;
    BasicBlock *entryBlock_ = nullptr;
    std::vector<std::unordered_map<std::string, LocalVar>> scopes_;
    std::vector<BasicBlock *> breakTargets_;
    std::vector<BasicBlock *> continueTargets_;
    std::unordered_map<std::string, GlobalVariable *> stringPool_;
    /// Literals no code has used yet, in creation order; named last.
    std::vector<GlobalVariable *> unnamedLiterals_;
    std::unordered_map<std::string, const CType *> globalTypes_;
    std::unordered_map<std::string, const CType *> functionTypes_;
    unsigned blockCount_ = 0;
    unsigned staticLocalCount_ = 0;
    unsigned literalNames_ = 0;
};

/** Thrown to abort codegen of one function after a semantic error. */
struct SemaAbort
{
};

} // namespace sulong

#endif // MS_FRONTEND_CODEGEN_H
