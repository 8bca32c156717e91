#include "frontend/codegen.h"

#include <algorithm>
#include <optional>

#include "frontend/parser.h"
#include "ir/clone.h"
#include "ir/semantics.h"

namespace sulong
{

CodeGen::CodeGen(Module &module, CTypeContext &types, DiagnosticEngine &diags,
                 const LibraryDecls *library)
    : module_(module), types_(types), diags_(diags), builder_(module),
      library_(library)
{
    if (library != nullptr) {
        staticLocalCount_ = library->staticLocals;
        literalNames_ = library->literalNames;
    }
}

const CType *
CodeGen::functionType(const std::string &name) const
{
    auto it = functionTypes_.find(name);
    if (it != functionTypes_.end())
        return it->second;
    if (library_ == nullptr)
        return nullptr;
    auto lib = library_->functionTypes.find(name);
    return lib != library_->functionTypes.end() ? lib->second : nullptr;
}

const CType *
CodeGen::globalType(const std::string &name) const
{
    auto it = globalTypes_.find(name);
    if (it != globalTypes_.end())
        return it->second;
    if (library_ == nullptr)
        return nullptr;
    auto lib = library_->globalTypes.find(name);
    return lib != library_->globalTypes.end() ? lib->second : nullptr;
}

Function *
CodeGen::findFunction(const std::string &name) const
{
    Function *fn = module_.findFunction(name);
    if (fn == nullptr || module_.owns(*fn))
        return fn;
    return library_->library->module().functionById(fn->id());
}

void
CodeGen::semaError(const SourceLoc &loc, const std::string &message)
{
    diags_.error(loc, message);
    throw SemaAbort{};
}

BasicBlock *
CodeGen::newBlock(const std::string &hint)
{
    return curFn_->addBlock(hint + std::to_string(blockCount_++));
}

Instruction *
CodeGen::createLocalAlloca(const Type *type, std::string name)
{
    // Allocas live in the (unterminated while building) entry block so
    // that a declaration inside a loop body reuses one stack object per
    // call, exactly like Clang -O0 output.
    auto inst = std::make_unique<Instruction>(Opcode::alloca_,
                                              module_.types().ptr());
    inst->setAccessType(type);
    inst->setName(std::move(name));
    inst->setLoc(builder_.loc());
    return entryBlock_->append(std::move(inst));
}

CodeGen::LocalVar *
CodeGen::findLocal(const std::string &name)
{
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        auto found = it->find(name);
        if (found != it->end())
            return &found->second;
    }
    return nullptr;
}

// -----------------------------------------------------------------------
// Top level
// -----------------------------------------------------------------------

void
CodeGen::generate(const TranslationUnit &unit)
{
    unit_ = &unit;
    declareFunctions(unit);
    emitGlobals(unit);
    if (library_ != nullptr)
        showLibraryBodyGlobals();
    for (const auto &fn : unit.functions) {
        if (fn->body != nullptr) {
            try {
                emitFunction(*fn);
            } catch (const SemaAbort &) {
                // Diagnostics already recorded; continue with next function.
            }
        }
    }
    for (GlobalVariable *literal : unnamedLiterals_)
        module_.renameGlobal(literal, nextLiteralName());
    unnamedLiterals_.clear();
}

void
CodeGen::declareFunctions(const TranslationUnit &unit)
{
    for (const auto &fn : unit.functions) {
        const CType *known = functionType(fn->name);
        if (known != nullptr) {
            if (known != fn->type) {
                diags_.error(fn->loc, "conflicting declaration of '" +
                             fn->name + "'");
                continue;
            }
            // Defining a function the library only declares (an
            // intrinsic) gives the module its own at the library's id.
            Function *existing = findFunction(fn->name);
            if (fn->body != nullptr && !module_.owns(*existing) &&
                existing->isDeclaration()) {
                functionTypes_[fn->name] = fn->type;
                module_.overrideFunction(existing->id(),
                                         types_.lower(fn->type), fn->name);
            }
            continue;
        }
        functionTypes_[fn->name] = fn->type;
        module_.addFunction(types_.lower(fn->type), fn->name);
    }
}

void
CodeGen::emitGlobals(const TranslationUnit &unit)
{
    // Merge declarations by name; the one with an initializer defines.
    // A library's file-scope globals come first, each one a definition.
    struct Definition
    {
        const VarDecl *var = nullptr; ///< null for library global `index`
        size_t index = 0;
    };
    const std::vector<GlobalVariable *> *library =
        library_ != nullptr ? &library_->library->module().globals()
                            : nullptr;
    const size_t numLibrary =
        library_ != nullptr ? library_->globalTypes.size() : 0;
    std::vector<Definition> order;
    for (size_t i = 0; i < numLibrary; i++)
        order.push_back(Definition{nullptr, i});
    std::unordered_map<std::string, size_t> chosen;
    auto find = [&](const std::string &name) -> std::optional<size_t> {
        auto it = chosen.find(name);
        if (it != chosen.end())
            return it->second;
        if (library_ != nullptr && library_->globalTypes.count(name) != 0)
            return static_cast<size_t>(library_->library->globalIndex(
                library_->library->module().findGlobal(name)));
        return std::nullopt;
    };
    for (const auto &var : unit.globals) {
        std::optional<size_t> at = find(var.name);
        if (!at) {
            chosen[var.name] = order.size();
            order.push_back(Definition{&var, 0});
        } else if (var.init != nullptr) {
            const Definition &prev = order[*at];
            if (prev.var == nullptr || prev.var->init != nullptr) {
                diags_.error(var.loc,
                             "redefinition of global '" + var.name + "'");
            }
            chosen[var.name] = *at;
            order[*at] = Definition{&var, 0};
        }
    }
    // Phase 1: create all globals (zero-initialized) so initializers can
    // reference globals declared later in the file.
    std::vector<std::pair<const VarDecl *, const CType *>> created;
    for (const Definition &def : order) {
        if (def.var == nullptr) {
            module_.addLibraryGlobal((*library)[def.index]);
            continue;
        }
        const VarDecl *var = def.var;
        const CType *type = var->type;
        // Infer incomplete array lengths from the initializer.
        if (type->isArray() && type->arrayLength() == 0 &&
            var->init != nullptr) {
            if (var->init->kind == ExprKind::initList) {
                auto &list = static_cast<const InitListExpr &>(*var->init);
                type = types_.arrayOf(type->elemType(), list.elems.size());
            } else if (var->init->kind == ExprKind::stringLit) {
                auto &lit = static_cast<const StringLitExpr &>(*var->init);
                type = types_.arrayOf(type->elemType(),
                                      lit.value.size() + 1);
            }
        }
        globalTypes_[var->name] = type;
        module_.addGlobal(types_.lower(type), var->name,
                          Initializer::makeZero());
        created.emplace_back(var, type);
    }
    // Phase 2: compute and attach the real initializers.
    for (const auto &[var, type] : created) {
        if (var->init == nullptr)
            continue;
        try {
            module_.findGlobal(var->name)->setInit(
                constInitializer(var->init.get(), type));
        } catch (const SemaAbort &) {
            // Diagnostic already recorded; keep the zero initializer.
        }
    }
}

void
CodeGen::showLibraryBodyGlobals()
{
    const auto &globals = library_->library->module().globals();
    for (size_t i = library_->globalTypes.size(); i < globals.size(); i++) {
        GlobalVariable *global = globals[i];
        // A literal this unit's initializers used is shown already.
        if (std::find(shownLibraryLiterals_.begin(),
                      shownLibraryLiterals_.end(),
                      global) == shownLibraryLiterals_.end())
            module_.addLibraryGlobal(global);
    }
    shownLibraryLiterals_.clear();
}

LibraryDecls
CodeGen::exportDecls() const
{
    LibraryDecls decls;
    decls.functionTypes.insert(functionTypes_.begin(), functionTypes_.end());
    decls.globalTypes.insert(globalTypes_.begin(), globalTypes_.end());
    decls.literals.insert(stringPool_.begin(), stringPool_.end());
    decls.literalNames = literalNames_;
    decls.staticLocals = staticLocalCount_;
    return decls;
}

Initializer
CodeGen::constInitializer(const Expr *init, const CType *type)
{
    if (init == nullptr)
        return Initializer::makeZero();
    switch (init->kind) {
      case ExprKind::initList: {
        const auto &list = static_cast<const InitListExpr &>(*init);
        // `{ "str" }` initializing a char array unwraps to the string.
        if (type->isArray() && !list.elems.empty() &&
            list.elems[0]->kind == ExprKind::stringLit &&
            types_.sizeOf(type->elemType()) == 1) {
            return constInitializer(list.elems[0].get(), type);
        }
        Initializer out;
        if (type->isArray()) {
            out.kind = Initializer::Kind::array;
            uint64_t len = type->arrayLength();
            if (list.elems.size() > len)
                semaError(init->loc, "too many initializers");
            for (uint64_t i = 0; i < len; i++) {
                out.elems.push_back(
                    i < list.elems.size()
                        ? constInitializer(list.elems[i].get(),
                                           type->elemType())
                        : Initializer::makeZero());
            }
            return out;
        }
        if (type->isStruct()) {
            out.kind = Initializer::Kind::structVal;
            const auto &fields = type->fields();
            if (list.elems.size() > fields.size())
                semaError(init->loc, "too many initializers");
            for (size_t i = 0; i < fields.size(); i++) {
                out.elems.push_back(
                    i < list.elems.size()
                        ? constInitializer(list.elems[i].get(),
                                           fields[i].type)
                        : Initializer::makeZero());
            }
            return out;
        }
        if (list.elems.size() != 1)
            semaError(init->loc, "invalid scalar initializer list");
        return constInitializer(list.elems[0].get(), type);
      }
      case ExprKind::stringLit: {
        const auto &lit = static_cast<const StringLitExpr &>(*init);
        if (type->isArray()) {
            std::string bytes = lit.value;
            bytes.push_back('\0');
            uint64_t len = type->arrayLength();
            if (bytes.size() > len)
                semaError(init->loc, "string too long for array");
            bytes.resize(len, '\0');
            return Initializer::makeBytes(std::move(bytes));
        }
        if (type->isPointer())
            return Initializer::makeGlobalRef(stringLiteral(lit.value));
        semaError(init->loc, "invalid string initializer");
      }
      case ExprKind::ident: {
        const auto &ident = static_cast<const IdentExpr &>(*init);
        auto ec = unit_->enumConstants.find(ident.name);
        if (ec != unit_->enumConstants.end()) {
            if (type->isFloat())
                return Initializer::makeFP(
                    static_cast<double>(ec->second));
            return Initializer::makeInt(ec->second);
        }
        // &array-decay or function reference.
        if (type->isPointer()) {
            Function *fn = findFunction(ident.name);
            if (fn != nullptr)
                return Initializer::makeFunctionRef(fn);
            GlobalVariable *g = module_.findGlobal(ident.name);
            if (g != nullptr)
                return Initializer::makeGlobalRef(g);
        }
        semaError(init->loc, "initializer is not constant");
      }
      case ExprKind::unary: {
        const auto &un = static_cast<const UnaryExpr &>(*init);
        if (un.op == UnaryOp::addrOf &&
            un.operand->kind == ExprKind::ident) {
            const auto &ident =
                static_cast<const IdentExpr &>(*un.operand);
            GlobalVariable *g = module_.findGlobal(ident.name);
            if (g != nullptr)
                return Initializer::makeGlobalRef(g);
            Function *fn = findFunction(ident.name);
            if (fn != nullptr)
                return Initializer::makeFunctionRef(fn);
        }
        break;
      }
      default:
        break;
    }
    // Fall back to arithmetic constant evaluation.
    if (type->isFloat()) {
        struct FpEval
        {
            CodeGen &cg;
            double
            run(const Expr &e)
            {
                switch (e.kind) {
                  case ExprKind::floatLit:
                    return static_cast<const FloatLitExpr &>(e).value;
                  case ExprKind::intLit:
                    return static_cast<double>(
                        static_cast<const IntLitExpr &>(e).value);
                  case ExprKind::ident: {
                    const auto &id = static_cast<const IdentExpr &>(e);
                    auto it = cg.unit_->enumConstants.find(id.name);
                    if (it != cg.unit_->enumConstants.end())
                        return static_cast<double>(it->second);
                    // Reference to a previously defined const double
                    // global with a scalar initializer.
                    GlobalVariable *g = cg.module_.findGlobal(id.name);
                    if (g != nullptr &&
                        g->init().kind == Initializer::Kind::fpVal) {
                        return g->init().fpValue;
                    }
                    if (g != nullptr &&
                        g->init().kind == Initializer::Kind::intVal) {
                        return static_cast<double>(g->init().intValue);
                    }
                    cg.semaError(e.loc, "initializer is not constant");
                  }
                  case ExprKind::unary: {
                    const auto &un = static_cast<const UnaryExpr &>(e);
                    if (un.op == UnaryOp::neg)
                        return -run(*un.operand);
                    cg.semaError(e.loc, "initializer is not constant");
                  }
                  case ExprKind::cast:
                    return run(*static_cast<const CastExpr &>(e).operand);
                  case ExprKind::binary: {
                    const auto &bin = static_cast<const BinaryExpr &>(e);
                    double l = run(*bin.lhs);
                    double r = run(*bin.rhs);
                    Opcode op;
                    switch (bin.op) {
                      case BinaryOp::add: op = Opcode::fadd; break;
                      case BinaryOp::sub: op = Opcode::fsub; break;
                      case BinaryOp::mul: op = Opcode::fmul; break;
                      case BinaryOp::div: op = Opcode::fdiv; break;
                      default:
                        cg.semaError(e.loc, "initializer is not constant");
                    }
                    return sem::floatBinOp(op, l, r, 64);
                  }
                  default:
                    cg.semaError(e.loc,
                                 "unsupported constant float initializer");
                }
            }
        };
        return Initializer::makeFP(FpEval{*this}.run(*init));
    }
    if (type->isInteger() || type->isPointer()) {
        // Reuse the parser-style integer evaluator via a local walk.
        struct Eval
        {
            CodeGen &cg;
            int64_t
            run(const Expr &e)
            {
                switch (e.kind) {
                  case ExprKind::intLit:
                    return static_cast<int64_t>(
                        static_cast<const IntLitExpr &>(e).value);
                  case ExprKind::ident: {
                    const auto &id = static_cast<const IdentExpr &>(e);
                    auto it = cg.unit_->enumConstants.find(id.name);
                    if (it != cg.unit_->enumConstants.end())
                        return it->second;
                    cg.semaError(e.loc, "initializer is not constant");
                  }
                  case ExprKind::sizeofExpr: {
                    const auto &so = static_cast<const SizeofExpr &>(e);
                    if (so.typeOperand != nullptr)
                        return static_cast<int64_t>(
                            cg.types_.sizeOf(so.typeOperand));
                    cg.semaError(e.loc, "unsupported sizeof initializer");
                  }
                  case ExprKind::unary: {
                    const auto &un = static_cast<const UnaryExpr &>(e);
                    if (auto v = foldConstUnary(un.op, run(*un.operand)))
                        return *v;
                    cg.semaError(e.loc, "initializer is not constant");
                  }
                  case ExprKind::cast: {
                    const auto &cast = static_cast<const CastExpr &>(e);
                    return run(*cast.operand);
                  }
                  case ExprKind::binary: {
                    const auto &bin = static_cast<const BinaryExpr &>(e);
                    int64_t l = run(*bin.lhs);
                    int64_t r = run(*bin.rhs);
                    if (auto v = foldConstBinary(bin.op, l, r))
                        return *v;
                    bool divides = bin.op == BinaryOp::div ||
                        bin.op == BinaryOp::rem;
                    cg.semaError(e.loc, divides
                                            ? "division by zero"
                                            : "initializer is not constant");
                  }
                  default:
                    cg.semaError(e.loc, "initializer is not constant");
                }
            }
        };
        int64_t value = Eval{*this}.run(*init);
        if (type->isPointer() && value == 0)
            return Initializer::makeZero();
        return Initializer::makeInt(value);
    }
    semaError(init->loc, "unsupported constant initializer");
}

// -----------------------------------------------------------------------
// Functions
// -----------------------------------------------------------------------

void
CodeGen::emitFunction(const FunctionDecl &decl)
{
    Function *fn = module_.findFunction(decl.name);
    // A function not the module's own is one the library defines.
    if (!module_.owns(*fn) || !fn->blocks().empty()) {
        diags_.error(decl.loc, "redefinition of function '" + decl.name + "'");
        return;
    }
    curFn_ = fn;
    fn->setSourceFile(decl.loc.file);
    curFnType_ = decl.type;
    blockCount_ = 0;
    scopes_.clear();
    pushScope();

    BasicBlock *entry = fn->addBlock("entry");
    BasicBlock *body = newBlock("body");
    entryBlock_ = entry;
    builder_.setInsertPoint(entry);
    builder_.setLoc(decl.loc);

    // Spill parameters into allocas so they are addressable (Clang -O0).
    const auto &params = decl.type->paramTypes();
    for (unsigned i = 0; i < params.size(); i++) {
        std::string name = i < decl.paramNames.size()
            ? decl.paramNames[i] : "";
        Instruction *slot =
            builder_.createAlloca(types_.lower(params[i]), name);
        builder_.createStore(fn->arg(i), slot);
        if (!name.empty())
            scopes_.back()[name] = LocalVar{slot, params[i]};
    }
    builder_.setInsertPoint(body);

    emitStmt(*decl.body);

    if (!builder_.blockTerminated()) {
        const CType *ret = decl.type->returnType();
        if (ret->isVoid())
            builder_.createRet();
        else
            builder_.createRet(zeroValue(ret));
    }
    // Terminate the entry block now that all allocas are hoisted into it.
    builder_.setInsertPoint(entry);
    builder_.createBr(body);
    popScope();
    entryBlock_ = nullptr;
    curFn_ = nullptr;
}

Value *
CodeGen::zeroValue(const CType *type)
{
    if (type->isFloat())
        return module_.constFP(types_.lower(type), 0.0);
    if (type->isPointer())
        return module_.constNull();
    if (type->isInteger())
        return module_.constInt(types_.lower(type), 0);
    throw InternalError("zeroValue of non-scalar");
}

GlobalVariable *
CodeGen::stringLiteral(const std::string &bytes)
{
    // Code runs with curFn_ set; file-scope initializers without.
    bool inCode = curFn_ != nullptr;
    auto it = stringPool_.find(bytes);
    if (it != stringPool_.end()) {
        GlobalVariable *g = it->second;
        if (inCode && std::find(unnamedLiterals_.begin(),
                                unnamedLiterals_.end(),
                                g) != unnamedLiterals_.end())
            nameLiteral(g);
        return g;
    }
    if (library_ != nullptr) {
        auto lib = library_->literals.find(bytes);
        if (lib != library_->literals.end()) {
            GlobalVariable *g = lib->second;
            if (!inCode) {
                // Shown where this unit's initializers use it, before
                // the library's body globals.
                module_.addLibraryGlobal(g);
                shownLibraryLiterals_.push_back(g);
            }
            stringPool_[bytes] = g;
            return g;
        }
    }
    std::string data = bytes;
    data.push_back('\0');
    const Type *type =
        module_.types().arrayType(module_.types().i8(), data.size());
    GlobalVariable *g = module_.addGlobal(
        type,
        inCode ? nextLiteralName()
               : ".str.unnamed" + std::to_string(stringPool_.size()),
        Initializer::makeBytes(std::move(data)), true);
    stringPool_[bytes] = g;
    if (!inCode)
        unnamedLiterals_.push_back(g);
    return g;
}

void
CodeGen::nameLiteral(GlobalVariable *literal)
{
    unnamedLiterals_.erase(std::find(unnamedLiterals_.begin(),
                                     unnamedLiterals_.end(), literal));
    module_.renameGlobal(literal, nextLiteralName());
}

std::string
CodeGen::nextLiteralName()
{
    return ".str" + std::to_string(literalNames_++);
}

// -----------------------------------------------------------------------
// Statements
// -----------------------------------------------------------------------

void
CodeGen::emitStmt(const Stmt &stmt)
{
    builder_.setLoc(stmt.loc);
    switch (stmt.kind) {
      case StmtKind::nullStmt:
        return;
      case StmtKind::expr:
        emitExpr(*static_cast<const ExprStmt &>(stmt).expr);
        return;
      case StmtKind::compound: {
        pushScope();
        for (const auto &sub : static_cast<const CompoundStmt &>(stmt).body) {
            emitStmt(*sub);
            if (builder_.blockTerminated() &&
                sub->kind != StmtKind::caseStmt &&
                sub->kind != StmtKind::defaultStmt) {
                // Dead statements after return/break may still carry case
                // labels; a simple approximation: continue emitting into a
                // fresh unreachable block.
                BasicBlock *cont = newBlock("dead");
                builder_.setInsertPoint(cont);
            }
        }
        popScope();
        return;
      }
      case StmtKind::decl:
        for (const auto &var : static_cast<const DeclStmt &>(stmt).vars)
            emitLocalDecl(var);
        return;
      case StmtKind::ifStmt: {
        const auto &s = static_cast<const IfStmt &>(stmt);
        Value *cond = emitCondition(*s.cond);
        BasicBlock *then_bb = newBlock("then");
        BasicBlock *merge = newBlock("endif");
        BasicBlock *else_bb =
            s.elseStmt != nullptr ? newBlock("else") : merge;
        builder_.createCondBr(cond, then_bb, else_bb);
        builder_.setInsertPoint(then_bb);
        emitStmt(*s.thenStmt);
        if (!builder_.blockTerminated())
            builder_.createBr(merge);
        if (s.elseStmt != nullptr) {
            builder_.setInsertPoint(else_bb);
            emitStmt(*s.elseStmt);
            if (!builder_.blockTerminated())
                builder_.createBr(merge);
        }
        builder_.setInsertPoint(merge);
        return;
      }
      case StmtKind::whileStmt: {
        const auto &s = static_cast<const WhileStmt &>(stmt);
        BasicBlock *cond_bb = newBlock("while.cond");
        BasicBlock *body_bb = newBlock("while.body");
        BasicBlock *end_bb = newBlock("while.end");
        builder_.createBr(cond_bb);
        builder_.setInsertPoint(cond_bb);
        builder_.createCondBr(emitCondition(*s.cond), body_bb, end_bb);
        builder_.setInsertPoint(body_bb);
        breakTargets_.push_back(end_bb);
        continueTargets_.push_back(cond_bb);
        emitStmt(*s.body);
        breakTargets_.pop_back();
        continueTargets_.pop_back();
        if (!builder_.blockTerminated())
            builder_.createBr(cond_bb);
        builder_.setInsertPoint(end_bb);
        return;
      }
      case StmtKind::doWhileStmt: {
        const auto &s = static_cast<const DoWhileStmt &>(stmt);
        BasicBlock *body_bb = newBlock("do.body");
        BasicBlock *cond_bb = newBlock("do.cond");
        BasicBlock *end_bb = newBlock("do.end");
        builder_.createBr(body_bb);
        builder_.setInsertPoint(body_bb);
        breakTargets_.push_back(end_bb);
        continueTargets_.push_back(cond_bb);
        emitStmt(*s.body);
        breakTargets_.pop_back();
        continueTargets_.pop_back();
        if (!builder_.blockTerminated())
            builder_.createBr(cond_bb);
        builder_.setInsertPoint(cond_bb);
        builder_.createCondBr(emitCondition(*s.cond), body_bb, end_bb);
        builder_.setInsertPoint(end_bb);
        return;
      }
      case StmtKind::forStmt: {
        const auto &s = static_cast<const ForStmt &>(stmt);
        pushScope();
        if (s.init != nullptr)
            emitStmt(*s.init);
        BasicBlock *cond_bb = newBlock("for.cond");
        BasicBlock *body_bb = newBlock("for.body");
        BasicBlock *step_bb = newBlock("for.step");
        BasicBlock *end_bb = newBlock("for.end");
        builder_.createBr(cond_bb);
        builder_.setInsertPoint(cond_bb);
        if (s.cond != nullptr)
            builder_.createCondBr(emitCondition(*s.cond), body_bb, end_bb);
        else
            builder_.createBr(body_bb);
        builder_.setInsertPoint(body_bb);
        breakTargets_.push_back(end_bb);
        continueTargets_.push_back(step_bb);
        emitStmt(*s.body);
        breakTargets_.pop_back();
        continueTargets_.pop_back();
        if (!builder_.blockTerminated())
            builder_.createBr(step_bb);
        builder_.setInsertPoint(step_bb);
        if (s.step != nullptr)
            emitExpr(*s.step);
        builder_.createBr(cond_bb);
        builder_.setInsertPoint(end_bb);
        popScope();
        return;
      }
      case StmtKind::returnStmt: {
        const auto &s = static_cast<const ReturnStmt &>(stmt);
        const CType *ret = curFnType_->returnType();
        if (s.value != nullptr && !ret->isVoid()) {
            RValue v = convert(emitExpr(*s.value), ret, s.loc);
            builder_.createRet(v.value);
        } else {
            if (!ret->isVoid()) {
                builder_.createRet(zeroValue(ret));
            } else {
                if (s.value != nullptr)
                    emitExpr(*s.value);
                builder_.createRet();
            }
        }
        return;
      }
      case StmtKind::breakStmt:
        if (breakTargets_.empty())
            semaError(stmt.loc, "break outside of a loop or switch");
        builder_.createBr(breakTargets_.back());
        return;
      case StmtKind::continueStmt:
        if (continueTargets_.empty())
            semaError(stmt.loc, "continue outside of a loop");
        builder_.createBr(continueTargets_.back());
        return;
      case StmtKind::switchStmt:
        emitSwitch(static_cast<const SwitchStmt &>(stmt));
        return;
      case StmtKind::caseStmt:
      case StmtKind::defaultStmt:
        semaError(stmt.loc, "case label outside of a switch");
      default:
        throw InternalError("unhandled statement kind");
    }
}

namespace
{

/** Collect case/default statements of one switch body (not nested ones). */
void
collectCases(const Stmt &stmt, std::vector<const CaseStmt *> &cases,
             const DefaultStmt *&default_stmt)
{
    switch (stmt.kind) {
      case StmtKind::caseStmt: {
        const auto &c = static_cast<const CaseStmt &>(stmt);
        cases.push_back(&c);
        collectCases(*c.sub, cases, default_stmt);
        return;
      }
      case StmtKind::defaultStmt: {
        const auto &d = static_cast<const DefaultStmt &>(stmt);
        default_stmt = &d;
        collectCases(*d.sub, cases, default_stmt);
        return;
      }
      case StmtKind::compound:
        for (const auto &sub : static_cast<const CompoundStmt &>(stmt).body)
            collectCases(*sub, cases, default_stmt);
        return;
      default:
        // Labels inside nested control flow (Duff's-device style) are not
        // supported by mini-C; the emitter matches this restriction.
        return;
    }
}

} // namespace

void
CodeGen::emitSwitch(const SwitchStmt &stmt)
{
    RValue cond = emitExpr(*stmt.cond);
    cond = convert(cond, types_.promote(cond.type), stmt.loc);
    if (!cond.type->isInteger())
        semaError(stmt.loc, "switch condition must be an integer");

    std::vector<const CaseStmt *> cases;
    const DefaultStmt *default_stmt = nullptr;
    collectCases(*stmt.body, cases, default_stmt);

    BasicBlock *end_bb = newBlock("switch.end");
    std::unordered_map<const Stmt *, BasicBlock *> labels;
    for (const CaseStmt *c : cases)
        labels[c] = newBlock("case");
    BasicBlock *default_bb =
        default_stmt != nullptr ? newBlock("default") : end_bb;
    if (default_stmt != nullptr)
        labels[default_stmt] = default_bb;

    // Dispatch chain.
    for (const CaseStmt *c : cases) {
        Value *case_val = module_.constInt(types_.lower(cond.type), c->value);
        Instruction *eq = builder_.createICmp(IntPred::eq, cond.value,
                                              case_val);
        BasicBlock *next = newBlock("switch.next");
        builder_.createCondBr(eq, labels[c], next);
        builder_.setInsertPoint(next);
    }
    builder_.createBr(default_bb);

    // Emit the body linearly; labels switch the insertion point with
    // natural fall-through.
    struct BodyEmitter
    {
        CodeGen &cg;
        std::unordered_map<const Stmt *, BasicBlock *> &labels;

        void
        run(const Stmt &s)
        {
            switch (s.kind) {
              case StmtKind::caseStmt:
              case StmtKind::defaultStmt: {
                BasicBlock *bb = labels.at(&s);
                if (!cg.builder_.blockTerminated())
                    cg.builder_.createBr(bb); // fall-through
                cg.builder_.setInsertPoint(bb);
                const Stmt *sub = s.kind == StmtKind::caseStmt
                    ? static_cast<const CaseStmt &>(s).sub.get()
                    : static_cast<const DefaultStmt &>(s).sub.get();
                run(*sub);
                return;
              }
              case StmtKind::compound: {
                cg.pushScope();
                for (const auto &sub :
                     static_cast<const CompoundStmt &>(s).body) {
                    run(*sub);
                }
                cg.popScope();
                return;
              }
              default:
                cg.emitStmt(s);
                return;
            }
        }
    };

    BasicBlock *unreach = newBlock("switch.body.start");
    builder_.setInsertPoint(unreach); // skipped unless a label is hit
    breakTargets_.push_back(end_bb);
    BodyEmitter{*this, labels}.run(*stmt.body);
    breakTargets_.pop_back();
    if (!builder_.blockTerminated())
        builder_.createBr(end_bb);
    builder_.setInsertPoint(end_bb);
}

void
CodeGen::emitLocalDecl(const VarDecl &var)
{
    const CType *type = var.type;
    if (type->isArray() && type->arrayLength() == 0 && var.init != nullptr) {
        if (var.init->kind == ExprKind::initList) {
            auto &list = static_cast<const InitListExpr &>(*var.init);
            type = types_.arrayOf(type->elemType(), list.elems.size());
        } else if (var.init->kind == ExprKind::stringLit) {
            auto &lit = static_cast<const StringLitExpr &>(*var.init);
            type = types_.arrayOf(type->elemType(), lit.value.size() + 1);
        }
    }
    if (var.isStatic) {
        std::string name = curFn_->name() + "." + var.name + "." +
            std::to_string(staticLocalCount_++);
        Initializer init = constInitializer(var.init.get(), type);
        GlobalVariable *g =
            module_.addGlobal(types_.lower(type), name, std::move(init));
        scopes_.back()[var.name] = LocalVar{g, type};
        return;
    }
    if (var.isExtern) {
        // Refers to a global defined elsewhere.
        scopes_.back()[var.name] = LocalVar{nullptr, type};
        return;
    }
    if (types_.sizeOf(type) == 0)
        semaError(var.loc, "variable '" + var.name + "' has incomplete type");
    Instruction *addr = createLocalAlloca(types_.lower(type), var.name);
    scopes_.back()[var.name] = LocalVar{addr, type};
    if (var.init != nullptr)
        emitLocalInit(addr, type, *var.init);
}

void
CodeGen::emitZeroInit(Value *addr, const CType *type)
{
    if (type->isScalar()) {
        builder_.createStore(zeroValue(type), addr);
        return;
    }
    if (type->isArray()) {
        const CType *elem = type->elemType();
        uint64_t len = type->arrayLength();
        uint64_t elem_size = types_.sizeOf(elem);
        if (elem->isScalar() && len > 64) {
            // Emit a zeroing loop to avoid code bloat for large arrays.
            Instruction *idx =
                createLocalAlloca(module_.types().i64(), "zi");
            builder_.createStore(module_.constI64(0), idx);
            BasicBlock *cond_bb = newBlock("zero.cond");
            BasicBlock *body_bb = newBlock("zero.body");
            BasicBlock *end_bb = newBlock("zero.end");
            builder_.createBr(cond_bb);
            builder_.setInsertPoint(cond_bb);
            Instruction *i =
                builder_.createLoad(module_.types().i64(), idx);
            Instruction *cmp = builder_.createICmp(
                IntPred::ult, i,
                module_.constI64(static_cast<int64_t>(len)));
            builder_.createCondBr(cmp, body_bb, end_bb);
            builder_.setInsertPoint(body_bb);
            Instruction *i2 =
                builder_.createLoad(module_.types().i64(), idx);
            Instruction *slot = builder_.createGep(addr, 0, i2, elem_size);
            builder_.createStore(zeroValue(elem), slot);
            Instruction *i3 =
                builder_.createLoad(module_.types().i64(), idx);
            Instruction *next = builder_.createBinOp(
                Opcode::add, i3, module_.constI64(1));
            builder_.createStore(next, idx);
            builder_.createBr(cond_bb);
            builder_.setInsertPoint(end_bb);
            return;
        }
        for (uint64_t i = 0; i < len; i++) {
            Instruction *slot = builder_.createGep(
                addr, static_cast<int64_t>(i * elem_size));
            emitZeroInit(slot, elem);
        }
        return;
    }
    if (type->isStruct()) {
        const Type *ir = types_.lower(type);
        for (const auto &field : ir->fields()) {
            Instruction *slot = builder_.createGep(
                addr, static_cast<int64_t>(field.offset));
            const CField *cfield = type->fieldNamed(field.name);
            emitZeroInit(slot, cfield->type);
        }
        return;
    }
    throw InternalError("emitZeroInit: unsupported type");
}

void
CodeGen::emitLocalInit(Value *addr, const CType *type, const Expr &init)
{
    if (init.kind == ExprKind::initList) {
        const auto &list = static_cast<const InitListExpr &>(init);
        if (type->isArray()) {
            const CType *elem = type->elemType();
            // `{ "str" }` for char arrays.
            if (!list.elems.empty() &&
                list.elems[0]->kind == ExprKind::stringLit &&
                types_.sizeOf(elem) == 1 && list.elems.size() == 1) {
                emitLocalInit(addr, type, *list.elems[0]);
                return;
            }
            uint64_t elem_size = types_.sizeOf(elem);
            uint64_t len = type->arrayLength();
            if (list.elems.size() > len)
                semaError(init.loc, "too many initializers");
            for (uint64_t i = 0; i < len; i++) {
                Instruction *slot = builder_.createGep(
                    addr, static_cast<int64_t>(i * elem_size));
                if (i < list.elems.size())
                    emitLocalInit(slot, elem, *list.elems[i]);
                else
                    emitZeroInit(slot, elem);
            }
            return;
        }
        if (type->isStruct()) {
            const Type *ir = types_.lower(type);
            const auto &fields = type->fields();
            if (list.elems.size() > fields.size())
                semaError(init.loc, "too many initializers");
            for (size_t i = 0; i < fields.size(); i++) {
                Instruction *slot = builder_.createGep(
                    addr, static_cast<int64_t>(ir->fields()[i].offset));
                if (i < list.elems.size())
                    emitLocalInit(slot, fields[i].type, *list.elems[i]);
                else
                    emitZeroInit(slot, fields[i].type);
            }
            return;
        }
        if (list.elems.size() != 1)
            semaError(init.loc, "invalid initializer list");
        emitLocalInit(addr, type, *list.elems[0]);
        return;
    }
    if (init.kind == ExprKind::stringLit && type->isArray() &&
        types_.sizeOf(type->elemType()) == 1) {
        const auto &lit = static_cast<const StringLitExpr &>(init);
        std::string bytes = lit.value;
        bytes.push_back('\0');
        if (bytes.size() > type->arrayLength())
            semaError(init.loc, "string too long for array");
        for (uint64_t i = 0; i < type->arrayLength(); i++) {
            Instruction *slot =
                builder_.createGep(addr, static_cast<int64_t>(i));
            char c = i < bytes.size() ? bytes[i] : '\0';
            builder_.createStore(
                module_.constInt(module_.types().i8(), c), slot);
        }
        return;
    }
    RValue v = emitExpr(init);
    if (type->isStruct()) {
        if (v.type != type)
            semaError(init.loc, "mismatched struct initializer");
        emitStructCopy(addr, v.value, type);
        return;
    }
    v = convert(v, type, init.loc);
    builder_.createStore(v.value, addr);
}

void
CodeGen::emitStructCopy(Value *dst, Value *src, const CType *type)
{
    // Field-by-field scalar copies (recursing into aggregates).
    if (type->isScalar()) {
        Instruction *v = builder_.createLoad(types_.lower(type), src);
        builder_.createStore(v, dst);
        return;
    }
    if (type->isArray()) {
        uint64_t elem_size = types_.sizeOf(type->elemType());
        for (uint64_t i = 0; i < type->arrayLength(); i++) {
            int64_t off = static_cast<int64_t>(i * elem_size);
            emitStructCopy(builder_.createGep(dst, off),
                           builder_.createGep(src, off), type->elemType());
        }
        return;
    }
    if (type->isStruct()) {
        const Type *ir = types_.lower(type);
        const auto &fields = type->fields();
        for (size_t i = 0; i < fields.size(); i++) {
            int64_t off = static_cast<int64_t>(ir->fields()[i].offset);
            emitStructCopy(builder_.createGep(dst, off),
                           builder_.createGep(src, off), fields[i].type);
        }
        return;
    }
    throw InternalError("emitStructCopy: unsupported type");
}

// -----------------------------------------------------------------------
// Expressions
// -----------------------------------------------------------------------

Value *
CodeGen::toBool(RValue v, const SourceLoc &loc)
{
    v = decay(v);
    if (v.type->isInteger()) {
        return builder_.createICmp(
            IntPred::ne, v.value,
            module_.constInt(types_.lower(v.type), 0));
    }
    if (v.type->isFloat()) {
        return builder_.createFCmp(
            FloatPred::une, v.value,
            module_.constFP(types_.lower(v.type), 0.0));
    }
    if (v.type->isPointer())
        return builder_.createICmp(IntPred::ne, v.value, module_.constNull());
    semaError(loc, "condition is not scalar");
}

Value *
CodeGen::emitCondition(const Expr &expr)
{
    return toBool(emitExpr(expr), expr.loc);
}

CodeGen::RValue
CodeGen::decay(RValue v)
{
    if (v.type->isArray())
        return RValue{v.value, types_.pointerTo(v.type->elemType())};
    if (v.type->isFunction())
        return RValue{v.value, types_.pointerTo(v.type)};
    return v;
}

CodeGen::RValue
CodeGen::convert(RValue v, const CType *to, const SourceLoc &loc,
                 bool explicit_cast)
{
    v = decay(v);
    if (to->isVoid()) {
        if (!explicit_cast)
            semaError(loc, "cannot convert to void");
        return RValue{nullptr, to};
    }
    if (v.type == to)
        return v;
    const Type *from_ir = types_.lower(v.type);
    const Type *to_ir = types_.lower(to);

    // Allocation-site type hint (Section 3.3): converting the result of a
    // malloc-family call to T* records T on the call instruction.
    if (to->isPointer() && v.type->isPointer() &&
        v.value->valueKind() == ValueKind::instruction) {
        auto *inst = static_cast<Instruction *>(v.value);
        if (inst->op() == Opcode::call &&
            inst->operand(0)->valueKind() == ValueKind::function) {
            const std::string &callee = inst->operand(0)->name();
            if ((callee == "malloc" || callee == "calloc" ||
                 callee == "realloc") &&
                !to->pointee()->isVoid() &&
                types_.sizeOf(to->pointee()) > 0) {
                inst->setAccessType(types_.lower(to->pointee()));
            }
        }
    }

    if (v.type->isPointer() && to->isPointer())
        return RValue{v.value, to};
    // Constant integer conversions fold in the front end (Clang emits
    // the converted constant directly, even at -O0).
    if (v.value != nullptr &&
        v.value->valueKind() == ValueKind::constantInt &&
        v.type->isInteger()) {
        int64_t c = static_cast<ConstantInt *>(v.value)->value();
        unsigned from_bits = v.value->type()->intBits();
        bool is_signed = v.type->isSignedInt();
        if (to->isInteger()) {
            Opcode op = is_signed ? Opcode::sext : Opcode::zext;
            return RValue{module_.constInt(to_ir,
                                           sem::intCast(op, c, from_bits,
                                                        to_ir->intBits())),
                          to};
        }
        if (to->isFloat()) {
            Opcode op = is_signed ? Opcode::sitofp : Opcode::uitofp;
            return RValue{module_.constFP(to_ir,
                                          sem::intToFP(op, c, from_bits,
                                                       to_ir->fpBits())),
                          to};
        }
    }
    if (v.type->isInteger() && to->isInteger()) {
        if (from_ir == to_ir)
            return RValue{v.value, to};
        Instruction *cast;
        if (from_ir->intBits() > to_ir->intBits()) {
            cast = builder_.createCast(Opcode::trunc, v.value, to_ir);
        } else {
            cast = builder_.createCast(
                v.type->isSignedInt() ? Opcode::sext : Opcode::zext,
                v.value, to_ir);
        }
        return RValue{cast, to};
    }
    if (v.type->isInteger() && to->isFloat()) {
        Instruction *cast = builder_.createCast(
            v.type->isSignedInt() ? Opcode::sitofp : Opcode::uitofp,
            v.value, to_ir);
        return RValue{cast, to};
    }
    if (v.type->isFloat() && to->isInteger()) {
        Instruction *cast = builder_.createCast(
            to->isSignedInt() ? Opcode::fptosi : Opcode::fptoui,
            v.value, to_ir);
        return RValue{cast, to};
    }
    if (v.type->isFloat() && to->isFloat()) {
        if (from_ir == to_ir)
            return RValue{v.value, to};
        Opcode op = from_ir->kind() == TypeKind::f32
            ? Opcode::fpext : Opcode::fptrunc;
        return RValue{builder_.createCast(op, v.value, to_ir), to};
    }
    if (v.type->isInteger() && to->isPointer()) {
        // Integer constant 0 becomes the null pointer.
        if (v.value->valueKind() == ValueKind::constantInt &&
            static_cast<ConstantInt *>(v.value)->value() == 0) {
            return RValue{module_.constNull(), to};
        }
        if (!explicit_cast)
            diags_.warning(loc, "implicit integer-to-pointer conversion");
        RValue wide = convert(v, types_.ulongTy(), loc, true);
        return RValue{
            builder_.createCast(Opcode::inttoptr, wide.value, to_ir), to};
    }
    if (v.type->isPointer() && to->isInteger()) {
        if (!explicit_cast)
            diags_.warning(loc, "implicit pointer-to-integer conversion");
        Instruction *cast = builder_.createCast(
            Opcode::ptrtoint, v.value, module_.types().i64());
        return convert(RValue{cast, types_.ulongTy()}, to, loc, true);
    }
    semaError(loc, "cannot convert from '" + v.type->toString() + "' to '" +
              to->toString() + "'");
}

CodeGen::RValue
CodeGen::defaultPromote(RValue v, const SourceLoc &loc)
{
    v = decay(v);
    if (v.type->kind() == CTypeKind::floatTy)
        return convert(v, types_.doubleTy(), loc);
    if (v.type->isInteger())
        return convert(v, types_.promote(v.type), loc);
    return v;
}

CodeGen::LValue
CodeGen::emitLValue(const Expr &expr)
{
    builder_.setLoc(expr.loc);
    switch (expr.kind) {
      case ExprKind::ident: {
        const auto &ident = static_cast<const IdentExpr &>(expr);
        if (LocalVar *local = findLocal(ident.name)) {
            if (local->addr == nullptr) {
                // extern local: resolve against module globals.
                GlobalVariable *g = module_.findGlobal(ident.name);
                if (g == nullptr)
                    semaError(expr.loc, "undefined extern variable '" +
                              ident.name + "'");
                return LValue{g, local->type};
            }
            return LValue{local->addr, local->type};
        }
        if (const CType *type = globalType(ident.name)) {
            GlobalVariable *g = module_.findGlobal(ident.name);
            return LValue{g, type};
        }
        semaError(expr.loc, "use of undeclared identifier '" +
                  ident.name + "'");
      }
      case ExprKind::unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        if (un.op == UnaryOp::deref) {
            RValue v = decay(emitExpr(*un.operand));
            if (!v.type->isPointer())
                semaError(expr.loc, "dereference of a non-pointer");
            return LValue{v.value, v.type->pointee()};
        }
        break;
      }
      case ExprKind::index: {
        const auto &index = static_cast<const IndexExpr &>(expr);
        RValue base = decay(emitExpr(*index.base));
        RValue idx = emitExpr(*index.index);
        if (!base.type->isPointer()) {
            // Support the obscure `i[arr]` form.
            std::swap(base, idx);
            base = decay(base);
        }
        if (!base.type->isPointer() || !idx.type->isInteger())
            semaError(expr.loc, "invalid array subscript");
        idx = convert(idx, types_.longTy(), expr.loc);
        const CType *elem = base.type->pointee();
        uint64_t elem_size = types_.sizeOf(elem);
        Instruction *addr =
            builder_.createGep(base.value, 0, idx.value, elem_size);
        return LValue{addr, elem};
      }
      case ExprKind::member: {
        const auto &member = static_cast<const MemberExpr &>(expr);
        Value *base_addr = nullptr;
        const CType *struct_type = nullptr;
        if (member.arrow) {
            RValue base = decay(emitExpr(*member.base));
            if (!base.type->isPointer() || !base.type->pointee()->isStruct())
                semaError(expr.loc, "'->' on a non-struct-pointer");
            base_addr = base.value;
            struct_type = base.type->pointee();
        } else {
            LValue base = emitLValue(*member.base);
            if (!base.type->isStruct())
                semaError(expr.loc, "'.' on a non-struct");
            base_addr = base.addr;
            struct_type = base.type;
        }
        uint64_t offset = 0;
        const CType *field_type =
            typeOfMember(struct_type, member.member, offset, expr.loc);
        Instruction *addr =
            builder_.createGep(base_addr, static_cast<int64_t>(offset));
        return LValue{addr, field_type};
      }
      case ExprKind::stringLit: {
        const auto &lit = static_cast<const StringLitExpr &>(expr);
        GlobalVariable *g = stringLiteral(lit.value);
        return LValue{g, types_.arrayOf(types_.charTy(),
                                        lit.value.size() + 1)};
      }
      default:
        break;
    }
    semaError(expr.loc, "expression is not assignable");
}

const CType *
CodeGen::typeOfMember(const CType *struct_type, const std::string &name,
                      uint64_t &offset, const SourceLoc &loc)
{
    if (!struct_type->isCompleteStruct())
        semaError(loc, "use of incomplete struct " +
                  struct_type->structName());
    const CField *field = struct_type->fieldNamed(name);
    if (field == nullptr)
        semaError(loc, "no member named '" + name + "' in struct " +
                  struct_type->structName());
    const Type *ir = types_.lower(struct_type);
    const StructField *ir_field = ir->fieldNamed(name);
    offset = ir_field->offset;
    return field->type;
}

CodeGen::RValue
CodeGen::loadLValue(const LValue &lv, const SourceLoc &loc)
{
    (void)loc;
    if (lv.type->isArray())
        return decay(RValue{lv.addr, lv.type});
    if (lv.type->isStruct())
        return RValue{lv.addr, lv.type}; // structs travel by address
    if (lv.type->isFunction())
        return RValue{lv.addr, types_.pointerTo(lv.type)};
    Instruction *v = builder_.createLoad(types_.lower(lv.type), lv.addr);
    return RValue{v, lv.type};
}

CodeGen::RValue
CodeGen::emitExpr(const Expr &expr)
{
    builder_.setLoc(expr.loc);
    switch (expr.kind) {
      case ExprKind::intLit: {
        const auto &lit = static_cast<const IntLitExpr &>(expr);
        const CType *type;
        if (lit.isLong) {
            type = lit.isUnsigned ? types_.ulongTy() : types_.longTy();
        } else if (lit.isUnsigned) {
            type = lit.value > 0xffffffffull ? types_.ulongTy()
                                             : types_.uintTy();
        } else if (lit.value > 0x7fffffffull) {
            type = types_.longTy();
        } else {
            type = types_.intTy();
        }
        return RValue{module_.constInt(types_.lower(type),
                                       static_cast<int64_t>(lit.value)),
                      type};
      }
      case ExprKind::floatLit: {
        const auto &lit = static_cast<const FloatLitExpr &>(expr);
        return RValue{module_.constFP(module_.types().f64(), lit.value),
                      types_.doubleTy()};
      }
      case ExprKind::stringLit: {
        const auto &lit = static_cast<const StringLitExpr &>(expr);
        return RValue{stringLiteral(lit.value),
                      types_.pointerTo(types_.charTy())};
      }
      case ExprKind::ident: {
        const auto &ident = static_cast<const IdentExpr &>(expr);
        // Enum constants.
        auto ec = unit_->enumConstants.find(ident.name);
        if (ec != unit_->enumConstants.end() &&
            findLocal(ident.name) == nullptr) {
            return RValue{module_.constI32(
                              static_cast<int32_t>(ec->second)),
                          types_.intTy()};
        }
        // Function designators.
        if (findLocal(ident.name) == nullptr &&
            globalType(ident.name) == nullptr) {
            if (const CType *type = functionType(ident.name)) {
                Function *fn = findFunction(ident.name);
                return RValue{fn, types_.pointerTo(type)};
            }
        }
        return loadLValue(emitLValue(expr), expr.loc);
      }
      case ExprKind::index:
      case ExprKind::member:
        return loadLValue(emitLValue(expr), expr.loc);
      case ExprKind::unary:
        return emitUnary(static_cast<const UnaryExpr &>(expr));
      case ExprKind::binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        if (bin.op == BinaryOp::logAnd || bin.op == BinaryOp::logOr)
            return emitLogical(bin);
        return emitBinary(bin);
      }
      case ExprKind::assign:
        return emitAssign(static_cast<const AssignExpr &>(expr));
      case ExprKind::conditional:
        return emitConditional(static_cast<const ConditionalExpr &>(expr));
      case ExprKind::cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        RValue v = emitExpr(*cast.operand);
        return convert(v, cast.target, expr.loc, true);
      }
      case ExprKind::call:
        return emitCall(static_cast<const CallExpr &>(expr));
      case ExprKind::sizeofExpr: {
        const auto &so = static_cast<const SizeofExpr &>(expr);
        uint64_t size;
        if (so.typeOperand != nullptr) {
            size = types_.sizeOf(so.typeOperand);
        } else {
            // Compute the type without emitting code: emit into a scratch
            // block, then discard it. Simpler: emit and ignore the value;
            // mini-C accepts the (harmless) side effects.
            RValue v = emitExpr(*so.exprOperand);
            const CType *t = v.type;
            // sizeof on an lvalue of array type must not decay; redo via
            // lvalue path for the common cases.
            if (so.exprOperand->kind == ExprKind::ident ||
                so.exprOperand->kind == ExprKind::member ||
                so.exprOperand->kind == ExprKind::index) {
                LValue lv = emitLValue(*so.exprOperand);
                t = lv.type;
            }
            size = types_.sizeOf(t);
        }
        return RValue{module_.constI64(static_cast<int64_t>(size)),
                      types_.ulongTy()};
      }
      case ExprKind::comma: {
        const auto &comma = static_cast<const CommaExpr &>(expr);
        emitExpr(*comma.lhs);
        return emitExpr(*comma.rhs);
      }
      case ExprKind::vaStart: {
        const auto &va = static_cast<const VaStartExpr &>(expr);
        Function *intrinsic = findFunction("__va_start");
        Instruction *handle = builder_.createCall(
            intrinsic, module_.types().ptr(), {});
        LValue ap = emitLValue(*va.ap);
        builder_.createStore(handle, ap.addr);
        return RValue{nullptr, types_.voidTy()};
      }
      case ExprKind::vaArg: {
        const auto &va = static_cast<const VaArgExpr &>(expr);
        RValue ap = decay(emitExpr(*va.ap));
        Function *intrinsic = findFunction("__va_arg_ptr");
        Instruction *p = builder_.createCall(
            intrinsic, module_.types().ptr(), {ap.value});
        if (!va.argType->isScalar())
            semaError(expr.loc, "va_arg of non-scalar type");
        Instruction *v =
            builder_.createLoad(types_.lower(va.argType), p);
        return RValue{v, va.argType};
      }
      case ExprKind::vaEnd: {
        const auto &va = static_cast<const VaEndExpr &>(expr);
        RValue ap = decay(emitExpr(*va.ap));
        Function *intrinsic = findFunction("__va_end");
        builder_.createCall(intrinsic, module_.types().voidTy(),
                            {ap.value});
        return RValue{nullptr, types_.voidTy()};
      }
      case ExprKind::initList:
        semaError(expr.loc, "initializer list in expression context");
      default:
        throw InternalError("unhandled expression kind");
    }
}

CodeGen::RValue
CodeGen::emitUnary(const UnaryExpr &expr)
{
    switch (expr.op) {
      case UnaryOp::neg: {
        RValue v = decay(emitExpr(*expr.operand));
        if (v.type->isInteger()) {
            v = convert(v, types_.promote(v.type), expr.loc);
            Instruction *out = builder_.createBinOp(
                Opcode::sub,
                module_.constInt(types_.lower(v.type), 0), v.value);
            return RValue{out, v.type};
        }
        if (v.type->isFloat())
            return RValue{builder_.createFNeg(v.value), v.type};
        semaError(expr.loc, "invalid operand to unary '-'");
      }
      case UnaryOp::bitNot: {
        RValue v = decay(emitExpr(*expr.operand));
        if (!v.type->isInteger())
            semaError(expr.loc, "invalid operand to '~'");
        v = convert(v, types_.promote(v.type), expr.loc);
        Instruction *out = builder_.createBinOp(
            Opcode::xor_, v.value,
            module_.constInt(types_.lower(v.type), -1));
        return RValue{out, v.type};
      }
      case UnaryOp::logicalNot: {
        Value *b = toBool(emitExpr(*expr.operand), expr.loc);
        Instruction *inverted = builder_.createICmp(
            IntPred::eq, b, module_.constBool(false));
        Instruction *out = builder_.createCast(
            Opcode::zext, inverted, module_.types().i32());
        return RValue{out, types_.intTy()};
      }
      case UnaryOp::deref: {
        LValue lv = emitLValue(expr);
        return loadLValue(lv, expr.loc);
      }
      case UnaryOp::addrOf: {
        // &function is the function pointer itself.
        if (expr.operand->kind == ExprKind::ident) {
            const auto &ident =
                static_cast<const IdentExpr &>(*expr.operand);
            if (findLocal(ident.name) == nullptr &&
                globalType(ident.name) == nullptr) {
                if (const CType *type = functionType(ident.name)) {
                    Function *fn = findFunction(ident.name);
                    return RValue{fn, types_.pointerTo(type)};
                }
            }
        }
        LValue lv = emitLValue(*expr.operand);
        return RValue{lv.addr, types_.pointerTo(lv.type)};
      }
      case UnaryOp::preInc: case UnaryOp::preDec:
      case UnaryOp::postInc: case UnaryOp::postDec: {
        bool inc = expr.op == UnaryOp::preInc ||
            expr.op == UnaryOp::postInc;
        bool post = expr.op == UnaryOp::postInc ||
            expr.op == UnaryOp::postDec;
        LValue lv = emitLValue(*expr.operand);
        RValue old = loadLValue(lv, expr.loc);
        RValue next;
        if (lv.type->isPointer()) {
            uint64_t elem_size = types_.sizeOf(lv.type->pointee());
            Instruction *addr = builder_.createGep(
                old.value, inc ? static_cast<int64_t>(elem_size)
                               : -static_cast<int64_t>(elem_size));
            next = RValue{addr, lv.type};
        } else if (lv.type->isArithmetic()) {
            RValue one{nullptr, lv.type};
            if (lv.type->isFloat())
                one.value = module_.constFP(types_.lower(lv.type), 1.0);
            else
                one.value = module_.constInt(types_.lower(lv.type), 1);
            Opcode op = lv.type->isFloat()
                ? (inc ? Opcode::fadd : Opcode::fsub)
                : (inc ? Opcode::add : Opcode::sub);
            next = RValue{
                builder_.createBinOp(op, old.value, one.value), lv.type};
        } else {
            semaError(expr.loc, "invalid operand to ++/--");
        }
        builder_.createStore(next.value, lv.addr);
        return post ? old : next;
      }
    }
    throw InternalError("unhandled unary op");
}

CodeGen::RValue
CodeGen::emitBinary(const BinaryExpr &expr)
{
    RValue lhs = emitExpr(*expr.lhs);
    RValue rhs = emitExpr(*expr.rhs);
    return emitBinaryOp(expr.op, std::move(lhs), std::move(rhs), expr.loc);
}

CodeGen::RValue
CodeGen::emitBinaryOp(BinaryOp op, RValue lhs, RValue rhs,
                      const SourceLoc &loc)
{
    lhs = decay(lhs);
    rhs = decay(rhs);

    auto boolResult = [&](Instruction *i1) {
        Instruction *wide =
            builder_.createCast(Opcode::zext, i1, module_.types().i32());
        return RValue{wide, types_.intTy()};
    };

    // Pointer arithmetic.
    if (op == BinaryOp::add || op == BinaryOp::sub) {
        if (lhs.type->isPointer() && rhs.type->isInteger()) {
            RValue idx = convert(rhs, types_.longTy(), loc);
            Value *index = idx.value;
            if (op == BinaryOp::sub) {
                index = builder_.createBinOp(
                    Opcode::sub, module_.constI64(0), index);
            }
            uint64_t elem_size = types_.sizeOf(lhs.type->pointee());
            Instruction *addr =
                builder_.createGep(lhs.value, 0, index, elem_size);
            return RValue{addr, lhs.type};
        }
        if (op == BinaryOp::add && lhs.type->isInteger() &&
            rhs.type->isPointer()) {
            return emitBinaryOp(op, rhs, lhs, loc);
        }
        if (op == BinaryOp::sub && lhs.type->isPointer() &&
            rhs.type->isPointer()) {
            Instruction *l = builder_.createCast(
                Opcode::ptrtoint, lhs.value, module_.types().i64());
            Instruction *r = builder_.createCast(
                Opcode::ptrtoint, rhs.value, module_.types().i64());
            Instruction *diff = builder_.createBinOp(Opcode::sub, l, r);
            uint64_t elem_size = types_.sizeOf(lhs.type->pointee());
            Instruction *out = builder_.createBinOp(
                Opcode::sdiv, diff,
                module_.constI64(static_cast<int64_t>(elem_size)));
            return RValue{out, types_.longTy()};
        }
    }

    // Pointer comparisons.
    if (lhs.type->isPointer() || rhs.type->isPointer()) {
        bool is_cmp = op == BinaryOp::lt || op == BinaryOp::gt ||
            op == BinaryOp::le || op == BinaryOp::ge ||
            op == BinaryOp::eq || op == BinaryOp::ne;
        if (!is_cmp)
            semaError(loc, "invalid pointer operation");
        // Allow comparing against integer-constant null.
        if (lhs.type->isInteger())
            lhs = convert(lhs, rhs.type, loc);
        if (rhs.type->isInteger())
            rhs = convert(rhs, lhs.type, loc);
        IntPred pred;
        switch (op) {
          case BinaryOp::lt: pred = IntPred::ult; break;
          case BinaryOp::gt: pred = IntPred::ugt; break;
          case BinaryOp::le: pred = IntPred::ule; break;
          case BinaryOp::ge: pred = IntPred::uge; break;
          case BinaryOp::eq: pred = IntPred::eq; break;
          default: pred = IntPred::ne; break;
        }
        return boolResult(builder_.createICmp(pred, lhs.value, rhs.value));
    }

    if (!lhs.type->isArithmetic() || !rhs.type->isArithmetic())
        semaError(loc, "invalid operands to binary operator");

    // Shifts keep the (promoted) left type.
    if (op == BinaryOp::shl || op == BinaryOp::shr) {
        lhs = convert(lhs, types_.promote(lhs.type), loc);
        rhs = convert(rhs, lhs.type, loc);
        Opcode opcode = op == BinaryOp::shl
            ? Opcode::shl
            : (lhs.type->isSignedInt() ? Opcode::ashr : Opcode::lshr);
        return RValue{builder_.createBinOp(opcode, lhs.value, rhs.value),
                      lhs.type};
    }

    const CType *common = types_.usualArithmetic(lhs.type, rhs.type);
    lhs = convert(lhs, common, loc);
    rhs = convert(rhs, common, loc);
    bool is_float = common->isFloat();
    bool is_signed = common->isSignedInt();

    switch (op) {
      case BinaryOp::add:
        return RValue{builder_.createBinOp(
            is_float ? Opcode::fadd : Opcode::add, lhs.value, rhs.value),
            common};
      case BinaryOp::sub:
        return RValue{builder_.createBinOp(
            is_float ? Opcode::fsub : Opcode::sub, lhs.value, rhs.value),
            common};
      case BinaryOp::mul:
        return RValue{builder_.createBinOp(
            is_float ? Opcode::fmul : Opcode::mul, lhs.value, rhs.value),
            common};
      case BinaryOp::div:
        return RValue{builder_.createBinOp(
            is_float ? Opcode::fdiv : (is_signed ? Opcode::sdiv
                                                 : Opcode::udiv),
            lhs.value, rhs.value), common};
      case BinaryOp::rem:
        return RValue{builder_.createBinOp(
            is_float ? Opcode::frem : (is_signed ? Opcode::srem
                                                 : Opcode::urem),
            lhs.value, rhs.value), common};
      case BinaryOp::bitAnd:
      case BinaryOp::bitOr:
      case BinaryOp::bitXor: {
        if (is_float)
            semaError(loc, "bitwise operator on floating-point values");
        Opcode opcode = op == BinaryOp::bitAnd ? Opcode::and_
            : op == BinaryOp::bitOr ? Opcode::or_ : Opcode::xor_;
        return RValue{builder_.createBinOp(opcode, lhs.value, rhs.value),
                      common};
      }
      case BinaryOp::lt: case BinaryOp::gt: case BinaryOp::le:
      case BinaryOp::ge: case BinaryOp::eq: case BinaryOp::ne: {
        Instruction *cmp;
        if (is_float) {
            FloatPred pred;
            switch (op) {
              case BinaryOp::lt: pred = FloatPred::olt; break;
              case BinaryOp::gt: pred = FloatPred::ogt; break;
              case BinaryOp::le: pred = FloatPred::ole; break;
              case BinaryOp::ge: pred = FloatPred::oge; break;
              case BinaryOp::eq: pred = FloatPred::oeq; break;
              default: pred = FloatPred::une; break;
            }
            cmp = builder_.createFCmp(pred, lhs.value, rhs.value);
        } else {
            IntPred pred;
            switch (op) {
              case BinaryOp::lt:
                pred = is_signed ? IntPred::slt : IntPred::ult;
                break;
              case BinaryOp::gt:
                pred = is_signed ? IntPred::sgt : IntPred::ugt;
                break;
              case BinaryOp::le:
                pred = is_signed ? IntPred::sle : IntPred::ule;
                break;
              case BinaryOp::ge:
                pred = is_signed ? IntPred::sge : IntPred::uge;
                break;
              case BinaryOp::eq: pred = IntPred::eq; break;
              default: pred = IntPred::ne; break;
            }
            cmp = builder_.createICmp(pred, lhs.value, rhs.value);
        }
        return boolResult(cmp);
      }
      default:
        throw InternalError("unhandled binary op");
    }
}

CodeGen::RValue
CodeGen::emitLogical(const BinaryExpr &expr)
{
    bool is_and = expr.op == BinaryOp::logAnd;
    // Result accumulates in a temporary (no phi nodes in this IR).
    Instruction *tmp =
        createLocalAlloca(module_.types().i32(), "logtmp");
    BasicBlock *rhs_bb = newBlock(is_and ? "and.rhs" : "or.rhs");
    BasicBlock *short_bb = newBlock(is_and ? "and.false" : "or.true");
    BasicBlock *merge = newBlock("log.end");

    Value *lhs = emitCondition(*expr.lhs);
    if (is_and)
        builder_.createCondBr(lhs, rhs_bb, short_bb);
    else
        builder_.createCondBr(lhs, short_bb, rhs_bb);

    builder_.setInsertPoint(short_bb);
    builder_.createStore(module_.constI32(is_and ? 0 : 1), tmp);
    builder_.createBr(merge);

    builder_.setInsertPoint(rhs_bb);
    Value *rhs = emitCondition(*expr.rhs);
    Instruction *wide =
        builder_.createCast(Opcode::zext, rhs, module_.types().i32());
    builder_.createStore(wide, tmp);
    builder_.createBr(merge);

    builder_.setInsertPoint(merge);
    Instruction *out = builder_.createLoad(module_.types().i32(), tmp);
    return RValue{out, types_.intTy()};
}

CodeGen::RValue
CodeGen::emitConditional(const ConditionalExpr &expr)
{
    Value *cond = emitCondition(*expr.cond);
    BasicBlock *then_bb = newBlock("cond.then");
    BasicBlock *else_bb = newBlock("cond.else");
    BasicBlock *merge = newBlock("cond.end");

    // First pass: emit both arms to learn their types, storing results
    // into a temporary of the common type. We need the common type before
    // emitting stores, so emit the arms into their blocks and convert.
    builder_.createCondBr(cond, then_bb, else_bb);

    builder_.setInsertPoint(then_bb);
    RValue then_v = emitExpr(*expr.thenExpr);
    BasicBlock *then_end = builder_.insertBlock();

    builder_.setInsertPoint(else_bb);
    RValue else_v = emitExpr(*expr.elseExpr);
    BasicBlock *else_end = builder_.insertBlock();

    then_v = decay(then_v);
    else_v = decay(else_v);

    const CType *common;
    if (then_v.type->isVoid() || else_v.type->isVoid()) {
        common = types_.voidTy();
    } else if (then_v.type->isArithmetic() && else_v.type->isArithmetic()) {
        common = types_.usualArithmetic(then_v.type, else_v.type);
    } else if (then_v.type->isPointer() && else_v.type->isPointer()) {
        common = then_v.type->pointee()->isVoid() ? else_v.type
                                                  : then_v.type;
    } else if (then_v.type->isPointer() && else_v.type->isInteger()) {
        common = then_v.type;
    } else if (then_v.type->isInteger() && else_v.type->isPointer()) {
        common = else_v.type;
    } else if (then_v.type == else_v.type) {
        common = then_v.type;
    } else {
        semaError(expr.loc, "incompatible conditional operand types");
    }

    if (common->isVoid()) {
        builder_.setInsertPoint(then_end);
        builder_.createBr(merge);
        builder_.setInsertPoint(else_end);
        builder_.createBr(merge);
        builder_.setInsertPoint(merge);
        return RValue{nullptr, common};
    }

    Instruction *tmp = createLocalAlloca(types_.lower(common), "ctmp");
    builder_.setInsertPoint(then_end);
    RValue conv_then = convert(then_v, common, expr.loc);
    builder_.createStore(conv_then.value, tmp);
    builder_.createBr(merge);

    builder_.setInsertPoint(else_end);
    RValue conv_else = convert(else_v, common, expr.loc);
    builder_.createStore(conv_else.value, tmp);
    builder_.createBr(merge);

    builder_.setInsertPoint(merge);
    Instruction *out = builder_.createLoad(types_.lower(common), tmp);
    return RValue{out, common};
}

CodeGen::RValue
CodeGen::emitAssign(const AssignExpr &expr)
{
    if (expr.compound) {
        LValue lv = emitLValue(*expr.lhs);
        RValue old = loadLValue(lv, expr.loc);
        RValue rhs = emitExpr(*expr.rhs);
        RValue result = emitBinaryOp(expr.op, old, rhs, expr.loc);
        result = convert(result, lv.type, expr.loc);
        builder_.createStore(result.value, lv.addr);
        return result;
    }
    LValue lv = emitLValue(*expr.lhs);
    RValue rhs = emitExpr(*expr.rhs);
    if (lv.type->isStruct()) {
        if (rhs.type != lv.type)
            semaError(expr.loc, "mismatched struct assignment");
        emitStructCopy(lv.addr, rhs.value, lv.type);
        return RValue{lv.addr, lv.type};
    }
    rhs = convert(rhs, lv.type, expr.loc);
    builder_.createStore(rhs.value, lv.addr);
    return rhs;
}

CodeGen::RValue
CodeGen::emitCall(const CallExpr &expr)
{
    RValue callee = decay(emitExpr(*expr.callee));
    if (!callee.type->isPointer() || !callee.type->pointee()->isFunction())
        semaError(expr.loc, "called object is not a function");
    const CType *fn_type = callee.type->pointee();
    const auto &params = fn_type->paramTypes();
    if (expr.args.size() < params.size() ||
        (expr.args.size() > params.size() && !fn_type->isVarArg())) {
        semaError(expr.loc, "wrong number of arguments");
    }
    std::vector<Value *> args;
    for (size_t i = 0; i < expr.args.size(); i++) {
        RValue arg = emitExpr(*expr.args[i]);
        if (i < params.size())
            arg = convert(arg, params[i], expr.args[i]->loc);
        else
            arg = defaultPromote(arg, expr.args[i]->loc);
        if (arg.type->isStruct())
            semaError(expr.args[i]->loc,
                      "passing structs by value is not supported");
        args.push_back(arg.value);
    }
    const CType *ret = fn_type->returnType();
    Instruction *call =
        builder_.createCall(callee.value, types_.lower(ret), args);
    return RValue{ret->isVoid() ? nullptr : call, ret};
}

} // namespace sulong
