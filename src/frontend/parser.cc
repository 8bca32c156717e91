#include "frontend/parser.h"

#include "frontend/lexer.h"
#include "ir/semantics.h"

namespace sulong
{

Parser::Parser(std::vector<Token> tokens, CTypeContext &types,
               DiagnosticEngine &diags, TypedefMap &typedefs)
    : tokens_(std::move(tokens)), types_(types), diags_(diags),
      typedefs_(typedefs)
{
    if (tokens_.empty() || tokens_.back().kind != Tok::eof) {
        Token eof;
        eof.kind = Tok::eof;
        tokens_.push_back(eof);
    }
}

const Token &
Parser::peek(size_t ahead) const
{
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
}

const Token &
Parser::advance()
{
    const Token &tok = tokens_[pos_];
    if (pos_ + 1 < tokens_.size())
        pos_++;
    return tok;
}

bool
Parser::accept(Tok kind)
{
    if (!at(kind))
        return false;
    advance();
    return true;
}

const Token &
Parser::expect(Tok kind, const char *what)
{
    if (!at(kind)) {
        parseError(std::string("expected ") + what + ", found '" +
                   (peek().text.empty() ? tokName(peek().kind) : peek().text) +
                   "'");
    }
    return advance();
}

void
Parser::parseError(const std::string &message)
{
    diags_.error(peek().loc, message);
    throw ParseAbort{};
}

Parser::Nest::Nest(Parser &parser, unsigned levels) : parser_(parser)
{
    for (unsigned i = 0; i < levels; i++)
        add();
}

void
Parser::Nest::add()
{
    if (parser_.depth_ == kMaxNesting) {
        parser_.diags_.error(parser_.peek().loc,
                             "nesting deeper than " +
                                 std::to_string(kMaxNesting) + " levels");
        throw NestingAbort{};
    }
    parser_.depth_++;
    levels_++;
}

bool
bracketsNestTooDeep(const std::string &source)
{
    DiagnosticEngine diags;
    unsigned depth = 0;
    for (const Token &tok : Lexer("<input>", source, diags).lexAll()) {
        switch (tok.kind) {
          case Tok::lparen: case Tok::lbracket: case Tok::lbrace:
            if (++depth > kMaxNesting)
                return true;
            break;
          case Tok::rparen: case Tok::rbracket: case Tok::rbrace:
            if (depth > 0)
                depth--;
            break;
          default:
            break;
        }
    }
    return false;
}

// -----------------------------------------------------------------------
// Types
// -----------------------------------------------------------------------

bool
Parser::isTypeStart(size_t ahead) const
{
    const Token &tok = peek(ahead);
    switch (tok.kind) {
      case Tok::kwVoid: case Tok::kwChar: case Tok::kwShort:
      case Tok::kwInt: case Tok::kwLong: case Tok::kwFloat:
      case Tok::kwDouble: case Tok::kwSigned: case Tok::kwUnsigned:
      case Tok::kwConst: case Tok::kwVolatile: case Tok::kwStruct:
      case Tok::kwUnion: case Tok::kwEnum: case Tok::kwVaList:
      case Tok::kwStatic: case Tok::kwExtern: case Tok::kwTypedef:
      case Tok::kwInline: case Tok::kwRestrict:
        return true;
      case Tok::identifier:
        return typedefs_.count(tok.text) > 0;
      default:
        return false;
    }
}

Parser::DeclSpec
Parser::parseDeclSpecifiers()
{
    DeclSpec spec;
    // Accumulated basic-type words.
    int n_long = 0, n_short = 0, n_signed = 0, n_unsigned = 0;
    int n_int = 0, n_char = 0, n_float = 0, n_double = 0, n_void = 0;
    const CType *named = nullptr; // struct / enum / typedef / va_list

    while (true) {
        switch (peek().kind) {
          case Tok::kwConst: case Tok::kwVolatile: case Tok::kwInline:
          case Tok::kwRestrict:
            advance();
            continue;
          case Tok::kwTypedef:
            spec.isTypedef = true;
            advance();
            continue;
          case Tok::kwStatic:
            spec.isStatic = true;
            advance();
            continue;
          case Tok::kwExtern:
            spec.isExtern = true;
            advance();
            continue;
          case Tok::kwVoid: n_void++; advance(); continue;
          case Tok::kwChar: n_char++; advance(); continue;
          case Tok::kwShort: n_short++; advance(); continue;
          case Tok::kwInt: n_int++; advance(); continue;
          case Tok::kwLong: n_long++; advance(); continue;
          case Tok::kwFloat: n_float++; advance(); continue;
          case Tok::kwDouble: n_double++; advance(); continue;
          case Tok::kwSigned: n_signed++; advance(); continue;
          case Tok::kwUnsigned: n_unsigned++; advance(); continue;
          case Tok::kwUnion:
            parseError("unions are not supported by mini-C");
          case Tok::kwStruct:
            named = parseStructSpecifier();
            continue;
          case Tok::kwEnum:
            named = parseEnumSpecifier();
            continue;
          case Tok::kwVaList:
            advance();
            named = types_.pointerTo(types_.voidTy());
            continue;
          case Tok::identifier: {
            // A typedef name, but only if no basic type was given yet.
            bool have_basic = n_long || n_short || n_signed || n_unsigned ||
                n_int || n_char || n_float || n_double || n_void;
            if (named == nullptr && !have_basic &&
                typedefs_.count(peek().text)) {
                named = typedefs_[advance().text];
                continue;
            }
            break;
          }
          default:
            break;
        }
        break;
    }

    if (named != nullptr) {
        spec.type = named;
        return spec;
    }
    if (n_void) {
        spec.type = types_.voidTy();
    } else if (n_char) {
        spec.type = n_unsigned ? types_.ucharTy() : types_.charTy();
    } else if (n_short) {
        spec.type = n_unsigned ? types_.ushortTy() : types_.shortTy();
    } else if (n_long) {
        spec.type = n_unsigned ? types_.ulongTy() : types_.longTy();
    } else if (n_float) {
        spec.type = types_.floatTy();
    } else if (n_double) {
        spec.type = types_.doubleTy();
    } else if (n_int || n_signed) {
        spec.type = n_unsigned ? types_.uintTy() : types_.intTy();
    } else if (n_unsigned) {
        spec.type = types_.uintTy();
    } else {
        parseError("expected a type");
    }
    return spec;
}

const CType *
Parser::parseStructSpecifier()
{
    Nest nest(*this);
    expect(Tok::kwStruct, "'struct'");
    std::string tag;
    if (at(Tok::identifier))
        tag = advance().text;
    const CType *struct_type = types_.declareStruct(tag);
    if (accept(Tok::lbrace)) {
        if (struct_type->isCompleteStruct())
            parseError("redefinition of struct " + tag);
        std::vector<CField> fields;
        while (!accept(Tok::rbrace)) {
            DeclSpec spec = parseDeclSpecifiers();
            do {
                auto decl = parseDeclarator(false);
                std::string name;
                const CType *field_type =
                    applyDeclarator(spec.type, *decl, name, nullptr);
                if (field_type->isFunction())
                    parseError("struct field cannot have function type");
                fields.push_back(CField{name, field_type});
            } while (accept(Tok::comma));
            expect(Tok::semi, "';' after struct field");
        }
        types_.completeStruct(struct_type, std::move(fields));
    }
    return struct_type;
}

const CType *
Parser::parseEnumSpecifier()
{
    expect(Tok::kwEnum, "'enum'");
    if (at(Tok::identifier))
        advance(); // tag is irrelevant: all enums are int
    if (accept(Tok::lbrace)) {
        int64_t next = 0;
        while (!accept(Tok::rbrace)) {
            std::string name = expect(Tok::identifier, "enumerator").text;
            if (accept(Tok::assign)) {
                ExprPtr value = parseConditional();
                next = evalConstInt(*value);
            }
            if (unit_ != nullptr)
                unit_->enumConstants[name] = next;
            next = *foldConstBinary(BinaryOp::add, next, 1);
            if (!accept(Tok::comma) && !at(Tok::rbrace))
                parseError("expected ',' or '}' in enum");
        }
    }
    return types_.intTy();
}

std::unique_ptr<Parser::Declarator>
Parser::parseDeclarator(bool allow_abstract)
{
    // Each pointer level and suffix nests the declared type one deeper.
    Nest nest(*this);
    auto decl = std::make_unique<Declarator>();
    while (accept(Tok::star)) {
        nest.add();
        decl->pointerLevels++;
        while (accept(Tok::kwConst) || accept(Tok::kwVolatile) ||
               accept(Tok::kwRestrict)) {
        }
    }
    if (at(Tok::lparen) &&
        (peek(1).kind == Tok::star ||
         (peek(1).kind == Tok::lparen && peek(2).kind == Tok::star))) {
        // Nested declarator, e.g. the "(*f)" in "int (*f)(int)".
        advance();
        decl->inner = parseDeclarator(allow_abstract);
        expect(Tok::rparen, "')' after declarator");
    } else if (at(Tok::identifier)) {
        decl->name = advance().text;
    } else if (!allow_abstract) {
        parseError("expected a name in declarator");
    }
    while (true) {
        if (at(Tok::lbracket) || at(Tok::lparen))
            nest.add();
        if (accept(Tok::lbracket)) {
            DeclSuffix suffix;
            suffix.isArray = true;
            if (!at(Tok::rbracket)) {
                ExprPtr len = parseConditional();
                int64_t value = evalConstInt(*len);
                if (value < 0)
                    parseError("negative array size");
                suffix.arrayLen = static_cast<uint64_t>(value);
            }
            expect(Tok::rbracket, "']'");
            decl->suffixes.push_back(std::move(suffix));
        } else if (at(Tok::lparen)) {
            advance();
            DeclSuffix suffix;
            parseParamList(suffix);
            if (decl->suffixes.empty())
                decl->paramNames = suffix.paramNames;
            decl->suffixes.push_back(std::move(suffix));
        } else {
            break;
        }
    }
    return decl;
}

void
Parser::parseParamList(DeclSuffix &suffix)
{
    suffix.isArray = false;
    if (accept(Tok::rparen))
        return;
    if (at(Tok::kwVoid) && peek(1).kind == Tok::rparen) {
        advance();
        advance();
        return;
    }
    while (true) {
        if (accept(Tok::ellipsis)) {
            suffix.varArg = true;
            expect(Tok::rparen, "')' after '...'");
            return;
        }
        DeclSpec spec = parseDeclSpecifiers();
        auto decl = parseDeclarator(true);
        std::string name;
        const CType *param_type =
            applyDeclarator(spec.type, *decl, name, nullptr);
        // Parameter adjustments: arrays and functions decay to pointers.
        if (param_type->isArray())
            param_type = types_.pointerTo(param_type->elemType());
        else if (param_type->isFunction())
            param_type = types_.pointerTo(param_type);
        suffix.params.push_back(param_type);
        suffix.paramNames.push_back(name);
        if (accept(Tok::rparen))
            return;
        expect(Tok::comma, "',' between parameters");
    }
}

const CType *
Parser::applyDeclarator(const CType *base, const Declarator &decl,
                        std::string &name,
                        std::vector<std::string> *param_names)
{
    const CType *type = base;
    for (unsigned i = 0; i < decl.pointerLevels; i++)
        type = types_.pointerTo(type);
    for (auto it = decl.suffixes.rbegin(); it != decl.suffixes.rend(); ++it) {
        if (it->isArray) {
            type = types_.arrayOf(type, it->arrayLen);
        } else {
            if (type->isArray() || type->isFunction())
                parseError("invalid function return type");
            type = types_.functionType(type, it->params, it->varArg);
        }
    }
    if (decl.inner != nullptr)
        return applyDeclarator(type, *decl.inner, name, param_names);
    name = decl.name;
    if (param_names != nullptr)
        *param_names = decl.paramNames;
    return type;
}

const CType *
Parser::parseTypeName()
{
    DeclSpec spec = parseDeclSpecifiers();
    auto decl = parseDeclarator(true);
    std::string name;
    const CType *type = applyDeclarator(spec.type, *decl, name, nullptr);
    if (!name.empty())
        parseError("type name must not declare '" + name + "'");
    return type;
}

// -----------------------------------------------------------------------
// Declarations
// -----------------------------------------------------------------------

void
Parser::parseInto(TranslationUnit &unit)
{
    unit_ = &unit;
    while (!at(Tok::eof)) {
        try {
            parseTopLevelDecl();
        } catch (const NestingAbort &) {
            return;
        } catch (const ParseAbort &) {
            // Skip to the next ';' or '}' at top level and continue.
            while (!at(Tok::eof) && !accept(Tok::semi) && !accept(Tok::rbrace))
                advance();
        }
    }
}

void
Parser::parseTopLevelDecl()
{
    SourceLoc loc = peek().loc;
    DeclSpec spec = parseDeclSpecifiers();
    if (accept(Tok::semi))
        return; // bare "struct foo {...};" or "enum {...};"

    bool first = true;
    while (true) {
        auto decl = parseDeclarator(false);
        std::string name;
        std::vector<std::string> param_names;
        const CType *type =
            applyDeclarator(spec.type, *decl, name, &param_names);

        if (spec.isTypedef) {
            typedefs_[name] = type;
        } else if (type->isFunction()) {
            if (first && at(Tok::lbrace)) {
                unit_->functions.push_back(parseFunctionDefinition(
                    spec, type, std::move(name), std::move(param_names),
                    loc));
                return;
            }
            // Prototype only.
            auto fn = std::make_unique<FunctionDecl>();
            fn->name = std::move(name);
            fn->type = type;
            fn->paramNames = std::move(param_names);
            fn->isStatic = spec.isStatic;
            fn->loc = loc;
            unit_->functions.push_back(std::move(fn));
        } else {
            VarDecl var;
            var.name = std::move(name);
            var.type = type;
            var.isStatic = spec.isStatic;
            var.isExtern = spec.isExtern;
            var.loc = loc;
            if (accept(Tok::assign))
                var.init = parseInitializer();
            unit_->globals.push_back(std::move(var));
        }
        first = false;
        if (accept(Tok::semi))
            return;
        expect(Tok::comma, "',' or ';' after declaration");
    }
}

std::unique_ptr<FunctionDecl>
Parser::parseFunctionDefinition(const DeclSpec &spec, const CType *type,
                                std::string name,
                                std::vector<std::string> param_names,
                                SourceLoc loc)
{
    auto fn = std::make_unique<FunctionDecl>();
    fn->name = std::move(name);
    fn->type = type;
    fn->paramNames = std::move(param_names);
    fn->isStatic = spec.isStatic;
    fn->loc = std::move(loc);
    fn->body = parseCompound();
    return fn;
}

ExprPtr
Parser::parseInitializer()
{
    Nest nest(*this);
    if (at(Tok::lbrace)) {
        auto list = std::make_unique<InitListExpr>();
        list->loc = peek().loc;
        advance();
        while (!accept(Tok::rbrace)) {
            list->elems.push_back(parseInitializer());
            if (!accept(Tok::comma) && !at(Tok::rbrace))
                parseError("expected ',' or '}' in initializer");
        }
        return list;
    }
    return parseAssign();
}

// -----------------------------------------------------------------------
// Statements
// -----------------------------------------------------------------------

std::unique_ptr<CompoundStmt>
Parser::parseCompound()
{
    auto block = std::make_unique<CompoundStmt>();
    block->loc = peek().loc;
    expect(Tok::lbrace, "'{'");
    while (!accept(Tok::rbrace)) {
        if (at(Tok::eof))
            parseError("unterminated block");
        block->body.push_back(parseStmt());
    }
    return block;
}

StmtPtr
Parser::parseDeclStmt()
{
    auto stmt = std::make_unique<DeclStmt>();
    stmt->loc = peek().loc;
    DeclSpec spec = parseDeclSpecifiers();
    if (accept(Tok::semi))
        return stmt; // local struct/enum definition
    if (spec.isTypedef) {
        // Local typedefs get file scope in mini-C; rare but harmless.
        do {
            auto decl = parseDeclarator(false);
            std::string name;
            const CType *type =
                applyDeclarator(spec.type, *decl, name, nullptr);
            typedefs_[name] = type;
        } while (accept(Tok::comma));
        expect(Tok::semi, "';' after typedef");
        return stmt;
    }
    do {
        auto decl = parseDeclarator(false);
        VarDecl var;
        var.loc = stmt->loc;
        var.type = applyDeclarator(spec.type, *decl, var.name, nullptr);
        var.isStatic = spec.isStatic;
        var.isExtern = spec.isExtern;
        if (accept(Tok::assign))
            var.init = parseInitializer();
        stmt->vars.push_back(std::move(var));
    } while (accept(Tok::comma));
    expect(Tok::semi, "';' after declaration");
    return stmt;
}

StmtPtr
Parser::parseStmt()
{
    Nest nest(*this);
    SourceLoc loc = peek().loc;
    switch (peek().kind) {
      case Tok::lbrace:
        return parseCompound();
      case Tok::semi:
        advance();
        return std::make_unique<NullStmt>();
      case Tok::kwIf: {
        advance();
        auto stmt = std::make_unique<IfStmt>();
        stmt->loc = std::move(loc);
        expect(Tok::lparen, "'(' after if");
        stmt->cond = parseExpr();
        expect(Tok::rparen, "')' after condition");
        stmt->thenStmt = parseStmt();
        if (accept(Tok::kwElse))
            stmt->elseStmt = parseStmt();
        return stmt;
      }
      case Tok::kwWhile: {
        advance();
        auto stmt = std::make_unique<WhileStmt>();
        stmt->loc = std::move(loc);
        expect(Tok::lparen, "'(' after while");
        stmt->cond = parseExpr();
        expect(Tok::rparen, "')' after condition");
        stmt->body = parseStmt();
        return stmt;
      }
      case Tok::kwDo: {
        advance();
        auto stmt = std::make_unique<DoWhileStmt>();
        stmt->loc = std::move(loc);
        stmt->body = parseStmt();
        expect(Tok::kwWhile, "'while' after do body");
        expect(Tok::lparen, "'('");
        stmt->cond = parseExpr();
        expect(Tok::rparen, "')'");
        expect(Tok::semi, "';'");
        return stmt;
      }
      case Tok::kwFor: {
        advance();
        auto stmt = std::make_unique<ForStmt>();
        stmt->loc = std::move(loc);
        expect(Tok::lparen, "'(' after for");
        if (!accept(Tok::semi)) {
            if (isTypeStart()) {
                stmt->init = parseDeclStmt();
            } else {
                auto init = std::make_unique<ExprStmt>();
                init->expr = parseExpr();
                stmt->init = std::move(init);
                expect(Tok::semi, "';' in for");
            }
        }
        if (!at(Tok::semi))
            stmt->cond = parseExpr();
        expect(Tok::semi, "';' in for");
        if (!at(Tok::rparen))
            stmt->step = parseExpr();
        expect(Tok::rparen, "')' after for header");
        stmt->body = parseStmt();
        return stmt;
      }
      case Tok::kwReturn: {
        advance();
        auto stmt = std::make_unique<ReturnStmt>();
        stmt->loc = std::move(loc);
        if (!at(Tok::semi))
            stmt->value = parseExpr();
        expect(Tok::semi, "';' after return");
        return stmt;
      }
      case Tok::kwBreak: {
        advance();
        expect(Tok::semi, "';' after break");
        auto stmt = std::make_unique<BreakStmt>();
        stmt->loc = std::move(loc);
        return stmt;
      }
      case Tok::kwContinue: {
        advance();
        expect(Tok::semi, "';' after continue");
        auto stmt = std::make_unique<ContinueStmt>();
        stmt->loc = std::move(loc);
        return stmt;
      }
      case Tok::kwSwitch: {
        advance();
        auto stmt = std::make_unique<SwitchStmt>();
        stmt->loc = std::move(loc);
        expect(Tok::lparen, "'(' after switch");
        stmt->cond = parseExpr();
        expect(Tok::rparen, "')'");
        stmt->body = parseStmt();
        return stmt;
      }
      case Tok::kwCase: {
        advance();
        auto stmt = std::make_unique<CaseStmt>();
        stmt->loc = std::move(loc);
        ExprPtr value = parseConditional();
        stmt->value = evalConstInt(*value);
        expect(Tok::colon, "':' after case value");
        stmt->sub = parseStmt();
        return stmt;
      }
      case Tok::kwDefault: {
        advance();
        auto stmt = std::make_unique<DefaultStmt>();
        stmt->loc = std::move(loc);
        expect(Tok::colon, "':' after default");
        stmt->sub = parseStmt();
        return stmt;
      }
      case Tok::kwGoto:
        parseError("goto is not supported by mini-C");
      default:
        break;
    }
    if (isTypeStart())
        return parseDeclStmt();
    auto stmt = std::make_unique<ExprStmt>();
    stmt->loc = std::move(loc);
    stmt->expr = parseExpr();
    expect(Tok::semi, "';' after expression");
    return stmt;
}

// -----------------------------------------------------------------------
// Expressions
// -----------------------------------------------------------------------

ExprPtr
Parser::parseExpr()
{
    Nest chain(*this, 0);
    ExprPtr lhs = parseAssign();
    while (at(Tok::comma)) {
        chain.add();
        SourceLoc loc = advance().loc;
        auto comma = std::make_unique<CommaExpr>();
        comma->loc = std::move(loc);
        comma->lhs = std::move(lhs);
        comma->rhs = parseAssign();
        lhs = std::move(comma);
    }
    return lhs;
}

namespace
{

bool
tokenToAssignOp(Tok kind, BinaryOp &op, bool &compound)
{
    compound = true;
    switch (kind) {
      case Tok::assign: compound = false; return true;
      case Tok::plusAssign: op = BinaryOp::add; return true;
      case Tok::minusAssign: op = BinaryOp::sub; return true;
      case Tok::starAssign: op = BinaryOp::mul; return true;
      case Tok::slashAssign: op = BinaryOp::div; return true;
      case Tok::percentAssign: op = BinaryOp::rem; return true;
      case Tok::shlAssign: op = BinaryOp::shl; return true;
      case Tok::shrAssign: op = BinaryOp::shr; return true;
      case Tok::andAssign: op = BinaryOp::bitAnd; return true;
      case Tok::orAssign: op = BinaryOp::bitOr; return true;
      case Tok::xorAssign: op = BinaryOp::bitXor; return true;
      default: return false;
    }
}

/** Binary operator precedence (higher binds tighter); 0 = not binary. */
int
binaryPrec(Tok kind, BinaryOp &op)
{
    switch (kind) {
      case Tok::pipepipe: op = BinaryOp::logOr; return 1;
      case Tok::ampamp: op = BinaryOp::logAnd; return 2;
      case Tok::pipe: op = BinaryOp::bitOr; return 3;
      case Tok::caret: op = BinaryOp::bitXor; return 4;
      case Tok::amp: op = BinaryOp::bitAnd; return 5;
      case Tok::eqeq: op = BinaryOp::eq; return 6;
      case Tok::ne: op = BinaryOp::ne; return 6;
      case Tok::lt: op = BinaryOp::lt; return 7;
      case Tok::gt: op = BinaryOp::gt; return 7;
      case Tok::le: op = BinaryOp::le; return 7;
      case Tok::ge: op = BinaryOp::ge; return 7;
      case Tok::shl: op = BinaryOp::shl; return 8;
      case Tok::shr: op = BinaryOp::shr; return 8;
      case Tok::plus: op = BinaryOp::add; return 9;
      case Tok::minus: op = BinaryOp::sub; return 9;
      case Tok::star: op = BinaryOp::mul; return 10;
      case Tok::slash: op = BinaryOp::div; return 10;
      case Tok::percent: op = BinaryOp::rem; return 10;
      default: return 0;
    }
}

} // namespace

ExprPtr
Parser::parseAssign()
{
    ExprPtr lhs = parseConditional();
    BinaryOp op = BinaryOp::add;
    bool compound = false;
    if (tokenToAssignOp(peek().kind, op, compound)) {
        SourceLoc loc = advance().loc;
        auto assign = std::make_unique<AssignExpr>();
        assign->loc = std::move(loc);
        assign->compound = compound;
        assign->op = op;
        assign->lhs = std::move(lhs);
        Nest nest(*this);
        assign->rhs = parseAssign();
        return assign;
    }
    return lhs;
}

ExprPtr
Parser::parseConditional()
{
    ExprPtr cond = parseBinary(1);
    if (!at(Tok::question))
        return cond;
    Nest nest(*this);
    SourceLoc loc = advance().loc;
    auto expr = std::make_unique<ConditionalExpr>();
    expr->loc = std::move(loc);
    expr->cond = std::move(cond);
    expr->thenExpr = parseExpr();
    expect(Tok::colon, "':' in conditional");
    expr->elseExpr = parseConditional();
    return expr;
}

ExprPtr
Parser::parseBinary(int min_prec)
{
    Nest chain(*this, 0);
    ExprPtr lhs = parseUnary();
    while (true) {
        BinaryOp op = BinaryOp::add;
        int prec = binaryPrec(peek().kind, op);
        if (prec == 0 || prec < min_prec)
            return lhs;
        chain.add();
        SourceLoc loc = advance().loc;
        auto bin = std::make_unique<BinaryExpr>();
        bin->loc = std::move(loc);
        bin->op = op;
        bin->lhs = std::move(lhs);
        bin->rhs = parseBinary(prec + 1);
        lhs = std::move(bin);
    }
}

ExprPtr
Parser::parseUnary()
{
    Nest nest(*this);
    SourceLoc loc = peek().loc;
    auto makeUnary = [&](UnaryOp op) {
        advance();
        auto expr = std::make_unique<UnaryExpr>();
        expr->loc = loc;
        expr->op = op;
        expr->operand = parseUnary();
        return expr;
    };
    switch (peek().kind) {
      case Tok::minus: return makeUnary(UnaryOp::neg);
      case Tok::bang: return makeUnary(UnaryOp::logicalNot);
      case Tok::tilde: return makeUnary(UnaryOp::bitNot);
      case Tok::star: return makeUnary(UnaryOp::deref);
      case Tok::amp: return makeUnary(UnaryOp::addrOf);
      case Tok::plus:
        advance();
        return parseUnary();
      case Tok::plusplus: return makeUnary(UnaryOp::preInc);
      case Tok::minusminus: return makeUnary(UnaryOp::preDec);
      case Tok::kwSizeof: {
        advance();
        auto expr = std::make_unique<SizeofExpr>();
        expr->loc = std::move(loc);
        if (at(Tok::lparen) && isTypeStart(1)) {
            advance();
            expr->typeOperand = parseTypeName();
            expect(Tok::rparen, "')' after sizeof type");
        } else {
            expr->exprOperand = parseUnary();
        }
        return expr;
      }
      case Tok::lparen:
        if (isTypeStart(1)) {
            advance();
            const CType *target = parseTypeName();
            expect(Tok::rparen, "')' after cast type");
            auto expr = std::make_unique<CastExpr>();
            expr->loc = std::move(loc);
            expr->target = target;
            expr->operand = parseUnary();
            return expr;
        }
        break;
      default:
        break;
    }
    return parsePostfix(parsePrimary());
}

ExprPtr
Parser::parsePostfix(ExprPtr base)
{
    Nest chain(*this, 0);
    while (true) {
        SourceLoc loc = peek().loc;
        switch (peek().kind) {
          case Tok::lparen: {
            chain.add();
            advance();
            auto call = std::make_unique<CallExpr>();
            call->loc = std::move(loc);
            call->callee = std::move(base);
            if (!accept(Tok::rparen)) {
                do {
                    call->args.push_back(parseAssign());
                } while (accept(Tok::comma));
                expect(Tok::rparen, "')' after call arguments");
            }
            base = std::move(call);
            break;
          }
          case Tok::lbracket: {
            chain.add();
            advance();
            auto index = std::make_unique<IndexExpr>();
            index->loc = std::move(loc);
            index->base = std::move(base);
            index->index = parseExpr();
            expect(Tok::rbracket, "']'");
            base = std::move(index);
            break;
          }
          case Tok::dot:
          case Tok::arrow: {
            chain.add();
            bool arrow = peek().kind == Tok::arrow;
            advance();
            auto member = std::make_unique<MemberExpr>();
            member->loc = std::move(loc);
            member->base = std::move(base);
            member->arrow = arrow;
            member->member = expect(Tok::identifier, "member name").text;
            base = std::move(member);
            break;
          }
          case Tok::plusplus:
          case Tok::minusminus: {
            chain.add();
            bool inc = peek().kind == Tok::plusplus;
            advance();
            auto expr = std::make_unique<UnaryExpr>();
            expr->loc = std::move(loc);
            expr->op = inc ? UnaryOp::postInc : UnaryOp::postDec;
            expr->operand = std::move(base);
            base = std::move(expr);
            break;
          }
          default:
            return base;
        }
    }
}

ExprPtr
Parser::parsePrimary()
{
    SourceLoc loc = peek().loc;
    switch (peek().kind) {
      case Tok::intLiteral: {
        const Token &tok = advance();
        auto expr = std::make_unique<IntLitExpr>();
        expr->loc = std::move(loc);
        expr->value = tok.intValue;
        expr->isUnsigned = tok.isUnsigned;
        expr->isLong = tok.isLong;
        return expr;
      }
      case Tok::floatLiteral: {
        const Token &tok = advance();
        auto expr = std::make_unique<FloatLitExpr>();
        expr->loc = std::move(loc);
        expr->value = tok.floatValue;
        return expr;
      }
      case Tok::stringLiteral: {
        auto expr = std::make_unique<StringLitExpr>();
        expr->loc = std::move(loc);
        // Adjacent string literals concatenate.
        while (at(Tok::stringLiteral))
            expr->value += advance().stringValue;
        return expr;
      }
      case Tok::identifier: {
        auto expr = std::make_unique<IdentExpr>();
        expr->loc = std::move(loc);
        expr->name = advance().text;
        return expr;
      }
      case Tok::lparen: {
        advance();
        ExprPtr expr = parseExpr();
        expect(Tok::rparen, "')'");
        return expr;
      }
      case Tok::kwVaStart: {
        advance();
        expect(Tok::lparen, "'(' after va_start");
        auto expr = std::make_unique<VaStartExpr>();
        expr->loc = std::move(loc);
        expr->ap = parseAssign();
        if (accept(Tok::comma))
            expr->last = parseAssign();
        expect(Tok::rparen, "')'");
        return expr;
      }
      case Tok::kwVaArg: {
        advance();
        expect(Tok::lparen, "'(' after va_arg");
        auto expr = std::make_unique<VaArgExpr>();
        expr->loc = std::move(loc);
        expr->ap = parseAssign();
        expect(Tok::comma, "',' in va_arg");
        expr->argType = parseTypeName();
        expect(Tok::rparen, "')'");
        return expr;
      }
      case Tok::kwVaEnd: {
        advance();
        expect(Tok::lparen, "'(' after va_end");
        auto expr = std::make_unique<VaEndExpr>();
        expr->loc = std::move(loc);
        expr->ap = parseAssign();
        expect(Tok::rparen, "')'");
        return expr;
      }
      default:
        parseError("expected an expression");
    }
}

// -----------------------------------------------------------------------
// Constant expressions
// -----------------------------------------------------------------------

std::optional<int64_t>
foldConstBinary(BinaryOp op, int64_t l, int64_t r)
{
    auto arith = [&](Opcode opcode) {
        return sem::intBinOp(opcode, l, r, 64);
    };
    auto compare = [&](IntPred pred) -> std::optional<int64_t> {
        return sem::icmp(pred, l, r) ? 1 : 0;
    };
    switch (op) {
      case BinaryOp::add: return arith(Opcode::add);
      case BinaryOp::sub: return arith(Opcode::sub);
      case BinaryOp::mul: return arith(Opcode::mul);
      case BinaryOp::div: return arith(Opcode::sdiv);
      case BinaryOp::rem: return arith(Opcode::srem);
      case BinaryOp::shl: return arith(Opcode::shl);
      case BinaryOp::shr: return arith(Opcode::ashr);
      case BinaryOp::bitAnd: return arith(Opcode::and_);
      case BinaryOp::bitOr: return arith(Opcode::or_);
      case BinaryOp::bitXor: return arith(Opcode::xor_);
      case BinaryOp::lt: return compare(IntPred::slt);
      case BinaryOp::gt: return compare(IntPred::sgt);
      case BinaryOp::le: return compare(IntPred::sle);
      case BinaryOp::ge: return compare(IntPred::sge);
      case BinaryOp::eq: return compare(IntPred::eq);
      case BinaryOp::ne: return compare(IntPred::ne);
      default: return std::nullopt;
    }
}

std::optional<int64_t>
foldConstUnary(UnaryOp op, int64_t v)
{
    switch (op) {
      case UnaryOp::neg: return sem::intBinOp(Opcode::sub, 0, v, 64);
      case UnaryOp::bitNot: return sem::intBinOp(Opcode::xor_, v, -1, 64);
      case UnaryOp::logicalNot: return v == 0 ? 1 : 0;
      default: return std::nullopt;
    }
}

std::optional<int64_t>
foldConstInt(const Expr &expr, CTypeContext &types,
             const std::map<std::string, int64_t> *enums,
             const Expr *&rejected)
{
    auto fold = [&](const Expr &e) {
        return foldConstInt(e, types, enums, rejected);
    };
    switch (expr.kind) {
      case ExprKind::intLit:
        return static_cast<int64_t>(
            static_cast<const IntLitExpr &>(expr).value);
      case ExprKind::ident: {
        const auto &ident = static_cast<const IdentExpr &>(expr);
        if (enums != nullptr) {
            auto it = enums->find(ident.name);
            if (it != enums->end())
                return it->second;
        }
        break;
      }
      case ExprKind::unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        auto v = fold(*un.operand);
        if (!v)
            return std::nullopt;
        if (auto r = foldConstUnary(un.op, *v))
            return r;
        break;
      }
      case ExprKind::binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        auto l = fold(*bin.lhs);
        if (!l)
            return std::nullopt;
        // Short-circuit forms first: the unevaluated side may be
        // anything.
        if (bin.op == BinaryOp::logAnd && *l == 0)
            return 0;
        if (bin.op == BinaryOp::logOr && *l != 0)
            return 1;
        auto r = fold(*bin.rhs);
        if (!r)
            return std::nullopt;
        if (bin.op == BinaryOp::logAnd || bin.op == BinaryOp::logOr)
            return *r != 0 ? 1 : 0;
        if (auto v = foldConstBinary(bin.op, *l, *r))
            return v;
        break;
      }
      case ExprKind::conditional: {
        const auto &cond = static_cast<const ConditionalExpr &>(expr);
        auto c = fold(*cond.cond);
        if (!c)
            return std::nullopt;
        return fold(*c != 0 ? *cond.thenExpr : *cond.elseExpr);
      }
      case ExprKind::cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        if (!cast.target->isInteger() && !cast.target->isPointer())
            break;
        auto v = fold(*cast.operand);
        if (!v || cast.target->isPointer())
            return v;
        auto bits = static_cast<unsigned>(types.sizeOf(cast.target) * 8);
        return cast.target->isSignedInt()
            ? sem::normInt(static_cast<uint64_t>(*v), bits)
            : static_cast<int64_t>(sem::zextInt(*v, bits));
      }
      case ExprKind::sizeofExpr: {
        const auto &so = static_cast<const SizeofExpr &>(expr);
        if (so.typeOperand != nullptr)
            return static_cast<int64_t>(types.sizeOf(so.typeOperand));
        // sizeof(expr) in constant contexts: string literals only.
        if (so.exprOperand->kind == ExprKind::stringLit) {
            return static_cast<int64_t>(
                static_cast<const StringLitExpr &>(*so.exprOperand)
                    .value.size() + 1);
        }
        break;
      }
      default:
        break;
    }
    rejected = &expr;
    return std::nullopt;
}

int64_t
Parser::evalConstInt(const Expr &expr)
{
    const Expr *rejected = nullptr;
    if (auto v = foldConstInt(expr, types_,
                              unit_ != nullptr ? &unit_->enumConstants
                                               : nullptr,
                              rejected))
        return *v;
    if (rejected->kind == ExprKind::ident) {
        diags_.error(rejected->loc,
                     "'" + static_cast<const IdentExpr *>(rejected)->name +
                         "' is not an integer constant");
    } else {
        diags_.error(rejected->loc,
                     "expression is not an integer constant");
    }
    throw ParseAbort{};
}

} // namespace sulong
