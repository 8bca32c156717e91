/**
 * @file
 * Recursive-descent parser for mini-C.
 *
 * Produces a TranslationUnit AST. Handles the full C declarator syntax
 * for the supported subset (pointers, arrays, function pointers), struct
 * and enum definitions, typedefs, and constant-expression evaluation for
 * array bounds, enum values, and case labels.
 */

#ifndef MS_FRONTEND_PARSER_H
#define MS_FRONTEND_PARSER_H

#include <optional>
#include <unordered_map>

#include "frontend/ast.h"
#include "frontend/token.h"

namespace sulong
{

/** Typedef table shared across all files of one compilation. */
using TypedefMap = std::unordered_map<std::string, const CType *>;

/**
 * The deepest nesting the parser accepts. Each parenthesis, block,
 * statement, declarator, initializer list and struct level counts, and
 * so does each link of an operator, comma or postfix chain, so no tree
 * it builds is deeper than this — which keeps every recursive pass over
 * it (codegen, constant evaluation, destruction) within a bounded stack.
 * Deeper input gets one error and ends the parse of its file. The C
 * standard's minimums are 63 parenthesis and 127 block levels.
 */
constexpr unsigned kMaxNesting = 256;

/**
 * Whether @p source opens more than kMaxNesting parentheses, brackets or
 * braces at once: input the parser is sure to refuse, found by lexing
 * alone, so a service can turn it away before compiling it.
 */
bool bracketsNestTooDeep(const std::string &source);

/**
 * The integer constant expression `l op r`, computed at 64 bits by the
 * IR's scalar semantics (ir/semantics.h). nullopt when @p op divides by
 * zero or is not an arithmetic, shift, bitwise or comparison operator.
 */
std::optional<int64_t> foldConstBinary(BinaryOp op, int64_t l, int64_t r);

/** `op v` likewise, for `-`, `~` and `!`; nullopt for any other op. */
std::optional<int64_t> foldConstUnary(UnaryOp op, int64_t v);

class Parser
{
  public:
    Parser(std::vector<Token> tokens, CTypeContext &types,
           DiagnosticEngine &diags, TypedefMap &typedefs);

    /**
     * Parse the whole token stream into @p unit (which may already hold
     * declarations from previously parsed files of the same program).
     */
    void parseInto(TranslationUnit &unit);

  private:
    // --- Token stream ----------------------------------------------------
    const Token &peek(size_t ahead = 0) const;
    const Token &advance();
    bool at(Tok kind) const { return peek().kind == kind; }
    bool accept(Tok kind);
    const Token &expect(Tok kind, const char *what);
    [[noreturn]] void parseError(const std::string &message);

    /** Holds @p levels of nesting (see kMaxNesting) for its lifetime. */
    class Nest
    {
      public:
        explicit Nest(Parser &parser, unsigned levels = 1);
        ~Nest() { parser_.depth_ -= levels_; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;
        /** One more level, e.g. the next link of a chain. */
        void add();

      private:
        Parser &parser_;
        unsigned levels_ = 0;
    };

    // --- Types and declarators --------------------------------------------
    struct DeclSpec
    {
        const CType *type = nullptr;
        bool isTypedef = false;
        bool isStatic = false;
        bool isExtern = false;
    };

    /** Suffix of a direct declarator: an array bound or a param list. */
    struct DeclSuffix
    {
        bool isArray = false;
        uint64_t arrayLen = 0;
        std::vector<const CType *> params;
        std::vector<std::string> paramNames;
        bool varArg = false;
    };

    /** Parsed declarator before type construction. */
    struct Declarator
    {
        unsigned pointerLevels = 0;
        std::unique_ptr<Declarator> inner;
        std::string name;
        std::vector<DeclSuffix> suffixes;
        /// Parameter names of the outermost function suffix (if any).
        std::vector<std::string> paramNames;
    };

    bool isTypeStart(size_t ahead = 0) const;
    DeclSpec parseDeclSpecifiers();
    const CType *parseStructSpecifier();
    const CType *parseEnumSpecifier();
    std::unique_ptr<Declarator> parseDeclarator(bool allow_abstract);
    const CType *applyDeclarator(const CType *base, const Declarator &decl,
                                 std::string &name,
                                 std::vector<std::string> *param_names);
    /** Parse "type-name" as used in casts, sizeof, and va_arg. */
    const CType *parseTypeName();
    void parseParamList(DeclSuffix &suffix);

    // --- Declarations ------------------------------------------------------
    void parseTopLevelDecl();
    std::unique_ptr<FunctionDecl>
    parseFunctionDefinition(const DeclSpec &spec, const CType *type,
                            std::string name,
                            std::vector<std::string> param_names,
                            SourceLoc loc);
    ExprPtr parseInitializer();

    // --- Statements ---------------------------------------------------------
    StmtPtr parseStmt();
    std::unique_ptr<CompoundStmt> parseCompound();
    StmtPtr parseDeclStmt();

    // --- Expressions ----------------------------------------------------------
    ExprPtr parseExpr();
    ExprPtr parseAssign();
    ExprPtr parseConditional();
    ExprPtr parseBinary(int min_prec);
    ExprPtr parseUnary();
    ExprPtr parsePostfix(ExprPtr base);
    ExprPtr parsePrimary();

    // --- Constant expressions ---------------------------------------------------
    int64_t evalConstInt(const Expr &expr);

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    CTypeContext &types_;
    DiagnosticEngine &diags_;
    TranslationUnit *unit_ = nullptr;
    TypedefMap &typedefs_;
    unsigned depth_ = 0;
};

/** Error used internally for parse-abort; carries no payload. */
struct ParseAbort
{
};

/** Ends the parse of a file that nests deeper than kMaxNesting. */
struct NestingAbort
{
};

} // namespace sulong

#endif // MS_FRONTEND_PARSER_H
