/**
 * @file
 * Lexer (with a minimal preprocessor) for mini-C.
 *
 * Preprocessing supported: `//` and block comments, `#include` lines
 * (ignored — the standard library is linked by the driver, declarations
 * are injected), and object-like `#define NAME replacement` macros whose
 * replacement is a token sequence substituted during lexing. That covers
 * the corpus, the benchmarks, and our libc sources; function-like macros
 * are rejected with a diagnostic.
 */

#ifndef MS_FRONTEND_LEXER_H
#define MS_FRONTEND_LEXER_H

#include <map>
#include <string_view>
#include <vector>

#include "frontend/token.h"

namespace sulong
{

/**
 * Lexes a whole source buffer into a token vector up front. Errors are
 * reported to the DiagnosticEngine; lexing continues after errors so the
 * parser can report more problems in one run.
 */
class Lexer
{
  public:
    Lexer(std::string file_name, std::string_view source,
          DiagnosticEngine &diags);

    /** Lex everything; the result always ends with an eof token. */
    std::vector<Token> lexAll();

  private:
    Token next();
    Token makeToken(Tok kind);
    char peek(size_t ahead = 0) const;
    char advance();
    bool match(char expected);
    void skipWhitespaceAndComments();
    void handleDirective();
    /** Consume the characters of @p in_class ahead (none a newline)
     *  and return them. */
    std::string_view scanWhile(bool (*in_class)(char));
    Token lexIdentifier();
    Token lexNumber();
    Token lexCharLiteral();
    Token lexStringLiteral();
    int decodeEscape();
    SourceLoc here() const;

    std::string file_;
    /// Viewed, not copied: the caller's text outlives lexAll().
    std::string_view source_;
    DiagnosticEngine &diags_;
    size_t pos_ = 0;
    uint32_t line_ = 1;
    uint32_t col_ = 1;
    std::map<std::string, std::vector<Token>> macros_;
};

} // namespace sulong

#endif // MS_FRONTEND_LEXER_H
