#include "frontend/lexer.h"

#include <cstdlib>

namespace sulong
{

namespace
{

struct Keyword
{
    std::string_view spelling;
    Tok kind;
};

constexpr Keyword kKeywords[] = {
    {"void", Tok::kwVoid},         {"char", Tok::kwChar},
    {"short", Tok::kwShort},       {"int", Tok::kwInt},
    {"long", Tok::kwLong},         {"float", Tok::kwFloat},
    {"double", Tok::kwDouble},     {"signed", Tok::kwSigned},
    {"unsigned", Tok::kwUnsigned}, {"const", Tok::kwConst},
    {"volatile", Tok::kwVolatile}, {"static", Tok::kwStatic},
    {"extern", Tok::kwExtern},     {"struct", Tok::kwStruct},
    {"union", Tok::kwUnion},       {"enum", Tok::kwEnum},
    {"typedef", Tok::kwTypedef},   {"sizeof", Tok::kwSizeof},
    {"if", Tok::kwIf},             {"else", Tok::kwElse},
    {"while", Tok::kwWhile},       {"do", Tok::kwDo},
    {"for", Tok::kwFor},           {"return", Tok::kwReturn},
    {"break", Tok::kwBreak},       {"continue", Tok::kwContinue},
    {"switch", Tok::kwSwitch},     {"case", Tok::kwCase},
    {"default", Tok::kwDefault},   {"goto", Tok::kwGoto},
    {"inline", Tok::kwInline},     {"restrict", Tok::kwRestrict},
    {"va_start", Tok::kwVaStart},  {"va_arg", Tok::kwVaArg},
    {"va_end", Tok::kwVaEnd},      {"va_list", Tok::kwVaList},
    {"__builtin_va_start", Tok::kwVaStart},
    {"__builtin_va_arg", Tok::kwVaArg},
    {"__builtin_va_end", Tok::kwVaEnd},
};

/** The keyword @p text spells, else Tok::identifier: a flat table,
 *  bucketed by first character. */
Tok
keywordOrIdentifier(std::string_view text)
{
    struct Buckets
    {
        std::vector<Keyword> byFirst[128];
        Buckets()
        {
            for (const Keyword &keyword : kKeywords)
                byFirst[static_cast<unsigned char>(keyword.spelling[0])]
                    .push_back(keyword);
        }
    };
    static const Buckets buckets;
    for (const Keyword &keyword :
         buckets.byFirst[static_cast<unsigned char>(text[0]) & 127])
        if (keyword.spelling == text)
            return keyword.kind;
    return Tok::identifier;
}

// ASCII classes, as <cctype> gives them in the "C" locale, without a
// library call per character.
bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isHexDigit(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

bool
isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool
isIdentChar(char c)
{
    return isAlpha(c) || isDigit(c) || c == '_';
}

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

} // namespace

const char *
tokName(Tok kind)
{
    switch (kind) {
      case Tok::eof: return "end of file";
      case Tok::identifier: return "identifier";
      case Tok::intLiteral: return "integer literal";
      case Tok::floatLiteral: return "float literal";
      case Tok::charLiteral: return "character literal";
      case Tok::stringLiteral: return "string literal";
      case Tok::lparen: return "'('";
      case Tok::rparen: return "')'";
      case Tok::lbrace: return "'{'";
      case Tok::rbrace: return "'}'";
      case Tok::lbracket: return "'['";
      case Tok::rbracket: return "']'";
      case Tok::semi: return "';'";
      case Tok::comma: return "','";
      case Tok::colon: return "':'";
      case Tok::question: return "'?'";
      case Tok::ellipsis: return "'...'";
      case Tok::arrow: return "'->'";
      case Tok::dot: return "'.'";
      case Tok::assign: return "'='";
      default: return "token";
    }
}

Lexer::Lexer(std::string file_name, std::string_view source,
             DiagnosticEngine &diags)
    : file_(std::move(file_name)), source_(source), diags_(diags)
{}

SourceLoc
Lexer::here() const
{
    return SourceLoc{file_, line_, col_};
}

char
Lexer::peek(size_t ahead) const
{
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
}

char
Lexer::advance()
{
    char c = source_[pos_++];
    if (c == '\n') {
        line_++;
        col_ = 1;
    } else {
        col_++;
    }
    return c;
}

bool
Lexer::match(char expected)
{
    if (peek() != expected)
        return false;
    advance();
    return true;
}

void
Lexer::skipWhitespaceAndComments()
{
    while (pos_ < source_.size()) {
        char c = peek();
        if (isSpace(c)) {
            advance();
        } else if (c == '/' && peek(1) == '/') {
            while (pos_ < source_.size() && peek() != '\n')
                advance();
        } else if (c == '/' && peek(1) == '*') {
            SourceLoc start = here();
            advance();
            advance();
            while (pos_ < source_.size() &&
                   !(peek() == '*' && peek(1) == '/')) {
                advance();
            }
            if (pos_ >= source_.size()) {
                diags_.error(start, "unterminated block comment");
                return;
            }
            advance();
            advance();
        } else {
            return;
        }
    }
}

void
Lexer::handleDirective()
{
    SourceLoc start = here();
    advance(); // '#'
    // Read the directive name.
    std::string name(scanWhile(isAlpha));
    if (name == "include") {
        // Ignore the rest of the line: libc headers are implicit.
        while (pos_ < source_.size() && peek() != '\n')
            advance();
        return;
    }
    if (name == "define") {
        while (peek() == ' ' || peek() == '\t')
            advance();
        std::string macro(scanWhile(isIdentChar));
        if (macro.empty()) {
            diags_.error(start, "#define without a name");
            return;
        }
        if (peek() == '(') {
            diags_.error(start, "function-like macros are not supported");
            while (pos_ < source_.size() && peek() != '\n')
                advance();
            return;
        }
        // Lex the replacement tokens on the rest of this line.
        std::vector<Token> replacement;
        while (true) {
            while (peek() == ' ' || peek() == '\t')
                advance();
            if (pos_ >= source_.size() || peek() == '\n')
                break;
            Token tok = next();
            if (tok.kind == Tok::eof)
                break;
            replacement.push_back(std::move(tok));
        }
        macros_[macro] = std::move(replacement);
        return;
    }
    diags_.error(start, "unsupported preprocessor directive '#" + name + "'");
    while (pos_ < source_.size() && peek() != '\n')
        advance();
}

Token
Lexer::makeToken(Tok kind)
{
    Token tok;
    tok.kind = kind;
    tok.loc = here();
    return tok;
}

std::string_view
Lexer::scanWhile(bool (*in_class)(char))
{
    // No class a caller scans contains '\n': only the column moves.
    size_t start = pos_;
    while (pos_ < source_.size() && in_class(source_[pos_]))
        pos_++;
    col_ += static_cast<uint32_t>(pos_ - start);
    return source_.substr(start, pos_ - start);
}

Token
Lexer::lexIdentifier()
{
    Token tok = makeToken(Tok::identifier);
    std::string_view text = scanWhile(isIdentChar);
    tok.kind = keywordOrIdentifier(text);
    tok.text = text;
    return tok;
}

Token
Lexer::lexNumber()
{
    Token tok = makeToken(Tok::intLiteral);
    size_t start = pos_;
    bool is_float = false;
    bool is_hex = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        is_hex = true;
        advance();
        advance();
        scanWhile(isHexDigit);
    } else {
        scanWhile(isDigit);
        if (peek() == '.' && peek(1) != '.') {
            // "1.5", "3." and "3.f" are all float literals.
            is_float = true;
            advance();
            scanWhile(isDigit);
        }
        if (peek() == 'e' || peek() == 'E') {
            size_t save = pos_;
            advance();
            if (peek() == '+' || peek() == '-')
                advance();
            if (isDigit(peek())) {
                is_float = true;
                scanWhile(isDigit);
            } else {
                // Not an exponent after all. The column keeps the
                // characters looked at, as it always has.
                pos_ = save;
            }
        }
    }
    std::string text(source_.substr(start, pos_ - start));
    // Suffixes.
    if (is_float) {
        if (peek() == 'f' || peek() == 'F')
            advance(); // float literal; we keep double precision
        else if (peek() == 'l' || peek() == 'L')
            advance();
        tok.kind = Tok::floatLiteral;
        tok.floatValue = std::strtod(text.c_str(), nullptr);
    } else {
        while (true) {
            if (peek() == 'u' || peek() == 'U') {
                tok.isUnsigned = true;
                advance();
            } else if (peek() == 'l' || peek() == 'L') {
                tok.isLong = true;
                advance();
            } else {
                break;
            }
        }
        tok.intValue = std::strtoull(text.c_str(), nullptr, is_hex ? 16 : 10);
    }
    tok.text = std::move(text);
    return tok;
}

int
Lexer::decodeEscape()
{
    // Called after the backslash has been consumed.
    char c = advance();
    switch (c) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return '\0';
      case 'b': return '\b';
      case 'f': return '\f';
      case 'v': return '\v';
      case 'a': return '\a';
      case '\\': return '\\';
      case '\'': return '\'';
      case '"': return '"';
      case 'x': {
        int value = 0;
        while (isHexDigit(peek())) {
            char d = advance();
            int digit = isDigit(d) ? d - '0' : ((d | 0x20) - 'a' + 10);
            value = value * 16 + digit;
        }
        return value & 0xff;
      }
      default:
        diags_.error(here(), std::string("unknown escape '\\") + c + "'");
        return c;
    }
}

Token
Lexer::lexCharLiteral()
{
    Token tok = makeToken(Tok::charLiteral);
    advance(); // opening quote
    int value = 0;
    if (peek() == '\\') {
        advance();
        value = decodeEscape();
    } else {
        value = static_cast<unsigned char>(advance());
    }
    if (!match('\''))
        diags_.error(tok.loc, "unterminated character literal");
    tok.kind = Tok::intLiteral;
    tok.intValue = static_cast<uint64_t>(value);
    tok.text = "'c'";
    return tok;
}

Token
Lexer::lexStringLiteral()
{
    Token tok = makeToken(Tok::stringLiteral);
    advance(); // opening quote
    while (pos_ < source_.size() && peek() != '"') {
        if (peek() == '\n') {
            diags_.error(tok.loc, "unterminated string literal");
            break;
        }
        if (peek() == '\\') {
            advance();
            tok.stringValue += static_cast<char>(decodeEscape());
        } else {
            tok.stringValue += advance();
        }
    }
    match('"');
    return tok;
}

Token
Lexer::next()
{
    skipWhitespaceAndComments();
    if (pos_ >= source_.size())
        return makeToken(Tok::eof);
    char c = peek();
    if (c == '#' && col_ == 1) {
        handleDirective();
        return next();
    }
    if (isAlpha(c) || c == '_')
        return lexIdentifier();
    if (isDigit(c))
        return lexNumber();
    if (c == '\'')
        return lexCharLiteral();
    if (c == '"')
        return lexStringLiteral();

    Token tok = makeToken(Tok::eof);
    advance();
    switch (c) {
      case '(': tok.kind = Tok::lparen; break;
      case ')': tok.kind = Tok::rparen; break;
      case '{': tok.kind = Tok::lbrace; break;
      case '}': tok.kind = Tok::rbrace; break;
      case '[': tok.kind = Tok::lbracket; break;
      case ']': tok.kind = Tok::rbracket; break;
      case ';': tok.kind = Tok::semi; break;
      case ',': tok.kind = Tok::comma; break;
      case ':': tok.kind = Tok::colon; break;
      case '?': tok.kind = Tok::question; break;
      case '~': tok.kind = Tok::tilde; break;
      case '.':
        if (peek() == '.' && peek(1) == '.') {
            advance();
            advance();
            tok.kind = Tok::ellipsis;
        } else {
            tok.kind = Tok::dot;
        }
        break;
      case '+':
        tok.kind = match('+') ? Tok::plusplus
            : match('=') ? Tok::plusAssign : Tok::plus;
        break;
      case '-':
        tok.kind = match('-') ? Tok::minusminus
            : match('=') ? Tok::minusAssign
            : match('>') ? Tok::arrow : Tok::minus;
        break;
      case '*': tok.kind = match('=') ? Tok::starAssign : Tok::star; break;
      case '/': tok.kind = match('=') ? Tok::slashAssign : Tok::slash; break;
      case '%':
        tok.kind = match('=') ? Tok::percentAssign : Tok::percent;
        break;
      case '&':
        tok.kind = match('&') ? Tok::ampamp
            : match('=') ? Tok::andAssign : Tok::amp;
        break;
      case '|':
        tok.kind = match('|') ? Tok::pipepipe
            : match('=') ? Tok::orAssign : Tok::pipe;
        break;
      case '^': tok.kind = match('=') ? Tok::xorAssign : Tok::caret; break;
      case '!': tok.kind = match('=') ? Tok::ne : Tok::bang; break;
      case '=': tok.kind = match('=') ? Tok::eqeq : Tok::assign; break;
      case '<':
        if (match('<'))
            tok.kind = match('=') ? Tok::shlAssign : Tok::shl;
        else
            tok.kind = match('=') ? Tok::le : Tok::lt;
        break;
      case '>':
        if (match('>'))
            tok.kind = match('=') ? Tok::shrAssign : Tok::shr;
        else
            tok.kind = match('=') ? Tok::ge : Tok::gt;
        break;
      default:
        diags_.error(tok.loc, std::string("unexpected character '") + c + "'");
        return next();
    }
    return tok;
}

std::vector<Token>
Lexer::lexAll()
{
    // Programs run 2-3 source characters per token.
    std::vector<Token> tokens;
    tokens.reserve(source_.size() / 2 + 1);
    while (true) {
        Token tok = next();
        if (tok.kind == Tok::identifier && !macros_.empty()) {
            auto macro = macros_.find(tok.text);
            if (macro != macros_.end()) {
                for (const Token &rep : macro->second) {
                    Token copy = rep;
                    copy.loc = tok.loc;
                    tokens.push_back(std::move(copy));
                }
                continue;
            }
        }
        bool done = tok.kind == Tok::eof;
        tokens.push_back(std::move(tok));
        if (done)
            return tokens;
    }
}

} // namespace sulong
