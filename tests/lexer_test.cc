/**
 * @file
 * Unit tests for the mini-C lexer and its minimal preprocessor.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "corpus/corpus.h"
#include "frontend/lexer.h"
#include "fuzz/generator.h"
#include "libc/libc_sources.h"

namespace sulong
{
namespace
{

std::vector<Token>
lex(const std::string &src, DiagnosticEngine *diags_out = nullptr)
{
    static DiagnosticEngine scratch;
    DiagnosticEngine local;
    DiagnosticEngine &diags = diags_out != nullptr ? *diags_out : local;
    Lexer lexer("test.c", src, diags);
    return lexer.lexAll();
}

TEST(LexerTest, Keywords)
{
    auto tokens = lex("int while struct sizeof va_arg");
    ASSERT_GE(tokens.size(), 6u);
    EXPECT_EQ(tokens[0].kind, Tok::kwInt);
    EXPECT_EQ(tokens[1].kind, Tok::kwWhile);
    EXPECT_EQ(tokens[2].kind, Tok::kwStruct);
    EXPECT_EQ(tokens[3].kind, Tok::kwSizeof);
    EXPECT_EQ(tokens[4].kind, Tok::kwVaArg);
    EXPECT_EQ(tokens[5].kind, Tok::eof);
}

TEST(LexerTest, Identifiers)
{
    auto tokens = lex("foo _bar x9 intx");
    EXPECT_EQ(tokens[0].kind, Tok::identifier);
    EXPECT_EQ(tokens[0].text, "foo");
    EXPECT_EQ(tokens[1].text, "_bar");
    EXPECT_EQ(tokens[2].text, "x9");
    EXPECT_EQ(tokens[3].kind, Tok::identifier); // not the keyword "int"
}

TEST(LexerTest, IntegerLiterals)
{
    auto tokens = lex("0 42 0x1F 7u 9L 10UL");
    EXPECT_EQ(tokens[0].intValue, 0u);
    EXPECT_EQ(tokens[1].intValue, 42u);
    EXPECT_EQ(tokens[2].intValue, 31u);
    EXPECT_TRUE(tokens[3].isUnsigned);
    EXPECT_TRUE(tokens[4].isLong);
    EXPECT_TRUE(tokens[5].isUnsigned);
    EXPECT_TRUE(tokens[5].isLong);
}

TEST(LexerTest, FloatLiterals)
{
    auto tokens = lex("1.5 0.25 2e3 1.5e-2 3.f");
    EXPECT_EQ(tokens[0].kind, Tok::floatLiteral);
    EXPECT_DOUBLE_EQ(tokens[0].floatValue, 1.5);
    EXPECT_DOUBLE_EQ(tokens[1].floatValue, 0.25);
    EXPECT_DOUBLE_EQ(tokens[2].floatValue, 2000.0);
    EXPECT_DOUBLE_EQ(tokens[3].floatValue, 0.015);
    EXPECT_DOUBLE_EQ(tokens[4].floatValue, 3.0);
}

TEST(LexerTest, DotAfterNumberVsMember)
{
    auto tokens = lex("a.b");
    EXPECT_EQ(tokens[0].kind, Tok::identifier);
    EXPECT_EQ(tokens[1].kind, Tok::dot);
    EXPECT_EQ(tokens[2].kind, Tok::identifier);
}

TEST(LexerTest, CharLiterals)
{
    auto tokens = lex(R"('a' '\n' '\0' '\\' '\x41')");
    EXPECT_EQ(tokens[0].intValue, static_cast<uint64_t>('a'));
    EXPECT_EQ(tokens[1].intValue, static_cast<uint64_t>('\n'));
    EXPECT_EQ(tokens[2].intValue, 0u);
    EXPECT_EQ(tokens[3].intValue, static_cast<uint64_t>('\\'));
    EXPECT_EQ(tokens[4].intValue, 0x41u);
}

TEST(LexerTest, StringLiterals)
{
    auto tokens = lex(R"("hello" "a\tb" "")");
    EXPECT_EQ(tokens[0].kind, Tok::stringLiteral);
    EXPECT_EQ(tokens[0].stringValue, "hello");
    EXPECT_EQ(tokens[1].stringValue, "a\tb");
    EXPECT_EQ(tokens[2].stringValue, "");
}

TEST(LexerTest, Operators)
{
    auto tokens = lex("+ ++ += - -- -= -> << <<= < <= == != && || ... % ^=");
    Tok expected[] = {
        Tok::plus, Tok::plusplus, Tok::plusAssign, Tok::minus,
        Tok::minusminus, Tok::minusAssign, Tok::arrow, Tok::shl,
        Tok::shlAssign, Tok::lt, Tok::le, Tok::eqeq, Tok::ne, Tok::ampamp,
        Tok::pipepipe, Tok::ellipsis, Tok::percent, Tok::xorAssign,
    };
    for (size_t i = 0; i < std::size(expected); i++)
        EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
}

TEST(LexerTest, Comments)
{
    auto tokens = lex("a // line comment\n b /* block\n comment */ c");
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
    EXPECT_EQ(tokens[2].text, "c");
    EXPECT_EQ(tokens[3].kind, Tok::eof);
}

TEST(LexerTest, LineNumbers)
{
    auto tokens = lex("a\nb\n  c");
    EXPECT_EQ(tokens[0].loc.line, 1u);
    EXPECT_EQ(tokens[1].loc.line, 2u);
    EXPECT_EQ(tokens[2].loc.line, 3u);
    EXPECT_EQ(tokens[2].loc.column, 3u);
}

TEST(LexerTest, IncludeIgnored)
{
    auto tokens = lex("#include <stdio.h>\nint x;");
    EXPECT_EQ(tokens[0].kind, Tok::kwInt);
}

TEST(LexerTest, ObjectMacro)
{
    auto tokens = lex("#define SIZE 10\nint a[SIZE];");
    // SIZE expands to the literal 10.
    bool found = false;
    for (const auto &tok : tokens) {
        if (tok.kind == Tok::intLiteral && tok.intValue == 10)
            found = true;
        EXPECT_NE(tok.text, "SIZE");
    }
    EXPECT_TRUE(found);
}

TEST(LexerTest, MultiTokenMacro)
{
    auto tokens = lex("#define EXPR (1 + 2)\nEXPR");
    Tok expected[] = {Tok::lparen, Tok::intLiteral, Tok::plus,
                      Tok::intLiteral, Tok::rparen, Tok::eof};
    for (size_t i = 0; i < std::size(expected); i++)
        EXPECT_EQ(tokens[i].kind, expected[i]);
}

TEST(LexerTest, FunctionLikeMacroRejected)
{
    DiagnosticEngine diags;
    lex("#define MAX(a,b) ((a)>(b)?(a):(b))\n", &diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(LexerTest, UnknownDirectiveRejected)
{
    DiagnosticEngine diags;
    lex("#pragma once\n", &diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(LexerTest, UnterminatedStringReported)
{
    DiagnosticEngine diags;
    lex("\"abc\n", &diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(LexerTest, UnterminatedBlockCommentReported)
{
    DiagnosticEngine diags;
    lex("/* never closed", &diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(LexerTest, UnexpectedCharacterReported)
{
    DiagnosticEngine diags;
    auto tokens = lex("a $ b", &diags);
    EXPECT_TRUE(diags.hasErrors());
    // Lexing continues after the bad character.
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, AlwaysEndsWithEof)
{
    auto tokens = lex("");
    ASSERT_EQ(tokens.size(), 1u);
    EXPECT_EQ(tokens[0].kind, Tok::eof);
}

/** FNV-1a over every field of every token, and the rendered
 *  diagnostics, of lexing each of @p sources alone. */
uint64_t
tokenStreamDigest(const std::vector<SourceFile> &sources)
{
    uint64_t hash = 14695981039346656037ull;
    auto mix = [&hash](const void *data, size_t size) {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; i++) {
            hash ^= bytes[i];
            hash *= 1099511628211ull;
        }
    };
    auto mixString = [&mix](const std::string &text) {
        uint64_t size = text.size();
        mix(&size, sizeof size);
        mix(text.data(), text.size());
    };
    for (const SourceFile &source : sources) {
        DiagnosticEngine diags;
        Lexer lexer(source.name, source.text, diags);
        for (const Token &tok : lexer.lexAll()) {
            uint8_t kind = static_cast<uint8_t>(tok.kind);
            mix(&kind, 1);
            mixString(tok.loc.file);
            mix(&tok.loc.line, sizeof tok.loc.line);
            mix(&tok.loc.column, sizeof tok.loc.column);
            mixString(tok.text);
            mix(&tok.intValue, sizeof tok.intValue);
            uint64_t bits;
            std::memcpy(&bits, &tok.floatValue, sizeof bits);
            mix(&bits, sizeof bits);
            mixString(tok.stringValue);
            uint8_t flags = (tok.isUnsigned ? 1 : 0) | (tok.isLong ? 2 : 0);
            mix(&flags, 1);
        }
        mixString(diags.dump());
    }
    return hash;
}

/** Malformed inputs, one per lexer diagnostic, and literal edge cases. */
std::vector<SourceFile>
lexerEdgeCases()
{
    const char *texts[] = {
        "int a; /* unterminated",
        "char c = '\\q'; char d = 'x",
        "const char *s = \"open\nint b;",
        "int x = 3 @ 4; $",
        "#define\n#define F(x) x\n#define N 42 + N\nint y = N;",
        "#pragma once\n#include <stdio.h>\nint z;",
        "double d = 1.5e3 + 2.f + .5 + 3. + 1e + 0x1fUL + 7lu + 1E-2L;",
        "long q = 0XABCDEFu + 077 + 18446744073709551615ULL; a->b...c",
        "s = \"\\x41\\x4g\\0\\a\\b\\f\\v\\t\\r\\n\\\\\\\"\\'\";",
        "x <<= 1; y >>= 2; z ^= 3 | 4 || 5 && 6 & 7 != 8 == 9 <= 10 >= 11;",
        "__builtin_va_start va_list va_end __builtin_va_arg restrict inline",
        "a\tb\r\nc\vd\fe // comment\n  #define LATE 1\nLATE",
    };
    std::vector<SourceFile> sources;
    int n = 0;
    for (const char *text : texts)
        sources.push_back(
            SourceFile{"edge" + std::to_string(n++) + ".c", text});
    return sources;
}

TEST(LexerTest, TokenStreamsMatchPinnedDigests)
{
    // Every token field and diagnostic of the libc (both variants and
    // the builtin declarations), the bug corpus, fuzz seeds 1..50 and the
    // edge cases above, pinned when the lexer still built each
    // identifier one char at a time: a faster lexer must lex alike.
    std::vector<SourceFile> libc = libcSources(LibcVariant::safe);
    for (const SourceFile &source :
         libcSources(LibcVariant::nativeOptimized))
        libc.push_back(source);
    libc.push_back(SourceFile{"<builtins>", builtinDeclarations()});
    std::vector<SourceFile> corpus;
    for (const CorpusEntry &entry : bugCorpus())
        corpus.push_back(
            SourceFile{"<corpus:" + entry.id + ">", entry.source});
    std::vector<SourceFile> fuzz;
    for (uint64_t seed = 1; seed <= 50; seed++)
        fuzz.push_back(SourceFile{
            "<input>", ProgramGenerator(seed).generate().render()});
    EXPECT_EQ(tokenStreamDigest(libc), 0xd7ec63273658b4d3ull);
    EXPECT_EQ(tokenStreamDigest(corpus), 0xc68483033c67957eull);
    EXPECT_EQ(tokenStreamDigest(fuzz), 0x63d8e05397cd145dull);
    EXPECT_EQ(tokenStreamDigest(lexerEdgeCases()), 0x47bec9b85a804f74ull);
}

} // namespace
} // namespace sulong
