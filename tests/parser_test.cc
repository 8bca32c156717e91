/**
 * @file
 * Parser tests: declarations, declarators, expressions, statements, and
 * error reporting. Most checks compile end-to-end and execute on the
 * managed engine (the parser's output is only meaningful through
 * codegen), with dedicated error-path tests.
 */

#include "test_util.h"

#include "frontend/compiler.h"
#include "frontend/parser.h"

namespace sulong
{
namespace
{

using testutil::compileErrorsOf;
using testutil::exitCodeOf;

TEST(ParserTest, FunctionPointerDeclarator)
{
    EXPECT_EQ(exitCodeOf(R"(
static int twice(int v) { return v * 2; }
int main(void) {
    int (*fp)(int) = twice;
    return fp(21);
})"), 42);
}

TEST(ParserTest, FunctionPointerArray)
{
    EXPECT_EQ(exitCodeOf(R"(
static int one(void) { return 1; }
static int two(void) { return 2; }
int main(void) {
    int (*table[2])(void) = {one, two};
    return table[0]() + table[1]();
})"), 3);
}

TEST(ParserTest, PointerToPointer)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int v = 9;
    int *p = &v;
    int **pp = &p;
    return **pp;
})"), 9);
}

TEST(ParserTest, MultiDimensionalArray)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int grid[2][3] = {{1, 2, 3}, {4, 5, 6}};
    return grid[1][2];
})"), 6);
}

TEST(ParserTest, ArrayOfPointers)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int a = 1, b = 2;
    int *ptrs[2];
    ptrs[0] = &a;
    ptrs[1] = &b;
    return *ptrs[0] + *ptrs[1];
})"), 3);
}

TEST(ParserTest, TypedefChain)
{
    EXPECT_EQ(exitCodeOf(R"(
typedef unsigned long size_type;
typedef size_type length_t;
int main(void) {
    length_t n = 40;
    return (int)n + 2;
})"), 42);
}

TEST(ParserTest, TypedefStructPointer)
{
    EXPECT_EQ(exitCodeOf(R"(
typedef struct point { int x; int y; } point_t;
typedef point_t *point_ptr;
int main(void) {
    point_t p = {3, 4};
    point_ptr q = &p;
    return q->x + q->y;
})"), 7);
}

TEST(ParserTest, EnumConstants)
{
    EXPECT_EQ(exitCodeOf(R"(
enum color { RED, GREEN = 10, BLUE };
int main(void) {
    return RED + GREEN + BLUE;
})"), 21);
}

TEST(ParserTest, EnumInArraySize)
{
    EXPECT_EQ(exitCodeOf(R"(
enum { CAP = 4 };
int main(void) {
    int buf[CAP * 2];
    buf[7] = 5;
    return (int)(sizeof(buf) / sizeof(int)) + buf[7];
})"), 13);
}

TEST(ParserTest, ConstantExpressionArraySize)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    char buf[(2 + 3) * 4];
    return (int)sizeof(buf);
})"), 20);
}

TEST(ParserTest, Int64MinByMinusOneInConstantExpressions)
{
    // Array sizes, enum values and case labels fold INT64_MIN / -1 and
    // INT64_MIN % -1 to the engines' values, INT64_MIN and 0, instead of
    // trapping in a host division.
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    char a[(-9223372036854775807L - 1) % -1 + 3];
    return (int)sizeof(a);
})"), 3);
    EXPECT_NE(compileErrorsOf(R"(
int main(void) {
    char a[(-9223372036854775807L - 1) / -1];
    return 0;
})").find("negative array size"),
              std::string::npos);
    EXPECT_EQ(exitCodeOf(R"(
enum { Q = (-9223372036854775807L - 1) / -1,
       R = (-9223372036854775807L - 1) % -1 };
int id(int v) { return v; }
int main(void) {
    int m = (int)(-9223372036854775807L - 1);
    return (Q == m / id(-1)) + 2 * (R == m % id(-1));
})"), 3);
    EXPECT_EQ(exitCodeOf(R"(
int pick(long v) {
    switch (v) {
      case (-9223372036854775807L - 1) / -1: return 1;
      case (-9223372036854775807L - 1) % -1: return 2;
      default: return 3;
    }
}
int main(void) {
    return pick(-9223372036854775807L - 1) * 10 + pick(0);
})"), 12);
}

TEST(ParserTest, OperatorPrecedence)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    return 2 + 3 * 4 - 10 / 5;   /* 12 */
})"), 12);
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    return (1 << 3) | (16 >> 2) & 7;  /* 8 | (4 & 7) = 12 */
})"), 12);
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    return 1 < 2 == 1;  /* (1<2) == 1 */
})"), 1);
}

TEST(ParserTest, TernaryRightAssociative)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int x = 2;
    return x == 1 ? 10 : x == 2 ? 20 : 30;
})"), 20);
}

TEST(ParserTest, CommaExpression)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int a = 0;
    int b = (a = 5, a + 2);
    return b;
})"), 7);
}

TEST(ParserTest, AdjacentStringConcatenation)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    const char *s = "ab" "cd";
    return (int)strlen(s);
})"), 4);
}

TEST(ParserTest, SizeofForms)
{
    EXPECT_EQ(exitCodeOf(R"(
struct wide { long a; long b; };
int main(void) {
    int x = 3;
    return (int)(sizeof(int) + sizeof x + sizeof(struct wide));
})"), 24);
}

TEST(ParserTest, SwitchFallthrough)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int v = 0;
    switch (2) {
      case 1: v += 1;
      case 2: v += 2;  /* falls through */
      case 3: v += 4; break;
      case 4: v += 8;
      default: v += 16;
    }
    return v;
})"), 6);
}

TEST(ParserTest, SwitchDefaultOnly)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    switch (9) {
      default: return 5;
    }
})"), 5);
}

TEST(ParserTest, DoWhile)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int n = 0;
    do { n++; } while (n < 3);
    return n;
})"), 3);
}

TEST(ParserTest, ForWithoutClauses)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int i = 0;
    for (;;) {
        i++;
        if (i == 4) break;
    }
    return i;
})"), 4);
}

TEST(ParserTest, ContinueSkipsStep)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int sum = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) continue;
        sum += i;  /* 1+3+5+7+9 */
    }
    return sum;
})"), 25);
}

TEST(ParserTest, MultipleDeclaratorsPerStatement)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int a = 1, *p = &a, b = 2;
    return *p + b;
})"), 3);
}

TEST(ParserTest, StaticLocalPersists)
{
    EXPECT_EQ(exitCodeOf(R"(
static int next(void) {
    static int counter = 0;
    counter++;
    return counter;
}
int main(void) {
    next();
    next();
    return next();
})"), 3);
}

// --- error paths -------------------------------------------------------

TEST(ParserErrorTest, MissingSemicolon)
{
    EXPECT_NE(compileErrorsOf("int main(void) { return 0 }"), "");
}

TEST(ParserErrorTest, UnionRejected)
{
    EXPECT_NE(compileErrorsOf("union u { int a; }; int main(void) "
                              "{ return 0; }"), "");
}

TEST(ParserErrorTest, GotoRejected)
{
    EXPECT_NE(compileErrorsOf(
        "int main(void) { goto end; end: return 0; }"), "");
}

TEST(ParserErrorTest, StructRedefinition)
{
    EXPECT_NE(compileErrorsOf(R"(
struct s { int a; };
struct s { int b; };
int main(void) { return 0; })"), "");
}

TEST(ParserErrorTest, NegativeArraySize)
{
    EXPECT_NE(compileErrorsOf(
        "int main(void) { int a[-3]; return 0; }"), "");
}

TEST(ParserErrorTest, CaseOutsideSwitch)
{
    EXPECT_NE(compileErrorsOf(
        "int main(void) { case 1: return 0; }"), "");
}

TEST(ParserErrorTest, NonConstantArrayBound)
{
    EXPECT_NE(compileErrorsOf(R"(
int main(void) {
    int n = 4;
    int vla[n];
    return 0;
})"), "");
}

TEST(ParserErrorTest, RecoveryFindsMultipleErrors)
{
    std::string errors = compileErrorsOf(R"(
int broken1(void) { return 0 }
int broken2(void) { return 1 }
int main(void) { return 0; })");
    // Both missing semicolons are reported.
    size_t first = errors.find("expected");
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(errors.find("expected", first + 1), std::string::npos);
}

std::string
repeat(const std::string &text, size_t times)
{
    std::string out;
    out.reserve(text.size() * times);
    for (size_t i = 0; i < times; i++)
        out += text;
    return out;
}

/** One nesting-budget error, reported without blowing the stack. */
void
expectNestingError(const std::string &source)
{
    CompileResult result = compileC(source);
    ASSERT_FALSE(result.ok());
    const std::string needle =
        "nesting deeper than " + std::to_string(kMaxNesting) + " levels";
    size_t at = result.errors.find(needle);
    ASSERT_NE(at, std::string::npos) << result.errors.substr(0, 300);
    EXPECT_EQ(result.errors.find(needle, at + 1), std::string::npos);
    EXPECT_EQ(compileErrorsOf(source), result.errors);
}

TEST(ParserErrorTest, TwentyThousandNestedParenthesesAreOneError)
{
    expectNestingError("int main(void) { return " + repeat("(", 20000) +
                       "1" + repeat(")", 20000) + "; }");
}

TEST(ParserErrorTest, FiftyThousandNestedBlocksAreOneError)
{
    expectNestingError("int main(void) " + repeat("{", 50000) +
                       repeat("}", 50000));
}

TEST(ParserErrorTest, LongChainsAndDeclaratorsCountAsNesting)
{
    // Flat in the source but as deep as it is long once parsed.
    expectNestingError("int main(void) { return 1" + repeat(" + 1", 50000) +
                       "; }");
    expectNestingError("int main(void) { int x = 0; return " +
                       repeat("-", 50000) + "x; }");
    expectNestingError("int main(void) { int x; " + repeat("x = ", 50000) +
                       "1; return x; }");
    expectNestingError("int " + repeat("*", 50000) +
                       "p; int main(void) { return 0; }");
    expectNestingError("int a[1] = " + repeat("{", 50000) + "0" +
                       repeat("}", 50000) + "; int main(void) { return 0; }");
}

TEST(ParserErrorTest, NestingWithinTheBudgetCompiles)
{
    const size_t depth = 100; // corpus, benchmark and fuzz programs stay under 50
    EXPECT_EQ(exitCodeOf("int main(void) { return " + repeat("(", depth) +
                         "7" + repeat(")", depth) + "; }"),
              7);
    EXPECT_EQ(exitCodeOf("int main(void) " + repeat("{", depth) +
                         "return 7;" + repeat("}", depth)),
              7);
    EXPECT_FALSE(bracketsNestTooDeep(repeat("(", kMaxNesting) +
                                     repeat(")", kMaxNesting)));
    EXPECT_TRUE(bracketsNestTooDeep(repeat("{", kMaxNesting + 1)));
    // Brackets inside literals and comments do not count.
    EXPECT_FALSE(bracketsNestTooDeep("char *s = \"" + repeat("(", 300) +
                                     "\"; /* " + repeat("[", 300) + " */"));
}

} // namespace
} // namespace sulong
