/**
 * @file
 * Codegen/sema tests: C conversion rules, arithmetic semantics, lvalue
 * handling, structs, and the allocation-type hints — all checked by
 * executing on the managed engine.
 */

#include "test_util.h"

namespace sulong
{
namespace
{

using testutil::compileErrorsOf;
using testutil::exitCodeOf;
using testutil::outputOf;

TEST(CodegenTest, IntegerPromotionInArithmetic)
{
    // char + char computes in int: no i8 overflow.
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    char a = 100, b = 100;
    int sum = a + b;
    return sum == 200;
})"), 1);
}

TEST(CodegenTest, UnsignedDivisionAndRemainder)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    unsigned int big = 0xFFFFFFF0u;
    printf("%u %u\n", big / 16, big % 16);
    int neg = -17;
    printf("%d %d\n", neg / 5, neg % 5);
    return 0;
})"), "268435455 0\n-3 -2\n");
}

TEST(CodegenTest, SignedToUnsignedComparison)
{
    // -1 compared against an unsigned converts to UINT_MAX.
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int neg = -1;
    unsigned int one = 1;
    return neg > one; /* true in C! */
})"), 1);
}

TEST(CodegenTest, TruncationAndSignExtension)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    long big = 0x1234567890L;
    int truncated = (int)big;
    char c = (char)0x1FF;
    short widened = c;
    printf("%d %d %d\n", truncated == 0x34567890, c, widened);
    return 0;
})"), "1 -1 -1\n");
}

TEST(CodegenTest, FloatIntConversions)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    double d = 3.99;
    int i = (int)d;          /* truncates toward zero */
    double back = i;
    float f = 1.5f;
    double wide = f;
    printf("%d %.1f %.1f\n", i, back, wide);
    unsigned int u = (unsigned int)2.5;
    printf("%u\n", u);
    return 0;
})"), "3 3.0 1.5\n2\n");
}

TEST(CodegenTest, FloatArithmeticIsSinglePrecision)
{
    // 16777216.0f + 1.0f == 16777216.0f in float precision.
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    float big = 16777216.0f;
    float bumped = big + 1.0f;
    return bumped == big;
})"), 1);
}

TEST(CodegenTest, ShiftSemantics)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    int neg = -8;
    unsigned int uneg = 0x80000000u;
    printf("%d %u %d\n", neg >> 1, uneg >> 4, 1 << 10);
    return 0;
})"), "-4 134217728 1024\n");
}

TEST(CodegenTest, WrapAroundArithmetic)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    unsigned char tiny = 255;
    tiny = tiny + 2;  /* wraps to 1 */
    unsigned int u = 0;
    u = u - 1;        /* wraps to UINT_MAX */
    return tiny == 1 && u == 4294967295u;
})"), 1);
}

TEST(CodegenTest, PointerArithmetic)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int arr[5] = {10, 20, 30, 40, 50};
    int *p = arr + 1;
    int *q = &arr[4];
    long dist = q - p;          /* 3 elements */
    int via = *(p + 2);          /* arr[3] */
    p++;
    return (int)dist + via / 10 + (*p) / 10; /* 3 + 4 + 3 */
})"), 10);
}

TEST(CodegenTest, PointerComparisonsAndNull)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int arr[3];
    int *a = &arr[0];
    int *b = &arr[2];
    int *n = 0;
    return (a < b) + (b >= a) + (n == 0) + (a != 0);
})"), 4);
}

TEST(CodegenTest, CompoundAssignmentEvaluatesLvalueOnce)
{
    EXPECT_EQ(exitCodeOf(R"(
static int calls = 0;
static int idx(void) { calls++; return 0; }
int main(void) {
    int arr[1] = {5};
    arr[idx()] += 3;
    return arr[0] * 10 + calls;  /* 80 + 1 */
})"), 81);
}

TEST(CodegenTest, PrePostIncrement)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    int i = 5;
    printf("%d %d %d\n", i++, ++i, i--);
    printf("%d\n", i);
    return 0;
})"), "5 7 7\n6\n");
}

TEST(CodegenTest, PointerIncrementStride)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    long arr[3] = {100, 200, 300};
    long *p = arr;
    p++;
    return (int)*p / 100;
})"), 2);
}

TEST(CodegenTest, ShortCircuitEvaluation)
{
    EXPECT_EQ(exitCodeOf(R"(
static int touched = 0;
static int touch(void) { touched = 1; return 1; }
int main(void) {
    int a = 0 && touch();
    int b = 1 || touch();
    return a == 0 && b == 1 && touched == 0;
})"), 1);
}

TEST(CodegenTest, LogicalResultIsZeroOrOne)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int v = 7;
    return (v && 9) + !v + !!v;  /* 1 + 0 + 1 */
})"), 2);
}

TEST(CodegenTest, StructAssignmentCopies)
{
    EXPECT_EQ(exitCodeOf(R"(
struct pair { int a; int b; };
int main(void) {
    struct pair x = {1, 2};
    struct pair y;
    y = x;
    y.a = 10;
    return x.a * 100 + y.a + y.b; /* 100 + 12 */
})"), 112);
}

TEST(CodegenTest, NestedStructAndArrayMembers)
{
    EXPECT_EQ(exitCodeOf(R"(
struct inner { int vals[3]; };
struct outer { struct inner in; int tag; };
int main(void) {
    struct outer o;
    o.in.vals[0] = 1;
    o.in.vals[2] = 3;
    o.tag = 40;
    return o.in.vals[0] + o.in.vals[2] + o.tag;
})"), 44);
}

TEST(CodegenTest, StructPointerChain)
{
    EXPECT_EQ(exitCodeOf(R"(
struct node { int value; struct node *next; };
int main(void) {
    struct node c = {3, 0};
    struct node b = {2, &c};
    struct node a = {1, &b};
    return a.next->next->value;
})"), 3);
}

TEST(CodegenTest, GlobalInitializers)
{
    EXPECT_EQ(exitCodeOf(R"(
int scalar = 7;
int arr[4] = {1, 2};
char msg[] = "hey";
const char *ptr = "world";
int *ref = &scalar;
double half = 0.5;
int main(void) {
    return scalar + arr[1] + arr[3] + (int)sizeof(msg) +
        (int)strlen(ptr) + *ref + (int)(half * 2.0);
    /* 7 + 2 + 0 + 4 + 5 + 7 + 1 = 26 */
})"), 26);
}

TEST(CodegenTest, Int64MinByMinusOneGlobalInitializers)
{
    // Folded with the engines' values (INT64_MIN and 0) instead of a
    // host division, which traps on INT64_MIN / -1.
    EXPECT_EQ(outputOf(R"(
long q = (-9223372036854775807L - 1) / -1;
long r = (-9223372036854775807L - 1) % -1;
long id(long v) { return v; }
int main(void) {
    long m = -9223372036854775807L - 1;
    printf("%ld %ld %ld %ld\n", q, r, m / id(-1), m % id(-1));
    return 0;
})"), "-9223372036854775808 0 -9223372036854775808 0\n");
    EXPECT_NE(compileErrorsOf("long z = 1 / 0;\nint main(void) { return 0; }")
                  .find("division by zero"),
              std::string::npos);
}

TEST(CodegenTest, GlobalForwardReference)
{
    EXPECT_EQ(exitCodeOf(R"(
int *pointer_to_later = &later;
int later = 99;
int main(void) {
    return *pointer_to_later;
})"), 99);
}

TEST(CodegenTest, MallocHintTypesTheAllocation)
{
    // A double* hint must produce a F64-typed heap object: storing and
    // reloading doubles round-trips exactly.
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    double *v = malloc(sizeof(double) * 2);
    v[0] = 0.1;
    v[1] = 0.2;
    int ok = v[0] + v[1] > 0.29 && v[0] + v[1] < 0.31;
    free(v);
    return ok;
})"), 1);
}

TEST(CodegenTest, VoidFunctionAndEarlyReturn)
{
    EXPECT_EQ(exitCodeOf(R"(
static int flag = 0;
static void maybe(int cond) {
    if (cond)
        return;
    flag = 1;
}
int main(void) {
    maybe(1);
    int first = flag;
    maybe(0);
    return first * 10 + flag;
})"), 1);
}

TEST(CodegenTest, ImplicitReturnZeroFromMain)
{
    EXPECT_EQ(exitCodeOf("int main(void) { }"), 0);
}

TEST(CodegenTest, RecursionWorks)
{
    EXPECT_EQ(exitCodeOf(R"(
static int fib(int n) {
    if (n < 2)
        return n;
    return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(10); })"), 55);
}

TEST(CodegenTest, MutualRecursion)
{
    EXPECT_EQ(exitCodeOf(R"(
static int isOdd(int n);
static int isEven(int n) { return n == 0 ? 1 : isOdd(n - 1); }
static int isOdd(int n) { return n == 0 ? 0 : isEven(n - 1); }
int main(void) { return isEven(10) * 10 + isOdd(7); })"), 11);
}

TEST(CodegenTest, VarargsSumViaVaArg)
{
    EXPECT_EQ(exitCodeOf(R"(
static int sum(int n, ...) {
    va_list ap;
    va_start(ap, n);
    int total = 0;
    for (int i = 0; i < n; i++)
        total += va_arg(ap, int);
    va_end(ap);
    return total;
}
int main(void) { return sum(4, 1, 2, 3, 4); })"), 10);
}

TEST(CodegenTest, VarargsMixedTypes)
{
    EXPECT_EQ(exitCodeOf(R"(
static int describe(int n, ...) {
    va_list ap;
    va_start(ap, n);
    long l = va_arg(ap, long);
    double d = va_arg(ap, double);
    const char *s = va_arg(ap, const char *);
    va_end(ap);
    return (int)l + (int)d + (int)strlen(s);
}
int main(void) { return describe(3, 100L, 2.5, "abc"); })"), 105);
}

TEST(CodegenTest, LoopLocalVariableReusesSlot)
{
    // A declaration inside a loop body must not allocate per iteration
    // (allocas are hoisted): sum of i%3 over 0..99999 is 99999.
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int total = 0;
    for (int i = 0; i < 100000; i++) {
        int local = i % 3;
        total += local;
    }
    return total % 251;
})"), 99999 % 251);
}

TEST(CodegenTest, ConditionalWithPointerArms)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int a = 5, b = 9;
    int *p = a > b ? &a : &b;
    return *p;
})"), 9);
}

TEST(CodegenTest, ArrayDecayToFunctionParameter)
{
    EXPECT_EQ(exitCodeOf(R"(
static int sum(int *vals, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++)
        acc += vals[i];
    return acc;
}
int main(void) {
    int data[4] = {1, 2, 3, 4};
    return sum(data, 4);
})"), 10);
}

TEST(CodegenTest, IndexSwappedForm)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    int arr[3] = {7, 8, 9};
    return 1[arr];
})"), 8);
}

// --- sema error paths -----------------------------------------------------

TEST(CodegenErrorTest, UndeclaredIdentifier)
{
    EXPECT_NE(compileErrorsOf("int main(void) { return nope; }"), "");
}

TEST(CodegenErrorTest, CallingNonFunction)
{
    EXPECT_NE(compileErrorsOf(
        "int main(void) { int x = 1; return x(); }"), "");
}

TEST(CodegenErrorTest, WrongArgumentCount)
{
    EXPECT_NE(compileErrorsOf(R"(
static int f(int a, int b) { return a + b; }
int main(void) { return f(1); })"), "");
}

TEST(CodegenErrorTest, MemberOfNonStruct)
{
    EXPECT_NE(compileErrorsOf(
        "int main(void) { int x = 0; return x.field; }"), "");
}

TEST(CodegenErrorTest, UnknownMember)
{
    EXPECT_NE(compileErrorsOf(R"(
struct s { int a; };
int main(void) { struct s v; return v.b; })"), "");
}

TEST(CodegenErrorTest, AssignToRvalue)
{
    EXPECT_NE(compileErrorsOf("int main(void) { 3 = 4; return 0; }"), "");
}

TEST(CodegenErrorTest, DerefNonPointer)
{
    EXPECT_NE(compileErrorsOf(
        "int main(void) { int x = 1; return *x; }"), "");
}

TEST(CodegenErrorTest, RedefinedFunction)
{
    EXPECT_NE(compileErrorsOf(R"(
int f(void) { return 1; }
int f(void) { return 2; }
int main(void) { return f(); })"), "");
}

TEST(CodegenErrorTest, ConflictingDeclaration)
{
    EXPECT_NE(compileErrorsOf(R"(
int f(int);
long f(int);
int main(void) { return 0; })"), "");
}

TEST(CodegenErrorTest, StructByValueParameterRejected)
{
    EXPECT_NE(compileErrorsOf(R"(
struct big { int a[4]; };
static int take(struct big b) { return b.a[0]; }
int main(void) { struct big v; return take(v); })"), "");
}

} // namespace
} // namespace sulong
