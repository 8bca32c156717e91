/**
 * @file
 * Tests for the shipped libc (safe variant, executed on the managed
 * engine): string functions, conversion, qsort/bsearch, stdio — with
 * parameterized printf/strtol sweeps.
 */

#include "test_util.h"

#include "libc/libc_sources.h"

namespace sulong
{
namespace
{

using testutil::exitCodeOf;
using testutil::outputOf;

TEST(LibcMetaTest, BothVariantsCompile)
{
    for (LibcVariant variant :
         {LibcVariant::safe, LibcVariant::nativeOptimized}) {
        auto sources = libcSources(variant);
        sources.push_back(
            SourceFile{"<input>", "int main(void) { return 0; }"});
        CompileResult compiled = compileC(sources);
        EXPECT_TRUE(compiled.ok()) << compiled.errors;
    }
}

TEST(LibcMetaTest, AllAdvertisedFunctionsExist)
{
    auto sources = libcSources(LibcVariant::safe);
    sources.push_back(
        SourceFile{"<input>", "int main(void) { return 0; }"});
    CompileResult compiled = compileC(sources);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    for (const std::string &name : libcFunctionNames()) {
        const Function *fn = compiled.module->findFunction(name);
        ASSERT_NE(fn, nullptr) << name;
        EXPECT_TRUE(!fn->isDeclaration() || fn->isIntrinsic()) << name;
    }
    // The paper supports 126 functions; we advertise a solid core.
    EXPECT_GE(libcFunctionNames().size(), 60u);
}

TEST(LibcStringTest, CopyAndCompareFamily)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    char a[16];
    strncpy(a, "hello", 16); /* pads with NULs */
    printf("%s %d %d %d\n", a, a[6], strcmp(a, "hello"),
           strncmp("abcdef", "abcxyz", 3));
    char b[16];
    strcpy(b, "12");
    strncat(b, "3456789", 3);
    printf("%s\n", b);
    return 0;
})"), "hello 0 0 0\n12345\n");
}

TEST(LibcStringTest, SearchFamily)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    const char *s = "find the needle here";
    printf("%s\n", strstr(s, "needle"));
    printf("%s\n", strchr(s, 't'));
    printf("%s\n", strrchr(s, 'h'));
    printf("%lu %lu\n", strspn("aabbcc", "ab"), strcspn("xyz,abc", ","));
    printf("%s\n", strpbrk("abcdef", "xd"));
    printf("%d\n", strstr(s, "absent") == 0);
    return 0;
})"), "needle here\nthe needle here\nhere\n4 3\ndef\n1\n");
}

TEST(LibcStringTest, StrtokSplitsInPlace)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    char csv[32];
    strcpy(csv, ",,a,bb,,ccc,");
    char *tok = strtok(csv, ",");
    while (tok != 0) {
        printf("[%s]", tok);
        tok = strtok(0, ",");
    }
    printf("\n");
    return 0;
})"), "[a][bb][ccc]\n");
}

TEST(LibcStringTest, StrdupAllocatesCopy)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    char *copy = strdup("dup");
    int ok = strcmp(copy, "dup") == 0;
    copy[0] = 'D'; /* writable heap copy */
    free(copy);
    return ok;
})"), 1);
}

struct PrintfCase
{
    const char *source;
    const char *expected;
};

/** Prints the call, so listed test names carry no pointer values. */
void
PrintTo(const PrintfCase &c, std::ostream *os)
{
    *os << "printf(" << c.source << ")";
}

class PrintfSweep : public ::testing::TestWithParam<PrintfCase>
{
};

TEST_P(PrintfSweep, FormatsLikeC)
{
    const PrintfCase &c = GetParam();
    std::string src = std::string("int main(void) { printf(") + c.source +
        "); return 0; }";
    EXPECT_EQ(outputOf(src), c.expected) << c.source;
}

/** Stable test names (the default would print raw struct bytes). */
std::string
printfCaseName(const ::testing::TestParamInfo<PrintfCase> &info)
{
    return "case_" + std::to_string(info.index);
}

INSTANTIATE_TEST_SUITE_P(Formats, PrintfSweep, ::testing::Values(
    PrintfCase{R"("%d", 0)", "0"},
    PrintfCase{R"("%d", -2147483647)", "-2147483647"},
    PrintfCase{R"("%u", 4294967295u)", "4294967295"},
    PrintfCase{R"("%x", 48879)", "beef"},
    PrintfCase{R"("%X", 48879)", "BEEF"},
    PrintfCase{R"("%o", 64)", "100"},
    PrintfCase{R"("%ld", 9223372036854775807L)", "9223372036854775807"},
    PrintfCase{R"("%c", 65)", "A"},
    PrintfCase{R"("%s", "plain")", "plain"},
    PrintfCase{R"("%5s", "ab")", "   ab"},
    PrintfCase{R"("%-5s|", "ab")", "ab   |"},
    PrintfCase{R"("%.2s", "abcdef")", "ab"},
    PrintfCase{R"("%7.2f", 3.14159)", "   3.14"},
    PrintfCase{R"("%-7.2f|", 3.14159)", "3.14   |"},
    PrintfCase{R"("%+d %+d", 5, -5)", "+5 -5"},
    PrintfCase{R"("%03d", 7)", "007"},
    PrintfCase{R"("%f", 1.0)", "1.000000"},
    PrintfCase{R"("%.0f", 0.4)", "0"},
    // 0.0625 is exact in binary; glibc's round-half-even also prints 062.
    PrintfCase{R"("%.3f", -0.0625)", "-0.062"},
    PrintfCase{R"("%d%%", 9)", "9%"},
    PrintfCase{R"("%q", 1)", "%q"}  // unknown spec passes through
), printfCaseName);

TEST(LibcStdioTest, PutGetAndFprintf)
{
    ExecutionResult result = testutil::runManaged(R"(
int main(void) {
    fprintf(stderr, "err:%d\n", 1);
    fputs("out", stdout);
    fputc('!', stdout);
    putchar('\n');
    return 0;
})");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output, "out!\n");
    EXPECT_EQ(result.errOutput, "err:1\n");
}

TEST(LibcStdioTest, FgetsStopsAtNewlineAndEof)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    char buf[8];
    while (fgets(buf, 8, stdin) != 0)
        printf("<%s>", buf);
    return 0;
})", {}, "abcdefghij\nxy\n"),
              "<abcdefg><hij\n><xy\n>");
}

TEST(LibcStdioTest, ScanfMultipleConversions)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    int a;
    char word[16];
    char c;
    scanf("%d %s %c", &a, word, &c);
    printf("%d|%s|%c\n", a, word, c);
    return 0;
})", {}, "  42  hello x"), "42|hello|x\n");
}

TEST(LibcStdioTest, ScanfStopsOnMismatch)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    int a = -1, b = -1;
    int n = scanf("%d %d", &a, &b);
    printf("%d %d %d\n", n, a, b);
    return 0;
})", {}, "7 notanumber"), "1 7 -1\n");
}

TEST(LibcStdlibTest, StrtolSweep)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    printf("%ld %ld %ld %ld %ld\n",
           strtol("123", 0, 10), strtol("-45", 0, 10),
           strtol("ff", 0, 16), strtol("0755", 0, 0),
           strtol("  +9", 0, 10));
    char *end;
    strtol("12ab", &end, 10);
    printf("%s\n", end);
    return 0;
})"), "123 -45 255 493 9\nab\n");
}

TEST(LibcStdlibTest, AbsAndRand)
{
    EXPECT_EQ(exitCodeOf(R"(
int main(void) {
    if (abs(-4) != 4 || labs(-40L) != 40)
        return 1;
    srand(123);
    for (int i = 0; i < 100; i++) {
        int r = rand();
        if (r < 0 || r > RAND_MAX)
            return 2;
    }
    return 0;
})"), 0);
}

TEST(LibcStdlibTest, QsortStability)
{
    // Not stable, but must sort correctly for duplicate-heavy input.
    EXPECT_EQ(outputOf(R"(
static int cmp(const void *a, const void *b) {
    return *(const int *)a - *(const int *)b;
}
int main(void) {
    int v[10] = {5, 5, 5, 1, 1, 9, 9, 0, 0, 5};
    qsort(v, 10, sizeof(int), cmp);
    for (int i = 0; i < 10; i++)
        printf("%d", v[i]);
    printf("\n");
    return 0;
})"), "0011555599\n");
}

TEST(LibcStdlibTest, QsortStructsBySize)
{
    EXPECT_EQ(outputOf(R"(
struct kv { int key; int value; };
static int by_key(const void *a, const void *b) {
    return ((const struct kv *)a)->key - ((const struct kv *)b)->key;
}
int main(void) {
    struct kv v[3] = {{3, 30}, {1, 10}, {2, 20}};
    qsort(v, 3, sizeof(struct kv), by_key);
    printf("%d%d%d\n", v[0].value, v[1].value, v[2].value);
    return 0;
})"), "102030\n");
}

TEST(LibcStdioTest, SscanfParsesFromString)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    int a = 0;
    long b = 0;
    char word[16];
    int n = sscanf("10 -20 xyz", "%d %ld %s", &a, &b, word);
    printf("%d %d %ld %s\n", n, a, b, word);
    /* sscanf does not consume stdin. */
    int c = 0;
    scanf("%d", &c);
    printf("%d\n", c);
    return 0;
})", {}, "77"), "3 10 -20 xyz\n77\n");
}

TEST(LibcStdioTest, UngetcRoundTrip)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    int c = getchar();
    ungetc(c, stdin);
    int again = getchar();
    printf("%c%c\n", c, again);
    return 0;
})", {}, "Q"), "QQ\n");
}

TEST(LibcStdioTest, PutcGetcAliases)
{
    ExecutionResult result = testutil::runManaged(R"(
int main(void) {
    putc('a', stdout);
    putc('!', stderr);
    int c = getc(stdin);
    putc(c, stdout);
    perror("oops");
    return 0;
})", {}, "z");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output, "az");
    EXPECT_EQ(result.errOutput, "!oops: error\n");
}

TEST(LibcStdlibTest, StrtoulAndStrtod)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    printf("%lu %lu\n", strtoul("4294967295", 0, 10),
           strtoul("ff", 0, 16));
    char *end;
    double d = strtod("2.5e2suffix", &end);
    printf("%.1f %s\n", d, end);
    printf("%ld %ld\n", atoll("-123"), llabs(-5L));
    return 0;
})"), "4294967295 255\n250.0 suffix\n-123 5\n");
}

TEST(LibcStringTest, CaseInsensitiveCompare)
{
    EXPECT_EQ(outputOf(R"(
int main(void) {
    printf("%d %d %d\n", strcasecmp("Hello", "hELLO"),
           strcasecmp("abc", "abd") < 0, strncasecmp("ABCxx", "abcyy", 3));
    char buf[4];
    buf[0] = 1; buf[1] = 2; buf[2] = 3; buf[3] = 4;
    bzero(buf, 4);
    printf("%d %lu %lu\n", buf[0] + buf[3], strnlen("abcdef", 3),
           strnlen("ab", 9));
    return 0;
})"), "0 1 0\n0 3 2\n");
}

TEST(LibcSafetyTest, SafeLibcFindsBugsInArguments)
{
    // The defining property of the paper's libc (P4): calls with bad
    // arguments are caught inside the interpreted implementation.
    ExecutionResult result = testutil::runManaged(R"(
int main(void) {
    char dst[4];
    strcpy(dst, "overlong input");
    return 0;
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(result.bug.function, "strcpy");
}

TEST(LibcSafetyTest, MemsetBeyondObjectCaught)
{
    ExecutionResult result = testutil::runManaged(R"(
int main(void) {
    short vals[4];
    memset(vals, 0, 64);
    return 0;
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(result.bug.function, "memset");
}

} // namespace
} // namespace sulong
