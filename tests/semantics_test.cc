/**
 * @file
 * Cross-engine differential semantics suite.
 *
 * Every well-defined program here must produce the same exit code and
 * stdout under all five engines (Safe Sulong, Clang -O0/-O3, ASan,
 * Valgrind). This is the strongest property test in the repository: it
 * pins the managed object model, the flat native model, both optimizer
 * pipelines, and the instrumentation runtimes to one semantics.
 */

#include "test_util.h"

namespace sulong
{
namespace
{

struct SemanticsCase
{
    const char *name;
    const char *source;
    const char *expectedOutput;
    int expectedExit;
};

const SemanticsCase kCases[] = {
    {"hello", R"(
int main(void) { printf("hi %d\n", 42); return 3; })", "hi 42\n", 3},

    {"string-ops", R"(
int main(void) {
    char buf[32];
    strcpy(buf, "alpha");
    strcat(buf, "-beta");
    printf("%s %lu %d %d\n", buf, strlen(buf),
           strcmp(buf, "alpha-beta"), strncmp(buf, "alphaX", 5));
    char *found = strchr(buf, '-');
    printf("%s %s\n", found, strstr(buf, "bet"));
    return 0;
})", "alpha-beta 10 0 0\n-beta beta\n", 0},

    {"heap-lifecycle", R"(
int main(void) {
    int *v = malloc(sizeof(int) * 3);
    v[0] = 1; v[1] = 2; v[2] = 3;
    v = realloc(v, sizeof(int) * 6);
    v[5] = 60;
    printf("%d %d %d\n", v[0], v[2], v[5]);
    free(v);
    char *z = calloc(4, 1);
    printf("%d%d%d%d\n", z[0], z[1], z[2], z[3]);
    free(z);
    return 0;
})", "1 3 60\n0000\n", 0},

    {"qsort-ints", R"(
static int cmp(const void *a, const void *b) {
    return *(const int *)a - *(const int *)b;
}
int main(void) {
    int v[8] = {42, 7, 19, 3, 88, 1, 55, 7};
    qsort(v, 8, sizeof(int), cmp);
    for (int i = 0; i < 8; i++)
        printf("%d ", v[i]);
    printf("\n");
    return 0;
})", "1 3 7 7 19 42 55 88 \n", 0},

    {"qsort-strings", R"(
static int cmps(const void *a, const void *b) {
    return strcmp(*(const char *const *)a, *(const char *const *)b);
}
int main(void) {
    const char *names[4] = {"pear", "apple", "orange", "fig"};
    qsort(names, 4, sizeof(char *), cmps);
    for (int i = 0; i < 4; i++)
        printf("%s ", names[i]);
    printf("\n");
    return 0;
})", "apple fig orange pear \n", 0},

    {"printf-formats", R"(
int main(void) {
    printf("%d|%5d|%-5d|%05d|\n", -42, 42, 42, 42);
    printf("%u %x %X %o\n", 3000000000u, 255, 255, 8);
    printf("%ld %lu\n", -1L, 18446744073709551615ul);
    printf("%c%c %s %.3s\n", 'o', 'k', "str", "truncated");
    printf("%.2f %08.3f %.0f\n", 3.14159, -2.5, 9.7);
    printf("%%done\n");
    return 0;
})",
     "-42|   42|42   |00042|\n"
     "3000000000 ff FF 10\n"
     "-1 18446744073709551615\n"
     "ok str tru\n"
     "3.14 -002.500 10\n"
     "%done\n", 0},

    {"scanf-stdin", R"(
int main(void) {
    int a = 0;
    long b = 0;
    char word[16];
    scanf("%d %ld %s", &a, &b, word);
    printf("%d %ld %s\n", a * 2, b + 1, word);
    return 0;
})", "24 -6 token\n", 0},

    {"sprintf-snprintf", R"(
int main(void) {
    char buf[40];
    int n = sprintf(buf, "[%d:%s]", 7, "x");
    printf("%s %d\n", buf, n);
    char small[6];
    snprintf(small, 6, "%s", "overflowing");
    printf("%s\n", small);
    return 0;
})", "[7:x] 5\noverf\n", 0},

    {"ctype-sweep", R"(
int main(void) {
    const char *s = "aZ3 .";
    for (int i = 0; s[i] != 0; i++) {
        printf("%d%d%d%d%d ", isalpha(s[i]), isdigit(s[i]),
               isspace(s[i]), isupper(s[i]), ispunct(s[i]));
    }
    printf("%c%c\n", toupper('q'), tolower('Q'));
    return 0;
})", "10000 10010 01000 00100 00001 Qq\n", 0},

    {"strtol-atoi", R"(
int main(void) {
    char *end = 0;
    long v = strtol("  -1234xyz", &end, 10);
    printf("%ld %s\n", v, end);
    printf("%ld %ld\n", strtol("ff", 0, 16), strtol("0x10", 0, 0));
    printf("%d %ld %d\n", atoi("77"), atol("-9"), (int)(atof("2.5") * 2));
    return 0;
})", "-1234 xyz\n255 16\n77 -9 5\n", 0},

    {"memops", R"(
int main(void) {
    char a[8];
    memset(a, 'x', 7);
    a[7] = 0;
    char b[8];
    memcpy(b, a, 8);
    printf("%s %d\n", b, memcmp(a, b, 8));
    memmove(a + 1, a, 6); /* overlapping */
    a[7] = 0;
    printf("%s\n", a);
    char *hit = memchr(b, 'x', 8);
    printf("%d\n", hit == b);
    return 0;
})", "xxxxxxx 0\nxxxxxxx\n1\n", 0},

    {"rand-deterministic", R"(
int main(void) {
    srand(7);
    int a = rand();
    srand(7);
    int b = rand();
    printf("%d %d\n", a == b, a >= 0);
    return 0;
})", "1 1\n", 0},

    {"bsearch-table", R"(
static int cmp(const void *a, const void *b) {
    return *(const int *)a - *(const int *)b;
}
int main(void) {
    int v[5] = {2, 4, 8, 16, 32};
    int key = 8;
    int *hit = bsearch(&key, v, 5, sizeof(int), cmp);
    int miss_key = 5;
    int *miss = bsearch(&miss_key, v, 5, sizeof(int), cmp);
    printf("%d %d\n", hit != 0 ? *hit : -1, miss == 0);
    return 0;
})", "8 1\n", 0},

    {"function-pointers", R"(
static int add(int a, int b) { return a + b; }
static int mul(int a, int b) { return a * b; }
static int apply(int (*op)(int, int), int a, int b) { return op(a, b); }
int main(void) {
    int (*ops[2])(int, int) = {add, mul};
    printf("%d %d %d\n", apply(add, 2, 3), apply(mul, 2, 3),
           ops[1](4, 5));
    return 0;
})", "5 6 20\n", 0},

    {"struct-array-heap", R"(
struct rec { int id; double score; char tag[4]; };
int main(void) {
    struct rec *recs = malloc(sizeof(struct rec) * 2);
    recs[0].id = 1;
    recs[0].score = 1.5;
    strcpy(recs[0].tag, "ab");
    recs[1] = recs[0];
    recs[1].id = 2;
    printf("%d %d %.1f %s\n", recs[0].id, recs[1].id, recs[1].score,
           recs[1].tag);
    free(recs);
    return 0;
})", "1 2 1.5 ab\n", 0},

    {"matrix-2d", R"(
int main(void) {
    double m[3][3];
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++)
            m[i][j] = i * 3 + j;
    double trace = 0;
    for (int i = 0; i < 3; i++)
        trace += m[i][i];
    printf("%.1f\n", trace);
    return 0;
})", "12.0\n", 0},

    {"switch-dispatch", R"(
static const char *kind(int c) {
    switch (c) {
      case '+': case '-': return "op";
      case '0': case '1': case '2': return "digit";
      default: return "other";
    }
}
int main(void) {
    printf("%s %s %s\n", kind('+'), kind('1'), kind('z'));
    return 0;
})", "op digit other\n", 0},

    {"varargs-forwarding", R"(
static int pick(int idx, ...) {
    va_list ap;
    va_start(ap, idx);
    int v = 0;
    for (int i = 0; i <= idx; i++)
        v = va_arg(ap, int);
    va_end(ap);
    return v;
}
int main(void) {
    printf("%d %d\n", pick(0, 11, 22, 33), pick(2, 11, 22, 33));
    return 0;
})", "11 33\n", 0},

    {"argv-echo", R"(
int main(int argc, char **argv) {
    for (int i = 1; i < argc; i++)
        printf("[%s]", argv[i]);
    printf(" argc=%d\n", argc);
    return argc;
})", "[alpha][beta] argc=3\n", 3},

    {"fgets-lines", R"(
int main(void) {
    char line[32];
    int count = 0;
    while (fgets(line, 32, stdin) != 0) {
        count++;
        printf("%d:%s", count, line);
    }
    return count;
})", "1:first\n2:second\n", 2},

    {"recursive-ackermann", R"(
static int ack(int m, int n) {
    if (m == 0) return n + 1;
    if (n == 0) return ack(m - 1, 1);
    return ack(m - 1, ack(m, n - 1));
}
int main(void) {
    printf("%d\n", ack(2, 3));
    return 0;
})", "9\n", 0},

    {"float-printing", R"(
int main(void) {
    double values[4] = {0.0, -0.125, 1e6, 0.1};
    for (int i = 0; i < 4; i++)
        printf("%.3f ", values[i]);
    printf("\n");
    return 0;
})", "0.000 -0.125 1000000.000 0.100 \n", 0},

    {"math-intrinsics", R"(
int main(void) {
    printf("%.4f %.4f %.4f\n", sqrt(2.0), pow(2.0, 10.0),
           fabs(-3.5));
    printf("%.4f %.4f %.4f\n", floor(2.7), ceil(2.1), fmod(7.5, 2.0));
    double s = sin(0.5), c = cos(0.5);
    printf("%d\n", s * s + c * c > 0.9999 && s * s + c * c < 1.0001);
    return 0;
})", "1.4142 1024.0000 3.5000\n2.0000 3.0000 1.5000\n1\n", 0},

    {"string-view-walk", R"(
int main(void) {
    const char *csv = "a,bb,ccc";
    char field[8];
    const char *p = csv;
    while (1) {
        int n = 0;
        while (p[n] != ',' && p[n] != 0)
            n++;
        strncpy(field, p, (unsigned long)n);
        field[n] = 0;
        printf("<%s>", field);
        if (p[n] == 0)
            break;
        p += n + 1;
    }
    printf("\n");
    return 0;
})", "<a><bb><ccc>\n", 0},

    {"shadowing-scopes", R"(
int value = 1;
int main(void) {
    int value2 = 0;
    {
        int value = 10;
        value2 += value;
    }
    value2 += value;
    for (int value = 100; value < 101; value++)
        value2 += value;
    return value2; /* 10 + 1 + 100 */
})", "", 111},

    // Unsigned 64-bit wraparound is defined; no evaluator may compute it
    // with signed host arithmetic (that traps under UBSan).
    {"unsigned-long-wrap", R"(
int main(void) {
    unsigned long a = 9223372036854775807UL;
    printf("%lu\n", a + 1);
    return 0;
})", "9223372036854775808\n", 0},

    // float arithmetic rounds every result to float, folded or not:
    // 2^24 + 1 is not representable, so the sum rounds back to 2^24.
    {"float-rounding", R"(
int main(void) {
    float a = 16777216.0f, b = 1.0f;
    printf("%d\n", (int)((a + b) - a));
    return 0;
})", "0\n", 0},

    // int -> float rounds once, to float, whether the conversion runs
    // or -O3 folds it into a constant.
    {"sitofp-f32-const", R"(
int main(void) {
    int x = 16777217;
    float f = x;
    printf("%d\n", (int)f);
    return 0;
})", "16777216\n", 0},

    // unsigned -> float: 2^32 - 1 rounds up to 2^32.
    {"uitofp-f32", R"(
unsigned id(unsigned v) { return v; }
int main(void) {
    unsigned u = id(-1);
    float f = u;
    printf("%.1f\n", f);
    return 0;
})", "4294967296.0\n", 0},

    // C's `!=` and float truthiness are unordered: NaN != NaN, and a NaN
    // condition is true.
    {"nan-unordered", R"(
int main(void) {
    double n = 0.0 / 0.0;
    printf("%d %f\n", n != n, n);
    if (n) printf("cond\n");
    return 0;
})", "1 nan\ncond\n", 0},
};

class SemanticsTest
    : public ::testing::TestWithParam<std::tuple<ToolKind, int, int>>
{
};

TEST_P(SemanticsTest, ProgramBehavesIdentically)
{
    auto [kind, opt_level, case_index] = GetParam();
    const SemanticsCase &test_case = kCases[case_index];
    ToolConfig config = ToolConfig::make(kind, opt_level);

    std::vector<std::string> args;
    std::string stdin_data;
    if (std::string(test_case.name) == "argv-echo")
        args = {"alpha", "beta"};
    if (std::string(test_case.name) == "scanf-stdin")
        stdin_data = "12 -7 token\n";
    if (std::string(test_case.name) == "fgets-lines")
        stdin_data = "first\nsecond\n";

    ExecutionResult result =
        runUnderTool(test_case.source, config, args, stdin_data);
    EXPECT_TRUE(result.ok())
        << test_case.name << " under " << config.toString() << ": "
        << result.bug.toString();
    EXPECT_EQ(result.output, test_case.expectedOutput) << test_case.name;
    EXPECT_EQ(result.exitCode, test_case.expectedExit) << test_case.name;
}

std::string
semanticsParamName(
    const ::testing::TestParamInfo<std::tuple<ToolKind, int, int>> &info)
{
    auto [kind, opt_level, case_index] = info.param;
    ToolConfig config = ToolConfig::make(kind, opt_level);
    // Safe Sulong ignores the optimization level, so disambiguate.
    std::string name = config.toString() + "_O" +
        std::to_string(opt_level) + "_" + kCases[case_index].name;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllPrograms, SemanticsTest,
    ::testing::Combine(
        ::testing::Values(ToolKind::safeSulong, ToolKind::clang,
                          ToolKind::asan, ToolKind::memcheck),
        ::testing::Values(0, 3),
        ::testing::Range(0, static_cast<int>(std::size(kCases)))),
    semanticsParamName);

} // namespace
} // namespace sulong
