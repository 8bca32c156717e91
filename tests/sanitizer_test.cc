/**
 * @file
 * ASan-style tool tests: shadow map, which accesses are checked (user
 * code only) and what each check costs, detection capabilities AND the
 * faithful gaps of Section 4.1 (argv, strtok, printf-%ld, redzone
 * limits, quarantine limits).
 */

#include "test_util.h"

#include "native/native_engine.h"
#include "sanitizer/shadow.h"

namespace sulong
{
namespace
{

ExecutionResult
runAsan(const std::string &src, int opt_level = 0,
        const std::vector<std::string> &args = {},
        const std::string &stdin_data = "",
        AsanOptions options = {})
{
    ToolConfig config = ToolConfig::make(ToolKind::asan, opt_level);
    config.asan = options;
    return runUnderTool(src, config, args, stdin_data);
}

TEST(ShadowMapTest, SetAndGet)
{
    ShadowMap shadow;
    EXPECT_EQ(shadow.get(NativeLayout::heapBase), 0);
    shadow.set(NativeLayout::heapBase + 100, 10, 3);
    EXPECT_EQ(shadow.get(NativeLayout::heapBase + 100), 3);
    EXPECT_EQ(shadow.get(NativeLayout::heapBase + 109), 3);
    EXPECT_EQ(shadow.get(NativeLayout::heapBase + 110), 0);
}

TEST(ShadowMapTest, FirstPoisoned)
{
    ShadowMap shadow;
    uint64_t base = NativeLayout::stackBase + 64;
    shadow.set(base + 5, 1, 1);
    EXPECT_EQ(shadow.firstPoisoned(base, 5), UINT64_MAX);
    EXPECT_EQ(shadow.firstPoisoned(base, 8), base + 5);
}

TEST(ShadowMapTest, UntrackedAddressesAreClean)
{
    ShadowMap shadow;
    EXPECT_EQ(shadow.get(0), 0);
    EXPECT_EQ(shadow.get(0x12345), 0);
    shadow.set(0, 16, 9); // silently ignored
    EXPECT_EQ(shadow.get(0), 0);
}

TEST(AsanPassTest, InstrumentsUserCodeOnly)
{
    // Loads and stores of user code are checked, and the report names
    // the access kind and the source location of the access.
    ExecutionResult store = runAsan(R"(int main(void) {
    char *p = malloc(4);
    p[4] = 'x';
    return 0;
}
)");
    EXPECT_EQ(store.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(store.bug.access, AccessKind::write);
    EXPECT_EQ(store.bug.storage, StorageKind::heap);
    EXPECT_EQ(store.bug.function, "main");
    EXPECT_NE(store.bug.detail.find(" at <input>:3:12"), std::string::npos)
        << store.bug.detail;

    ExecutionResult load = runAsan(R"(int main(void) {
    char *p = malloc(4);
    return p[4];
}
)");
    EXPECT_EQ(load.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(load.bug.access, AccessKind::read);
    EXPECT_NE(load.bug.detail.find(" at <input>:3:14"), std::string::npos)
        << load.bug.detail;

    // The same overflows inside libc bodies go unseen: the precompiled
    // libc is not instrumented (P4). sprintf's interceptor checks only
    // the format and %s arguments, and strchr has none.
    ExecutionResult libc_store = runAsan(R"(int main(void) {
    char *p = malloc(4);
    sprintf(p, "%d", 12345);
    return 0;
}
)");
    EXPECT_EQ(libc_store.bug.kind, ErrorKind::none)
        << libc_store.bug.detail;
    ExecutionResult libc_load = runAsan(R"(int main(void) {
    char *p = malloc(4);
    memcpy(p, "abcd", 4);
    return strchr(p, 'z') != 0;
}
)");
    EXPECT_EQ(libc_load.bug.kind, ErrorKind::none) << libc_load.bug.detail;
    EXPECT_EQ(libc_load.exitCode, 0);
}

/**
 * Run @p src under ASan -O0 with a step limit of @p max_steps; returns
 * the retired-step total and stores the termination in @p termination.
 */
uint64_t
asanStepsWithin(const std::string &src, uint64_t max_steps,
                TerminationKind *termination)
{
    PreparedProgram prepared =
        prepareProgram(src, ToolConfig::make(ToolKind::asan, 0));
    EXPECT_TRUE(prepared.ok()) << prepared.compileErrors;
    prepared.engine->limits().maxSteps = max_steps;
    ExecutionResult result = prepared.run();
    EXPECT_EQ(result.bug.kind, ErrorKind::none) << result.bug.detail;
    *termination = result.termination;
    return static_cast<NativeEngine *>(prepared.engine.get())
        ->executedSteps();
}

/** @p src needs exactly @p total steps under ASan -O0. */
void
expectAsanStepTotal(const std::string &src, uint64_t total)
{
    TerminationKind termination = TerminationKind::normal;
    EXPECT_EQ(asanStepsWithin(src, total, &termination), total);
    EXPECT_EQ(termination, TerminationKind::normal);
    asanStepsWithin(src, total - 1, &termination);
    EXPECT_EQ(termination, TerminationKind::stepLimit);
}

// Each checked user load or store retires one extra step, the call the
// compiler inserts before it; libc bodies pay none. The totals were
// measured when ASan's checks were calls inserted into the IR.
TEST(AsanStepMeteringTest, UserLoadsAndStoresPayOneStepEach)
{
    expectAsanStepTotal(R"(int main(void) {
    int a[16];
    int sum = 0;
    for (int i = 0; i < 16; i++)
        a[i] = i * 3;
    for (int i = 0; i < 16; i++)
        sum += a[i];
    return sum % 256;
}
)", 765);
}

TEST(AsanStepMeteringTest, LibcBodiesPayNoCheckSteps)
{
    // The loop's loads of dst pay; strcpy, strlen and printf run in
    // uninstrumented libc frames and pay nothing extra.
    expectAsanStepTotal(R"(int main(void) {
    char dst[32];
    int vowels = 0;
    strcpy(dst, "hello, steps");
    for (int i = 0; dst[i] != 0; i++)
        if (dst[i] == 'e' || dst[i] == 'o')
            vowels++;
    printf("%s %d %d\n", dst, (int)strlen(dst), vowels);
    return 0;
}
)", 3006);
}

// --- detections --------------------------------------------------------

TEST(AsanDetectsTest, StackOverflowWrite)
{
    ExecutionResult result = runAsan(R"(
int main(void) {
    int a[4];
    a[4] = 1;
    return 0;
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(result.bug.storage, StorageKind::stack);
}

TEST(AsanDetectsTest, StackUnderflowRead)
{
    ExecutionResult result = runAsan(R"(
int main(void) {
    int a[4] = {0};
    return a[-1];
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
}

TEST(AsanDetectsTest, HeapOverflowAndUnderflow)
{
    EXPECT_EQ(runAsan(R"(
int main(void) {
    char *p = malloc(8);
    p[8] = 1;
    return 0;
})").bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(runAsan(R"(
int main(void) {
    char *p = malloc(8);
    return p[-1];
})").bug.kind, ErrorKind::outOfBounds);
}

TEST(AsanDetectsTest, GlobalOverflowViaRedzone)
{
    ExecutionResult result = runAsan(R"(
int table[4];
int main(int argc, char **argv) {
    return table[3 + argc]; /* index 4, not constant-foldable */
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(result.bug.storage, StorageKind::global);
}

TEST(AsanDetectsTest, UseAfterFreeViaQuarantine)
{
    ExecutionResult result = runAsan(R"(
int main(void) {
    int *p = malloc(sizeof(int));
    free(p);
    int *q = malloc(sizeof(int)); /* quarantine prevents reuse */
    *q = 1;
    return *p;
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::useAfterFree);
}

TEST(AsanDetectsTest, DoubleAndInvalidFree)
{
    EXPECT_EQ(runAsan(R"(
int main(void) {
    char *p = malloc(4);
    free(p);
    free(p);
    return 0;
})").bug.kind, ErrorKind::doubleFree);
    EXPECT_EQ(runAsan(R"(
int main(void) {
    int local = 0;
    free(&local);
    return 0;
})").bug.kind, ErrorKind::invalidFree);
    EXPECT_EQ(runAsan(R"(
int main(void) {
    char *p = malloc(16);
    free(p + 4);
    return 0;
})").bug.kind, ErrorKind::invalidFree);
}

TEST(AsanDetectsTest, InterceptedStrcpyOverflow)
{
    // The overflow happens inside (uninstrumented) libc code, but the
    // strcpy interceptor checks the ranges.
    ExecutionResult result = runAsan(R"(
int main(void) {
    char small[4];
    strcpy(small, "much too long");
    return 0;
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
}

TEST(AsanDetectsTest, InterceptedStrlenUnterminated)
{
    ExecutionResult result = runAsan(R"(
int main(void) {
    char b[4];
    b[0] = 'a'; b[1] = 'b'; b[2] = 'c'; b[3] = 'd';
    return (int)strlen(b);
})");
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
}

// --- the faithful gaps (Section 4.1) -------------------------------------

TEST(AsanGapsTest, ArgvOutOfBoundsMissed)
{
    ExecutionResult result = runAsan(R"(
int main(int argc, char **argv) {
    printf("%d %s\n", argc, argv[5]);
    return 0;
})");
    EXPECT_TRUE(result.ok()) << result.bug.toString();
}

TEST(AsanGapsTest, StrtokMissedWithoutInterceptor)
{
    const char *src = R"(
int main(void) {
    char buf[8];
    strcpy(buf, "a b");
    char t[1];
    t[0] = ' ';
    char *tok = strtok(buf, t);
    return tok != 0;
})";
    EXPECT_TRUE(runAsan(src).ok());
    // The post-paper fix (rL298650) catches it.
    AsanOptions with_fix;
    with_fix.interceptStrtok = true;
    ExecutionResult fixed = runAsan(src, 0, {}, "", with_fix);
    EXPECT_EQ(fixed.bug.kind, ErrorKind::outOfBounds);
}

TEST(AsanGapsTest, PrintfIntegerWidthMissed)
{
    ExecutionResult result = runAsan(R"(
int main(void) {
    int counter = 5;
    printf("counter: %ld\n", counter);
    return 0;
})");
    EXPECT_TRUE(result.ok()) << result.bug.toString();
}

TEST(AsanGapsTest, MissingVarargMissed)
{
    ExecutionResult result = runAsan(R"(
int main(void) {
    printf("%s %d\n", "only-one");
    return 0;
})");
    EXPECT_TRUE(result.ok()) << result.bug.toString();
}

TEST(AsanGapsTest, FarIndexOverflowsRedzone)
{
    // Fig. 14: an index far past the object jumps over the redzone.
    AsanOptions options;
    options.redzone = 32;
    ExecutionResult result = runAsan(R"(
int table[4];
int other_data[4096];
int main(int argc, char **argv) {
    int idx = atoi(argv[1]);
    return table[idx];
})", 0, {"200"}, "", options);
    EXPECT_TRUE(result.ok()) << result.bug.toString();
}

TEST(AsanGapsTest, QuarantineExhaustionMissesUaf)
{
    // P3: after enough intervening frees, the freed block leaves the
    // quarantine, gets reused, and the dangling access goes undetected.
    AsanOptions tiny;
    tiny.quarantineBlocks = 2;
    ExecutionResult result = runAsan(R"(
int main(void) {
    char *p = malloc(24);
    p[0] = 'x';
    free(p);
    for (int i = 0; i < 8; i++) {
        char *junk = malloc(24);
        junk[0] = 'j';
        free(junk);
    }
    char *fresh = malloc(24); /* reuses p's block */
    fresh[0] = 'f';
    return p[0]; /* undetected use-after-free */
})", 0, {}, "", tiny);
    EXPECT_TRUE(result.ok()) << result.bug.toString();
}

TEST(AsanDetectsTest, LeakSanitizerAnalogue)
{
    AsanOptions options;
    options.detectLeaks = true;
    ExecutionResult result = runAsan(R"(
int main(void) {
    malloc(8);
    malloc(8);
    return 0;
})", 0, {}, "", options);
    EXPECT_EQ(result.bug.kind, ErrorKind::memoryLeak);
    EXPECT_NE(result.bug.detail.find("2 heap block"), std::string::npos)
        << result.bug.detail;
}

TEST(AsanGapsTest, OptimizedAwayBugInvisible)
{
    const char *src = R"(
static int scratch(unsigned long n) {
    int arr[4] = {0};
    for (unsigned long i = 0; i < n; i++)
        arr[i] = (int)i;
    return 0;
}
int main(void) { return scratch(6); })";
    EXPECT_EQ(runAsan(src, 0).bug.kind, ErrorKind::outOfBounds);
    EXPECT_TRUE(runAsan(src, 3).ok()); // the -O3 DSE deleted the store
}

} // namespace
} // namespace sulong
