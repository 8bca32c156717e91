/**
 * @file
 * Tier-2 inlining and call-inline-cache edge cases: profile gating,
 * recursion, variadics, budget rejection, function pointers (monomorphic
 * and megamorphic), and — most important — bug attribution: a bug raised
 * inside a spliced callee must be reported against the *callee*, exactly
 * as the tier-1 interpreter reports it. "The compiler cannot optimize a
 * bug away" extends to "nor mis-attribute it".
 */

#include "test_util.h"

#include "interp/tier2.h"

namespace sulong
{
namespace
{

/** Eagerly-compiling config: every function tier-2 compiles on its
 *  first invocation and every eligible call site is spliced. */
ToolConfig
eagerInlineConfig()
{
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.compileThreshold = 0;
    config.managed.inlineSiteMin = 0;
    return config;
}

/** Run under @p config and hand back (result, inlined-site count). */
std::pair<ExecutionResult, unsigned>
runCounting(const std::string &src, const ToolConfig &config,
            const std::vector<std::string> &args = {})
{
    PreparedProgram prepared = prepareProgram(src, config);
    EXPECT_TRUE(prepared.ok()) << prepared.compileErrors;
    if (!prepared.ok())
        return {ExecutionResult{}, 0};
    ExecutionResult result = prepared.run(args);
    auto *engine = dynamic_cast<ManagedEngine *>(prepared.engine.get());
    EXPECT_NE(engine, nullptr);
    return {std::move(result), engine ? engine->inlinedSites() : 0};
}

TEST(InlineTest, SmallHotCalleeIsSpliced)
{
    const char *src = R"(
        static int add3(int a, int b, int c) { return a + b + c; }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 100; i++)
                s += add3(i, i * 2, 1);
            printf("%d\n", s);
            return 0;
        }
    )";
    auto [result, inlined] = runCounting(src, eagerInlineConfig());
    ASSERT_TRUE(result.ok()) << result.bug.toString();
    EXPECT_EQ(result.output, "14950\n");
    EXPECT_GT(inlined, 0u);

    // Same program, inlining disabled: identical output, zero splices.
    ToolConfig off = eagerInlineConfig();
    off.managed.enableInlining = false;
    auto [plain, plain_inlined] = runCounting(src, off);
    ASSERT_TRUE(plain.ok()) << plain.bug.toString();
    EXPECT_EQ(plain.output, result.output);
    EXPECT_EQ(plain_inlined, 0u);
}

TEST(InlineTest, ProfileGatingOnlyInlinesHotSites)
{
    // caller_hot executes its add() site on every invocation; in
    // caller_cold the site is dead. With the default auto site
    // threshold only the hot site is spliced.
    const char *src = R"(
        static int add(int a, int b) { return a + b; }
        static int caller_hot(int i) { return add(i, 1); }
        static int caller_cold(int i) {
            if (i < -1000) return add(i, 2);
            return i;
        }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 300; i++) {
                s += caller_hot(i);
                s += caller_cold(i);
            }
            return s % 126;
        }
    )";
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.compileThreshold = 50;
    config.managed.inlineSiteMin = -1; // auto: half the threshold
    auto [result, inlined] = runCounting(src, config);
    ASSERT_TRUE(result.ok()) << result.bug.toString();
    EXPECT_EQ(inlined, 1u);
    // Ground truth: sum of (2i + 1) for i in [0, 300).
    EXPECT_EQ(result.exitCode, (300 * 300) % 126);
}

TEST(InlineTest, RecursiveCalleeStaysCorrect)
{
    // fib is recursive: the self-call can never be spliced into its own
    // splice (the compiler rejects recursion), but execution through
    // whatever mix of inlined/direct-call paths results must match.
    const char *src = R"(
        static int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) { return fib(15); }
    )";
    auto [result, inlined] = runCounting(src, eagerInlineConfig());
    ASSERT_TRUE(result.ok()) << result.bug.toString();
    EXPECT_EQ(result.exitCode, 610);
    (void)inlined; // fib spliced into main is fine; self-splice is not.
}

TEST(InlineTest, VariadicCalleeIsNeverInlined)
{
    const char *src = R"(
        static int sum(int n, ...) {
            va_list ap;
            va_start(ap, n);
            int s = 0;
            for (int i = 0; i < n; i++)
                s += va_arg(ap, int);
            va_end(ap);
            return s;
        }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 60; i++)
                s += sum(3, i, 2 * i, 1);
            return s % 126;
        }
    )";
    auto [result, inlined] = runCounting(src, eagerInlineConfig());
    ASSERT_TRUE(result.ok()) << result.bug.toString();
    EXPECT_EQ(inlined, 0u);
    // sum(3, i, 2i, 1) == 3i + 1; total = 3 * (59 * 60 / 2) + 60.
    EXPECT_EQ(result.exitCode, (3 * 1770 + 60) % 126);
}

TEST(InlineTest, OversizedCalleeIsRejectedByBudget)
{
    // The callee's loop body is tiny but the budget is set below any
    // whole-function splice, so the site must fall back to a direct
    // call — and still compute the same value.
    const char *src = R"(
        static int work(int x) {
            int a = x + 1; int b = a * 3; int c = b - x;
            int d = c ^ a; int e = d + b; int f = e * 2;
            int g = f - d; int h = g + c; int i = h ^ e;
            int j = i + f; int k = j - g; int l = k + h;
            return l ^ j;
        }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 80; i++)
                s ^= work(i);
            return s % 126;
        }
    )";
    ToolConfig tight = eagerInlineConfig();
    tight.managed.inlineBudget = 4;
    auto [tight_result, tight_inlined] = runCounting(src, tight);
    ASSERT_TRUE(tight_result.ok()) << tight_result.bug.toString();
    EXPECT_EQ(tight_inlined, 0u);

    auto [roomy_result, roomy_inlined] = runCounting(src, eagerInlineConfig());
    ASSERT_TRUE(roomy_result.ok()) << roomy_result.bug.toString();
    EXPECT_GT(roomy_inlined, 0u);
    EXPECT_EQ(roomy_result.exitCode, tight_result.exitCode);
}

TEST(InlineTest, FunctionPointerMonomorphicAndMegamorphic)
{
    // One site stays monomorphic (inline-cache hit path), the other
    // flips between two targets every iteration (megamorphic fallback).
    const char *src = R"(
        static int twice(int x) { return 2 * x; }
        static int thrice(int x) { return 3 * x; }
        int main(void) {
            int (*mono)(int) = twice;
            int s = 0;
            for (int i = 0; i < 120; i++) {
                int (*poly)(int) = (i % 2 == 0) ? twice : thrice;
                s += mono(i) + poly(i);
            }
            printf("%d\n", s);
            return 0;
        }
    )";
    auto [result, inlined] = runCounting(src, eagerInlineConfig());
    ASSERT_TRUE(result.ok()) << result.bug.toString();
    (void)inlined;
    // mono: 2i each round; poly: 2i on even, 3i on odd rounds.
    // Sum = 2*7140 + 2*3540 + 3*3600 = 32160.
    EXPECT_EQ(result.output, "32160\n");
    EXPECT_EQ(result.output,
              testutil::outputOf(src)); // default (lazy) config agrees
}

TEST(InlineTest, BugInInlinedCalleeIsAttributedToCallee)
{
    const char *src = R"(
        static int buf[4];
        static int poke(int i) { return buf[i]; }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 100; i++)
                s += poke(i % 4);
            return poke(7) + s;
        }
    )";
    // Reference: pure tier-1 interpretation.
    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    ExecutionResult reference = runUnderTool(src, tier1);
    ASSERT_EQ(reference.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(reference.bug.function, "poke");

    auto [result, inlined] = runCounting(src, eagerInlineConfig());
    EXPECT_GT(inlined, 0u);
    EXPECT_EQ(result.bug.kind, reference.bug.kind);
    EXPECT_EQ(result.bug.function, reference.bug.function);
    EXPECT_EQ(result.bug.detail, reference.bug.detail);
    EXPECT_EQ(result.bug.blockIndex, reference.bug.blockIndex);
    EXPECT_EQ(result.bug.instIndex, reference.bug.instIndex);

    // The site is an instruction of the callee: poke's load of buf[i].
    PreparedProgram prepared = prepareProgram(src, eagerInlineConfig());
    ASSERT_TRUE(prepared.ok()) << prepared.compileErrors;
    const Function *poke = prepared.module->findFunction("poke");
    ASSERT_NE(poke, nullptr);
    ASSERT_TRUE(result.bug.blockIndex.has_value());
    ASSERT_TRUE(result.bug.instIndex.has_value());
    ASSERT_LT(*result.bug.blockIndex, poke->blocks().size());
    const BasicBlock &bb = *poke->blocks()[*result.bug.blockIndex];
    ASSERT_LT(*result.bug.instIndex, bb.insts().size());
    EXPECT_EQ(bb.insts()[*result.bug.instIndex]->op(), Opcode::load);
}

TEST(InlineTest, NestedInlineAttributesInnermostCallee)
{
    // outer -> middle -> inner, all tiny and all spliced; the bug is in
    // inner and must be reported there, not against outer or main.
    const char *src = R"(
        static int arr[2];
        static int inner(int i) { return arr[i]; }
        static int middle(int i) { return inner(i) + 1; }
        static int outer(int i) { return middle(i) + 1; }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 50; i++)
                s += outer(i % 2);
            return outer(9) + s;
        }
    )";
    auto [result, inlined] = runCounting(src, eagerInlineConfig());
    EXPECT_GT(inlined, 0u);
    EXPECT_EQ(result.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(result.bug.function, "inner");
}

TEST(InlineTest, UseAfterFreeInInlinedCalleeStillTraps)
{
    // Temporal bugs must survive both inlining and check elision: the
    // resolution cache pins the object but re-checks liveness on every
    // access, so the freed-object load traps exactly as in tier 1.
    const char *src = R"(
        static int deref(int *p) { return *p; }
        int main(void) {
            int *p = malloc(sizeof(int));
            *p = 41;
            int s = 0;
            for (int i = 0; i < 80; i++)
                s += deref(p);
            free(p);
            return deref(p) + s;
        }
    )";
    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    ExecutionResult reference = runUnderTool(src, tier1);
    ASSERT_EQ(reference.bug.kind, ErrorKind::useAfterFree);

    auto [result, inlined] = runCounting(src, eagerInlineConfig());
    (void)inlined;
    EXPECT_EQ(result.bug.kind, reference.bug.kind);
    EXPECT_EQ(result.bug.function, reference.bug.function);
    EXPECT_EQ(result.bug.detail, reference.bug.detail);
}

} // namespace
} // namespace sulong
