/**
 * @file
 * Tier-3 parity: threaded dispatch, superblock fusion, and OSR must be
 * observationally identical to the lower tiers — same stdout, stderr,
 * exit code, bug kind / attributed function / site / detail text, AND
 * the same count of retired IR steps. The step-count equality is the
 * strong form of "no check was skipped": superblock fusion batches the
 * accounting but must charge exactly the per-op total, including on
 * every deopt and bug path. Covers the whole bug corpus, the perf-gate
 * benchmarks, and targeted deopt-mid-superblock / OSR-at-backedge
 * scenarios.
 */

#include "test_util.h"

#include "corpus/corpus.h"
#include "interp/managed_engine.h"
#include "tools/benchmark_programs.h"

namespace sulong
{
namespace
{

/** One run plus the engine-side observations parity is judged on. */
struct TieredRun
{
    ExecutionResult result;
    uint64_t steps = 0;
    ManagedTelemetry telemetry;
};

TieredRun
runTiered(const ToolConfig &config, const std::string &source,
          const std::vector<std::string> &args = {},
          const std::string &stdin_data = "")
{
    PreparedProgram prepared = prepareProgram(source, config);
    TieredRun out;
    if (!prepared.ok()) {
        out.result.bug.kind = ErrorKind::engineError;
        out.result.bug.detail = prepared.compileErrors;
        return out;
    }
    out.result = prepared.run(args, stdin_data);
    auto *managed = dynamic_cast<ManagedEngine *>(prepared.engine.get());
    out.steps = managed->executedSteps();
    out.telemetry = managed->telemetry();
    return out;
}

/** Eager tiering so even one-shot corpus programs reach tier-3. */
ToolConfig
eagerTier3()
{
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.compileThreshold = 0;
    config.managed.inlineSiteMin = 0;
    config.managed.tier3Threshold = 0;
    return config;
}

/** The tier-3 configurations that must all match the tier-2 baseline. */
std::vector<std::pair<std::string, ToolConfig>>
tier3Variants()
{
    std::vector<std::pair<std::string, ToolConfig>> variants;

    variants.emplace_back("tier3-eager", eagerTier3());

    ToolConfig no_fusion = eagerTier3();
    no_fusion.managed.enableFusion = false;
    variants.emplace_back("tier3-eager, no fusion (--no-fusion)",
                          no_fusion);

    ToolConfig no_osr3 = eagerTier3();
    no_osr3.managed.tier3Osr = false;
    variants.emplace_back("tier3-eager, no tier-3 OSR", no_osr3);

    ToolConfig warm = ToolConfig::make(ToolKind::safeSulong);
    warm.managed.compileThreshold = 2;
    warm.managed.tier3Threshold = 2;
    warm.managed.tier3OsrThreshold = 100;
    variants.emplace_back("tier3 via warm-up thresholds", warm);

    return variants;
}

void
expectParity(const std::string &label, const std::string &source,
             const std::vector<std::string> &args = {},
             const std::string &stdin_data = "")
{
    // Observable behavior must match the plain interpreter across
    // every variant; the pure tier-1 run is that reference.
    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    TieredRun reference = runTiered(tier1, source, args, stdin_data);
    const BugReport &bug = reference.result.bug;
    if (bug.kind != ErrorKind::none && bug.kind != ErrorKind::engineError) {
        EXPECT_TRUE(bug.blockIndex.has_value() && bug.instIndex.has_value())
            << label << ": memory-error report without a site";
    }

    for (const auto &[name, config] : tier3Variants()) {
        TieredRun run = runTiered(config, source, args, stdin_data);
        SCOPED_TRACE(label + " under " + name);
        EXPECT_EQ(run.result.output, reference.result.output);
        EXPECT_EQ(run.result.errOutput, reference.result.errOutput);
        EXPECT_EQ(run.result.exitCode, reference.result.exitCode);
        EXPECT_EQ(run.result.termination, reference.result.termination);
        EXPECT_EQ(run.result.bug.kind, reference.result.bug.kind);
        EXPECT_EQ(run.result.bug.function, reference.result.bug.function);
        EXPECT_EQ(run.result.bug.detail, reference.result.bug.detail);
        EXPECT_EQ(run.result.bug.blockIndex, bug.blockIndex);
        EXPECT_EQ(run.result.bug.instIndex, bug.instIndex);

        // Retired-effect parity against the --no-tier3 twin of the
        // SAME configuration: inlining decisions legitimately change
        // the retired-step total between configurations, but switching
        // tier-3 on must not move it by a single step — superblock
        // fusion batches the accounting, and every deopt and bug path
        // has to reconcile the batch to the per-op total.
        ToolConfig twin = config;
        twin.managed.enableTier3 = false;
        TieredRun ablated = runTiered(twin, source, args, stdin_data);
        EXPECT_EQ(run.steps, ablated.steps);
        EXPECT_EQ(run.result.output, ablated.result.output);
        EXPECT_EQ(run.result.bug.detail, ablated.result.bug.detail);
    }
}

TEST(Tier3ParityTest, WholeBugCorpus)
{
    for (const CorpusEntry &entry : bugCorpus())
        expectParity(entry.id, entry.source, entry.args, entry.stdinData);
}

TEST(Tier3ParityTest, CalltowerAcrossAblations)
{
    const BenchmarkProgram *program = findBenchmark("calltower");
    ASSERT_NE(program, nullptr);
    // Reduced problem size: parity is about semantics, not speed.
    expectParity(program->name, program->source, {"2000"});
}

TEST(Tier3ParityTest, PointerchaseAcrossAblations)
{
    const BenchmarkProgram *program = findBenchmark("pointerchase");
    ASSERT_NE(program, nullptr);
    expectParity(program->name, program->source, {"40"});
}

TEST(Tier3ParityTest, EagerTier3ActuallyTranslates)
{
    // Guard against the parity suite going vacuous: the eager config
    // must reach tier-3 and form fused superblocks on a hot workload.
    const BenchmarkProgram *program = findBenchmark("calltower");
    ASSERT_NE(program, nullptr);
    TieredRun run = runTiered(eagerTier3(), program->source, {"2000"});
    EXPECT_TRUE(run.result.ok()) << run.result.bug.toString();
    EXPECT_GT(run.telemetry.t3Compiles, 0u);
    EXPECT_GT(run.telemetry.t3Superblocks, 0u);
}

TEST(Tier3ParityTest, DeoptMidSuperblockOnMegamorphicCall)
{
    // An indirect call site that cycles through four targets goes
    // megamorphic. Tier-3 only carries the monomorphic fast path, so
    // the first non-matching dispatch must deopt back to tier-2 *at*
    // the call — with the not-yet-executed remainder of the charged
    // superblock returned — and the program must still compute the
    // same answer with the same retired-step total.
    const char *src = R"(
        typedef int (*fn)(int);
        static int f0(int x) { return x + 1; }
        static int f1(int x) { return x + 2; }
        static int f2(int x) { return x * 2; }
        static int f3(int x) { return x - 3; }
        static int apply(fn f, int x) { return f(x) ^ (x & 7); }
        int main(void) {
            fn fns[4] = {f0, f1, f2, f3};
            int s = 0;
            for (int i = 0; i < 400; i++)
                s += apply(fns[i & 3], i);
            printf("%d\n", s);
            return 0;
        }
    )";
    expectParity("megamorphic-indirect", src);

    TieredRun run = runTiered(eagerTier3(), src);
    EXPECT_TRUE(run.result.ok()) << run.result.bug.toString();
    EXPECT_GT(run.telemetry.t3Compiles, 0u);
    EXPECT_GT(run.telemetry.t3DeoptMega, 0u);
}

TEST(Tier3ParityTest, OsrEntersTier3AtLoopBackEdge)
{
    // One single activation of main with a long loop: the activation
    // counter can never cross an astronomically high tier3Threshold, so
    // the only way into tier-3 is OSR at a tier-2 loop back-edge.
    const char *src = R"(
        int main(void) {
            long acc = 0;
            for (int i = 0; i < 20000; i++)
                acc += (i ^ (acc & 15)) % 97;
            printf("%ld\n", acc);
            return 0;
        }
    )";
    expectParity("osr-backedge", src);

    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.compileThreshold = 0;
    config.managed.tier3Threshold = 1000000;
    config.managed.tier3OsrThreshold = 500;
    TieredRun run = runTiered(config, src);
    EXPECT_TRUE(run.result.ok()) << run.result.bug.toString();
    EXPECT_GT(run.telemetry.t3OsrEntries, 0u);

    // The ablation must really ablate: with tier-3 OSR off (and the
    // threshold unreachable), the same program never enters tier-3.
    config.managed.tier3Osr = false;
    TieredRun no_osr = runTiered(config, src);
    EXPECT_TRUE(no_osr.result.ok());
    EXPECT_EQ(no_osr.telemetry.t3OsrEntries, 0u);
    EXPECT_EQ(no_osr.telemetry.t3Compiles, 0u);
    EXPECT_EQ(no_osr.steps, run.steps);
}

TEST(Tier3ParityTest, BugInHotLoopDeoptsWithIdenticalReport)
{
    // A spatial bug that only fires after the loop is hot enough to be
    // running fused tier-3 code: the faulting access must produce the
    // byte-identical report of the pure interpreter, and the implicit
    // bug-deopt must reconcile the superblock's step batch.
    const char *src = R"(
        int main(void) {
            int *a = malloc(64 * sizeof(int));
            long s = 0;
            for (int i = 0; i < 5000; i++)
                s += (a[i & 63] = i) & 1;
            for (int i = 0; i <= 64; i++)
                s += a[i];
            printf("%ld\n", s);
            return 0;
        }
    )";
    expectParity("oob-under-tier3", src);

    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    TieredRun reference = runTiered(tier1, src);
    ASSERT_EQ(reference.result.bug.kind, ErrorKind::outOfBounds);

    TieredRun run = runTiered(eagerTier3(), src);
    EXPECT_EQ(run.result.bug.kind, reference.result.bug.kind);
    EXPECT_EQ(run.result.bug.function, reference.result.bug.function);
    EXPECT_EQ(run.result.bug.detail, reference.result.bug.detail);
    // The site survives superinstruction fusion and the bug deopt.
    EXPECT_EQ(run.result.bug.blockIndex, reference.result.bug.blockIndex);
    EXPECT_EQ(run.result.bug.instIndex, reference.result.bug.instIndex);
    EXPECT_GT(run.telemetry.t3Compiles, 0u);
    EXPECT_GT(run.telemetry.t3DeoptBug, 0u);
}

} // namespace
} // namespace sulong
