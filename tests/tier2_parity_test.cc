/**
 * @file
 * Tier-1 vs tier-2 parity: the compiled tier (inlining, call inline
 * caches, superinstruction fusion, redundant-check elision, threaded
 * dispatch with batched superblock step charging, OSR entry) must be
 * observationally identical to the plain interpreter — same stdout,
 * same stderr, same exit code, and for buggy programs the same bug
 * kind, attributed function, faulting site, and detail text. This is
 * the paper's core guarantee ("the compiler cannot optimize a bug
 * away") stated as a differential test over the whole bug corpus, the
 * benchmark programs, and targeted struct/pointer-heavy snippets.
 *
 * Step accounting is tested without a per-op twin: the eager
 * configuration's retired-step totals are pinned, and a step-limit
 * sweep checks that batched charging trips the limit on exactly the
 * instruction where per-op charging would (executedSteps() == L + 1).
 */

#include "test_util.h"

#include "corpus/corpus.h"
#include "interp/managed_engine.h"
#include "tools/benchmark_programs.h"

namespace sulong
{
namespace
{

/** Eager tiering so even one-shot corpus programs run compiled, with
 *  every eligible call site inlined. */
ToolConfig
eagerTier2()
{
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.compileThreshold = 0;
    config.managed.inlineSiteMin = 0;
    return config;
}

using Variants = std::vector<std::pair<std::string, ToolConfig>>;

/** The eager configurations: every function compiled on first call. */
Variants
eagerVariants()
{
    Variants variants;

    ToolConfig eager = eagerTier2();
    variants.emplace_back("tier2-eager+inline+elision", eager);

    ToolConfig no_elision = eager;
    no_elision.managed.enableCheckElision = false;
    variants.emplace_back("tier2-eager, no check elision", no_elision);

    ToolConfig no_inline = eager;
    no_inline.managed.enableInlining = false;
    variants.emplace_back("tier2-eager, no inlining", no_inline);

    return variants;
}

/** Reaching compiled code the way a real run does: after call-count
 *  warm-up, or mid-loop through OSR at a back-edge. */
Variants
warmupVariants()
{
    ToolConfig warm = ToolConfig::make(ToolKind::safeSulong);
    warm.managed.compileThreshold = 2;
    warm.managed.enableOsr = true;
    warm.managed.osrThreshold = 100;
    return {{"tier2 via warm-up thresholds and OSR", warm}};
}

/** The tier-2 configurations that must all match pure interpretation. */
Variants
tier2Variants()
{
    Variants variants = eagerVariants();
    for (auto &variant : warmupVariants())
        variants.push_back(std::move(variant));
    return variants;
}

/** One run plus the engine-side observations the tests judge. */
struct TieredRun
{
    ExecutionResult result;
    uint64_t steps = 0;
    unsigned compiledFunctions = 0;
    std::vector<CompileEvent> compileEvents;
};

TieredRun
runTiered(const ToolConfig &config, const std::string &source,
          const std::vector<std::string> &args = {},
          uint64_t max_steps = 0)
{
    PreparedProgram prepared = prepareProgram(source, config);
    TieredRun out;
    if (!prepared.ok()) {
        out.result.bug.kind = ErrorKind::engineError;
        out.result.bug.detail = prepared.compileErrors;
        return out;
    }
    prepared.engine->limits().maxSteps = max_steps;
    out.result = prepared.run(args);
    auto *managed = dynamic_cast<ManagedEngine *>(prepared.engine.get());
    out.steps = managed->executedSteps();
    out.compiledFunctions = managed->tier2Functions();
    out.compileEvents = managed->compileEvents();
    return out;
}

/** Plain tier-1 interpretation: the reference every tier must match. */
ToolConfig
tier1Only()
{
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.enableTier2 = false;
    return config;
}

void
expectParity(const std::string &label, const std::string &source,
             const std::vector<std::string> &args = {},
             const std::string &stdin_data = "",
             const Variants &variants = tier2Variants())
{
    ExecutionResult reference =
        runUnderTool(source, tier1Only(), args, stdin_data);
    const BugReport &bug = reference.bug;
    if (bug.kind != ErrorKind::none && bug.kind != ErrorKind::engineError) {
        EXPECT_TRUE(bug.blockIndex.has_value() && bug.instIndex.has_value())
            << label << ": memory-error report without a site";
    }

    for (const auto &[name, config] : variants) {
        ExecutionResult result =
            runUnderTool(source, config, args, stdin_data);
        SCOPED_TRACE(label + " under " + name);
        EXPECT_EQ(result.output, reference.output);
        EXPECT_EQ(result.errOutput, reference.errOutput);
        EXPECT_EQ(result.exitCode, reference.exitCode);
        EXPECT_EQ(result.termination, reference.termination);
        EXPECT_EQ(result.bug.kind, reference.bug.kind);
        EXPECT_EQ(result.bug.function, reference.bug.function);
        EXPECT_EQ(result.bug.detail, reference.bug.detail);
        EXPECT_EQ(result.bug.blockIndex, bug.blockIndex);
        EXPECT_EQ(result.bug.instIndex, bug.instIndex);
    }
}

TEST(Tier2ParityTest, WholeBugCorpus)
{
    for (const CorpusEntry &entry : bugCorpus())
        expectParity(entry.id, entry.source, entry.args, entry.stdinData,
                     eagerVariants());
}

TEST(Tier2ParityTest, WholeBugCorpusViaWarmupAndOsr)
{
    // Corpus programs that enter compiled code part-way through — a
    // function after its second call, a loop at its 100th back-edge —
    // must report exactly what the interpreter reports.
    for (const CorpusEntry &entry : bugCorpus())
        expectParity(entry.id, entry.source, entry.args, entry.stdinData,
                     warmupVariants());
}

struct BenchmarkCase
{
    const char *name;
    const char *arg;
};

/** Prints name and argument, so listed test names carry no pointers. */
void
PrintTo(const BenchmarkCase &c, std::ostream *os)
{
    *os << c.name << " " << c.arg;
}

class BenchmarkParityTest : public ::testing::TestWithParam<BenchmarkCase>
{
};

TEST_P(BenchmarkParityTest, MatchesInterpreter)
{
    const auto &[name, arg] = GetParam();
    const BenchmarkProgram *program = findBenchmark(name);
    ASSERT_NE(program, nullptr) << name;
    // Reduced problem sizes: parity is about semantics, not speed.
    expectParity(program->name, program->source, {arg});
}

INSTANTIATE_TEST_SUITE_P(
    Fig16Programs, BenchmarkParityTest,
    ::testing::Values(BenchmarkCase{"fannkuchredux", "6"},
                      BenchmarkCase{"fasta", "150"},
                      BenchmarkCase{"fastaredux", "400"},
                      BenchmarkCase{"mandelbrot", "32"},
                      BenchmarkCase{"meteor", "2"},
                      BenchmarkCase{"nbody", "2000"},
                      BenchmarkCase{"spectralnorm", "24"},
                      BenchmarkCase{"whetstone", "8"},
                      BenchmarkCase{"binarytrees", "7"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Tier2ParityTest, StructFieldTrafficAndAliasing)
{
    // Field re-access, aliased stores between reads, and passing struct
    // pointers through calls: the struct-shape caches must never
    // produce a value a fresh resolve would not.
    expectParity("struct-aliasing", R"(
        struct point { int x; int y; int z; };
        static int sum(struct point *p) { return p->x + p->y + p->z; }
        int main(void) {
            struct point a = {1, 2, 3};
            struct point *alias = &a;
            int total = 0;
            for (int i = 0; i < 200; i++) {
                a.x = i;
                alias->y = i * 2;
                total += sum(&a) + a.x + alias->z;
            }
            printf("%d\n", total);
            return 0;
        }
    )");
}

TEST(Tier2ParityTest, PointerChaseThroughHeapNodes)
{
    expectParity("pointer-chase", R"(
        struct node { int value; struct node *next; };
        int main(void) {
            struct node *head = 0;
            for (int i = 0; i < 64; i++) {
                struct node *n = malloc(sizeof(struct node));
                n->value = i;
                n->next = head;
                head = n;
            }
            long sum = 0;
            for (int round = 0; round < 50; round++)
                for (struct node *p = head; p; p = p->next)
                    sum += p->value;
            printf("%ld\n", sum);
            while (head) {
                struct node *next = head->next;
                free(head);
                head = next;
            }
            return 0;
        }
    )");
}

TEST(Tier2ParityTest, ElisionNeverMasksTemporalBug)
{
    // The same sites re-deref a pointer before and after free(): a
    // warm shape-cache entry must re-check liveness, so every config
    // reports the identical use-after-free.
    expectParity("uaf-after-cached-resolve", R"(
        struct box { int a; int b; };
        int main(void) {
            struct box *p = malloc(sizeof(struct box));
            p->a = 1;
            p->b = 2;
            int s = 0;
            for (int i = 0; i < 100; i++)
                s += p->a + p->b;
            free(p);
            return s + p->a;
        }
    )");
}

TEST(Tier2ParityTest, ElisionNeverMasksSpatialBug)
{
    // Walk off the end of a heap array whose earlier accesses primed
    // the caches; the overflowing index must trap with the same report.
    expectParity("oob-after-cached-resolve", R"(
        int main(void) {
            int *a = malloc(8 * sizeof(int));
            for (int i = 0; i < 8; i++)
                a[i] = i;
            long s = 0;
            for (int i = 0; i < 9; i++)
                s += a[i];
            printf("%ld\n", s);
            return 0;
        }
    )");
}

TEST(Tier2ParityTest, HotArrayOfStructsThenReadPastEnd)
{
    // An array of structs is one aggregate root that is not a struct,
    // so its accesses take the checked path with no shape cache: a hot
    // loop over every element, a loop-invariant element re-read each
    // iteration, then one element past the end.
    expectParity("struct-array-oob", R"(
        struct cell { int tag; long weight; };
        int main(void) {
            struct cell grid[16];
            for (int i = 0; i < 16; i++) {
                grid[i].tag = i;
                grid[i].weight = i * 3L;
            }
            long s = 0;
            for (int round = 0; round < 40; round++) {
                for (int i = 0; i < 16; i++)
                    s += grid[i].tag + grid[i].weight;
                s += grid[5].weight;
            }
            printf("%ld\n", s);
            int k = 15 + (s > 0);
            return (int)(s + grid[k].tag);
        }
    )");
}

TEST(Tier2ParityTest, WarmShapeCacheSeesOtherStructThenFreedStruct)
{
    // One hot access site: its shape cache warms on struct a, then the
    // site reads through a struct b, warms on struct a again, and at
    // last reads a struct a that has been freed.
    expectParity("shape-cache-type-change-then-uaf", R"(
        struct a { int x; int y; };
        struct b { long p; int q; };
        int main(void) {
            struct a *pa = malloc(sizeof(struct a));
            struct b *pb = malloc(sizeof(struct b));
            pa->x = 1;
            pa->y = 2;
            pb->p = 5;
            pb->q = 7;
            int s = 0;
            for (int i = 0; i < 300; i++) {
                void *v = i == 150 ? (void *)pb : (void *)pa;
                if (i == 200)
                    printf("%d\n", s);
                if (i == 299)
                    free(pa);
                s += ((struct a *)v)->y;
            }
            return s;
        }
    )");
}

TEST(Tier2ParityTest, TypeErrorOnWriteIsReportedAsWrite)
{
    // A non-pointer store into a pointer field is a type error of the
    // write, in every tier; a fused op must give it the store's site.
    const char *src = R"(
        struct S { int a; int *p; };
        int main(void) {
            struct S *s = malloc(sizeof(struct S));
            s->a = 1;
            for (int i = 0; i < 50; i++)
                s->a += i;
            *(long *)&s->p = 12345;
            return s->a;
        }
    )";
    expectParity("type-error-on-write", src);
    Variants variants = tier2Variants();
    variants.emplace_back("tier-1", tier1Only());
    for (const auto &[name, config] : variants) {
        SCOPED_TRACE(name);
        ExecutionResult result = runUnderTool(src, config);
        EXPECT_EQ(result.bug.access, AccessKind::write);
        EXPECT_EQ(result.bug.toString(),
                  "type-error (write, heap) in main(): non-pointer write "
                  "into AddressArray[1]");
    }
}

TEST(Tier2ParityTest, UninitReadDetectionUnaffectedByElision)
{
    // Exact uninitialized-read detection rides on the same leaf checks
    // elision must preserve.
    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    tier1.managed.detectUninitReads = true;
    const char *src = R"(
        int main(void) {
            int a[4];
            a[0] = 1;
            a[1] = 2;
            int s = 0;
            for (int i = 0; i < 100; i++)
                s += a[i % 2];
            return s + a[3];
        }
    )";
    ExecutionResult reference = runUnderTool(src, tier1);
    ASSERT_EQ(reference.bug.kind, ErrorKind::uninitRead);

    for (auto &[name, config] : tier2Variants()) {
        ToolConfig variant = config;
        variant.managed.detectUninitReads = true;
        ExecutionResult result = runUnderTool(src, variant);
        SCOPED_TRACE(name);
        EXPECT_EQ(result.bug.kind, reference.bug.kind);
        EXPECT_EQ(result.bug.function, reference.bug.function);
        EXPECT_EQ(result.bug.detail, reference.bug.detail);
        EXPECT_EQ(result.bug.blockIndex, reference.bug.blockIndex);
        EXPECT_EQ(result.bug.instIndex, reference.bug.instIndex);
    }
}

/// Retired steps of the eager configuration on the two call- and
/// pointer-heavy benchmarks at their reduced sizes. Batched superblock
/// charging must add up to exactly the per-op total; these are the
/// totals the per-op executor retired before batching was the only
/// compiled path.
constexpr uint64_t kCalltowerEagerSteps = 242859;
constexpr uint64_t kPointerchaseEagerSteps = 469797;

TEST(Tier2ParityTest, CalltowerAcrossAblations)
{
    const BenchmarkProgram *program = findBenchmark("calltower");
    ASSERT_NE(program, nullptr);
    expectParity(program->name, program->source, {"2000"});
    TieredRun run = runTiered(eagerTier2(), program->source, {"2000"});
    EXPECT_TRUE(run.result.ok()) << run.result.bug.toString();
    EXPECT_EQ(run.steps, kCalltowerEagerSteps);
}

TEST(Tier2ParityTest, PointerchaseAcrossAblations)
{
    const BenchmarkProgram *program = findBenchmark("pointerchase");
    ASSERT_NE(program, nullptr);
    expectParity(program->name, program->source, {"40"});
    TieredRun run = runTiered(eagerTier2(), program->source, {"40"});
    EXPECT_TRUE(run.result.ok()) << run.result.bug.toString();
    EXPECT_EQ(run.steps, kPointerchaseEagerSteps);
}

TEST(Tier2ParityTest, EagerConfigActuallyCompiles)
{
    // Guard against the parity suite going vacuous: the eager config
    // must compile and inline on a hot call-heavy workload.
    const BenchmarkProgram *program = findBenchmark("calltower");
    ASSERT_NE(program, nullptr);
    PreparedProgram prepared = prepareProgram(program->source, eagerTier2());
    ASSERT_TRUE(prepared.ok());
    ExecutionResult result = prepared.run({"2000"});
    EXPECT_TRUE(result.ok()) << result.bug.toString();
    auto *managed = dynamic_cast<ManagedEngine *>(prepared.engine.get());
    EXPECT_GT(managed->tier2Functions(), 0u);
    EXPECT_GT(managed->inlinedSites(), 0u);
}

TEST(Tier2ParityTest, StepLimitSweepMatchesPerOpCharging)
{
    // Every limit below the total must stop the run on the instruction
    // per-op charging stops on: the step that crosses the limit is
    // counted and refused, so executedSteps() reads L + 1. Most limits
    // land inside a superblock whose batch the guard then refuses.
    const BenchmarkProgram *program = findBenchmark("calltower");
    ASSERT_NE(program, nullptr);
    const uint64_t total = kCalltowerEagerSteps;
    for (uint64_t k = 1; k <= 20; k++) {
        uint64_t limit = total * k / 21 + k * 7919 % 97;
        SCOPED_TRACE("max steps " + std::to_string(limit));
        TieredRun run =
            runTiered(eagerTier2(), program->source, {"2000"}, limit);
        EXPECT_EQ(run.result.termination, TerminationKind::stepLimit);
        EXPECT_EQ(run.steps, limit + 1);
    }
    TieredRun exact =
        runTiered(eagerTier2(), program->source, {"2000"}, total);
    EXPECT_TRUE(exact.result.ok()) << exact.result.terminationDetail;
    EXPECT_EQ(exact.steps, total);
}

TEST(Tier2ParityTest, MegamorphicCallMidSuperblockRunsInPlace)
{
    // An indirect call site that cycles through four targets goes
    // megamorphic, and one target faults once its argument grows. The
    // compiled code keeps running through the interpreter's generic
    // call path at that site: output, bug, and site match tier-1.
    const char *src = R"(
        typedef int (*fn)(int);
        static int tab[4] = {1, 2, 3, 4};
        static int f0(int x) { return x + 1; }
        static int f1(int x) { return x + 2; }
        static int f2(int x) { return x * 2; }
        static int f3(int x) { return x - tab[x / 100]; }
        static int apply(fn f, int x) { return f(x) ^ (x & 7); }
        int main(void) {
            fn fns[4] = {f0, f1, f2, f3};
            int s = 0;
            for (int i = 0; i < 420; i++) {
                s += apply(fns[i & 3], i);
                if (i % 100 == 99)
                    printf("%d\n", s);
            }
            printf("%d\n", s);
            return 0;
        }
    )";
    expectParity("megamorphic-indirect", src);

    TieredRun reference = runTiered(tier1Only(), src);
    ASSERT_EQ(reference.result.bug.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(reference.result.bug.function, "f3");
    TieredRun run = runTiered(eagerTier2(), src);
    EXPECT_GT(run.compiledFunctions, 0u);
    EXPECT_EQ(run.result.output, reference.result.output);
    EXPECT_EQ(run.result.bug.kind, reference.result.bug.kind);
    EXPECT_EQ(run.result.bug.function, reference.result.bug.function);
    EXPECT_EQ(run.result.bug.detail, reference.result.bug.detail);
    EXPECT_EQ(run.result.bug.blockIndex, reference.result.bug.blockIndex);
    EXPECT_EQ(run.result.bug.instIndex, reference.result.bug.instIndex);
}

TEST(Tier2ParityTest, OsrEntersCompiledCodeAtLoopBackEdge)
{
    // One single activation of main with a long loop: the invocation
    // counter can never cross an astronomically high compile
    // threshold, so the only way into compiled code is tier-1 OSR at a
    // loop back-edge.
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
    config.managed.compileThreshold = 1000000;
    config.managed.enableOsr = true;
    config.managed.osrThreshold = 500;
    TieredRun run = runTiered(config, src);
    TieredRun reference = runTiered(tier1Only(), src);
    EXPECT_TRUE(run.result.ok()) << run.result.bug.toString();
    EXPECT_EQ(run.result.output, reference.result.output);
    ASSERT_EQ(run.compileEvents.size(), 1u);
    EXPECT_EQ(run.compileEvents[0].function, "main (OSR)");

    // The ablation must really ablate: with OSR off (and the threshold
    // unreachable), the same program never runs compiled.
    config.managed.enableOsr = false;
    TieredRun no_osr = runTiered(config, src);
    EXPECT_TRUE(no_osr.result.ok());
    EXPECT_EQ(no_osr.compiledFunctions, 0u);
    EXPECT_EQ(no_osr.result.output, reference.result.output);
}

TEST(Tier2ParityTest, BugInHotLoopKeepsIdenticalReport)
{
    // A spatial bug that only fires after the loop has run hot in
    // fused superblocks: the faulting access must produce the
    // byte-identical report of the pure interpreter, site included.
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
    expectParity("oob-in-hot-loop", src);

    TieredRun reference = runTiered(tier1Only(), src);
    ASSERT_EQ(reference.result.bug.kind, ErrorKind::outOfBounds);
    TieredRun run = runTiered(eagerTier2(), src);
    EXPECT_GT(run.compiledFunctions, 0u);
    EXPECT_EQ(run.result.bug.kind, reference.result.bug.kind);
    EXPECT_EQ(run.result.bug.function, reference.result.bug.function);
    EXPECT_EQ(run.result.bug.detail, reference.result.bug.detail);
    EXPECT_EQ(run.result.bug.blockIndex, reference.result.bug.blockIndex);
    EXPECT_EQ(run.result.bug.instIndex, reference.result.bug.instIndex);
}

} // namespace
} // namespace sulong
