/**
 * @file
 * Contract tests for the generative scenario engine (src/fuzz/):
 * generator determinism across reruns and worker counts, the mutator
 * ground-truth contract against the oracle's capability matrix, the
 * minimizer's signature-preservation and idempotence guarantees, and
 * the shape-hash key the survivor dedup relies on.
 */

#include "test_util.h"

#include "fuzz/campaign.h"
#include "obs/metrics.h"
#include "tools/compile_cache.h"

namespace sulong
{
namespace
{

// ---------------------------------------------------------------------
// Generator determinism
// ---------------------------------------------------------------------

TEST(FuzzGenerator, SameSeedRendersIdenticalProgram)
{
    for (uint64_t seed : {1ull, 7ull, 1234ull}) {
        std::string a = ProgramGenerator(seed).generate().render();
        std::string b = ProgramGenerator(seed).generate().render();
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_NE(a.find("int main(void)"), std::string::npos);
    }
}

TEST(FuzzGenerator, DistinctSeedsRenderDistinctPrograms)
{
    EXPECT_NE(ProgramGenerator(1).generate().render(),
              ProgramGenerator(2).generate().render());
}

TEST(FuzzGenerator, SeedProgramIsAPureFunctionOfSeedAndOptions)
{
    CampaignOptions options;
    for (uint64_t seed = 1; seed <= 8; seed++) {
        FuzzProgram a = generateSeedProgram(seed, options);
        FuzzProgram b = generateSeedProgram(seed, options);
        EXPECT_EQ(a.render(), b.render()) << "seed " << seed;
        EXPECT_EQ(a.bug.mutator, b.bug.mutator) << "seed " << seed;
    }
}

TEST(FuzzCampaign, ReportIsByteIdenticalAcrossJobsLevels)
{
    CampaignOptions options;
    options.seedBegin = 1;
    options.seedCount = 8;
    options.jobs = 1;
    CampaignReport serial = runCampaign(options);
    options.jobs = 4;
    CampaignReport parallel = runCampaign(options);

    EXPECT_EQ(serial.toJson(), parallel.toJson());
    EXPECT_EQ(serial.unexplained(), 0u)
        << serial.formatSummary(/*verbose=*/true);
    EXPECT_EQ(serial.programs, options.seedCount);
    EXPECT_EQ(serial.cleanPrograms + serial.injectedPrograms,
              serial.programs);
    // Wall-clock (and jobs) stay out of the deterministic report and
    // only appear in the bench document.
    EXPECT_EQ(serial.toJson().find("wall_ms"), std::string::npos);
    EXPECT_NE(parallel.toBenchJson().find("wall_ms"), std::string::npos);
}

// ---------------------------------------------------------------------
// Mutator ground truth vs the oracle capability matrix
// ---------------------------------------------------------------------

struct MutatorCase
{
    MutatorKind mutator;
    ErrorKind kind;
};

class FuzzMutatorTest : public ::testing::TestWithParam<MutatorCase>
{
};

TEST_P(FuzzMutatorTest, InjectsItsClassAndEveryEngineMeetsTheMatrix)
{
    const MutatorCase &param = GetParam();
    // Several variants per mutator (storage class, read/write,
    // direction are rng-driven), each judged by the full oracle.
    for (uint64_t seed : {11ull, 12ull, 13ull}) {
        FuzzProgram clean = ProgramGenerator(seed).generate();
        ASSERT_FALSE(clean.bug.injected());
        Rng rng(seed * 0x9E37'79B9'7F4A'7C15ull);
        FuzzProgram buggy = injectBug(std::move(clean), param.mutator,
                                      rng);
        ASSERT_EQ(buggy.bug.mutator, param.mutator);
        ASSERT_EQ(buggy.bug.kind, param.kind);
        EXPECT_FALSE(buggy.bug.description.empty());

        OracleOptions options;
        OracleReport report = runOracle(buggy, options);
        ASSERT_FALSE(report.compileError)
            << report.compileErrorDetail << "\n" << buggy.render();
        // No engine expected to detect this class missed it, and no
        // engine mislabeled it: any violation of the capability matrix
        // is a disagreement.
        for (const EngineVerdict &v : report.verdicts)
            EXPECT_EQ(v.disagreement, DisagreementKind::none)
                << v.engine << ": " << v.detail << "\nseed " << seed
                << "\n" << buggy.render();
        // The paper's thesis, verbatim: the managed engine detects
        // every planted class with the exact ground-truth kind.
        ASSERT_FALSE(report.verdicts.empty());
        EXPECT_EQ(report.verdicts[0].engine, "managed");
        EXPECT_TRUE(report.verdicts[0].detected)
            << "managed missed " << buggy.bug.description << "\n"
            << buggy.render();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMutators, FuzzMutatorTest,
    ::testing::Values(
        MutatorCase{MutatorKind::oobIndex, ErrorKind::outOfBounds},
        MutatorCase{MutatorKind::useAfterFree, ErrorKind::useAfterFree},
        MutatorCase{MutatorKind::doubleFree, ErrorKind::doubleFree},
        MutatorCase{MutatorKind::uninitRead, ErrorKind::uninitRead},
        MutatorCase{MutatorKind::invalidFree, ErrorKind::invalidFree},
        MutatorCase{MutatorKind::nullDeref, ErrorKind::nullDeref}),
    [](const ::testing::TestParamInfo<MutatorCase> &info) {
        // gtest names must be alphanumeric; the kind names use dashes.
        std::string name;
        for (char c : std::string(mutatorKindName(info.param.mutator)))
            if (c != '-')
                name += c;
        return name;
    });

// ---------------------------------------------------------------------
// One compile per program
// ---------------------------------------------------------------------

TEST(FuzzOracle, CompilesEachProgramOnce)
{
    if (!obs::kObsCompiledIn)
        GTEST_SKIP() << "frontend.compiles is compiled out (MS_OBS=OFF)";
    FuzzProgram program = ProgramGenerator(21).generate();
    OracleOptions options;
    ASSERT_TRUE(options.runAnalysis);

    // The process compiles its libc, and each stage of it, once, outside
    // any program's count.
    libcPrototype().stage(LibcVariant::nativeOptimized, 0);
    obs::Counter &compiles =
        obs::MetricsRegistry::global().counter("frontend.compiles");
    obs::setMetricsEnabled(true);
    uint64_t before = compiles.value();
    CompileCache cache;
    OracleReport report = runOracle(program, options, &cache);
    uint64_t after = compiles.value();
    obs::setMetricsEnabled(false);

    ASSERT_FALSE(report.compileError) << report.compileErrorDetail;
    EXPECT_TRUE(report.analysisRan);
    // Five dynamic arms and the analyzer share one compile of the
    // program: Safe Sulong runs it as the front end produced it, and
    // the native libc's -O0 stage is a copy of it (ASan and Memcheck
    // share Clang's).
    EXPECT_EQ(after - before, 1u);
}

// ---------------------------------------------------------------------
// Minimizer: preservation, pinning, idempotence
// ---------------------------------------------------------------------

/** The planted bug still reproduces on the managed engine. */
MinimizePredicate
managedStillReports(ErrorKind kind)
{
    return [kind](const FuzzProgram &candidate) {
        PreparedProgram prepared = prepareProgram(
            candidate.render(), ToolConfig::make(ToolKind::safeSulong));
        if (!prepared.ok())
            return false;
        return prepared.run().bug.kind == kind;
    };
}

TEST(FuzzMinimizer, ShrinksWhilePreservingTheSignature)
{
    FuzzProgram clean = ProgramGenerator(21).generate();
    Rng rng(21);
    FuzzProgram buggy = injectBug(std::move(clean),
                                  MutatorKind::doubleFree, rng);
    MinimizePredicate keep = managedStillReports(ErrorKind::doubleFree);
    ASSERT_TRUE(keep(buggy));

    MinimizeStats stats;
    FuzzProgram minimized = minimizeProgram(buggy, keep, &stats);
    EXPECT_TRUE(keep(minimized)) << minimized.render();
    EXPECT_LE(stats.finalStatements, stats.originalStatements);
    EXPECT_LE(stats.finalBytes, stats.originalBytes);
    EXPECT_GT(stats.predicateRuns, 0u);
    EXPECT_GE(stats.shrinkRatio(), 0.0);
    EXPECT_LE(stats.shrinkRatio(), 1.0);

    // The pinned bug snippet survives minimization intact: both frees
    // of the planted double free are still in the program.
    std::string source = minimized.render();
    size_t first = source.find("free(fzd);");
    ASSERT_NE(first, std::string::npos) << source;
    EXPECT_NE(source.find("free(fzd);", first + 1), std::string::npos)
        << source;
}

TEST(FuzzMinimizer, IsIdempotent)
{
    FuzzProgram clean = ProgramGenerator(22).generate();
    Rng rng(22);
    FuzzProgram buggy = injectBug(std::move(clean),
                                  MutatorKind::useAfterFree, rng);
    MinimizePredicate keep = managedStillReports(ErrorKind::useAfterFree);
    ASSERT_TRUE(keep(buggy));

    FuzzProgram once = minimizeProgram(buggy, keep);
    MinimizeStats again;
    FuzzProgram twice = minimizeProgram(once, keep, &again);
    EXPECT_EQ(once.render(), twice.render());
    EXPECT_EQ(again.originalBytes, again.finalBytes);
}

// ---------------------------------------------------------------------
// Dedup key
// ---------------------------------------------------------------------

TEST(FuzzDedup, ShapeHashCollapsesLiteralDifferences)
{
    // Seed-distinct duplicates of one root cause differ only in the
    // constants the generator drew — the dedup key must collide them.
    EXPECT_EQ(shapeHash("int x = 5; g[3] = 17;"),
              shapeHash("int x = 42; g[1] = 9;"));
    EXPECT_NE(shapeHash("int x = 5;"), shapeHash("int y = 5;"));
    EXPECT_NE(shapeHash("free(p); free(p);"), shapeHash("free(p);"));
}

TEST(FuzzDedup, ShapeHashIsStableAcrossCalls)
{
    std::string source = ProgramGenerator(31).generate().render();
    EXPECT_EQ(shapeHash(source), shapeHash(source));
}

} // namespace
} // namespace sulong
