/**
 * @file
 * Driver and benchmark-program tests: tool configuration, compile
 * failure handling, and the cross-engine output equality of every
 * benchmark (the Fig. 16 workloads double as differential tests).
 */

#include "test_util.h"

#include "tools/benchmark_programs.h"

namespace sulong
{
namespace
{

TEST(DriverTest, ToolNames)
{
    EXPECT_EQ(ToolConfig::make(ToolKind::safeSulong).toString(),
              "Safe Sulong");
    EXPECT_EQ(ToolConfig::make(ToolKind::clang, 0).toString(), "Clang -O0");
    EXPECT_EQ(ToolConfig::make(ToolKind::clang, 3).toString(), "Clang -O3");
    EXPECT_EQ(ToolConfig::make(ToolKind::asan, 3).toString(), "ASan -O3");
    EXPECT_EQ(ToolConfig::make(ToolKind::memcheck, 0).toString(),
              "Valgrind -O0");
}

TEST(DriverTest, EvaluationMatrixShape)
{
    auto tools = evaluationToolMatrix();
    ASSERT_EQ(tools.size(), 5u);
    EXPECT_EQ(tools[0].kind, ToolKind::safeSulong);
}

TEST(DriverTest, CompileErrorsSurfaceInResult)
{
    ExecutionResult result = runUnderTool(
        "int main(void) { syntax error here }",
        ToolConfig::make(ToolKind::safeSulong));
    EXPECT_EQ(result.bug.kind, ErrorKind::engineError);
    EXPECT_NE(result.bug.detail.find("compilation failed"),
              std::string::npos);
}

TEST(DriverTest, MultipleUserSources)
{
    std::vector<SourceFile> sources = {
        {"a.c", "int helper(void) { return 40; }"},
        {"b.c", "int helper(void);\n"
                "int main(void) { return helper() + 2; }"},
    };
    PreparedProgram prepared =
        prepareProgram(sources, ToolConfig::make(ToolKind::safeSulong));
    ASSERT_TRUE(prepared.ok()) << prepared.compileErrors;
    EXPECT_EQ(prepared.run().exitCode, 42);
}

TEST(DriverTest, PreparedProgramIsReusable)
{
    PreparedProgram prepared = prepareProgram(
        R"(int main(int argc, char **argv) { return argc; })",
        ToolConfig::make(ToolKind::safeSulong));
    ASSERT_TRUE(prepared.ok());
    EXPECT_EQ(prepared.run({}).exitCode, 1);
    EXPECT_EQ(prepared.run({"a", "b"}).exitCode, 3);
}

/** Call parseManagedFlags on a synthetic command line. */
ManagedOptions
parseFlags(std::vector<std::string> args)
{
    std::vector<char *> argv;
    std::string prog = "msulong";
    argv.push_back(prog.data());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseManagedFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(DriverTest, TierFlagsParse)
{
    ManagedOptions opts = parseFlags({"--tier2-threshold", "9"});
    EXPECT_EQ(opts.compileThreshold, 9u);
    EXPECT_TRUE(opts.enableTier2);
    EXPECT_EQ(parseFlags({"--tier2-threshold=7"}).compileThreshold, 7u);
    EXPECT_FALSE(parseFlags({"--no-tier2"}).enableTier2);
}

TEST(DriverTest, RemovedTierFlagsAreUsageErrors)
{
    // The tier-3 knobs are gone with tier-3 itself; a stale use must
    // fail loudly instead of silently running the default engine.
    for (const char *flag :
         {"--no-tier3", "--tier3-threshold=7", "--no-tier3-osr",
          "--tier3-osr-threshold=123", "--no-fusion"}) {
        SCOPED_TRACE(flag);
        EXPECT_EXIT(parseFlags({flag}), ::testing::ExitedWithCode(2),
                    "unknown flag");
    }
    EXPECT_EXIT(parseFlags({"--tier3-threshold", "7"}),
                ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(DriverTest, MisspelledTierFlagIsUsageError)
{
    // A typo'd tier flag used to be silently ignored — and silently
    // benchmarked the wrong configuration. Now it is a usage error.
    EXPECT_EXIT(parseFlags({"--tier2-treshold", "7"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(parseFlags({"--no-tier4"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(parseFlags({"--tier2_threshold=7"}),
                ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(DriverTest, TierValueFlagWithoutValueIsUsageError)
{
    EXPECT_EXIT(parseFlags({"--tier2-threshold"}),
                ::testing::ExitedWithCode(2), "requires a value");
}

/** Call parseAnalysisFlags on a synthetic command line. */
AnalysisOptions
parseAnalysis(std::vector<std::string> args)
{
    std::vector<char *> argv;
    std::string prog = "msulong";
    argv.push_back(prog.data());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseAnalysisFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(DriverTest, AnalysisFlagsParse)
{
    AnalysisOptions opts = parseAnalysis(
        {"--no-summaries", "--summary-depth", "5", "--analysis-jobs=4",
         "--widen-after=9", "--replay-steps", "100"});
    EXPECT_FALSE(opts.summaries);
    EXPECT_TRUE(opts.refute);
    EXPECT_EQ(opts.summaryDepth, 5u);
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.widenAfter, 9u);
    EXPECT_EQ(opts.replaySteps, 100u);

    AnalysisOptions dflt = parseAnalysis({});
    EXPECT_TRUE(dflt.summaries);
    EXPECT_TRUE(dflt.userCodeOnly);
    EXPECT_FALSE(parseAnalysis({"--no-refute"}).refute);
    EXPECT_FALSE(parseAnalysis({"--analyze-libc"}).userCodeOnly);
}

TEST(DriverTest, MisspelledAnalysisFlagIsUsageError)
{
    // Same contract as the tier flags: a typo'd --analyze*-family flag
    // must not silently benchmark the wrong configuration.
    EXPECT_EXIT(parseAnalysis({"--no-summarise"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(parseAnalysis({"--analyze-olny"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(parseAnalysis({"--summary-depht=3"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(parseAnalysis({"--analysis-jbos=2"}),
                ::testing::ExitedWithCode(2), "unknown flag");
}

/** Run rejectUnknownFlags over @p args with the analysis flags plus
 *  one tool-specific value flag, the way bench_analysis does. */
void
checkAnalysisTool(std::vector<std::string> args)
{
    std::vector<char *> argv;
    std::string prog = "bench_analysis";
    argv.push_back(prog.data());
    for (std::string &arg : args)
        argv.push_back(arg.data());
    const FlagSpec own{{"-v"}, {"--json", "-j"}};
    rejectUnknownFlags(static_cast<int>(argv.size()), argv.data(),
                       {&own, &analysisFlagSpec(), &limitFlagSpec()});
}

TEST(DriverTest, StrictToolRejectsUnknownFlags)
{
    // The removed solver ablation must fail loudly, not run the
    // default configuration under a stale flag.
    EXPECT_EXIT(checkAnalysisTool({"--no-solver"}),
                ::testing::ExitedWithCode(2), "unknown flag '--no-solver'");
    EXPECT_EXIT(checkAnalysisTool({"--no-solverr"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(checkAnalysisTool({"--bogus"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(checkAnalysisTool({"stray"}),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(checkAnalysisTool({"--json"}),
                ::testing::ExitedWithCode(2), "requires a value");
    EXPECT_EXIT(
        {
            checkAnalysisTool({"--no-summaries", "--json", "out.json",
                               "--summary-depth=2", "--max-steps", "9",
                               "-j4", "-j", "2", "-v"});
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(DriverTest, AnalysisValueFlagWithoutValueIsUsageError)
{
    EXPECT_EXIT(parseAnalysis({"--summary-depth"}),
                ::testing::ExitedWithCode(2), "requires a value");
    EXPECT_EXIT(parseAnalysis({"--analysis-jobs"}),
                ::testing::ExitedWithCode(2), "requires a value");
    EXPECT_EXIT(parseAnalysis({"--replay-steps"}),
                ::testing::ExitedWithCode(2), "requires a value");
}

TEST(BenchmarkProgramsTest, RegistryComplete)
{
    const auto &programs = benchmarkPrograms();
    EXPECT_EQ(programs.size(), 11u);
    EXPECT_NE(findBenchmark("meteor"), nullptr);
    EXPECT_NE(findBenchmark("nbody"), nullptr);
    EXPECT_NE(findBenchmark("calltower"), nullptr);
    EXPECT_NE(findBenchmark("pointerchase"), nullptr);
    EXPECT_EQ(findBenchmark("unknown"), nullptr);
    EXPECT_TRUE(findBenchmark("binarytrees")->allocationIntensive);
}

/** Every benchmark must produce identical output on every engine. */
class BenchmarkDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BenchmarkDifferentialTest, AllEnginesAgree)
{
    const BenchmarkProgram &program =
        benchmarkPrograms()[static_cast<size_t>(GetParam())];
    // Use small problem sizes to keep the suite fast.
    std::vector<std::string> args = program.args;
    if (program.name == "fannkuchredux") args = {"6"};
    if (program.name == "fasta") args = {"150"};
    if (program.name == "fastaredux") args = {"600"};
    if (program.name == "mandelbrot") args = {"32"};
    if (program.name == "meteor") args = {"1"};
    if (program.name == "nbody") args = {"500"};
    if (program.name == "spectralnorm") args = {"16"};
    if (program.name == "whetstone") args = {"5"};
    if (program.name == "binarytrees") args = {"6"};
    if (program.name == "calltower") args = {"2500"};
    if (program.name == "pointerchase") args = {"20"};

    ExecutionResult reference = runUnderTool(
        program.source, ToolConfig::make(ToolKind::safeSulong), args);
    ASSERT_TRUE(reference.ok())
        << program.name << ": " << reference.bug.toString();
    ASSERT_FALSE(reference.output.empty()) << program.name;

    const ToolConfig configs[] = {
        ToolConfig::make(ToolKind::clang, 0),
        ToolConfig::make(ToolKind::clang, 3),
        ToolConfig::make(ToolKind::asan, 0),
        ToolConfig::make(ToolKind::memcheck, 0),
    };
    for (const ToolConfig &config : configs) {
        ExecutionResult result =
            runUnderTool(program.source, config, args);
        EXPECT_TRUE(result.ok()) << program.name << " under "
                                 << config.toString() << ": "
                                 << result.bug.toString();
        EXPECT_EQ(result.output, reference.output)
            << program.name << " under " << config.toString();
        EXPECT_EQ(result.exitCode, reference.exitCode) << program.name;
    }
}

std::string
benchName(const ::testing::TestParamInfo<int> &info)
{
    return benchmarkPrograms()[static_cast<size_t>(info.param)].name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkDifferentialTest,
                         ::testing::Range(0, 11), benchName);

TEST(BenchmarkProgramsTest, Tier2MatchesOnBenchmarks)
{
    // Property: eager tier-2 compilation never changes benchmark output.
    ToolConfig eager = ToolConfig::make(ToolKind::safeSulong);
    eager.managed.compileThreshold = 1;
    ToolConfig interp = ToolConfig::make(ToolKind::safeSulong);
    interp.managed.enableTier2 = false;
    for (const char *name : {"fannkuchredux", "nbody", "meteor"}) {
        const BenchmarkProgram *program = findBenchmark(name);
        std::vector<std::string> args = {"5"};
        if (std::string(name) == "nbody")
            args = {"200"};
        if (std::string(name) == "meteor")
            args = {"1"};
        ExecutionResult a = runUnderTool(program->source, eager, args);
        ExecutionResult b = runUnderTool(program->source, interp, args);
        ASSERT_TRUE(a.ok()) << name << a.bug.toString();
        EXPECT_EQ(a.output, b.output) << name;
    }
}

} // namespace
} // namespace sulong
