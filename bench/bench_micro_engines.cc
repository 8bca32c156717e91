/**
 * @file
 * google-benchmark micro comparisons of the execution engines on small
 * kernels: per-engine cost of arithmetic loops, memory traffic, calls,
 * and allocation — the building blocks behind the Fig. 16 numbers.
 *
 * Custom flags (stripped before google-benchmark sees the command
 * line): `--json PATH` writes the results in the BENCH_tier2.json/v1
 * schema, and the tier-2 tuning flags of parseManagedFlags
 * (`--no-tier2`, `--tier2-threshold N`, `--no-inlining`,
 * `--inline-budget N`, `--inline-min N`, `--no-check-elision`)
 * reconfigure the Safe Sulong engine under test.
 */

#include <benchmark/benchmark.h>

#include "tools/bench_json.h"
#include "tools/driver.h"

namespace
{

using namespace sulong;

/// Tier-2 knobs for the SafeSulong rows, set in main() from the
/// command line before the benchmarks run.
ManagedOptions g_managed;

const char *ARITH_KERNEL = R"(
int main(void) {
    long acc = 1;
    for (int i = 0; i < 200000; i++)
        acc = acc * 31 + i;
    return (int)(acc & 0x7f);
})";

const char *MEMORY_KERNEL = R"(
int main(void) {
    int buf[256];
    for (int i = 0; i < 256; i++)
        buf[i] = i;
    int acc = 0;
    for (int round = 0; round < 800; round++)
        for (int i = 0; i < 256; i++)
            acc += buf[i];
    return acc & 0x7f;
})";

const char *CALL_KERNEL = R"(
static int add3(int a, int b, int c) { return a + b + c; }
int main(void) {
    int acc = 0;
    for (int i = 0; i < 100000; i++)
        acc = add3(acc, i, 1) & 0xffff;
    return acc & 0x7f;
})";

const char *ALLOC_KERNEL = R"(
int main(void) {
    int acc = 0;
    for (int i = 0; i < 4000; i++) {
        int *p = malloc(sizeof(int) * 8);
        p[0] = i;
        acc += p[0];
        free(p);
    }
    return acc & 0x7f;
})";

ToolConfig
configFor(int tool)
{
    switch (tool) {
      case 0: {
        ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
        config.managed = g_managed;
        config.managed.persistState = true;
        return config;
      }
      case 1: return ToolConfig::make(ToolKind::clang, 0);
      case 2: return ToolConfig::make(ToolKind::clang, 3);
      case 3: return ToolConfig::make(ToolKind::asan, 0);
      default: return ToolConfig::make(ToolKind::memcheck, 0);
    }
}

const char *kToolNames[] = {"SafeSulong", "ClangO0", "ClangO3", "ASan",
                            "Valgrind"};

void
runKernel(benchmark::State &state, const char *kernel)
{
    ToolConfig config = configFor(static_cast<int>(state.range(0)));
    PreparedProgram prepared = prepareProgram(kernel, config);
    if (!prepared.ok()) {
        state.SkipWithError("compile failed");
        return;
    }
    // Warm the tiers.
    prepared.run();
    prepared.run();
    for (auto _ : state) {
        ExecutionResult result = prepared.run();
        benchmark::DoNotOptimize(result.exitCode);
        if (!result.ok()) {
            state.SkipWithError(result.bug.toString().c_str());
            return;
        }
    }
    state.SetLabel(kToolNames[state.range(0)]);
    if (auto *managed =
            dynamic_cast<ManagedEngine *>(prepared.engine.get())) {
        // IR instructions retired per iteration, for the JSON records.
        state.counters["steps_per_op"] = benchmark::Counter(
            static_cast<double>(managed->executedSteps()));
    }
}

void BM_Arithmetic(benchmark::State &state) { runKernel(state, ARITH_KERNEL); }
void BM_Memory(benchmark::State &state) { runKernel(state, MEMORY_KERNEL); }
void BM_Calls(benchmark::State &state) { runKernel(state, CALL_KERNEL); }
void BM_Allocation(benchmark::State &state) { runKernel(state, ALLOC_KERNEL); }

/** Console output as usual, plus a capture of every run for --json. */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<BenchRecord> records;

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred || run.run_type != Run::RT_Iteration)
                continue;
            BenchRecord record;
            record.bench = "micro." + run.benchmark_name();
            record.engine =
                run.report_label.empty() ? "unknown" : run.report_label;
            if (record.engine == "SafeSulong")
                record.config = managedConfigString(g_managed);
            record.nsPerOp =
                run.iterations > 0
                    ? run.real_accumulated_time * 1e9 /
                          static_cast<double>(run.iterations)
                    : 0;
            auto steps = run.counters.find("steps_per_op");
            if (steps != run.counters.end())
                record.stepsPerOp =
                    static_cast<uint64_t>(steps->second.value);
            records.push_back(std::move(record));
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

/** Drop the custom flags google-benchmark would reject. */
std::vector<char *>
stripCustomFlags(int argc, char **argv)
{
    auto takes_value = [](const std::string &arg, const char *name) {
        return arg == std::string("--") + name;
    };
    auto is_eq_form = [](const std::string &arg, const char *name) {
        std::string prefix = std::string("--") + name + "=";
        return arg.rfind(prefix, 0) == 0;
    };
    static const char *value_flags[] = {"json", "tier2-threshold",
                                        "inline-budget", "inline-min"};
    static const char *switch_flags[] = {"no-tier2", "no-inlining",
                                         "no-check-elision"};
    std::vector<char *> out;
    out.push_back(argv[0]);
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        bool custom = false;
        for (const char *name : value_flags) {
            if (takes_value(arg, name)) {
                i++; // skip the value too
                custom = true;
            } else if (is_eq_form(arg, name)) {
                custom = true;
            }
        }
        for (const char *name : switch_flags)
            custom = custom || arg == std::string("--") + name;
        if (!custom)
            out.push_back(argv[i]);
    }
    return out;
}

} // namespace

BENCHMARK(BM_Arithmetic)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Memory)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Calls)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Allocation)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    std::string json_path = parseStringFlag(argc, argv, "json");
    g_managed.compileThreshold = 2;
    g_managed = parseManagedFlags(argc, argv, g_managed);

    std::vector<char *> bench_args = stripCustomFlags(argc, argv);
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data()))
        return 1;

    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!json_path.empty() &&
        !writeBenchJson(json_path, reporter.records)) {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}
