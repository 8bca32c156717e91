/**
 * @file
 * Reproduces Fig. 16: peak performance of every tool on the benchmark
 * suite, relative to Clang -O0, after in-process warm-up. binarytrees is
 * reported separately (the paper excludes it from the plot because ASan
 * and Valgrind blow up on allocation-intensive code).
 *
 * Expected shape: Valgrind is the slowest by a large factor; ASan is
 * slower than Clang -O0; warmed-up Safe Sulong sits around Clang -O0
 * (sometimes better) and approaches Clang -O3 on some benchmarks.
 *
 * After the table it prints, per benchmark, the IR steps one warmed Safe
 * Sulong run retires and the nanoseconds each step costs.
 *
 * Flags: `--quick` (fewer samples), `--json PATH` (machine-readable
 * BENCH_tier2.json/v1 output for the CI perf gate), `--bench A,B`
 * (restrict to the named benchmarks), plus the tier-2 tuning flags of
 * parseManagedFlags (`--no-tier2`, `--tier2-threshold N`,
 * `--no-inlining`, `--inline-budget N`, `--inline-min N`,
 * `--no-check-elision`).
 */

#include <chrono>
#include <cstdio>

#include "support/stats.h"
#include "tools/bench_json.h"
#include "tools/benchmark_programs.h"
#include "tools/driver.h"

namespace
{

using namespace sulong;
using Clock = std::chrono::steady_clock;

/** Median wall time of one warmed-up run; also reports the IR steps one
 *  run retires under the managed engine (0 for the native tools). */
double
peakSeconds(const BenchmarkProgram &program, const ToolConfig &base_config,
            int warmup_iters, int samples, uint64_t *steps_out)
{
    ToolConfig config = base_config;
    if (config.kind == ToolKind::safeSulong)
        config.managed.persistState = true; // keep tier-2 code hot
    PreparedProgram prepared = prepareProgram(program.source, config);
    if (!prepared.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     prepared.compileErrors.c_str());
        std::exit(1);
    }
    for (int i = 0; i < warmup_iters; i++) {
        ExecutionResult result = prepared.run(program.args);
        if (!result.ok()) {
            std::fprintf(stderr, "%s under %s failed: %s\n",
                         program.name.c_str(),
                         config.toString().c_str(),
                         result.bug.toString().c_str());
            std::exit(1);
        }
    }
    std::vector<double> times;
    for (int i = 0; i < samples; i++) {
        auto t0 = Clock::now();
        prepared.run(program.args);
        times.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
    if (steps_out != nullptr) {
        auto *managed =
            dynamic_cast<ManagedEngine *>(prepared.engine.get());
        *steps_out = managed != nullptr ? managed->executedSteps() : 0;
    }
    return summarize(times).median;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = hasFlag(argc, argv, "quick");
    int warmup = quick ? 2 : 10;
    int samples = quick ? 3 : 7;
    std::string json_path = parseStringFlag(argc, argv, "json");
    std::string only = parseStringFlag(argc, argv, "bench");
    ManagedOptions managed = parseManagedFlags(argc, argv);
    auto selected = [&only](const std::string &name) {
        if (only.empty())
            return true;
        size_t pos = 0;
        while (pos <= only.size()) {
            size_t comma = only.find(',', pos);
            size_t end = comma == std::string::npos ? only.size() : comma;
            if (only.compare(pos, end - pos, name) == 0)
                return true;
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        return false;
    };

    ToolConfig sulong_config = ToolConfig::make(ToolKind::safeSulong);
    sulong_config.managed = managed;
    const ToolConfig tools[] = {
        ToolConfig::make(ToolKind::clang, 0),
        ToolConfig::make(ToolKind::clang, 3),
        sulong_config,
        ToolConfig::make(ToolKind::asan, 0),
        ToolConfig::make(ToolKind::memcheck, 0),
    };

    std::printf("Peak performance relative to Clang -O0 "
                "(median of %d samples after %d warm-up runs; lower is "
                "better)\n\n", samples, warmup);
    std::printf("  %-15s", "benchmark");
    for (const auto &tool : tools)
        std::printf(" %12s", tool.toString().c_str());
    std::printf("\n");

    std::vector<BenchRecord> records;
    std::vector<std::vector<double>> ratios(std::size(tools));
    /// Safe Sulong's retired steps and ns per step, per benchmark.
    struct StepCost
    {
        std::string name;
        uint64_t steps;
        double nsPerStep;
    };
    std::vector<StepCost> step_costs;
    for (const BenchmarkProgram &program : benchmarkPrograms()) {
        if (!selected(program.name))
            continue;
        double base =
            peakSeconds(program, tools[0], warmup, samples, nullptr);
        std::printf("  %-15s", program.name.c_str());
        for (size_t t = 0; t < std::size(tools); t++) {
            uint64_t steps = 0;
            double secs =
                peakSeconds(program, tools[t], warmup, samples, &steps);
            double rel = base > 0 ? secs / base : 0;
            std::printf(" %12.2f", rel);
            if (!program.allocationIntensive)
                ratios[t].push_back(rel);
            BenchRecord record;
            record.bench = "fig16." + program.name;
            record.engine = tools[t].toString();
            if (tools[t].kind == ToolKind::safeSulong)
                record.config = managedConfigString(tools[t].managed);
            record.nsPerOp = secs * 1e9;
            record.stepsPerOp = steps;
            if (tools[t].kind == ToolKind::safeSulong) {
                step_costs.push_back(StepCost{
                    program.name, steps,
                    steps > 0 ? secs * 1e9 / static_cast<double>(steps)
                              : 0});
            }
            records.push_back(std::move(record));
        }
        std::printf("%s\n",
                    program.allocationIntensive
                        ? "   (allocation-intensive; excluded from "
                          "geomean, like the paper's plot)"
                        : "");
    }
    std::printf("  %-15s", "geomean");
    for (size_t t = 0; t < std::size(tools); t++)
        std::printf(" %12.2f", geomean(ratios[t]));
    // Where Safe Sulong's time goes: a run's retired IR steps, and the
    // warmed cost of one step.
    std::printf("\n\nSafe Sulong per retired IR step (warmed run):\n\n");
    std::printf("  %-15s %12s %12s\n", "benchmark", "steps/run", "ns/step");
    for (const StepCost &cost : step_costs) {
        std::printf("  %-15s %12llu %12.1f\n", cost.name.c_str(),
                    static_cast<unsigned long long>(cost.steps),
                    cost.nsPerStep);
    }
    std::printf("\nPaper reference: Safe Sulong faster than ASan -O0 on\n"
                "almost all benchmarks, around Clang -O0 overall, on a par\n"
                "with -O3 on some; Valgrind 2.3x-58x slower; binarytrees:\n"
                "ASan 14x / Valgrind 58x vs Safe Sulong 1.7x.\n");
    if (!json_path.empty()) {
        if (!writeBenchJson(json_path, records)) {
            std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("\nWrote %zu records to %s\n", records.size(),
                    json_path.c_str());
    }
    return 0;
}
