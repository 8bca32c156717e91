/**
 * @file
 * Reproduces the Section 4.2 start-up measurement: time to run a
 * "Hello, World!" program under each tool, split into preparation
 * (compile + instrument, the analogue of the paper's JVM init and libc
 * parsing) and execution.
 *
 * Note (see EXPERIMENTS.md): absolute values differ from the paper —
 * all our tools share the same front end, whereas the paper compares a
 * JVM against native process startup. Like the paper's pipeline, the
 * libc is compiled once per process into one prototype, and each
 * variant's bodies once per pipeline level into a stage of it (printed
 * first, as one-time costs); a program's prepare compiles only its own
 * source, once, and references the libc bodies it reaches.
 *
 * Exits 1 if any run prints the wrong output; there is no timing floor.
 */

#include <chrono>
#include <cstdio>

#include "libc/libc_sources.h"
#include "support/stats.h"
#include "tools/driver.h"

int
main()
{
    using namespace sulong;
    using Clock = std::chrono::steady_clock;
    const char *hello = R"(
int main(void) {
    printf("Hello, World!\n");
    return 0;
})";
    constexpr int kRuns = 30;

    std::printf("Start-up cost on \"Hello, World!\" (%d runs each)\n\n",
                kRuns);
    std::printf("  one-time libc prototype and stage builds (first use in "
                "a process):\n");
    auto t0 = Clock::now();
    libcPrototype();
    std::printf("  %-15s %10.2f ms\n", "prototype",
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0).count());
    // The native tools' libc stages: the native bodies compiled over the
    // prototype and optimized once, then shared by reference by every
    // program (Safe Sulong's is the prototype itself).
    for (int level : {0, 3}) {
        auto t1 = Clock::now();
        libcPrototype().stage(LibcVariant::nativeOptimized, level);
        std::printf("  native-opt -O%d %10.2f ms\n", level,
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t1).count());
    }
    std::printf("\n  warm per-program cost (median):\n");
    std::printf("  %-13s %12s %12s %12s\n", "tool", "prepare(ms)",
                "run(ms)", "total(ms)");
    for (const ToolConfig &config : {
             ToolConfig::make(ToolKind::safeSulong),
             ToolConfig::make(ToolKind::clang, 0),
             ToolConfig::make(ToolKind::asan, 0),
             ToolConfig::make(ToolKind::memcheck, 0),
         }) {
        std::vector<double> prep_ms, run_ms;
        for (int i = 0; i < kRuns; i++) {
            auto t0 = Clock::now();
            PreparedProgram prepared = prepareProgram(hello, config);
            auto t1 = Clock::now();
            ExecutionResult result = prepared.run();
            auto t2 = Clock::now();
            if (!result.ok() || result.output != "Hello, World!\n") {
                std::printf("unexpected result under %s: %s\n",
                            config.toString().c_str(),
                            result.bug.toString().c_str());
                return 1;
            }
            prep_ms.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
            run_ms.push_back(
                std::chrono::duration<double, std::milli>(t2 - t1).count());
        }
        Summary prep = summarize(prep_ms);
        Summary run = summarize(run_ms);
        std::printf("  %-13s %12.2f %12.2f %12.2f\n",
                    config.toString().c_str(), prep.median, run.median,
                    prep.median + run.median);
    }
    std::printf("\nPaper reference (absolute, their testbed): ASan <10 ms,\n"
                "Valgrind ~500 ms, Safe Sulong ~600 ms.\n");
    return 0;
}
