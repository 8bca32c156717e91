/**
 * @file
 * Reproduces the Section 4.1 comparison: the full corpus under Safe
 * Sulong, ASan -O0/-O3, and Valgrind -O0/-O3, including the "found only
 * by Safe Sulong" list (the paper's 8 bugs) and a per-entry breakdown.
 *
 * The matrix runs twice through the batch runner, each time with a
 * fresh compile cache and the same limits: on one worker (the serial
 * reference), then on a worker pool (--jobs N, default 8). The bench
 * asserts that both runs produce an identical matrix and reports the
 * wall-clock speedup and cache-hit counts; a deviation makes it exit
 * non-zero so CI can gate on it.
 */

#include <chrono>
#include <cstdio>

#include "corpus/harness.h"

namespace
{

using namespace sulong;

bool
sameMatrix(const std::vector<MatrixRow> &a, const std::vector<MatrixRow> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t r = 0; r < a.size(); r++) {
        if (a[r].tool != b[r].tool || a[r].directCount != b[r].directCount ||
            a[r].indirectCount != b[r].indirectCount ||
            a[r].errorCount != b[r].errorCount ||
            a[r].outcomes.size() != b[r].outcomes.size())
            return false;
        for (size_t i = 0; i < a[r].outcomes.size(); i++) {
            const DetectionOutcome &x = a[r].outcomes[i];
            const DetectionOutcome &y = b[r].outcomes[i];
            if (x.detected != y.detected || x.indirect != y.indirect ||
                x.error != y.error || x.report.kind != y.report.kind ||
                x.report.access != y.report.access ||
                x.report.storage != y.report.storage ||
                x.report.direction != y.report.direction ||
                x.report.detail != y.report.detail)
                return false;
        }
    }
    return true;
}

double
seconds(std::chrono::steady_clock::time_point from,
        std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sulong;
    bool verbose = false;
    for (int i = 1; i < argc; i++)
        verbose = verbose || std::string(argv[i]) == "-v";
    unsigned jobs = parseJobsFlag(argc, argv, 8);
    ResourceLimits limits = parseLimitFlags(argc, argv, corpusRunLimits());
    const auto &corpus = bugCorpus();

    // Tier-2 ablation knobs (--no-tier2, --tier2-threshold,
    // --no-inlining, --no-check-elision, ...): the CI gate diffs the
    // matrix across these configurations — the optimizing tier must
    // never change what is detected or how it is reported.
    ToolConfig sulong_config = ToolConfig::make(ToolKind::safeSulong);
    sulong_config.managed = parseManagedFlags(argc, argv);

    std::vector<ToolConfig> tools = {
        sulong_config,
        ToolConfig::make(ToolKind::asan, 0),
        ToolConfig::make(ToolKind::asan, 3),
        ToolConfig::make(ToolKind::memcheck, 0),
        ToolConfig::make(ToolKind::memcheck, 3),
        ToolConfig::make(ToolKind::clang, 0),
    };

    BatchOptions options;
    options.retries = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "retries", 0));
    auto serial_start = std::chrono::steady_clock::now();
    auto rows = runDetectionMatrix(corpus, tools, options, nullptr, &limits);
    auto serial_end = std::chrono::steady_clock::now();

    options.jobs = jobs;
    CompileCacheStats cache;
    auto batch_start = std::chrono::steady_clock::now();
    auto batch_rows =
        runDetectionMatrix(corpus, tools, options, &cache, &limits);
    auto batch_end = std::chrono::steady_clock::now();

    std::printf("%s\n", formatMatrix(corpus, rows).c_str());
    std::printf("Paper reference: Safe Sulong 68; ASan -O0 60, -O3 56;\n"
                "Valgrind slightly more than half (direct + indirect);\n"
                "8 bugs found only by Safe Sulong.\n\n");

    auto exclusive = exclusiveDetections(corpus, rows);
    std::printf("Found only by Safe Sulong (%zu):\n", exclusive.size());
    for (const std::string &id : exclusive)
        std::printf("  %s\n", id.c_str());

    bool identical = sameMatrix(rows, batch_rows);
    double serial_s = seconds(serial_start, serial_end);
    double batch_s = seconds(batch_start, batch_end);
    std::printf("\nBatch evaluation (%u workers, shared compile cache)\n",
                jobs);
    std::printf("  serial          %8.3f s\n", serial_s);
    std::printf("  batch           %8.3f s  (%.2fx speedup)\n", batch_s,
                batch_s > 0 ? serial_s / batch_s : 0.0);
    std::printf("  compile cache   %llu hits, %llu misses\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));
    std::printf("  matrix identical to serial: %s\n",
                identical ? "yes" : "NO — DETERMINISM BUG");

    if (verbose) {
        std::printf("\nPer-entry breakdown (d=direct, i=indirect, .=miss)\n");
        std::printf("  %-34s", "entry");
        for (const auto &row : rows)
            std::printf(" %-13s", row.tool.c_str());
        std::printf("\n");
        for (size_t i = 0; i < corpus.size(); i++) {
            std::printf("  %-34s", corpus[i].id.c_str());
            for (const auto &row : rows) {
                const DetectionOutcome &cell = row.outcomes[i];
                std::printf(" %-13s",
                            cell.detected ? "d"
                                          : (cell.indirect ? "i" : "."));
            }
            std::printf("\n");
        }
    }
    return identical ? 0 : 1;
}
