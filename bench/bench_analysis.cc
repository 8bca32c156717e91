/**
 * @file
 * Static-analysis cross-validation bench: run the IR dataflow analyzer
 * (threshold-widening fixpoint + interprocedural summaries +
 * engine-replay refutation) over the 68-bug corpus, compare every
 * finding against the dynamic detector, and report the soundness
 * contract (zero false `definite` findings) plus static recall and
 * wall time.
 *
 * Two interprocedural sections ride along:
 *  - a demo suite of cross-function programs showing summaries turning
 *    maybes into definites, and
 *  - a program-size scaling curve (chains of N helper functions) that
 *    the CI gate checks for superlinear blowups.
 *
 * All compiles go through one shared CompileCache, like the batch
 * runner's, so ablation sweeps recompile nothing.
 *
 * Flags: `--json PATH` (machine-readable BENCH_analysis.json/v1 output
 * for the CI gate), `--no-refute` (raw abstract findings — the contract
 * no longer holds and the bench only reports, never gates),
 * `--no-summaries` (ablation; the JSON records which arms were on so
 * the gate can compare configurations). Any other flag is a usage
 * error (exit 2), so a stale ablation flag cannot silently run the
 * default configuration.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/harness.h"
#include "tools/compile_cache.h"

namespace
{

using namespace sulong;

/** One cross-function demo program and what the analyzer should do. */
struct InterprocDemo
{
    const char *name;
    const char *source;
};

/// Cross-function demos: every bug (or proven non-bug) needs knowledge
/// that crosses a call boundary.
const InterprocDemo kDemos[] = {
    // Summary narrows the helper's return to [3,3]: in-bounds store,
    // no finding at all (PR-4 havocked the call and reported a maybe).
    {"summary-clean",
     "static int three(void) { return 3; }\n"
     "int main(void) { int a[4]; a[three()] = 1; return 0; }\n"},
    // Summary proves the index is 6: must-OOB, replay confirms it.
    {"summary-oob",
     "static int idx(void) { return 6; }\n"
     "int main(void) { int a[4]; a[idx()] = 1; return 0; }\n"},
    // Helper returns fresh heap of 16 bytes; main overruns it.
    {"heap-oob",
     "#include <stdlib.h>\n"
     "static int *make(void) { return malloc(16); }\n"
     "int main(void) { int *p = make(); if (!p) return 0;\n"
     "  p[5] = 1; free(p); return 0; }\n"},
    // Helper frees; main uses after the helper's free.
    {"cross-uaf",
     "#include <stdlib.h>\n"
     "static void drop(int *p) { free(p); }\n"
     "int main(void) { int *p = malloc(8); if (!p) return 0;\n"
     "  drop(p); return p[0]; }\n"},
};

/** Chain of N helpers, each adding 1; main indexes in-bounds through
 *  the whole chain, so precision (and wall time) must scale with N. */
std::string
chainProgram(unsigned n)
{
    std::string src = "static int f1(int x) { return x + 1; }\n";
    for (unsigned i = 2; i <= n; i++) {
        src += "static int f";
        src += std::to_string(i);
        src += "(int x) { return f";
        src += std::to_string(i - 1);
        src += "(x) + 1; }\n";
    }
    src += "int main(void) { int a[";
    src += std::to_string(n + 2);
    src += "] = {0}; a[f";
    src += std::to_string(n);
    src += "(0)] = 1; return a[0]; }\n";
    return src;
}

struct ScalingPoint
{
    unsigned n = 0;
    unsigned functions = 0;
    unsigned sccs = 0;
    double wallMs = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace sulong;

    const FlagSpec own{{}, {"--json"}};
    rejectUnknownFlags(argc, argv, {&own, &analysisFlagSpec()});
    AnalysisOptions options = parseAnalysisFlags(argc, argv);
    std::string json_path = parseStringFlag(argc, argv, "json");

    // One compile cache for everything this process compiles: the
    // corpus pass, the demo suite, and the scaling curve.
    CompileCache cache;
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);

    const std::vector<CorpusEntry> &entries = bugCorpus();
    CrossValidationReport report =
        crossValidateCorpus(entries, options, &cache);
    std::printf("%s", formatCrossValidation(report).c_str());
    std::printf("  wall time           %.1f ms\n", report.wallMs);

    unsigned definite_total = 0, maybe_total = 0;
    unsigned summaries_total = 0;
    for (const CrossValidationRow &row : report.rows) {
        definite_total += row.definiteCount;
        maybe_total += row.maybeCount;
        summaries_total += row.summariesApplied;
    }
    std::printf("  summaries applied   %5u\n", summaries_total);

    // Interprocedural demo suite.
    unsigned ip_definite = 0, ip_maybe = 0;
    bool demo_compile_error = false;
    std::printf("\nInterprocedural demos\n");
    for (const InterprocDemo &demo : kDemos) {
        PreparedProgram prepared =
            prepareProgram(std::string(demo.source), config, &cache);
        if (!prepared.ok()) {
            std::printf("  %-16s COMPILE ERROR\n", demo.name);
            demo_compile_error = true;
            continue;
        }
        AnalysisReport analysis = analyzeModule(*prepared.module, options);
        unsigned definite = 0, maybe = 0;
        for (const StaticFinding &f : analysis.findings)
            (f.confidence == Confidence::definite ? definite : maybe)++;
        ip_definite += definite;
        ip_maybe += maybe;
        std::printf("  %-16s definite=%u maybe=%u summaries=%u\n",
                    demo.name, definite, maybe, analysis.summariesApplied);
    }

    // Program-size scaling curve.
    std::vector<ScalingPoint> curve;
    bool curve_compile_error = false;
    std::printf("\nScaling (chain of N helpers)\n");
    for (unsigned n : {4u, 8u, 16u, 32u}) {
        PreparedProgram prepared =
            prepareProgram(chainProgram(n), config, &cache);
        if (!prepared.ok()) {
            std::printf("  N=%-3u COMPILE ERROR\n", n);
            curve_compile_error = true;
            continue;
        }
        auto start = std::chrono::steady_clock::now();
        AnalysisReport analysis = analyzeModule(*prepared.module, options);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        ScalingPoint point;
        point.n = n;
        point.functions = analysis.functionsAnalyzed;
        point.sccs = analysis.sccCount;
        point.wallMs = ms;
        curve.push_back(point);
        unsigned definite = 0;
        for (const StaticFinding &f : analysis.findings)
            definite += f.confidence == Confidence::definite ? 1 : 0;
        std::printf("  N=%-3u functions=%-3u sccs=%-3u definite=%u"
                    " %.2f ms\n",
                    n, point.functions, point.sccs, definite, ms);
    }

    CompileCacheStats cstats = cache.stats();
    std::printf("\ncompile cache: %llu hits, %llu misses\n",
                static_cast<unsigned long long>(cstats.hits),
                static_cast<unsigned long long>(cstats.misses));

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n"
                     "  \"schema\": \"BENCH_analysis.json/v1\",\n"
                     "  \"corpus_size\": %zu,\n"
                     "  \"definite_findings\": %u,\n"
                     "  \"maybe_findings\": %u,\n"
                     "  \"false_definites\": %u,\n"
                     "  \"static_hits\": %u,\n"
                     "  \"definite_hits\": %u,\n"
                     "  \"recall\": %.4f,\n"
                     "  \"definite_recall\": %.4f,\n"
                     "  \"refuted\": %s,\n"
                     "  \"summaries\": %s,\n"
                     "  \"summaries_applied\": %u,\n"
                     "  \"interproc_definite\": %u,\n"
                     "  \"interproc_maybe\": %u,\n"
                     "  \"cache_hits\": %llu,\n"
                     "  \"cache_misses\": %llu,\n"
                     "  \"scaling\": [",
                     report.rows.size(), definite_total, maybe_total,
                     report.falseDefinites(), report.staticHits(),
                     report.definiteHits(), report.recall(),
                     report.definiteRecall(),
                     options.refute ? "true" : "false",
                     options.summaries ? "true" : "false",
                     summaries_total, ip_definite, ip_maybe,
                     static_cast<unsigned long long>(cstats.hits),
                     static_cast<unsigned long long>(cstats.misses));
        for (size_t i = 0; i < curve.size(); i++) {
            std::fprintf(f,
                         "%s\n    {\"n\": %u, \"functions\": %u,"
                         " \"sccs\": %u, \"wall_ms\": %.3f}",
                         i == 0 ? "" : ",", curve[i].n, curve[i].functions,
                         curve[i].sccs, curve[i].wallMs);
        }
        std::fprintf(f,
                     "\n  ],\n"
                     "  \"wall_ms\": %.1f\n"
                     "}\n",
                     report.wallMs);
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }

    // Self-gating: with refutation on, a false definite is a soundness
    // bug, not a statistic.
    if (options.refute && report.falseDefinites() > 0) {
        std::fprintf(stderr, "FAIL: %u false definite finding(s)\n",
                     report.falseDefinites());
        return 1;
    }
    if (demo_compile_error || curve_compile_error) {
        std::fprintf(stderr, "FAIL: bench program failed to compile\n");
        return 1;
    }
    return 0;
}
