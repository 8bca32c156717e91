/**
 * @file
 * fuzz_runner — generative differential-testing campaigns as one command.
 *
 *   fuzz_runner [--seed-start N] [--seeds N] [--jobs N] [--bug-ratio PCT]
 *               [--no-minimize] [--no-analysis] [--clean-only]
 *               [--report FILE] [--json FILE] [--emit-corpus FILE]
 *               [--print-seed N] [-v]
 *               [resource flags: --max-steps, --heap-limit, ...]
 *               [analysis flags: --no-refute, --no-summaries, ...]
 *
 * Runs seeds [seed-start, seed-start + seeds) through the generative
 * scenario engine: grammar-generated mini-C programs (a seeded fraction
 * with one injected, ground-truth bug each) differentially executed
 * under every engine plus the static analyzer. Survivors are minimized
 * and deduplicated.
 *
 * Outputs:
 *   --report FILE       deterministic FUZZ_report.json/v1 (byte-identical
 *                       across --jobs levels; the CI determinism diff)
 *   --json FILE         BENCH_fuzz.json/v1 with wall-clock + throughput
 *                       (the scripts/bench_gate.py fuzz input)
 *   --emit-corpus FILE  survivors as candidate corpus entries
 *   --print-seed N      print seed N's generated program and exit (for
 *                       standalone repro: fuzz_runner --print-seed N >
 *                       bug.c && msulong run bug.c)
 *
 * Exit status: 0 on a clean campaign, 1 when any unexplained
 * disagreement (or compile error) survived — so CI shards fail loudly —
 * and 2 on a usage error (an unknown flag, or a flag without its value).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "fuzz/campaign.h"
#include "tools/driver.h"

using namespace sulong;

namespace
{

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content << "\n";
    if (!out.good()) {
        std::cerr << "fuzz_runner: cannot write " << path << "\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (hasFlag(argc, argv, "help")) {
        std::cout <<
            "usage: fuzz_runner [--seed-start N] [--seeds N] [--jobs N]\n"
            "                   [--bug-ratio PCT] [--no-minimize]\n"
            "                   [--no-analysis] [--clean-only]\n"
            "                   [--report FILE] [--json FILE]\n"
            "                   [--emit-corpus FILE] [--print-seed N]\n"
            "                   [--max-steps N] [--heap-limit BYTES] [-v]\n";
        return 0;
    }

    const FlagSpec own{
        {"--no-minimize", "--no-analysis", "--clean-only", "--verbose",
         "-v"},
        {"--seed-start", "--seeds", "--jobs", "-j", "--bug-ratio",
         "--report", "--json", "--emit-corpus", "--print-seed"},
    };
    rejectUnknownFlags(argc, argv,
                       {&own, &limitFlagSpec(), &analysisFlagSpec()});

    CampaignOptions options;
    options.seedBegin = parseUint64Flag(argc, argv, "seed-start", 1);
    options.seedCount = parseUint64Flag(argc, argv, "seeds", 1000);
    options.jobs = parseJobsFlag(argc, argv, 1);
    options.bugRatioPct = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "bug-ratio", 50));
    if (options.bugRatioPct > 100)
        options.bugRatioPct = 100;
    if (hasFlag(argc, argv, "clean-only"))
        options.bugRatioPct = 0;
    options.minimize = !hasFlag(argc, argv, "no-minimize");
    options.oracle.runAnalysis = !hasFlag(argc, argv, "no-analysis");
    options.oracle.limits = parseLimitFlags(argc, argv,
                                            options.oracle.limits);
    options.oracle.analysis =
        parseAnalysisFlags(argc, argv, options.oracle.analysis);

    uint64_t print_seed = parseUint64Flag(argc, argv, "print-seed", 0);
    if (print_seed != 0) {
        FuzzProgram program = generateSeedProgram(print_seed, options);
        std::cout << program.render();
        if (program.bug.injected()) {
            std::cerr << "seed " << print_seed << ": injected "
                      << mutatorKindName(program.bug.mutator) << " ("
                      << program.bug.description << ")\n";
        } else {
            std::cerr << "seed " << print_seed << ": clean program\n";
        }
        return 0;
    }

    bool verbose = hasFlag(argc, argv, "verbose");
    for (int i = 1; i < argc && !verbose; i++)
        verbose = std::string(argv[i]) == "-v";

    CampaignReport report = runCampaign(options);
    std::cout << report.formatSummary(verbose);

    std::string report_path = parseStringFlag(argc, argv, "report");
    if (!report_path.empty() &&
        !writeFile(report_path, report.toJson()))
        return 2;
    std::string json_path = parseStringFlag(argc, argv, "json");
    if (!json_path.empty() &&
        !writeFile(json_path, report.toBenchJson()))
        return 2;
    std::string corpus_path = parseStringFlag(argc, argv,
                                              "emit-corpus");
    if (!corpus_path.empty() &&
        !writeFile(corpus_path, report.corpusCandidatesJson()))
        return 2;

    if (report.unexplained() != 0) {
        std::cerr << "fuzz_runner: " << report.unexplained()
                  << " unexplained disagreement(s) — see the survivor "
                     "list in the report\n";
        return 1;
    }
    return 0;
}
