/**
 * @file
 * msulong: the unified CLI over the MiniSulong toolchain, and the
 * front door to the telemetry layer.
 *
 * Subcommands:
 *   msulong run [FILE] [guest args...]   run one program under a tool
 *   msulong corpus                       batch-run the 68-bug corpus
 *   msulong list                         list corpus entries and benches
 *
 * `run` sources, in priority order: an explicit FILE, `--corpus=ID`,
 * `--benchmark=NAME`, or a built-in demo chosen to exercise every
 * profiler dimension (hot function -> tier-2 compile, pointer loop ->
 * check elision, function pointer -> inline caches, malloc/free ->
 * heap counters).
 *
 * Telemetry flags (both subcommands):
 *   --trace-out=FILE     write a Chrome trace-event JSON (Perfetto)
 *   --metrics-json=FILE  write the obs/v1 metrics document
 *   --stats              print counters (incl. compile-cache hit/miss/
 *                        evict) on exit
 *
 * Tool/engine flags for `run`: --tool=safe|clang|asan|memcheck, --opt=N,
 * plus the shared managed/limit flags (--tier2-threshold, --max-steps,
 * ...). `corpus` takes --jobs=N, --watchdog-ms=N, --retries=N. An
 * unknown flag is a usage error (exit 2) for every subcommand.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "corpus/corpus.h"
#include "tools/batch_runner.h"
#include "tools/benchmark_programs.h"
#include "tools/compile_cache.h"
#include "tools/driver.h"

namespace
{

using namespace sulong;

const char *DEMO = R"(
static int add1(int x) { return x + 1; }

static int work(int *buf, int n) {
    int (*f)(int) = add1;
    int sum = 0;
    for (int i = 0; i < n; i++) {
        buf[i] = f(i);
        sum += buf[i];
    }
    return sum;
}

int main(void) {
    int total = 0;
    for (int iter = 0; iter < 300; iter++) {
        int *buf = malloc(sizeof(int) * 64);
        total += work(buf, 64);
        free(buf);
    }
    printf("total=%d\n", total);
    return 0;
}
)";

int
usage()
{
    std::printf(
        "usage: msulong <run|corpus|list> [flags]\n"
        "  run [FILE] [guest args...]  one program under one tool\n"
        "      --corpus=ID | --benchmark=NAME | FILE (default: demo)\n"
        "      --tool=safe|clang|asan|memcheck  --opt=0|3\n"
        "  corpus                      batch the 68-bug corpus\n"
        "      --jobs=N --watchdog-ms=N --retries=N\n"
        "  list                        corpus ids and benchmark names\n"
        "common flags: --trace-out=FILE --metrics-json=FILE --stats\n"
        "              --tier2-threshold=N --max-steps=N ... \n");
    return 2;
}

ToolConfig
toolFromFlags(int argc, char **argv)
{
    std::string tool = parseStringFlag(argc, argv, "tool", "safe");
    int opt = static_cast<int>(parseUint64Flag(argc, argv, "opt", 0));
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong, opt);
    if (tool == "clang")
        config.kind = ToolKind::clang;
    else if (tool == "asan")
        config.kind = ToolKind::asan;
    else if (tool == "memcheck")
        config.kind = ToolKind::memcheck;
    config.managed = parseManagedFlags(argc, argv);
    return config;
}

void
printCacheStats(const CompileCacheStats &stats)
{
    std::printf("compile cache: %llu hit(s), %llu miss(es), "
                "%llu eviction(s)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions));
}

int
cmdRun(int argc, char **argv)
{
    // Every `--` argument must be a known flag; the operands are the
    // input file, then the guest args.
    static const FlagSpec own{
        {}, {"--tool", "--opt", "--corpus", "--benchmark"}};
    std::vector<std::string> operands;
    rejectUnknownFlags(argc - 1, argv + 1,
                       {&own, &managedFlagSpec(), &limitFlagSpec(),
                        &obsFlagSpec()},
                       &operands);
    ObsFlags obs_flags = parseObsFlags(argc, argv);
    ToolConfig config = toolFromFlags(argc, argv);

    std::string source = DEMO;
    std::string corpus_id = parseStringFlag(argc, argv, "corpus");
    std::string bench_name = parseStringFlag(argc, argv, "benchmark");
    std::vector<std::string> guest_args;
    if (!operands.empty()) {
        const std::string &input_file = operands.front();
        guest_args.assign(operands.begin() + 1, operands.end());
        std::ifstream file(input_file);
        if (!file) {
            std::fprintf(stderr, "msulong: cannot open %s\n",
                         input_file.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << file.rdbuf();
        source = buf.str();
    } else if (!corpus_id.empty()) {
        const CorpusEntry *entry = nullptr;
        for (const CorpusEntry &e : bugCorpus()) {
            if (e.id == corpus_id) {
                entry = &e;
                break;
            }
        }
        if (entry == nullptr) {
            std::fprintf(stderr, "msulong: no corpus entry '%s'"
                         " (see: msulong list)\n", corpus_id.c_str());
            return 1;
        }
        source = entry->source;
        if (guest_args.empty())
            guest_args = entry->args;
    } else if (!bench_name.empty()) {
        const BenchmarkProgram *bench = findBenchmark(bench_name);
        if (bench == nullptr) {
            std::fprintf(stderr, "msulong: no benchmark '%s'"
                         " (see: msulong list)\n", bench_name.c_str());
            return 1;
        }
        source = bench->source;
        if (guest_args.empty())
            guest_args = bench->args;
    }

    // A cache even for one program: the run exercises the same
    // hit/miss/evict path the batch runner uses, so compile_cache.*
    // counters show up in --stats and --metrics-json.
    CompileCache cache;
    PreparedProgram prepared = prepareProgram(source, config, &cache);
    if (!prepared.ok()) {
        std::fprintf(stderr, "msulong: compile failed:\n%s\n",
                     prepared.compileErrors.c_str());
        return 1;
    }
    prepared.engine->limits() = parseLimitFlags(argc, argv);
    ExecutionResult result = prepared.run(guest_args);

    std::fputs(result.output.c_str(), stdout);
    std::fputs(result.errOutput.c_str(), stderr);
    if (result.bug.kind != ErrorKind::none)
        std::printf("[%s] %s\n", config.toString().c_str(),
                    result.bug.toString().c_str());
    if (result.termination != TerminationKind::normal)
        std::printf("[%s] terminated: %s\n", config.toString().c_str(),
                    result.terminationDetail.c_str());

    if (obs_flags.stats)
        printCacheStats(cache.stats());
    if (!writeObsOutputs(obs_flags))
        return 1;
    return result.ok() ? result.exitCode : 1;
}

int
cmdCorpus(int argc, char **argv)
{
    static const FlagSpec own{
        {}, {"--tool", "--opt", "--jobs", "-j", "--watchdog-ms", "--retries"}};
    rejectUnknownFlags(argc - 1, argv + 1,
                       {&own, &managedFlagSpec(), &limitFlagSpec(),
                        &obsFlagSpec()});
    ObsFlags obs_flags = parseObsFlags(argc, argv);
    ToolConfig config = toolFromFlags(argc, argv);

    BatchOptions options;
    options.jobs = parseJobsFlag(argc, argv, 1);
    options.watchdogMs = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "watchdog-ms", 0));
    options.retries = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "retries", 0));
    CompileCache cache;
    options.cache = &cache;

    ResourceLimits limits = parseLimitFlags(argc, argv);
    std::vector<BatchJob> jobs;
    for (const CorpusEntry &entry : bugCorpus()) {
        BatchJob job = BatchJob::make(entry.source, config, entry.args,
                                      entry.stdinData);
        job.limits = limits;
        jobs.push_back(std::move(job));
    }

    BatchReport report = runBatch(jobs, options);

    const std::vector<CorpusEntry> &corpus = bugCorpus();
    size_t detected = 0;
    size_t matched = 0;
    std::map<std::string, unsigned> byKind;
    for (size_t i = 0; i < report.results.size(); i++) {
        const ExecutionResult &result = report.results[i];
        if (result.bug.kind == ErrorKind::none)
            continue;
        detected++;
        byKind[errorKindName(result.bug.kind)]++;
        if (result.bug.kind == corpus[i].kind)
            matched++;
    }
    std::printf("corpus: %zu program(s), %zu bug(s) detected under %s "
                "(%zu matching ground truth), %u worker(s)\n",
                corpus.size(), detected, config.toString().c_str(),
                matched, report.workersUsed);
    for (const auto &[kind, count] : byKind)
        std::printf("  %-16s %u\n", kind.c_str(), count);
    if (report.hostFaults != 0 || report.retriesUsed != 0 ||
        report.drainedJobs != 0)
        std::printf("harness: %u host fault(s), %u retrie(s), %u "
                    "drained\n", report.hostFaults, report.retriesUsed,
                    report.drainedJobs);

    if (obs_flags.stats)
        printCacheStats(report.cacheStats);
    if (!writeObsOutputs(obs_flags))
        return 1;
    return 0;
}

int
cmdList()
{
    std::printf("corpus entries:\n");
    for (const CorpusEntry &entry : bugCorpus())
        std::printf("  %-24s %s\n", entry.id.c_str(),
                    entry.description.c_str());
    std::printf("benchmarks:\n");
    for (const BenchmarkProgram &bench : benchmarkPrograms())
        std::printf("  %s\n", bench.name.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string command = argv[1];
    if (command == "run")
        return cmdRun(argc, argv);
    if (command == "corpus")
        return cmdCorpus(argc, argv);
    if (command == "list") {
        rejectUnknownFlags(argc - 1, argv + 1, {});
        return cmdList();
    }
    return usage();
}
