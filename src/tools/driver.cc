#include "tools/driver.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/expo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/string_utils.h"
#include "tools/compile_cache.h"

namespace sulong
{

std::string
ToolConfig::toString() const
{
    switch (kind) {
      case ToolKind::safeSulong:
        return "Safe Sulong";
      case ToolKind::clang:
        return optLevel >= 3 ? "Clang -O3" : "Clang -O0";
      case ToolKind::asan:
        return optLevel >= 3 ? "ASan -O3" : "ASan -O0";
      case ToolKind::memcheck:
        return optLevel >= 3 ? "Valgrind -O3" : "Valgrind -O0";
    }
    return "unknown";
}

PreparedProgram
prepareProgram(const std::vector<SourceFile> &user_sources,
               const ToolConfig &config, CompileCache *cache)
{
    // One compile path: without a shared cache, a call-local one runs
    // the same compile -> optimize -> instrument steps. Tool kinds that
    // share a pipeline stage reuse one cached prototype directly —
    // engines treat modules as read-only, and the ASan pass ran on the
    // cache's private clone, so nothing this job does can touch another
    // job's module.
    CompileCache local_cache;
    if (cache == nullptr)
        cache = &local_cache;
    // Safe Sulong interprets its safety-first libc as the front end
    // produced it; native tools run the performance-optimized one
    // (word-wise strlen etc.), like real precompiled libcs.
    bool safe = config.kind == ToolKind::safeSulong;
    auto entry = cache->getOrCompile(
        user_sources, safe ? LibcVariant::safe : LibcVariant::nativeOptimized,
        safe ? -1 : (config.optLevel >= 3 ? 3 : 0),
        config.kind == ToolKind::asan);
    PreparedProgram prepared;
    if (!entry->ok()) {
        prepared.compileErrors = entry->errors;
        return prepared;
    }
    prepared.module = entry->prototype;

    switch (config.kind) {
      case ToolKind::safeSulong:
        // No unsafe optimization: the managed engine executes the IR as
        // the front end produced it (Fig. 4 pipeline).
        prepared.engine = std::make_unique<ManagedEngine>(config.managed);
        break;
      case ToolKind::clang:
        prepared.engine = std::make_unique<NativeEngine>(
            config.toString());
        break;
      case ToolKind::asan:
        prepared.engine = std::make_unique<NativeEngine>(
            config.toString(),
            std::make_shared<AsanRuntime>(config.asan));
        break;
      case ToolKind::memcheck:
        prepared.engine = std::make_unique<NativeEngine>(
            config.toString(),
            std::make_shared<MemcheckRuntime>(config.memcheck));
        break;
    }
    return prepared;
}

PreparedProgram
prepareProgram(const std::string &user_source, const ToolConfig &config,
               CompileCache *cache)
{
    return prepareProgram(
        std::vector<SourceFile>{SourceFile{"<input>", user_source}}, config,
        cache);
}

ExecutionResult
runUnderTool(const std::string &user_source, const ToolConfig &config,
             const std::vector<std::string> &args,
             const std::string &stdin_data, CompileCache *cache)
{
    PreparedProgram prepared = prepareProgram(user_source, config, cache);
    return prepared.run(args, stdin_data);
}

namespace
{

/**
 * Shared strict numeric-flag decode. Every caller is a CLI entry point,
 * so a malformed value ("--max-steps=1e9", "-j -4", an overflowing
 * count) is a usage error: diagnose it clearly on stderr and exit(2)
 * rather than silently falling back — silent truncation of a resource
 * limit is exactly the failure mode the daemon's admission control must
 * not have.
 */
uint64_t
parseFlagValueOrDie(const char *flag_name, const char *text)
{
    uint64_t value = 0;
    std::string why;
    if (!parseUint64Strict(text, &value, &why)) {
        std::fprintf(stderr,
                     "error: invalid value '%s' for %s: %s\n", text,
                     flag_name, why.c_str());
        std::exit(2);
    }
    return value;
}

} // namespace

unsigned
parseJobsFlag(int argc, char **argv, unsigned fallback)
{
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
            if (i + 1 < argc)
                value = argv[i + 1];
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            value = arg + 7;
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            value = arg + 2;
        }
        if (value == nullptr)
            continue;
        uint64_t parsed = parseFlagValueOrDie("--jobs", value);
        if (parsed > UINT32_MAX) {
            std::fprintf(stderr,
                         "error: invalid value '%s' for --jobs: "
                         "exceeds the worker-count range\n", value);
            std::exit(2);
        }
        return static_cast<unsigned>(parsed);
    }
    return fallback;
}

uint64_t
parseUint64Flag(int argc, char **argv, const char *name, uint64_t fallback)
{
    std::string flag = std::string("--") + name;
    std::string flag_eq = flag + "=";
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (flag == arg) {
            if (i + 1 < argc)
                value = argv[i + 1];
        } else if (std::strncmp(arg, flag_eq.c_str(), flag_eq.size()) == 0) {
            value = arg + flag_eq.size();
        }
        if (value == nullptr)
            continue;
        return parseFlagValueOrDie(flag.c_str(), value);
    }
    return fallback;
}

ResourceLimits
parseLimitFlags(int argc, char **argv, ResourceLimits base)
{
    base.maxSteps = parseUint64Flag(argc, argv, "max-steps", base.maxSteps);
    base.maxHeapBytes =
        parseUint64Flag(argc, argv, "heap-limit", base.maxHeapBytes);
    base.maxOutputBytes =
        parseUint64Flag(argc, argv, "output-limit", base.maxOutputBytes);
    base.deadlineMs =
        parseUint64Flag(argc, argv, "deadline-ms", base.deadlineMs);
    return base;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    std::string flag = std::string("--") + name;
    for (int i = 1; i < argc; i++) {
        if (flag == argv[i])
            return true;
    }
    return false;
}

std::string
parseStringFlag(int argc, char **argv, const char *name,
                const std::string &fallback)
{
    std::string flag = std::string("--") + name;
    std::string flag_eq = flag + "=";
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (flag == arg) {
            if (i + 1 < argc)
                return argv[i + 1];
            return fallback;
        }
        if (std::strncmp(arg, flag_eq.c_str(), flag_eq.size()) == 0)
            return arg + flag_eq.size();
    }
    return fallback;
}

namespace
{

/**
 * True when argv[@p i] is one of @p spec's flags. A value flag given as
 * `--name V` also consumes argv[i + 1], and is a usage error (exit 2)
 * when that value is missing.
 */
bool
takeFlag(const FlagSpec &spec, int argc, char **argv, int &i)
{
    const char *arg = argv[i];
    for (const char *flag : spec.switches) {
        if (std::strcmp(arg, flag) == 0)
            return true;
    }
    for (const char *flag : spec.values) {
        size_t len = std::strlen(flag);
        if (std::strcmp(arg, flag) == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s requires a value\n", flag);
                std::exit(2);
            }
            i++; // the next argument is this flag's value
            return true;
        }
        if (std::strncmp(arg, flag, len) == 0 &&
            (arg[len] == '=' || (flag[1] != '-' && arg[len] != '\0')))
            return true;
    }
    return false;
}

/**
 * Strict parsing for the tier-tuning surface: a typo'd `--tier*` /
 * `--no-tier*` flag used to be silently ignored (and so silently
 * benchmarked the wrong configuration). Unknown spellings and value
 * flags without a value are usage errors, in parity with how
 * parseUint64Strict already rejects malformed values. `--no-fusion`
 * is gated too: it was a tier flag once, and a stale use must not
 * silently run the default configuration.
 */
void
validateTierFlags(int argc, char **argv)
{
    static const char *const prefixes[] = {"--tier", "--no-tier",
                                           "--no-fusion"};
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        bool gated = false;
        for (const char *prefix : prefixes)
            gated = gated || std::strncmp(arg, prefix,
                                          std::strlen(prefix)) == 0;
        if (!gated)
            continue;
        if (!takeFlag(managedFlagSpec(), argc, argv, i)) {
            std::fprintf(stderr,
                         "error: unknown flag '%s' (known tier flags: "
                         "--no-tier2, --tier2-threshold)\n", arg);
            std::exit(2);
        }
    }
}

/**
 * Strict parsing for the analysis surface, in parity with
 * validateTierFlags: a typo'd `--analyze*` / `--no-refute` /
 * `--no-summaries` / `--summary-depth` spelling used to be silently
 * ignored, which silently analyzed the wrong configuration (e.g. an
 * ablation run that never ablated anything).
 */
void
validateAnalysisFlags(int argc, char **argv)
{
    static const char *const prefixes[] = {
        "--analyze",
        "--analysis-",
        "--no-refute",
        "--no-summar",
        "--summary-",
        "--widen-after",
        "--replay-steps",
    };
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        bool gated = false;
        for (const char *prefix : prefixes) {
            if (std::strncmp(arg, prefix, std::strlen(prefix)) == 0) {
                gated = true;
                break;
            }
        }
        if (!gated)
            continue;
        if (!takeFlag(analysisFlagSpec(), argc, argv, i)) {
            std::fprintf(stderr,
                         "error: unknown flag '%s' (known analysis flags: "
                         "--analyze, --analyze-only, --analyze-libc, "
                         "--no-refute, --no-summaries, "
                         "--summary-depth, --analysis-jobs, "
                         "--widen-after, --replay-steps)\n", arg);
            std::exit(2);
        }
    }
}

} // namespace

const FlagSpec &
managedFlagSpec()
{
    static const FlagSpec spec{
        {"--no-tier2", "--no-inlining", "--no-check-elision"},
        {"--tier2-threshold", "--inline-budget", "--inline-min"},
    };
    return spec;
}

const FlagSpec &
analysisFlagSpec()
{
    static const FlagSpec spec{
        {"--analyze", "--analyze-only", "--analyze-libc", "--no-refute",
         "--no-summaries"},
        {"--summary-depth", "--analysis-jobs", "--widen-after",
         "--replay-steps"},
    };
    return spec;
}

const FlagSpec &
limitFlagSpec()
{
    static const FlagSpec spec{
        {},
        {"--max-steps", "--heap-limit", "--output-limit", "--deadline-ms"},
    };
    return spec;
}

const FlagSpec &
obsFlagSpec()
{
    static const FlagSpec spec{
        {"--stats"},
        {"--trace-out", "--metrics-json", "--metrics-expo"},
    };
    return spec;
}

void
rejectUnknownFlags(int argc, char **argv,
                   std::initializer_list<const FlagSpec *> specs,
                   std::vector<std::string> *operands)
{
    for (int i = 1; i < argc; i++) {
        bool known = false;
        for (const FlagSpec *spec : specs) {
            known = takeFlag(*spec, argc, argv, i);
            if (known)
                break;
        }
        if (!known && operands != nullptr &&
            std::strncmp(argv[i], "--", 2) != 0) {
            operands->push_back(argv[i]);
            continue;
        }
        if (!known) {
            std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
            std::exit(2);
        }
    }
}

ManagedOptions
parseManagedFlags(int argc, char **argv, ManagedOptions base)
{
    validateTierFlags(argc, argv);
    if (hasFlag(argc, argv, "no-tier2"))
        base.enableTier2 = false;
    base.compileThreshold = static_cast<unsigned>(parseUint64Flag(
        argc, argv, "tier2-threshold", base.compileThreshold));
    if (hasFlag(argc, argv, "no-inlining"))
        base.enableInlining = false;
    base.inlineBudget = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "inline-budget", base.inlineBudget));
    base.inlineSiteMin = static_cast<int>(parseUint64Flag(
        argc, argv, "inline-min",
        static_cast<uint64_t>(static_cast<int64_t>(base.inlineSiteMin))));
    if (hasFlag(argc, argv, "no-check-elision"))
        base.enableCheckElision = false;
    return base;
}

AnalysisOptions
parseAnalysisFlags(int argc, char **argv, AnalysisOptions base)
{
    validateAnalysisFlags(argc, argv);
    if (hasFlag(argc, argv, "no-refute"))
        base.refute = false;
    if (hasFlag(argc, argv, "no-summaries"))
        base.summaries = false;
    if (hasFlag(argc, argv, "analyze-libc"))
        base.userCodeOnly = false;
    base.summaryDepth = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "summary-depth", base.summaryDepth));
    base.jobs = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "analysis-jobs", base.jobs));
    base.widenAfter = static_cast<unsigned>(
        parseUint64Flag(argc, argv, "widen-after", base.widenAfter));
    base.replaySteps =
        parseUint64Flag(argc, argv, "replay-steps", base.replaySteps);
    return base;
}

std::vector<ToolConfig>
evaluationToolMatrix()
{
    return {
        ToolConfig::make(ToolKind::safeSulong),
        ToolConfig::make(ToolKind::asan, 0),
        ToolConfig::make(ToolKind::asan, 3),
        ToolConfig::make(ToolKind::memcheck, 0),
        ToolConfig::make(ToolKind::memcheck, 3),
    };
}

ObsFlags
parseObsFlags(int argc, char **argv)
{
    ObsFlags flags;
    flags.traceOut = parseStringFlag(argc, argv, "trace-out");
    flags.metricsJson = parseStringFlag(argc, argv, "metrics-json");
    flags.metricsExpo = parseStringFlag(argc, argv, "metrics-expo");
    flags.stats = hasFlag(argc, argv, "stats");
    obs::setTracingEnabled(!flags.traceOut.empty());
    obs::setMetricsEnabled(flags.metricsWanted());
    return flags;
}

bool
writeObsOutputs(const ObsFlags &flags)
{
    bool ok = true;
    std::string error;
    if (!flags.traceOut.empty() &&
        !obs::writeChromeTrace(flags.traceOut, &error)) {
        std::fprintf(stderr, "trace-out: %s\n", error.c_str());
        ok = false;
    }
    if (!flags.metricsJson.empty() &&
        !obs::writeMetricsJson(flags.metricsJson, &error)) {
        std::fprintf(stderr, "metrics-json: %s\n", error.c_str());
        ok = false;
    }
    if (!flags.metricsExpo.empty() &&
        !obs::writePrometheusText(flags.metricsExpo, &error)) {
        std::fprintf(stderr, "metrics-expo: %s\n", error.c_str());
        ok = false;
    }
    if (flags.stats) {
        obs::MetricsSnapshot snap =
            obs::MetricsRegistry::global().snapshot();
        std::printf("--- stats ---\n");
        for (const auto &[name, value] : snap.counters)
            std::printf("%-40s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
        for (const auto &[name, value] : snap.gauges)
            std::printf("%-40s %lld\n", name.c_str(),
                        static_cast<long long>(value));
        for (const auto &[name, hist] : snap.histograms)
            std::printf("%-40s count=%llu sum=%llu\n", name.c_str(),
                        static_cast<unsigned long long>(hist.count),
                        static_cast<unsigned long long>(hist.sum));
    }
    return ok;
}

} // namespace sulong
