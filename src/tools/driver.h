/**
 * @file
 * One-call driver: compile a mini-C program, link the right libc
 * variant, run the right optimization pipeline and instrumentation, and
 * execute it under the selected tool — the workflow of the paper's
 * evaluation (Section 4).
 */

#ifndef MS_TOOLS_DRIVER_H
#define MS_TOOLS_DRIVER_H

#include <initializer_list>
#include <memory>
#include <vector>

#include "analysis/analyzer.h"
#include "interp/managed_engine.h"
#include "libc/libc_sources.h"
#include "memcheck/memcheck_runtime.h"
#include "native/native_engine.h"
#include "sanitizer/asan_runtime.h"
#include "tools/engine.h"

namespace sulong
{

/** The tools of the evaluation. */
enum class ToolKind : uint8_t
{
    /// The paper's system: managed interpretation + safe libc, no
    /// unsafe optimization.
    safeSulong,
    /// Plain native execution ("compiled with Clang, no tool").
    clang,
    /// Compile-time shadow-memory instrumentation (ASan-style).
    asan,
    /// Runtime instrumentation (Valgrind/Memcheck-style).
    memcheck,
};

/** Complete configuration for one tool run. */
struct ToolConfig
{
    ToolKind kind = ToolKind::safeSulong;
    /// 0 or 3; ignored for safeSulong (which runs unoptimized IR).
    int optLevel = 0;
    ManagedOptions managed;
    AsanOptions asan;
    MemcheckOptions memcheck;

    static ToolConfig
    make(ToolKind kind, int opt_level = 0)
    {
        ToolConfig config;
        config.kind = kind;
        config.optLevel = opt_level;
        return config;
    }

    /** Display name, e.g. "ASan -O3". */
    std::string toString() const;
};

class CompileCache;

/** A compiled program bound to its engine. */
struct PreparedProgram
{
    /// Const and shared: cache-backed preparation hands out the cached
    /// prototype itself (engines never mutate a module), so concurrent
    /// batch jobs may all point at one module. Without a cache the
    /// program still owns its module exclusively.
    std::shared_ptr<const Module> module;
    std::unique_ptr<Engine> engine;
    std::string compileErrors;

    bool ok() const { return module != nullptr && engine != nullptr; }

    ExecutionResult
    run(const std::vector<std::string> &args = {},
        const std::string &stdin_data = "")
    {
        if (!ok()) {
            ExecutionResult result;
            result.bug.kind = ErrorKind::engineError;
            result.bug.detail = "compilation failed: " + compileErrors;
            return result;
        }
        return engine->run(*module, args, stdin_data);
    }
};

/**
 * Compile @p user_sources with the configuration's libc variant and
 * pipelines, and construct the matching engine.
 *
 * Every compile goes through a CompileCache: the front-end/optimizer
 * stage shared by tool kinds is compiled once per (sources, libc
 * variant, opt level), and every tool kind of that stage runs it as is.
 * Without a @p cache, a cache local to this call is used, so results
 * never depend on whether one was passed.
 */
PreparedProgram prepareProgram(const std::vector<SourceFile> &user_sources,
                               const ToolConfig &config,
                               CompileCache *cache = nullptr);

/** Convenience: one anonymous source. */
PreparedProgram prepareProgram(const std::string &user_source,
                               const ToolConfig &config,
                               CompileCache *cache = nullptr);

/** Compile-and-run in one step. */
ExecutionResult runUnderTool(const std::string &user_source,
                             const ToolConfig &config,
                             const std::vector<std::string> &args = {},
                             const std::string &stdin_data = "",
                             CompileCache *cache = nullptr);

/** The seven tool configurations of the Section 4.1 comparison. */
std::vector<ToolConfig> evaluationToolMatrix();

/**
 * Parse a `--jobs N` / `--jobs=N` / `-jN` flag from a command line
 * (first match wins); returns @p fallback when absent. A present but
 * malformed value (trailing garbage, sign, overflow — see
 * parseUint64Strict) prints a clear diagnostic and exits 2.
 * 0 means "one worker per hardware thread".
 */
unsigned parseJobsFlag(int argc, char **argv, unsigned fallback = 1);

/**
 * Parse an unsigned integer flag in `--name N` / `--name=N` form (first
 * match wins); returns @p fallback when absent. A present but malformed
 * value (trailing garbage, sign, overflow) prints a clear diagnostic
 * and exits 2 — resource-limit flags must never silently truncate.
 */
uint64_t parseUint64Flag(int argc, char **argv, const char *name,
                         uint64_t fallback);

/**
 * Apply the resource-governance flags to @p base and return the result:
 * `--max-steps N`, `--heap-limit BYTES`, `--output-limit BYTES`, and
 * `--deadline-ms MS` (0 always means unlimited).
 */
ResourceLimits parseLimitFlags(int argc, char **argv,
                               ResourceLimits base = {});

/** @return true when the bare switch `--name` is present. */
bool hasFlag(int argc, char **argv, const char *name);

/**
 * Parse a string flag in `--name VALUE` / `--name=VALUE` form (first
 * match wins); returns @p fallback when absent.
 */
std::string parseStringFlag(int argc, char **argv, const char *name,
                            const std::string &fallback = {});

/**
 * Apply the tier-2 tuning/ablation flags to @p base and return the
 * result: `--no-tier2`, `--tier2-threshold N`, `--no-inlining`,
 * `--inline-budget N`, `--inline-min N`, and `--no-check-elision`.
 */
ManagedOptions parseManagedFlags(int argc, char **argv,
                                 ManagedOptions base = {});

/**
 * Apply the static-analysis flags to @p base and return the result:
 * `--no-refute` (skip the engine replay; nothing is demoted),
 * `--no-summaries` (havoc at every call instead of applying
 * interprocedural function summaries),
 * `--analyze-libc` (also analyze the linked libc: the libc bodies the
 * program reaches),
 * `--summary-depth N` (recursive-SCC fixpoint rounds),
 * `--analysis-jobs N` (parallel SCC analysis; findings are identical
 * for every N), `--widen-after N`, and `--replay-steps N`.
 * The `--analyze` / `--analyze-only` switches themselves are mode
 * toggles for the caller (query them with hasFlag()).
 *
 * Parsing is strict: an unknown `--analyze*`-family spelling or a value
 * flag without a value is a usage error (exit 2), in parity with the
 * tier flags.
 */
AnalysisOptions parseAnalysisFlags(int argc, char **argv,
                                   AnalysisOptions base = {});

/** The spellings of one family of flags, for rejectUnknownFlags(). */
struct FlagSpec
{
    /// Bare switches, e.g. "--no-refute" or "-v".
    std::vector<const char *> switches;
    /// Flags taking a value as `--name V` or `--name=V`; a one-dash
    /// flag such as "-j" also takes it attached (`-j8`).
    std::vector<const char *> values;
};

/// The flags parseManagedFlags() reads.
const FlagSpec &managedFlagSpec();
/// The flags parseAnalysisFlags() reads, plus the `--analyze*` switches.
const FlagSpec &analysisFlagSpec();
/// The flags parseLimitFlags() reads.
const FlagSpec &limitFlagSpec();
/// The flags parseObsFlags() reads.
const FlagSpec &obsFlagSpec();

/**
 * Strict usage check for a tool that knows its whole command line:
 * every argument must be a flag of one of @p specs, and a value flag
 * needs its value. Anything else prints a diagnostic and exits 2, so a
 * misspelled or removed flag can never silently run the default
 * configuration. With @p operands, an argument no spec knows that does
 * not start with `--` (an input file, a guest argument) is appended
 * there instead of rejected.
 */
void rejectUnknownFlags(int argc, char **argv,
                        std::initializer_list<const FlagSpec *> specs,
                        std::vector<std::string> *operands = nullptr);

/** Telemetry-output selection shared by every CLI. */
struct ObsFlags
{
    /// Chrome trace-event JSON destination ("" = tracing stays off).
    std::string traceOut;
    /// obs/v1 metrics JSON destination ("" = none).
    std::string metricsJson;
    /// Prometheus text-exposition destination ("" = none).
    std::string metricsExpo;
    /// Print a human-readable stats dump (counters + cache) on exit.
    bool stats = false;

    bool
    metricsWanted() const
    {
        return stats || !metricsJson.empty() || !metricsExpo.empty();
    }
};

/**
 * Parse `--trace-out=FILE`, `--metrics-json=FILE`,
 * `--metrics-expo=FILE`, and `--stats`, and ENABLE the corresponding
 * collection globally (tracing only when a trace file was requested;
 * metrics when a metrics/expo file or --stats was). Collection stays
 * off entirely when none are given.
 */
ObsFlags parseObsFlags(int argc, char **argv);

/**
 * Write the outputs selected by @p flags: the Chrome trace, the obs/v1
 * metrics document, the Prometheus text exposition, and/or the --stats
 * text dump to stdout. Returns false (after printing a diagnostic to
 * stderr) if any write failed.
 */
bool writeObsOutputs(const ObsFlags &flags);

} // namespace sulong

#endif // MS_TOOLS_DRIVER_H
