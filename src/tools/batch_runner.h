/**
 * @file
 * Parallel batch evaluation of (program, tool) jobs.
 *
 * The paper's evaluation (Sections 4-5) is an embarrassingly parallel
 * matrix: hundreds of corpus programs times the tool configurations.
 * runBatch() prepares and executes every job on an isolated per-job
 * engine instance over a fixed worker pool, sharing front-end work
 * through a CompileCache, and returns results ordered by job index —
 * never by completion order — so a parallel detection matrix is
 * bit-identical to a serial one.
 *
 * Every job runs guarded: engines execute under the job's
 * ResourceLimits, a watchdog cancels attempts that overrun their
 * wall-clock budget, host-side exceptions become per-job
 * TerminationKind::hostFault results (optionally retried with backoff),
 * and a fail-fast mode drains the rest of the batch after the first
 * harness-level failure. One misbehaving cell can slow the batch down;
 * it can no longer wedge, OOM, or tear it down.
 *
 * This is the seam later scaling work (sharding, async clients,
 * multi-backend dispatch) plugs into: anything that can phrase itself as
 * a list of BatchJobs inherits the parallelism and the cache.
 */

#ifndef MS_TOOLS_BATCH_RUNNER_H
#define MS_TOOLS_BATCH_RUNNER_H

#include <atomic>
#include <memory>

#include "analysis/analyzer.h"
#include "tools/compile_cache.h"
#include "tools/driver.h"

namespace sulong
{

class FaultInjector;

namespace obs
{
class FlightRecorder;
}

/** One evaluation cell: a program under one tool configuration. */
struct BatchJob
{
    std::vector<SourceFile> sources;
    ToolConfig config;
    std::vector<std::string> args;
    std::string stdinData;
    /// Per-run resource budget for this job's engine; the default keeps
    /// only the step and call-depth protections.
    ResourceLimits limits;

    static BatchJob
    make(const std::string &user_source, const ToolConfig &config,
         const std::vector<std::string> &args = {},
         const std::string &stdin_data = "")
    {
        BatchJob job;
        job.sources = {SourceFile{"<input>", user_source}};
        job.config = config;
        job.args = args;
        job.stdinData = stdin_data;
        return job;
    }
};

struct BatchOptions
{
    /// Worker threads; 1 runs inline on the caller, 0 means one per
    /// hardware thread.
    unsigned jobs = 1;
    /// Jobs share front-end/optimizer stages through this cache
    /// (identical results; see CompileCache); null means a cache private
    /// to this batch.
    CompileCache *cache = nullptr;
    /// Wall-clock execution budget per job attempt in milliseconds
    /// (compilation excluded — cancellation is polled on the guest step
    /// path); a job still executing past it is cancelled through its
    /// token and reports TerminationKind::cancelled. 0 disables the
    /// watchdog thread.
    unsigned watchdogMs = 0;
    /// Re-run a job up to this many extra times when it ends in a
    /// TerminationKind::hostFault (a harness-side exception, possibly
    /// transient). Guest bugs and resource terminations never retry.
    unsigned retries = 0;
    /// Linear backoff between retry attempts (attempt n sleeps n times
    /// this long).
    unsigned retryBackoffMs = 5;
    /// Drain the batch after the first harness-level failure (hostFault
    /// termination or ErrorKind::engineError): queued jobs are not
    /// started and report TerminationKind::cancelled, in-flight jobs are
    /// cancelled through their tokens. Trades the report's completeness
    /// (and cross-worker-count determinism) for latency.
    bool failFast = false;
    /// Chaos-testing hook: when set, every job attempt reports the site
    /// "batch.job/<index>" before preparing, letting tests inject host
    /// faults and delays into chosen jobs.
    FaultInjector *faults = nullptr;
    /// When set, every job's compiled module is also statically analyzed
    /// (before execution, on the job's worker) with these options; the
    /// job's args/stdin become the refutation replay inputs, and the
    /// findings land in the job's JobStats.
    const AnalysisOptions *analysis = nullptr;
};

struct BatchReport
{
    /// Per-job accounting, parallel to results.
    struct JobStats
    {
        /// Wall-clock total over all attempts, in milliseconds.
        double elapsedMs = 0;
        /// Attempts actually run; 0 means the job was drained before
        /// it ever started.
        unsigned attempts = 0;
        TerminationKind termination = TerminationKind::normal;
        /// Static findings for this job's module (populated only when
        /// BatchOptions::analysis is set).
        std::vector<StaticFinding> staticFindings;
        unsigned staticDefinite = 0;
        unsigned staticMaybe = 0;
    };

    /// results[i] belongs to jobs[i], whatever order workers finished in.
    std::vector<ExecutionResult> results;
    /// jobStats[i] describes how results[i] was obtained.
    std::vector<JobStats> jobStats;
    CompileCacheStats cacheStats;
    unsigned workersUsed = 0;
    /// Jobs whose final outcome was a host fault (after retries).
    unsigned hostFaults = 0;
    /// Extra attempts spent across all jobs.
    unsigned retriesUsed = 0;
    /// Jobs never started because a fail-fast drain was triggered.
    unsigned drainedJobs = 0;
};

/** Run every job and collect results deterministically by job index. */
BatchReport runBatch(const std::vector<BatchJob> &jobs,
                     const BatchOptions &options = {});

/**
 * Tracks the cancellation token of every job attempt in flight. With a
 * non-zero timeout a timer thread cancels attempts past their
 * wall-clock budget; cancelAll() serves fail-fast and service drains
 * even when no timeout is set. Shared by runBatch and the analysis
 * daemon (src/service/), which watches every request's execution with
 * one of these.
 */
class JobWatchdog
{
  public:
    explicit JobWatchdog(unsigned timeout_ms);
    ~JobWatchdog();

    JobWatchdog(const JobWatchdog &) = delete;
    JobWatchdog &operator=(const JobWatchdog &) = delete;

    /** Start the budget clock for attempt @p id. */
    void watch(size_t id, CancellationToken token);
    void release(size_t id);

    /**
     * Cancel every attempt currently in flight. With @p sticky, also
     * cancel every attempt registered from now on — the service drain
     * uses this so a job that was still compiling when the drain began
     * is cancelled the moment it reaches its execution phase.
     */
    void cancelAll(bool sticky = false);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The per-job slice of BatchOptions: how one guarded attempt sequence
 * behaves. runBatch derives one from its BatchOptions; the daemon
 * builds one per request.
 */
struct GuardedJobOptions
{
    /// Extra attempts after a TerminationKind::hostFault outcome.
    unsigned retries = 0;
    /// Linear backoff between retry attempts.
    unsigned retryBackoffMs = 5;
    /// Chaos hook: each attempt reports "<faultSitePrefix><index>"
    /// before preparing ("batch.job/3", "service.job/17").
    FaultInjector *faults = nullptr;
    const char *faultSitePrefix = "batch.job/";
    /// Static analysis alongside execution (findings land in JobStats).
    const AnalysisOptions *analysis = nullptr;
    /// When set, the attempt sequence narrates itself into this ring
    /// (attempt starts, compile/analysis milestones, host faults,
    /// retries, the final termination) so the owner can dump a
    /// postmortem if the job dies. Strictly out-of-band.
    obs::FlightRecorder *recorder = nullptr;
};

/**
 * Run one job fully isolated: any exception that escapes preparation or
 * execution becomes a hostFault result (and may be retried). When
 * @p drain is set, a job that has not started reports cancelled without
 * running, and a job between retry attempts stops retrying and keeps
 * the termination of its last real attempt — the drain never erases
 * what actually happened to the job.
 */
ExecutionResult runGuardedJob(const BatchJob &job, size_t index,
                              CompileCache *cache,
                              const GuardedJobOptions &options,
                              const std::atomic<bool> &drain,
                              JobWatchdog &watchdog,
                              BatchReport::JobStats &stats);

} // namespace sulong

#endif // MS_TOOLS_BATCH_RUNNER_H
