#include "tools/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/fault.h"
#include "support/thread_pool.h"

namespace sulong
{

/**
 * Timer state behind JobWatchdog. When constructed with a non-zero
 * timeout it runs a timer thread that cancels attempts past their
 * wall-clock budget; cancelAll() serves the fail-fast/service drains
 * even when no timeout is set.
 */
struct JobWatchdog::Impl
{
    explicit Impl(unsigned timeout_ms) : timeoutMs(timeout_ms)
    {
        if (timeoutMs > 0)
            timer = std::thread([this] { loop(); });
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        cv.notify_all();
        if (timer.joinable())
            timer.join();
    }

    void
    watch(size_t id, CancellationToken token)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (cancelNew)
            token.cancel();
        entries[id] = Entry{
            std::move(token),
            std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeoutMs),
        };
    }

    void
    release(size_t id)
    {
        std::lock_guard<std::mutex> lock(mutex);
        entries.erase(id);
    }

    void
    cancelAll(bool sticky)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (sticky)
            cancelNew = true;
        for (auto &[id, entry] : entries)
            entry.token.cancel();
    }

    struct Entry
    {
        CancellationToken token;
        std::chrono::steady_clock::time_point deadline;
        /// The poll loop re-cancels an overrun entry every tick; count
        /// (and trace) only the first fire per attempt.
        bool fired = false;
    };

    void
    loop()
    {
        // Poll a few times per budget so cancellation lands close to the
        // deadline without a wakeup per entry.
        unsigned poll_ms =
            std::max(1u, std::min(timeoutMs / 4, 20u));
        std::unique_lock<std::mutex> lock(mutex);
        while (!stop) {
            auto now = std::chrono::steady_clock::now();
            for (auto &[id, entry] : entries) {
                if (now >= entry.deadline) {
                    entry.token.cancel();
                    if (!entry.fired) {
                        entry.fired = true;
                        obs::MetricsRegistry::global()
                            .counter("batch.watchdog.fires")
                            .inc();
                        obs::traceInstant("batch.watchdog.fire",
                                          "job " + std::to_string(id));
                    }
                }
            }
            cv.wait_for(lock, std::chrono::milliseconds(poll_ms),
                        [this] { return stop; });
        }
    }

    unsigned timeoutMs;
    std::mutex mutex;
    std::condition_variable cv;
    std::map<size_t, Entry> entries;
    bool stop = false;
    /// Sticky cancel: tokens registered after a cancelAll(sticky) are
    /// cancelled on arrival (service drain).
    bool cancelNew = false;
    std::thread timer;
};

JobWatchdog::JobWatchdog(unsigned timeout_ms)
    : impl_(std::make_unique<Impl>(timeout_ms))
{}

JobWatchdog::~JobWatchdog() = default;

void
JobWatchdog::watch(size_t id, CancellationToken token)
{
    impl_->watch(id, std::move(token));
}

void
JobWatchdog::release(size_t id)
{
    impl_->release(id);
}

void
JobWatchdog::cancelAll(bool sticky)
{
    impl_->cancelAll(sticky);
}

namespace
{

/** Would this job's outcome trigger a fail-fast drain? Guest bugs are
 *  the harness working as intended; only harness-level failures count. */
bool
isHarnessFailure(const ExecutionResult &result)
{
    return result.termination == TerminationKind::hostFault ||
        result.bug.kind == ErrorKind::engineError;
}

} // namespace

ExecutionResult
runGuardedJob(const BatchJob &job, size_t index, CompileCache *cache,
              const GuardedJobOptions &options,
              const std::atomic<bool> &drain, JobWatchdog &watchdog,
              BatchReport::JobStats &stats)
{
    MS_TRACE_SPAN("batch.job", "job " + std::to_string(index));
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("batch.jobs").inc();
    obs::FlightRecorder *rec = options.recorder;
    auto note = [rec](const char *name, std::string detail = "") {
        if (rec != nullptr)
            rec->note(name, std::move(detail));
    };
    auto start = std::chrono::steady_clock::now();
    ExecutionResult result;
    for (;;) {
        if (drain.load(std::memory_order_relaxed) && stats.attempts == 0) {
            result.termination = TerminationKind::cancelled;
            result.terminationDetail =
                "batch drained before the job started (fail-fast)";
            note("job.drained");
            break;
        }
        stats.attempts++;
        note("job.attempt", "attempt " + std::to_string(stats.attempts));
        CancellationToken token;
        try {
            if (options.faults != nullptr)
                options.faults->at(options.faultSitePrefix +
                                   std::to_string(index));
            PreparedProgram prepared =
                prepareProgram(job.sources, job.config, cache);
            note("job.compile",
                 prepared.ok() ? "ok" : prepared.compileErrors);
            if (prepared.ok() && options.analysis != nullptr) {
                // Analyzed before execution so findings survive even a
                // cancelled run; the analyzer replays this job's inputs.
                AnalysisOptions analysis_options = *options.analysis;
                analysis_options.replayArgs = job.args;
                analysis_options.replayStdin = job.stdinData;
                AnalysisReport analysis =
                    analyzeModule(*prepared.module, analysis_options);
                stats.staticDefinite = analysis.definiteCount();
                stats.staticMaybe = analysis.maybeCount();
                stats.staticFindings = std::move(analysis.findings);
                note("job.analysis",
                     std::to_string(stats.staticDefinite) + " definite, " +
                         std::to_string(stats.staticMaybe) + " maybe");
            }
            if (prepared.ok()) {
                prepared.engine->limits() = job.limits;
                prepared.engine->setCancellationToken(token);
                // Watch execution only: cancellation is polled on the
                // guest step path, and a budget that included compile
                // time would cancel healthy jobs on a slow host.
                watchdog.watch(index, token);
                note("job.execute");
            }
            result = prepared.run(job.args, job.stdinData);
        } catch (const std::exception &e) {
            result = ExecutionResult{};
            result.termination = TerminationKind::hostFault;
            result.terminationDetail =
                std::string("batch job threw: ") + e.what();
            note("job.host_fault", e.what());
        } catch (...) {
            result = ExecutionResult{};
            result.termination = TerminationKind::hostFault;
            result.terminationDetail =
                "batch job threw a non-standard exception";
            note("job.host_fault", "non-standard exception");
        }
        watchdog.release(index);
        if (result.termination == TerminationKind::hostFault &&
            stats.attempts <= options.retries) {
            // A drain that fires between attempts ends the retry loop
            // but must not erase the outcome: the stats keep the
            // hostFault termination and the attempts actually spent.
            // (Burning another attempt here used to let a drain-time
            // cancellation overwrite the real TerminationKind.)
            if (drain.load(std::memory_order_relaxed))
                break;
            reg.counter("batch.retries").inc();
            obs::traceInstant("batch.retry",
                              "job " + std::to_string(index));
            note("job.retry",
                 "after attempt " + std::to_string(stats.attempts));
            if (options.retryBackoffMs > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    options.retryBackoffMs * stats.attempts));
            }
            continue;
        }
        break;
    }
    stats.termination = result.termination;
    note("job.done", terminationKindName(result.termination));
    stats.elapsedMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // Wall-clock only ever feeds histograms, never counters — counter
    // totals stay identical across worker counts (determinism test).
    reg.histogram("batch.job.ms")
        .record(static_cast<uint64_t>(stats.elapsedMs));
    return result;
}

BatchReport
runBatch(const std::vector<BatchJob> &jobs, const BatchOptions &options)
{
    MS_TRACE_SPAN("batch.run",
                  std::to_string(jobs.size()) + " job(s)");
    BatchReport report;
    report.results.resize(jobs.size());
    report.jobStats.resize(jobs.size());

    CompileCache localCache;
    CompileCache *cache =
        options.cache != nullptr ? options.cache : &localCache;

    unsigned workers = options.jobs == 0 ? ThreadPool::hardwareWorkers()
                                         : options.jobs;
    workers = static_cast<unsigned>(
        std::min<size_t>(workers, std::max<size_t>(jobs.size(), 1)));
    report.workersUsed = workers;

    std::atomic<bool> drain{false};
    JobWatchdog watchdog(options.watchdogMs);
    GuardedJobOptions job_options;
    job_options.retries = options.retries;
    job_options.retryBackoffMs = options.retryBackoffMs;
    job_options.faults = options.faults;
    job_options.analysis = options.analysis;
    auto onJobDone = [&](const ExecutionResult &result) {
        if (options.failFast && isHarnessFailure(result)) {
            drain.store(true, std::memory_order_relaxed);
            watchdog.cancelAll();
        }
    };

    if (workers <= 1) {
        for (size_t i = 0; i < jobs.size(); i++) {
            report.results[i] = runGuardedJob(
                jobs[i], i, cache, job_options, drain, watchdog,
                report.jobStats[i]);
            onJobDone(report.results[i]);
        }
    } else {
        ThreadPool pool(workers);
        std::vector<std::future<ExecutionResult>> futures;
        futures.reserve(jobs.size());
        for (size_t i = 0; i < jobs.size(); i++) {
            const BatchJob &job = jobs[i];
            BatchReport::JobStats &stats = report.jobStats[i];
            futures.push_back(pool.submit(
                [&job, i, cache, &job_options, &drain, &watchdog, &stats,
                 &onJobDone]() {
                    ExecutionResult result = runGuardedJob(
                        job, i, cache, job_options, drain, watchdog,
                        stats);
                    onJobDone(result);
                    return result;
                }));
        }
        // Collecting by index — not by completion — keeps the report
        // deterministic under any scheduling.
        for (size_t i = 0; i < futures.size(); i++)
            report.results[i] = futures[i].get();
    }

    for (size_t i = 0; i < jobs.size(); i++) {
        const BatchReport::JobStats &stats = report.jobStats[i];
        if (stats.termination == TerminationKind::hostFault)
            report.hostFaults++;
        if (stats.attempts > 1)
            report.retriesUsed += stats.attempts - 1;
        if (stats.attempts == 0)
            report.drainedJobs++;
    }
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    if (report.hostFaults != 0)
        reg.counter("batch.host_faults").inc(report.hostFaults);
    if (report.drainedJobs != 0)
        reg.counter("batch.drained").inc(report.drainedJobs);

    report.cacheStats = cache->stats();
    return report;
}

} // namespace sulong
