/**
 * @file
 * The daemon's execution core: multi-tenant admission control over a
 * shared worker pool, per-job fault isolation, and graceful drain.
 *
 * Transport-free by design — the socket server (server.h), the in-process
 * bench (bench/bench_service.cc), and the tests all drive the same
 * AnalysisService, so every admission/backpressure/drain property is
 * testable without a socket.
 *
 * Admission is a two-level token scheme checked before a job ever
 * reaches the pool: a global bound (queueCapacity) on jobs admitted but
 * not yet finished, and a per-tenant bound (tenantCapacity) that stops
 * one noisy tenant from filling the global queue — tenants degrade
 * individually, the service degrades gracefully. Rejections are cheap,
 * structured, and carry a retry hint; nothing blocks the caller.
 *
 * Every admitted job runs through runGuardedJob (the batch runner's
 * isolation seam): host exceptions become TerminationKind::hostFault
 * results with optional retry/backoff, a shared JobWatchdog cancels
 * attempts past their wall-clock budget, and request ResourceLimits are
 * clamped against the daemon's ceiling so no tenant escapes governance.
 */

#ifndef MS_SERVICE_SERVICE_H
#define MS_SERVICE_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include <deque>
#include <vector>

#include "obs/flightrec.h"
#include "obs/window.h"
#include "service/protocol.h"
#include "support/limits.h"
#include "support/thread_pool.h"
#include "tools/batch_runner.h"
#include "tools/compile_cache.h"

namespace sulong
{
class FaultInjector;
}

namespace sulong::service
{

struct ServiceConfig
{
    /// Worker threads executing jobs (0 = one per hardware thread).
    unsigned workers = 2;
    /// Global bound on jobs admitted but not yet finished; submissions
    /// past it are rejected with a retry hint instead of queued.
    size_t queueCapacity = 64;
    /// Per-tenant share of the queue; one tenant at its cap is rejected
    /// while others are still admitted (fair-share degradation).
    size_t tenantCapacity = 16;
    /// Wall-clock budget per job attempt (execution only); 0 disables
    /// the watchdog timer.
    unsigned watchdogMs = 0;
    /// Extra attempts after a hostFault outcome.
    unsigned retries = 0;
    unsigned retryBackoffMs = 5;
    /// LRU bound of the shared compile cache (0 = unbounded).
    size_t cacheCapacity = 64;
    /// Largest accepted request source, in bytes.
    size_t maxSourceBytes = 1u << 20;
    /// Per-field ceiling clamped onto request limits: a request may
    /// tighten a budget but never exceed (or zero out) a non-zero
    /// ceiling field.
    ResourceLimits limitCeiling;
    /// Chaos hook shared with the server; jobs report
    /// "service.job/<id>" per attempt.
    FaultInjector *faults = nullptr;
    /// Directory for "msulong.postmortem/v1" documents, one file per
    /// dead job ("" = keep them in memory only).
    std::string postmortemDir;
    /// Most recent postmortem documents retained in memory (for the
    /// stats endpoint and transport-free tests).
    size_t postmortemKeep = 16;
    /// Flight-recorder ring capacity per job.
    size_t flightRecorderCapacity = 64;
};

enum class AdmitStatus : uint8_t
{
    accepted,
    /// queueCapacity reached; retry after the hint.
    overloadedGlobal,
    /// This tenant's share is full; retry after the hint.
    overloadedTenant,
    /// The service is draining and accepts nothing new.
    draining,
    /// The request itself is unacceptable: its source is too large, or
    /// nests deeper than the front end accepts (bracketsNestTooDeep).
    invalid,
};

const char *admitStatusName(AdmitStatus status);

class AnalysisService
{
  public:
    explicit AnalysisService(const ServiceConfig &config);
    ~AnalysisService();

    AnalysisService(const AnalysisService &) = delete;
    AnalysisService &operator=(const AnalysisService &) = delete;

    /**
     * Completion callback: invoked exactly once per *accepted* job,
     * on a worker thread, whatever the outcome (success, bug, resource
     * termination, host fault, drain cancellation).
     */
    using DoneFn = std::function<void(const JobOutcome &outcome)>;

    /**
     * Admit or reject @p request. Accepted jobs run asynchronously and
     * report through @p done; rejected ones never invoke it. On an
     * overloaded rejection, *retry_after_ms (when non-null) receives
     * the suggested client backoff.
     */
    AdmitStatus submit(JobRequest request, DoneFn done,
                       uint64_t *retry_after_ms = nullptr);

    /** Stop admitting; jobs already accepted keep running. */
    void beginDrain();

    /**
     * Graceful shutdown: stop admitting, give in-flight jobs
     * @p grace_ms to finish, then cancel the stragglers through the
     * watchdog (their clients still get structured cancelled results),
     * and return once every accepted job has reported.
     */
    void drain(unsigned grace_ms);

    bool draining() const;
    /** Jobs admitted but not yet finished. */
    size_t pending() const;
    unsigned workers() const;
    CompileCacheStats cacheStats() const;

    /** "msulong.health/v1" snapshot document. */
    std::string healthJson() const;

    /**
     * "msulong.stats/v1" document answering @p request: the full
     * metrics registry (obs/v1 JSON or wrapped Prometheus text),
     * sliding-window rates, per-tenant pending counts, and — when the
     * request names a trace id — the daemon-side trace events of that
     * trace so the client can merge them into its own file.
     */
    std::string statsJson(const StatsRequest &request) const;

    /** Most recent postmortem documents, oldest first. */
    std::vector<std::string> recentPostmortems() const;

  private:
    void runJob(uint64_t id, JobRequest request, const DoneFn &done);
    ResourceLimits effectiveLimits(const JobRequest &request) const;
    void finishJob(const std::string &tenant);
    /** Milliseconds since construction (sliding-window clock). */
    uint64_t nowMs() const;
    /** Serialize, retain, and (when configured) persist a postmortem. */
    void emitPostmortem(const obs::PostmortemInfo &info,
                        const obs::FlightRecorder &recorder);

    ServiceConfig config_;
    CompileCache cache_;
    JobWatchdog watchdog_;
    /// Observed by runGuardedJob: set during the hard phase of a drain
    /// so queued jobs fast-cancel instead of running.
    std::atomic<bool> hardDrain_{false};
    std::chrono::steady_clock::time_point started_;

    mutable std::mutex mutex_;
    std::condition_variable idleCv_;
    bool draining_ = false;
    size_t pending_ = 0;
    /// Tenants with at least one pending job.
    std::map<std::string, size_t> tenantPending_;
    uint64_t nextId_ = 1;

    /// Last-minute admission/rejection/completion rates for the live
    /// exposition (60 one-second buckets; out-of-band by construction).
    obs::SlidingWindow windowAdmitted_;
    obs::SlidingWindow windowRejected_;
    obs::SlidingWindow windowCompleted_;

    mutable std::mutex postmortemMutex_;
    std::deque<std::string> postmortems_; ///< Recent documents.
    uint64_t postmortemCount_ = 0;        ///< Ever produced.

    /// Declared last: destroyed first, so the pool drains its queue
    /// while the watchdog and cache are still alive.
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace sulong::service

#endif // MS_SERVICE_SERVICE_H
