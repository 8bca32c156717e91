#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "frontend/parser.h"
#include "obs/expo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/fault.h"

namespace sulong::service
{

namespace
{

/** min over "0 means unlimited" fields. */
uint64_t
clampLimit(uint64_t requested, uint64_t ceiling)
{
    if (ceiling == 0)
        return requested;
    if (requested == 0)
        return ceiling;
    return std::min(requested, ceiling);
}

/**
 * Per-tenant labeled counter name in the exposition encoding the
 * Prometheus writer splits back out ('{' cannot occur in a plain
 * metric name, so labeled and unlabeled names never collide).
 */
std::string
tenantCounterName(const char *base, const std::string &tenant)
{
    std::string name = base;
    name += "{tenant=\"";
    name += obs::prometheusLabelEscape(tenant);
    name += "\"}";
    return name;
}

/** Rates rendered with fixed precision so the JSON stays canonical. */
std::string
fixed3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

const char *
admitStatusName(AdmitStatus status)
{
    switch (status) {
      case AdmitStatus::accepted:
        return "accepted";
      case AdmitStatus::overloadedGlobal:
        return "overloaded-global";
      case AdmitStatus::overloadedTenant:
        return "overloaded-tenant";
      case AdmitStatus::draining:
        return "draining";
      case AdmitStatus::invalid:
        return "invalid";
    }
    return "unknown";
}

AnalysisService::AnalysisService(const ServiceConfig &config)
    : config_(config), watchdog_(config.watchdogMs),
      started_(std::chrono::steady_clock::now())
{
    if (config_.workers == 0)
        config_.workers = ThreadPool::hardwareWorkers();
    if (config_.queueCapacity == 0)
        config_.queueCapacity = 1;
    if (config_.tenantCapacity == 0)
        config_.tenantCapacity = config_.queueCapacity;
    cache_.setCapacity(config_.cacheCapacity);
    pool_ = std::make_unique<ThreadPool>(config_.workers);
}

AnalysisService::~AnalysisService()
{
    // Refuse new work and fast-cancel whatever is still queued; the
    // pool destructor then drains the (now fast) queue.
    beginDrain();
    hardDrain_.store(true, std::memory_order_relaxed);
    watchdog_.cancelAll(/*sticky=*/true);
    pool_.reset();
}

AdmitStatus
AnalysisService::submit(JobRequest request, DoneFn done,
                        uint64_t *retry_after_ms)
{
    // Admission happens on the transport thread; adopt the caller's
    // trace context (when the request carries one) so even a rejection
    // shows up as a span in the caller's trace.
    obs::TraceContextScope traceScope(
        obs::TraceContext{request.traceId, request.parentSpan});
    MS_TRACE_SPAN("service.admission");
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("service.requests").inc();
    if (request.source.size() > config_.maxSourceBytes ||
        bracketsNestTooDeep(request.source)) {
        reg.counter("service.rejected.invalid").inc();
        windowRejected_.record(nowMs());
        return AdmitStatus::invalid;
    }
    uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_) {
            reg.counter("service.rejected.draining").inc();
            windowRejected_.record(nowMs());
            return AdmitStatus::draining;
        }
        if (pending_ >= config_.queueCapacity) {
            if (retry_after_ms != nullptr) {
                // Scale the hint with the backlog per worker: a deeper
                // queue earns a longer backoff. Deterministic in the
                // admission state, no clocks involved.
                *retry_after_ms =
                    25 * (pending_ / std::max(1u, config_.workers) + 1);
            }
            reg.counter("service.rejected.overloaded").inc();
            reg.counter(
                   tenantCounterName("service.tenant.rejected",
                                     request.tenant))
                .inc();
            windowRejected_.record(nowMs());
            return AdmitStatus::overloadedGlobal;
        }
        size_t &tenant_pending = tenantPending_[request.tenant];
        if (tenant_pending >= config_.tenantCapacity) {
            if (retry_after_ms != nullptr)
                *retry_after_ms = 25 * (tenant_pending + 1);
            reg.counter("service.rejected.tenant").inc();
            reg.counter(
                   tenantCounterName("service.tenant.rejected",
                                     request.tenant))
                .inc();
            windowRejected_.record(nowMs());
            return AdmitStatus::overloadedTenant;
        }
        tenant_pending++;
        pending_++;
        id = nextId_++;
    }
    reg.counter("service.admitted").inc();
    reg.counter(tenantCounterName("service.tenant.admitted",
                                  request.tenant))
        .inc();
    reg.gauge("service.inflight").add(1);
    windowAdmitted_.record(nowMs());
    pool_->submit([this, id, request = std::move(request),
                   done = std::move(done)]() mutable {
        runJob(id, std::move(request), done);
    });
    return AdmitStatus::accepted;
}

ResourceLimits
AnalysisService::effectiveLimits(const JobRequest &request) const
{
    const ResourceLimits &ceiling = config_.limitCeiling;
    ResourceLimits limits;
    limits.maxSteps = clampLimit(request.maxSteps, ceiling.maxSteps);
    limits.maxCallDepth = static_cast<unsigned>(
        clampLimit(request.maxCallDepth, ceiling.maxCallDepth));
    limits.maxHeapBytes =
        clampLimit(request.maxHeapBytes, ceiling.maxHeapBytes);
    limits.maxHeapAllocations = ceiling.maxHeapAllocations;
    limits.maxOutputBytes =
        clampLimit(request.maxOutputBytes, ceiling.maxOutputBytes);
    limits.deadlineMs = clampLimit(request.deadlineMs, ceiling.deadlineMs);
    return limits;
}

void
AnalysisService::runJob(uint64_t id, JobRequest request, const DoneFn &done)
{
    // Adopt the caller's trace on this worker thread: every span below
    // (service.job, cache/compile, tier pipelines, analysis) chains
    // under the client's parent span id for the lifetime of the job.
    obs::TraceContextScope traceScope(
        obs::TraceContext{request.traceId, request.parentSpan});
    MS_TRACE_SPAN("service.job", "job " + std::to_string(id));
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();

    JobOutcome outcome;
    outcome.id = id;
    outcome.tenant = request.tenant;
    outcome.tool = request.tool;
    outcome.optLevel = request.optLevel;
    outcome.analyzed = request.analyze;

    ToolKind kind = ToolKind::safeSulong;
    toolFromName(request.tool, &kind);
    BatchJob job = BatchJob::make(request.source,
                                  ToolConfig::make(kind, request.optLevel),
                                  request.args, request.stdinData);
    job.limits = effectiveLimits(request);

    GuardedJobOptions options;
    options.retries = config_.retries;
    options.retryBackoffMs = config_.retryBackoffMs;
    options.faults = config_.faults;
    options.faultSitePrefix = "service.job/";
    AnalysisOptions analysis;
    if (request.analyze)
        options.analysis = &analysis;
    // Every job flies with a recorder; the ring is dropped on success
    // and serialized into a postmortem when the job dies.
    obs::FlightRecorder recorder(config_.flightRecorderCapacity);
    options.recorder = &recorder;

    outcome.result =
        runGuardedJob(job, static_cast<size_t>(id), &cache_, options,
                      hardDrain_, watchdog_, outcome.stats);

    bool died = false;
    switch (outcome.result.termination) {
      case TerminationKind::normal:
        if (outcome.result.bug.kind == ErrorKind::none) {
            reg.counter("service.jobs.ok").inc();
        } else {
            reg.counter("service.jobs.bug").inc();
            died = true;
        }
        break;
      case TerminationKind::hostFault:
        reg.counter("service.jobs.host_fault").inc();
        died = true;
        break;
      case TerminationKind::cancelled:
        reg.counter("service.jobs.cancelled").inc();
        died = true;
        break;
      default:
        reg.counter("service.jobs.terminated").inc();
        died = true;
        break;
    }

    if (died) {
        obs::PostmortemInfo info;
        info.jobId = id;
        info.tenant = request.tenant;
        info.tool = request.tool;
        info.traceId = request.traceId;
        info.termination =
            terminationKindName(outcome.result.termination);
        info.terminationDetail = outcome.result.terminationDetail;
        if (outcome.result.bug.kind != ErrorKind::none)
            info.bugKind = errorKindName(outcome.result.bug.kind);
        info.attempts = outcome.stats.attempts;
        for (const obs::FlightRecorder::Event &event : recorder.events()) {
            if (event.name == "job.host_fault")
                info.faultFirings++;
        }
        emitPostmortem(info, recorder);
    }

    // The callback runs before this job is accounted finished so a
    // drain cannot complete between a job's end and its response write:
    // "drained" always implies "every admitted job has answered".
    done(outcome);
    finishJob(request.tenant);
}

void
AnalysisService::finishJob(const std::string &tenant)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_--;
        auto it = tenantPending_.find(tenant);
        if (it != tenantPending_.end() && --it->second == 0)
            tenantPending_.erase(it);
    }
    obs::MetricsRegistry::global().gauge("service.inflight").add(-1);
    windowCompleted_.record(nowMs());
    idleCv_.notify_all();
}

uint64_t
AnalysisService::nowMs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started_)
            .count());
}

void
AnalysisService::emitPostmortem(const obs::PostmortemInfo &info,
                                const obs::FlightRecorder &recorder)
{
    std::string doc = obs::postmortemJson(info, recorder);
    uint64_t ordinal = 0;
    {
        std::lock_guard<std::mutex> lock(postmortemMutex_);
        ordinal = postmortemCount_++;
        postmortems_.push_back(doc);
        while (postmortems_.size() > config_.postmortemKeep)
            postmortems_.pop_front();
    }
    obs::MetricsRegistry::global().counter("service.postmortems").inc();
    if (config_.postmortemDir.empty())
        return;
    std::string path = config_.postmortemDir + "/postmortem-" +
        std::to_string(ordinal) + "-job" + std::to_string(info.jobId) +
        ".json";
    std::ofstream file(path, std::ios::binary);
    if (file) {
        file << doc << "\n";
    }
}

void
AnalysisService::beginDrain()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_)
            return;
        draining_ = true;
    }
    obs::MetricsRegistry::global().counter("service.drains").inc();
}

void
AnalysisService::drain(unsigned grace_ms)
{
    MS_TRACE_SPAN("service.drain");
    beginDrain();
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait_for(lock, std::chrono::milliseconds(grace_ms),
                     [this] { return pending_ == 0; });
    if (pending_ != 0) {
        // Hard phase: jobs not yet started report cancelled without
        // running; in-flight attempts (and ones still compiling, via
        // the sticky flag) are cancelled through their tokens. Every
        // one still produces a structured outcome for its client.
        hardDrain_.store(true, std::memory_order_relaxed);
        lock.unlock();
        watchdog_.cancelAll(/*sticky=*/true);
        obs::MetricsRegistry::global()
            .counter("service.drain.cancelled")
            .inc();
        lock.lock();
        idleCv_.wait(lock, [this] { return pending_ == 0; });
    }
}

bool
AnalysisService::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

size_t
AnalysisService::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_;
}

unsigned
AnalysisService::workers() const
{
    return config_.workers;
}

CompileCacheStats
AnalysisService::cacheStats() const
{
    return cache_.stats();
}

std::string
AnalysisService::healthJson() const
{
    uint64_t uptime_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started_)
            .count());
    size_t pending;
    size_t tenants;
    bool draining;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = pending_;
        tenants = tenantPending_.size();
        draining = draining_;
    }
    CompileCacheStats cache = cache_.stats();

    // Appended piecewise (not via chained operator+) — see protocol.cc.
    auto add_uint = [](std::string &doc, const char *key, uint64_t value) {
        doc += ",\"";
        doc += key;
        doc += "\":";
        doc += std::to_string(value);
    };
    std::string out = "{\"schema\":\"msulong.health/v1\"";
    out += ",\"draining\":";
    out += draining ? "true" : "false";
    add_uint(out, "pending", pending);
    add_uint(out, "active_tenants", tenants);
    add_uint(out, "workers", config_.workers);
    add_uint(out, "queue_capacity", config_.queueCapacity);
    add_uint(out, "tenant_capacity", config_.tenantCapacity);
    add_uint(out, "uptime_ms", uptime_ms);
    out += ",\"cache\":{\"hits\":";
    out += std::to_string(cache.hits);
    add_uint(out, "misses", cache.misses);
    add_uint(out, "evictions", cache.evictions);
    out += "},\"counters\":{";
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    bool first = true;
    for (const auto &[name, value] : snap.counters) {
        if (name.rfind("service.", 0) != 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += obs::jsonEscape(name);
        out += "\":";
        out += std::to_string(value);
    }
    out += "}}";
    return out;
}

std::string
AnalysisService::statsJson(const StatsRequest &request) const
{
    std::string out = "{\"schema\":\"msulong.stats/v1\"";
    out += ",\"format\":\"";
    out += request.format;
    out += '"';

    if (request.format == "prometheus") {
        // Wrapped text exposition: the frame payload stays JSON, the
        // client unwraps "expo" for scrapers.
        out += ",\"expo\":\"";
        out += obs::jsonEscape(obs::prometheusTextFromGlobal());
        out += "\"}";
        return out;
    }

    uint64_t now = nowMs();
    size_t pending;
    bool draining;
    std::map<std::string, size_t> tenants;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = pending_;
        draining = draining_;
        tenants = tenantPending_;
    }
    out += ",\"draining\":";
    out += draining ? "true" : "false";
    out += ",\"pending\":";
    out += std::to_string(pending);

    out += ",\"window\":{\"window_ms\":";
    out += std::to_string(windowAdmitted_.windowMs());
    out += ",\"admitted\":";
    out += std::to_string(windowAdmitted_.totalInWindow(now));
    out += ",\"rejected\":";
    out += std::to_string(windowRejected_.totalInWindow(now));
    out += ",\"completed\":";
    out += std::to_string(windowCompleted_.totalInWindow(now));
    out += ",\"admitted_per_sec\":";
    out += fixed3(windowAdmitted_.ratePerSec(now));
    out += ",\"completed_per_sec\":";
    out += fixed3(windowCompleted_.ratePerSec(now));
    out += '}';

    out += ",\"tenants\":{";
    bool first = true;
    for (const auto &[tenant, tenant_pending] : tenants) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += obs::jsonEscape(tenant);
        out += "\":";
        out += std::to_string(tenant_pending);
    }
    out += '}';

    {
        std::lock_guard<std::mutex> lock(postmortemMutex_);
        out += ",\"postmortems\":";
        out += std::to_string(postmortemCount_);
    }

    out += ",\"metrics\":";
    out += obs::metricsJson(obs::MetricsRegistry::global().snapshot());

    if (!request.traceId.empty()) {
        // Peek (no clear): a stats scrape must not erase events other
        // clients' merges still need; the per-thread rings bound the
        // retained history.
        std::vector<obs::TraceEvent> events =
            obs::TraceCollector::global().drain(/*clear=*/false);
        out += ",\"trace_events\":[";
        first = true;
        for (const obs::TraceEvent &event : events) {
            if (event.traceId != request.traceId)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += "{\"name\":\"";
            out += obs::jsonEscape(event.name);
            out += '"';
            if (!event.detail.empty()) {
                out += ",\"detail\":\"";
                out += obs::jsonEscape(event.detail);
                out += '"';
            }
            out += ",\"ph\":\"";
            out += event.phase;
            out += "\",\"tid\":";
            out += std::to_string(event.tid);
            out += ",\"ts_ns\":";
            out += std::to_string(event.tsNs);
            out += ",\"dur_ns\":";
            out += std::to_string(event.durNs);
            out += ",\"span_id\":\"";
            out += obs::spanIdToHex(event.spanId);
            out += '"';
            if (event.parentSpan != 0) {
                out += ",\"parent_span\":\"";
                out += obs::spanIdToHex(event.parentSpan);
                out += '"';
            }
            out += '}';
        }
        out += ']';
    }

    out += '}';
    return out;
}

std::vector<std::string>
AnalysisService::recentPostmortems() const
{
    std::lock_guard<std::mutex> lock(postmortemMutex_);
    return {postmortems_.begin(), postmortems_.end()};
}

} // namespace sulong::service
