/**
 * @file
 * msulong_client — command-line client for msulongd.
 *
 * Submits one source file (or the built-in demo programs) as analysis
 * jobs, prints the structured responses, and maps the outcome to an
 * exit code the CI chaos load can gate on:
 *
 *   0  every job answered with a clean result
 *   1  at least one job reported a bug or a non-normal termination
 *   3  at least one job earned a structured error frame (overloaded,
 *      draining, injected fault, bad request) — the daemon answered
 *   4  transport failure (connect/send/recv) — the daemon did NOT
 *      answer; the chaos gate treats only this as unaccounted
 *
 * Usage:
 *   msulong_client [--socket=PATH] FILE [--tool=safe|clang|asan|memcheck]
 *                  [--opt=N] [--tenant=NAME] [--analyze] [--count=N]
 *                  [--guest-stdin=TEXT] [--quiet] [--trace-out=FILE]
 *   msulong_client --demo=clean|bug [...]
 *   msulong_client --health [--json] | --stats [--expo] | --drain
 *
 * An unknown flag exits 2 before any connection is made.
 *
 * --trace-out submits the jobs with a trace context attached, fetches
 * the daemon-side spans that joined the trace, and writes BOTH halves
 * into one Chrome trace file (client = pid 1, daemon = pid 2).
 * --stats prints the daemon's live msulong.stats/v1 document; with
 * --expo it prints the Prometheus text exposition instead. --health
 * prints a human-readable table; --json restores the raw JSON document.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"
#include "service/client.h"
#include "tools/driver.h"

using namespace sulong;
using namespace sulong::service;

namespace
{

const char *kDemoClean = R"(
#include <stdio.h>
int main(void) {
    int total = 0;
    for (int i = 1; i <= 10; i++) total += i;
    printf("total=%d\n", total);
    return 0;
}
)";

const char *kDemoBug = R"(
int main(void) {
    int buf[4];
    buf[4] = 1; /* one past the end */
    return 0;
}
)";

int
worstExit(int current, int candidate)
{
    // 4 (transport) dominates, then 3 (error frame), then 1, then 0.
    return candidate > current ? candidate : current;
}

/**
 * Counters whose registry names carry a tenant label look like
 * `service.tenant.admitted{tenant="name"}`; pull the label value back
 * out (empty when @p name is not of that shape).
 */
std::string
tenantLabelOf(const std::string &name, const std::string &base)
{
    const std::string prefix = base + "{tenant=\"";
    if (name.rfind(prefix, 0) != 0 || name.size() < prefix.size() + 2 ||
        name.compare(name.size() - 2, 2, "\"}") != 0)
        return "";
    return name.substr(prefix.size(), name.size() - prefix.size() - 2);
}

/** The --health table: the fields an operator reaches for first. */
void
printHealthTable(const obs::JsonValue &health)
{
    uint64_t uptime_ms = health.uintAt("uptime_ms");
    std::printf("msulongd health\n");
    std::printf("  %-16s %s\n", "draining",
                health.boolAt("draining") ? "yes" : "no");
    std::printf("  %-16s %" PRIu64 "\n", "workers",
                health.uintAt("workers"));
    std::printf("  %-16s %" PRIu64 " of %" PRIu64 " queue slots\n",
                "in-flight", health.uintAt("pending"),
                health.uintAt("queue_capacity"));
    std::printf("  %-16s %" PRIu64 "\n", "active tenants",
                health.uintAt("active_tenants"));
    std::printf("  %-16s %" PRIu64 ".%03" PRIu64 " s\n", "uptime",
                uptime_ms / 1000, uptime_ms % 1000);

    const obs::JsonValue *cache = health.find("cache");
    if (cache != nullptr) {
        uint64_t hits = cache->uintAt("hits");
        uint64_t misses = cache->uintAt("misses");
        std::printf("  %-16s %" PRIu64 " hits, %" PRIu64
                    " misses, %" PRIu64 " evictions",
                    "compile cache", hits, misses,
                    cache->uintAt("evictions"));
        if (hits + misses > 0)
            std::printf(" (%.1f%% hit rate)",
                        100.0 * static_cast<double>(hits) /
                            static_cast<double>(hits + misses));
        std::printf("\n");
    }

    const obs::JsonValue *counters = health.find("counters");
    if (counters == nullptr)
        return;
    uint64_t rejected = 0;
    for (const char *kind : {"draining", "overloaded", "tenant", "invalid"})
        rejected += counters->uintAt(std::string("service.rejected.") + kind);
    std::printf("  %-16s %" PRIu64 "\n", "admitted",
                counters->uintAt("service.admitted"));
    std::printf("  %-16s %" PRIu64
                " (draining=%" PRIu64 " overloaded=%" PRIu64
                " tenant=%" PRIu64 " invalid=%" PRIu64 ")\n",
                "rejected", rejected,
                counters->uintAt("service.rejected.draining"),
                counters->uintAt("service.rejected.overloaded"),
                counters->uintAt("service.rejected.tenant"),
                counters->uintAt("service.rejected.invalid"));

    bool header = false;
    for (const auto &[name, value] : counters->members()) {
        std::string tenant =
            tenantLabelOf(name, "service.tenant.admitted");
        if (tenant.empty())
            continue;
        if (!header) {
            std::printf("  %-16s %10s %10s\n", "tenant", "admitted",
                        "rejected");
            header = true;
        }
        std::printf("  %-16s %10" PRIu64 " %10" PRIu64 "\n",
                    tenant.c_str(), value.asUint64(),
                    counters->uintAt("service.tenant.rejected{tenant=\"" +
                                     tenant + "\"}"));
    }
}

/**
 * Convert the stats document's trace_events (the daemon's half of the
 * trace) back into TraceEvents on pid 2 for the merged Chrome trace.
 */
std::vector<obs::TraceEvent>
daemonTraceEvents(const obs::JsonValue &stats, const std::string &trace_id)
{
    std::vector<obs::TraceEvent> events;
    const obs::JsonValue *list = stats.find("trace_events");
    if (list == nullptr || !list->isArray())
        return events;
    for (const obs::JsonValue &item : list->elements()) {
        obs::TraceEvent event;
        event.name = item.stringAt("name");
        event.detail = item.stringAt("detail");
        const std::string &ph = item.stringAt("ph");
        event.phase = ph.empty() ? 'X' : ph[0];
        event.tid = item.uintAt("tid");
        event.tsNs = item.uintAt("ts_ns");
        event.durNs = item.uintAt("dur_ns");
        event.pid = 2;
        event.traceId = trace_id;
        obs::parseSpanIdHex(item.stringAt("span_id"), &event.spanId);
        obs::parseSpanIdHex(item.stringAt("parent_span"),
                            &event.parentSpan);
        events.push_back(std::move(event));
    }
    return events;
}

} // namespace

int
main(int argc, char **argv)
{
    // Reject a bad command line before touching the socket.
    static const FlagSpec own{
        {"--quiet", "--health", "--json", "--stats", "--expo", "--drain",
         "--analyze"},
        {"--socket", "--tenant", "--tool", "--opt", "--guest-stdin",
         "--demo", "--count", "--trace-out"},
    };
    std::vector<std::string> operands;
    rejectUnknownFlags(argc, argv, {&own, &limitFlagSpec()}, &operands);

    std::string socket_path =
        parseStringFlag(argc, argv, "socket", "/tmp/msulong.sock");
    bool quiet = hasFlag(argc, argv, "quiet");
    ObsFlags obs_flags = parseObsFlags(argc, argv);
    bool traced = !obs_flags.traceOut.empty();

    ServiceClient client;
    std::string error;
    if (!client.connect(socket_path, &error)) {
        std::fprintf(stderr, "msulong_client: %s\n", error.c_str());
        return 4;
    }

    if (hasFlag(argc, argv, "health")) {
        if (hasFlag(argc, argv, "json")) {
            // The raw msulong.health/v1 document, for scripts.
            Frame reply;
            if (!client.sendFrame(FrameType::healthRequest, "", &error) ||
                !client.readFrame(&reply, &error) ||
                reply.type != FrameType::healthResponse) {
                std::fprintf(stderr, "msulong_client: %s\n",
                             error.empty() ? "unexpected reply"
                                           : error.c_str());
                return 4;
            }
            std::printf("%s\n", reply.payload.c_str());
            return 0;
        }
        obs::JsonValue health;
        if (!client.health(&health, &error)) {
            std::fprintf(stderr, "msulong_client: %s\n", error.c_str());
            return 4;
        }
        printHealthTable(health);
        return 0;
    }
    if (hasFlag(argc, argv, "stats")) {
        StatsRequest stats_request;
        if (hasFlag(argc, argv, "expo")) {
            stats_request.format = "prometheus";
            obs::JsonValue doc;
            if (!client.stats(stats_request, &doc, &error)) {
                std::fprintf(stderr, "msulong_client: %s\n",
                             error.c_str());
                return 4;
            }
            std::fputs(doc.stringAt("expo").c_str(), stdout);
            return 0;
        }
        // The raw msulong.stats/v1 document, for scripts.
        Frame reply;
        if (!client.sendFrame(FrameType::statsRequest,
                              encodeStatsRequest(stats_request), &error) ||
            !client.readFrame(&reply, &error) ||
            reply.type != FrameType::statsResponse) {
            std::fprintf(stderr, "msulong_client: %s\n",
                         error.empty() ? "unexpected reply"
                                       : error.c_str());
            return 4;
        }
        std::printf("%s\n", reply.payload.c_str());
        return 0;
    }
    if (hasFlag(argc, argv, "drain")) {
        if (!client.requestDrain(&error)) {
            std::fprintf(stderr, "msulong_client: %s\n", error.c_str());
            return 4;
        }
        if (!quiet)
            std::printf("drain acknowledged\n");
        return 0;
    }

    JobRequest request;
    request.tenant = parseStringFlag(argc, argv, "tenant", "default");
    request.tool = parseStringFlag(argc, argv, "tool", "safe");
    request.optLevel = static_cast<int>(
        parseUint64Flag(argc, argv, "opt", 0));
    request.analyze = hasFlag(argc, argv, "analyze");
    request.stdinData = parseStringFlag(argc, argv, "guest-stdin");
    request.maxSteps = parseUint64Flag(argc, argv, "max-steps", 0);
    request.maxHeapBytes = parseUint64Flag(argc, argv, "heap-limit", 0);
    request.maxOutputBytes =
        parseUint64Flag(argc, argv, "output-limit", 0);
    request.deadlineMs = parseUint64Flag(argc, argv, "deadline-ms", 0);

    std::string demo = parseStringFlag(argc, argv, "demo");
    if (demo == "clean") {
        request.source = kDemoClean;
    } else if (demo == "bug") {
        request.source = kDemoBug;
    } else if (!demo.empty()) {
        std::fprintf(stderr,
                     "msulong_client: unknown demo '%s' "
                     "(expected clean|bug)\n", demo.c_str());
        return 2;
    } else {
        if (operands.empty()) {
            std::fprintf(stderr,
                         "usage: msulong_client [--socket=PATH] FILE "
                         "| --demo=clean|bug | --health | --drain\n");
            return 2;
        }
        std::ifstream in(operands.front());
        if (!in) {
            std::fprintf(stderr, "msulong_client: cannot read %s\n",
                         operands.front().c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        request.source = text.str();
    }

    uint64_t count = parseUint64Flag(argc, argv, "count", 1);
    int exit_code = 0;
    for (uint64_t i = 0; i < count; i++) {
        Frame reply;
        // The daemon closes a connection after answering it with a
        // read/write-fault error; a send that then fails submitted
        // nothing, so retry it on a fresh connection. Only a job whose
        // *reply* never arrives is a transport failure (exit 4).
        bool answered = false;
        for (int attempt = 0; attempt < 3 && !answered; attempt++) {
            if (!client.connected() &&
                !client.connect(socket_path, &error))
                continue;
            bool sent = traced
                ? client.submitTracedJob(request, &reply, &error)
                : client.submitJob(request, &reply, &error);
            if (sent)
                answered = true;
            else
                client.close();
        }
        if (!answered) {
            std::fprintf(stderr, "msulong_client: %s\n", error.c_str());
            return 4;
        }
        obs::JsonValue doc;
        if (!obs::parseJson(reply.payload, &doc, &error)) {
            std::fprintf(stderr,
                         "msulong_client: unparseable reply: %s\n",
                         error.c_str());
            return 4;
        }
        if (reply.type == FrameType::error) {
            if (!quiet)
                std::printf("error code=%s detail=\"%s\"\n",
                            doc.stringAt("code").c_str(),
                            doc.stringAt("detail").c_str());
            exit_code = worstExit(exit_code, 3);
            continue;
        }
        if (reply.type != FrameType::jobResponse) {
            std::fprintf(stderr,
                         "msulong_client: unexpected frame type %d\n",
                         static_cast<int>(reply.type));
            return 4;
        }
        const std::string &termination = doc.stringAt("termination");
        const obs::JsonValue *bug = doc.find("bug");
        if (!quiet) {
            std::printf("job id=%llu termination=%s",
                        static_cast<unsigned long long>(doc.uintAt("id")),
                        termination.c_str());
            if (bug != nullptr)
                std::printf(" bug=%s", bug->stringAt("kind").c_str());
            std::printf(" attempts=%llu\n",
                        static_cast<unsigned long long>(
                            doc.uintAt("attempts")));
            const std::string &output = doc.stringAt("output");
            if (!output.empty())
                std::fputs(output.c_str(), stdout);
        }
        if (termination != "normal" || bug != nullptr)
            exit_code = worstExit(exit_code, 1);
    }

    if (traced) {
        // Merge the two halves of the trace: our own spans (pid 1) and
        // the daemon spans that adopted our trace id (pid 2), fetched
        // out-of-band via a stats request so job responses stay
        // byte-identical with tracing off.
        std::vector<obs::TraceEvent> events =
            obs::TraceCollector::global().drain();
        StatsRequest stats_request;
        stats_request.traceId = client.traceId();
        obs::JsonValue stats;
        if ((client.connected() || client.connect(socket_path, &error)) &&
            client.stats(stats_request, &stats, &error)) {
            std::vector<obs::TraceEvent> daemon_half =
                daemonTraceEvents(stats, client.traceId());
            events.insert(events.end(),
                          std::make_move_iterator(daemon_half.begin()),
                          std::make_move_iterator(daemon_half.end()));
        } else {
            std::fprintf(stderr,
                         "msulong_client: daemon trace fetch failed "
                         "(%s); writing the client half only\n",
                         error.c_str());
        }
        if (!obs::writeChromeTraceFile(obs_flags.traceOut, events,
                                       &error)) {
            std::fprintf(stderr, "msulong_client: trace-out: %s\n",
                         error.c_str());
            exit_code = worstExit(exit_code, 1);
        } else if (!quiet) {
            std::printf("trace written to %s (%zu events)\n",
                        obs_flags.traceOut.c_str(), events.size());
        }
    }
    return exit_code;
}
