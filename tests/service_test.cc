/**
 * @file
 * Daemon-stack tests: protocol framing, admission control and
 * backpressure, per-job fault isolation, drain semantics, and the
 * end-to-end socket path (including deliberately broken clients and
 * injected daemon-side faults). Transport-free properties are tested
 * against AnalysisService directly — admission decisions are
 * synchronous there, so the tests are deterministic by construction.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/server.h"
#include "support/fault.h"

namespace sulong::service
{
namespace
{

const char *kCleanSource = R"(
#include <stdio.h>
int main(void) {
    int total = 0;
    for (int i = 1; i <= 10; i++) total += i;
    printf("total=%d\n", total);
    return 0;
}
)";

const char *kBugSource = R"(
int main(void) {
    int buf[4];
    buf[4] = 1;
    return 0;
}
)";

const char *kSpinSource = "int main(void) { for (;;) { } return 0; }\n";

std::string
makeSocketPath(const char *tag)
{
    return "/tmp/ms_svc_" + std::to_string(::getpid()) + "_" + tag +
        ".sock";
}

JobRequest
cleanRequest()
{
    JobRequest request;
    request.source = kCleanSource;
    return request;
}

FaultInjector::Rule
prefixRule(const char *prefix, FaultInjector::Action action,
           double probability = 1.0, unsigned delay_ms = 0)
{
    FaultInjector::Rule rule;
    rule.site = prefix;
    rule.sitePrefix = true;
    rule.action = action;
    rule.probability = probability;
    rule.delayMs = delay_ms;
    return rule;
}

// --- protocol ---------------------------------------------------------

TEST(ProtocolTest, FrameSurvivesBytewiseDelivery)
{
    std::string bytes = encodeFrame(FrameType::jobRequest, "hello");
    FrameReader reader;
    Frame frame;
    for (char c : bytes) {
        ASSERT_EQ(reader.next(&frame), DecodeStatus::needMore);
        reader.feed(std::string_view(&c, 1));
    }
    ASSERT_EQ(reader.next(&frame), DecodeStatus::frame);
    EXPECT_EQ(frame.type, FrameType::jobRequest);
    EXPECT_EQ(frame.payload, "hello");
    EXPECT_EQ(reader.next(&frame), DecodeStatus::needMore);
}

TEST(ProtocolTest, TwoFramesInOneChunk)
{
    FrameReader reader;
    reader.feed(encodeFrame(FrameType::healthRequest, "") +
                encodeFrame(FrameType::jobResponse, "{}"));
    Frame frame;
    ASSERT_EQ(reader.next(&frame), DecodeStatus::frame);
    EXPECT_EQ(frame.type, FrameType::healthRequest);
    ASSERT_EQ(reader.next(&frame), DecodeStatus::frame);
    EXPECT_EQ(frame.type, FrameType::jobResponse);
    EXPECT_EQ(frame.payload, "{}");
}

TEST(ProtocolTest, GarbageAndOversizedAndUnknownTypeArePoisonous)
{
    {
        FrameReader reader;
        reader.feed("GARBAGE!");
        Frame frame;
        EXPECT_EQ(reader.next(&frame), DecodeStatus::badMagic);
        // Sticky: feeding more does not resynchronize.
        reader.feed(encodeFrame(FrameType::healthRequest, ""));
        EXPECT_EQ(reader.next(&frame), DecodeStatus::badMagic);
    }
    {
        FrameReader reader(16);
        reader.feed(encodeFrame(FrameType::jobRequest,
                                std::string(17, 'x')));
        Frame frame;
        EXPECT_EQ(reader.next(&frame), DecodeStatus::oversized);
    }
    {
        std::string bytes = encodeFrame(FrameType::jobRequest, "");
        bytes[2] = 99; // undefined type
        FrameReader reader;
        reader.feed(bytes);
        Frame frame;
        EXPECT_EQ(reader.next(&frame), DecodeStatus::badType);
    }
}

TEST(ProtocolTest, JobRequestRoundTrips)
{
    JobRequest request;
    request.tenant = "team-a";
    request.tool = "asan";
    request.optLevel = 3;
    request.source = "int main(void) { return 7; }";
    request.args = {"x", "quote\"arg"};
    request.stdinData = "line\n";
    request.analyze = true;
    request.maxSteps = 1000;
    request.deadlineMs = 250;

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(encodeJobRequest(request), &doc, &error))
        << error;
    JobRequest decoded;
    ASSERT_TRUE(decodeJobRequest(doc, &decoded, &error)) << error;
    EXPECT_EQ(decoded.tenant, "team-a");
    EXPECT_EQ(decoded.tool, "asan");
    EXPECT_EQ(decoded.optLevel, 3);
    EXPECT_EQ(decoded.source, request.source);
    EXPECT_EQ(decoded.args, request.args);
    EXPECT_EQ(decoded.stdinData, "line\n");
    EXPECT_TRUE(decoded.analyze);
    EXPECT_EQ(decoded.maxSteps, 1000u);
    EXPECT_EQ(decoded.deadlineMs, 250u);
}

TEST(ProtocolTest, DecodeRejectsBadSchemaToolAndTypes)
{
    auto decode = [](const std::string &text) {
        obs::JsonValue doc;
        std::string error;
        EXPECT_TRUE(obs::parseJson(text, &doc, &error)) << error;
        JobRequest request;
        return decodeJobRequest(doc, &request, &error);
    };
    EXPECT_FALSE(decode("{}"));
    EXPECT_FALSE(decode("{\"schema\":\"msulong.job/v2\"}"));
    EXPECT_FALSE(decode(
        "{\"schema\":\"msulong.job/v1\",\"tool\":\"gdb\","
        "\"source\":\"\"}"));
    EXPECT_FALSE(decode("{\"schema\":\"msulong.job/v1\"}")); // no source
    EXPECT_FALSE(decode(
        "{\"schema\":\"msulong.job/v1\",\"source\":\"\",\"args\":[1]}"));
    EXPECT_TRUE(decode(
        "{\"schema\":\"msulong.job/v1\",\"source\":\"int main(){}\"}"));
}

TEST(ProtocolTest, ErrorPayloadIsValidJsonWithOptionalRetry)
{
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(
        encodeErrorPayload(ErrorInfo{"overloaded", "queue full", 75}),
        &doc, &error))
        << error;
    EXPECT_EQ(doc.stringAt("code"), "overloaded");
    EXPECT_EQ(doc.uintAt("retry_after_ms"), 75u);
    ASSERT_TRUE(obs::parseJson(
        encodeErrorPayload(ErrorInfo{"draining", "bye", 0}), &doc,
        &error));
    EXPECT_EQ(doc.find("retry_after_ms"), nullptr);
}

// --- admission control (transport-free, fully deterministic) ----------

TEST(ServiceAdmissionTest, GlobalBoundRejectsWithRetryHint)
{
    FaultInjector faults;
    faults.addRule(prefixRule("service.job/",
                              FaultInjector::Action::delay, 1.0, 300));
    ServiceConfig config;
    config.workers = 1;
    config.queueCapacity = 2;
    config.tenantCapacity = 2;
    config.faults = &faults;
    AnalysisService service(config);

    std::atomic<int> done{0};
    auto count = [&done](const JobOutcome &) { done++; };
    EXPECT_EQ(service.submit(cleanRequest(), count),
              AdmitStatus::accepted);
    EXPECT_EQ(service.submit(cleanRequest(), count),
              AdmitStatus::accepted);
    uint64_t retry_after = 0;
    EXPECT_EQ(service.submit(cleanRequest(), count, &retry_after),
              AdmitStatus::overloadedGlobal);
    EXPECT_GT(retry_after, 0u);
    service.drain(30000);
    EXPECT_EQ(done.load(), 2);
}

TEST(ServiceAdmissionTest, TenantShareRejectsOneTenantNotAll)
{
    FaultInjector faults;
    faults.addRule(prefixRule("service.job/",
                              FaultInjector::Action::delay, 1.0, 300));
    ServiceConfig config;
    config.workers = 1;
    config.queueCapacity = 8;
    config.tenantCapacity = 1;
    config.faults = &faults;
    AnalysisService service(config);

    std::atomic<int> done{0};
    auto count = [&done](const JobOutcome &) { done++; };
    JobRequest loud = cleanRequest();
    loud.tenant = "loud";
    JobRequest other = cleanRequest();
    other.tenant = "other";

    EXPECT_EQ(service.submit(loud, count), AdmitStatus::accepted);
    uint64_t retry_after = 0;
    EXPECT_EQ(service.submit(loud, count, &retry_after),
              AdmitStatus::overloadedTenant);
    EXPECT_GT(retry_after, 0u);
    // A different tenant is still admitted: degradation is per tenant.
    EXPECT_EQ(service.submit(other, count), AdmitStatus::accepted);
    service.drain(30000);
    EXPECT_EQ(done.load(), 2);
}

TEST(ServiceAdmissionTest, DrainingRejectsAndOversizedSourceIsInvalid)
{
    ServiceConfig config;
    config.workers = 1;
    config.maxSourceBytes = 64;
    AnalysisService service(config);
    auto ignore = [](const JobOutcome &) {};

    JobRequest big = cleanRequest();
    big.source.assign(65, 'x');
    EXPECT_EQ(service.submit(big, ignore), AdmitStatus::invalid);

    service.beginDrain();
    JobRequest tiny;
    tiny.source = "int main(void) { return 0; }"; // under the 64B cap
    EXPECT_EQ(service.submit(tiny, ignore), AdmitStatus::draining);
    service.drain(1000);
}

TEST(ServiceLimitsTest, RequestCannotEscapeTheConfiguredCeiling)
{
    ServiceConfig config;
    config.workers = 1;
    config.limitCeiling.maxSteps = 20000;
    AnalysisService service(config);

    JobRequest request;
    request.source = kSpinSource;
    request.maxSteps = 0; // "unlimited" — must clamp to the ceiling
    JobOutcome outcome;
    std::atomic<bool> got{false};
    ASSERT_EQ(service.submit(request,
                             [&](const JobOutcome &o) {
                                 outcome = o;
                                 got = true;
                             }),
              AdmitStatus::accepted);
    service.drain(30000);
    ASSERT_TRUE(got.load());
    EXPECT_EQ(outcome.result.termination, TerminationKind::stepLimit);
}

TEST(ServiceChaosTest, EveryInjectedJobFaultAnswersExactlyOnce)
{
    FaultInjector faults;
    faults.addRule(
        prefixRule("service.job/", FaultInjector::Action::hostException));
    ServiceConfig config;
    config.workers = 2;
    config.faults = &faults;
    AnalysisService service(config);

    std::atomic<int> done{0};
    std::atomic<int> host_faults{0};
    for (int i = 0; i < 6; i++) {
        ASSERT_EQ(service.submit(cleanRequest(),
                                 [&](const JobOutcome &outcome) {
                                     done++;
                                     if (outcome.result.termination ==
                                         TerminationKind::hostFault)
                                         host_faults++;
                                 }),
                  AdmitStatus::accepted);
    }
    service.drain(30000);
    // Exactly one structured callback per admitted job, every one a
    // hostFault (the injected exception), none lost, none doubled.
    EXPECT_EQ(done.load(), 6);
    EXPECT_EQ(host_faults.load(), 6);
    EXPECT_EQ(faults.visitsWithPrefix("service.job/"),
              faults.firingsWithPrefix("service.job/"));
}

// --- socket end to end ------------------------------------------------

TEST(ServiceServerTest, JobHealthAndBugRoundTrip)
{
    ServiceConfig config;
    config.workers = 2;
    ServerOptions options;
    options.socketPath = makeSocketPath("basic");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    Frame reply;
    ASSERT_TRUE(client.submitJob(cleanRequest(), &reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::jobResponse);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("schema"), "msulong.result/v1");
    EXPECT_EQ(doc.stringAt("termination"), "normal");
    EXPECT_EQ(doc.stringAt("output"), "total=55\n");
    EXPECT_EQ(doc.find("bug"), nullptr);

    JobRequest bug;
    bug.source = kBugSource;
    ASSERT_TRUE(client.submitJob(bug, &reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::jobResponse);
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    const obs::JsonValue *bug_doc = doc.find("bug");
    ASSERT_NE(bug_doc, nullptr);
    EXPECT_EQ(bug_doc->stringAt("kind"), "out-of-bounds");

    obs::JsonValue health;
    ASSERT_TRUE(client.health(&health, &error)) << error;
    EXPECT_EQ(health.stringAt("schema"), "msulong.health/v1");
    EXPECT_FALSE(health.boolAt("draining", true));
    EXPECT_EQ(health.uintAt("workers"), 2u);

    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
}

TEST(ServiceServerTest, CompileErrorComesBackStructured)
{
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("cerr");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    JobRequest request;
    request.source = "int main(void) { this does not compile }";
    Frame reply;
    ASSERT_TRUE(client.submitJob(request, &reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::jobResponse);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    const obs::JsonValue *bug = doc.find("bug");
    ASSERT_NE(bug, nullptr);
    EXPECT_EQ(bug->stringAt("kind"), "engine-error");
}

TEST(ServiceServerTest, DeepNestingIsBadRequestAndDaemonKeepsServing)
{
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("deep");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient hostile;
    ServiceClient other;
    ASSERT_TRUE(hostile.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(other.connect(options.socketPath, &error)) << error;
    const std::string sources[] = {
        "int main(void) { return " + std::string(20000, '(') + "1" +
            std::string(20000, ')') + "; }",
        "int main(void) " + std::string(50000, '{') +
            std::string(50000, '}'),
    };
    for (const std::string &source : sources) {
        JobRequest request;
        request.tenant = "hostile";
        request.source = source;
        Frame reply;
        ASSERT_TRUE(hostile.submitJob(request, &reply, &error)) << error;
        ASSERT_EQ(reply.type, FrameType::error);
        obs::JsonValue doc;
        ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
        EXPECT_EQ(doc.stringAt("code"), "bad-request");

        JobRequest clean = cleanRequest();
        clean.tenant = "other";
        ASSERT_TRUE(other.submitJob(clean, &reply, &error)) << error;
        ASSERT_EQ(reply.type, FrameType::jobResponse);
        ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
        EXPECT_EQ(doc.stringAt("output"), "total=55\n");
    }
    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
}

TEST(ServiceServerTest, Int64MinByMinusOneInitializerIsAnsweredDaemonKeepsServing)
{
    // The front end folds this initializer; a host division would trap
    // on INT64_MIN / -1 and take the daemon down with every tenant.
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("int64min");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    JobRequest request;
    request.source = "long g = (-9223372036854775807L - 1) / -1;\n"
                     "int main(void) { printf(\"%ld\\n\", g); return 0; }";
    Frame reply;
    ASSERT_TRUE(client.submitJob(request, &reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::jobResponse);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("output"), "-9223372036854775808\n");

    ASSERT_TRUE(client.submitJob(cleanRequest(), &reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::jobResponse);
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("output"), "total=55\n");
    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
}

TEST(ServiceServerTest, GarbageFrameEarnsErrorThenCloseDaemonSurvives)
{
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("garbage");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient bad;
    ASSERT_TRUE(bad.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(bad.sendRaw("NOT A FRAME AT ALL!!", &error)) << error;
    Frame reply;
    ASSERT_TRUE(bad.readFrame(&reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::error);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("code"), "malformed-frame");
    // The poisoned connection closes...
    EXPECT_FALSE(bad.readFrame(&reply, &error, 5000));

    // ...but the daemon keeps serving fresh clients.
    ServiceClient good;
    ASSERT_TRUE(good.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(good.submitJob(cleanRequest(), &reply, &error)) << error;
    EXPECT_EQ(reply.type, FrameType::jobResponse);
}

TEST(ServiceServerTest, OversizedFrameEarnsStructuredError)
{
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("oversize");
    options.maxFrameBytes = 4096;
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(client.sendRaw(
        encodeFrame(FrameType::jobRequest, std::string(5000, 'x')),
        &error));
    Frame reply;
    ASSERT_TRUE(client.readFrame(&reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::error);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("code"), "oversized-frame");
}

TEST(ServiceServerTest, TruncatedFrameThenEofIsQuietAndHarmless)
{
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("trunc");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    {
        ServiceClient cut;
        ASSERT_TRUE(cut.connect(options.socketPath, &error)) << error;
        std::string bytes =
            encodeFrame(FrameType::jobRequest, std::string(100, 'x'));
        ASSERT_TRUE(cut.sendRaw(bytes.substr(0, 20), &error)) << error;
        cut.close(); // EOF mid-frame
    }
    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    Frame reply;
    ASSERT_TRUE(client.submitJob(cleanRequest(), &reply, &error)) << error;
    EXPECT_EQ(reply.type, FrameType::jobResponse);
}

TEST(ServiceServerTest, BadJsonRequestKeepsTheConnectionAlive)
{
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("badjson");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(client.sendFrame(FrameType::jobRequest, "{oops", &error));
    Frame reply;
    ASSERT_TRUE(client.readFrame(&reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::error);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("code"), "bad-request");

    // Framing is intact, so the same connection still serves jobs.
    ASSERT_TRUE(client.submitJob(cleanRequest(), &reply, &error)) << error;
    EXPECT_EQ(reply.type, FrameType::jobResponse);
}

TEST(ServiceServerTest, WatchdogCancelsARunawayJob)
{
    ServiceConfig config;
    config.workers = 1;
    config.watchdogMs = 150;
    ServerOptions options;
    options.socketPath = makeSocketPath("watchdog");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    JobRequest spin;
    spin.source = kSpinSource;
    Frame reply;
    ASSERT_TRUE(client.submitJob(spin, &reply, &error, 60000)) << error;
    ASSERT_EQ(reply.type, FrameType::jobResponse);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("termination"), "cancelled");
}

TEST(ServiceServerTest, DrainAnswersEveryInFlightJobThenClosesSockets)
{
    FaultInjector faults;
    faults.addRule(prefixRule("service.job/",
                              FaultInjector::Action::delay, 1.0, 400));
    ServiceConfig config;
    config.workers = 1;
    config.faults = &faults;
    ServerOptions options;
    options.socketPath = makeSocketPath("drain");
    options.drainGraceMs = 100;
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    // Pipeline three requests without reading any response.
    std::string payload = encodeJobRequest(cleanRequest());
    for (int i = 0; i < 3; i++)
        ASSERT_TRUE(
            client.sendFrame(FrameType::jobRequest, payload, &error));
    // Give the daemon a moment to admit at least the first one.
    for (int spin = 0; spin < 200 && server.service().pending() == 0;
         spin++)
        ::usleep(5000);
    ASSERT_GT(server.service().pending(), 0u);

    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);

    // Sockets closed last: every admitted job's response (finished or
    // cancelled) and every drain rejection is already buffered for us.
    int structured = 0;
    Frame reply;
    while (client.readFrame(&reply, &error, 2000)) {
        obs::JsonValue doc;
        ASSERT_TRUE(obs::parseJson(reply.payload, &doc, &error)) << error;
        if (reply.type == FrameType::jobResponse) {
            const std::string &termination = doc.stringAt("termination");
            EXPECT_TRUE(termination == "normal" ||
                        termination == "cancelled")
                << termination;
        } else {
            ASSERT_EQ(reply.type, FrameType::error);
            EXPECT_EQ(doc.stringAt("code"), "draining");
        }
        structured++;
    }
    EXPECT_EQ(structured, 3);
    EXPECT_EQ(server.service().pending(), 0u);
}

TEST(ServiceServerTest, ClientDrainRequestIsAcknowledgedAndHonored)
{
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("drainreq");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(client.requestDrain(&error)) << error;
    EXPECT_EQ(server.runUntilDrained(), 0);
    EXPECT_TRUE(server.service().draining());
}

TEST(ServiceServerTest, InjectedDaemonFaultsDegradeOneClientEach)
{
    FaultInjector faults(/*seed=*/7);
    faults.addRule(prefixRule("service.job/",
                              FaultInjector::Action::hostException, 0.4));
    faults.addRule(prefixRule("service.write/",
                              FaultInjector::Action::hostException, 0.25));
    ServiceConfig config;
    config.workers = 2;
    config.faults = &faults;
    ServerOptions options;
    options.socketPath = makeSocketPath("chaos");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // One connection per job (a write fault costs its connection), and
    // every single submission must earn exactly one structured frame.
    int responses = 0;
    int error_frames = 0;
    for (int i = 0; i < 24; i++) {
        ServiceClient client;
        ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
        Frame reply;
        ASSERT_TRUE(client.submitJob(cleanRequest(), &reply, &error))
            << "job " << i << ": " << error;
        if (reply.type == FrameType::jobResponse)
            responses++;
        else if (reply.type == FrameType::error)
            error_frames++;
    }
    EXPECT_EQ(responses + error_frames, 24);

    // The daemon took every fault in stride: still healthy, drains 0.
    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    obs::JsonValue health;
    ASSERT_TRUE(client.health(&health, &error)) << error;
    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
}

TEST(ServiceServerTest, ResponsePayloadsAreIdenticalAcrossWorkerCounts)
{
    auto run = [](unsigned workers, const char *tag) {
        ServiceConfig config;
        config.workers = workers;
        ServerOptions options;
        options.socketPath = makeSocketPath(tag);
        ServiceServer server(config, options);
        std::string error;
        EXPECT_TRUE(server.start(&error)) << error;
        ServiceClient client;
        EXPECT_TRUE(client.connect(options.socketPath, &error)) << error;

        std::vector<JobRequest> requests;
        requests.push_back(cleanRequest());
        JobRequest bug;
        bug.source = kBugSource;
        requests.push_back(bug);
        JobRequest limited;
        limited.source = kSpinSource;
        limited.maxSteps = 50000;
        requests.push_back(limited);
        JobRequest analyzed = cleanRequest();
        analyzed.analyze = true;
        requests.push_back(analyzed);

        std::vector<std::string> payloads;
        for (const JobRequest &request : requests) {
            Frame reply;
            EXPECT_TRUE(client.submitJob(request, &reply, &error))
                << error;
            EXPECT_EQ(reply.type, FrameType::jobResponse);
            payloads.push_back(reply.payload);
        }
        return payloads;
    };
    // Sequential submissions assign the same job ids, and responses
    // carry no wall-clock fields, so the bytes must match exactly.
    EXPECT_EQ(run(1, "det1"), run(8, "det8"));
}

// --- observability ----------------------------------------------------

TEST(ProtocolTest, RejectedFramesAreCountedByReason)
{
    obs::setMetricsEnabled(true);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter &malformed =
        reg.counter("service.frames.rejected.malformed");
    obs::Counter &oversized =
        reg.counter("service.frames.rejected.oversized");
    obs::Counter &poisoned =
        reg.counter("service.frames.rejected.poisoned");
    uint64_t malformed0 = malformed.value();
    uint64_t oversized0 = oversized.value();
    uint64_t poisoned0 = poisoned.value();

    FrameReader garbage;
    garbage.feed("not-a-frame-at-all");
    Frame out;
    EXPECT_EQ(garbage.next(&out), DecodeStatus::badMagic);
    EXPECT_EQ(malformed.value(), malformed0 + 1);
    // Bytes after the poison are discarded and counted once per feed.
    size_t buffered_at_poison = garbage.buffered();
    garbage.feed("more bytes");
    EXPECT_EQ(poisoned.value(), poisoned0 + 1);
    EXPECT_EQ(garbage.buffered(), buffered_at_poison);

    FrameReader small(/*max_frame_bytes=*/16);
    small.feed(encodeFrame(FrameType::jobRequest,
                           std::string(64, 'x')));
    EXPECT_EQ(small.next(&out), DecodeStatus::oversized);
    EXPECT_EQ(oversized.value(), oversized0 + 1);

    obs::setMetricsEnabled(false);
}

TEST(ServiceServerTest, TraceContextPropagatesIntoDaemonSpans)
{
    obs::TraceCollector::global().drain();
    obs::setTracingEnabled(true);
    ServiceConfig config;
    config.workers = 1;
    ServerOptions options;
    options.socketPath = makeSocketPath("trace");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    Frame reply;
    ASSERT_TRUE(client.submitTracedJob(cleanRequest(), &reply, &error))
        << error;
    EXPECT_EQ(reply.type, FrameType::jobResponse);
    // The job response itself carries no trace fields — identity
    // travels out-of-band through the stats frame only.
    EXPECT_EQ(reply.payload.find("trace"), std::string::npos);

    // The daemon's worker may still be closing its spans when the
    // reply lands; poll the stats frame until they appear.
    StatsRequest stats_request;
    stats_request.traceId = client.traceId();
    std::string client_span;
    bool adopted = false;
    for (int i = 0; i < 100 && !adopted; i++) {
        obs::JsonValue stats;
        ASSERT_TRUE(client.stats(stats_request, &stats, &error)) << error;
        const obs::JsonValue *events = stats.find("trace_events");
        ASSERT_NE(events, nullptr);
        for (const obs::JsonValue &event : events->elements()) {
            if (event.stringAt("name") == "client.submit")
                client_span = event.stringAt("span_id");
        }
        for (const obs::JsonValue &event : events->elements()) {
            if (event.stringAt("name") == "service.job" &&
                !client_span.empty() &&
                event.stringAt("parent_span") == client_span)
                adopted = true;
        }
        if (!adopted)
            ::usleep(10000);
    }
    // The client's span id is the daemon span's PARENT: one trace,
    // two processes, joined at the submit seam.
    EXPECT_FALSE(client_span.empty());
    EXPECT_TRUE(adopted);

    obs::setTracingEnabled(false);
    obs::TraceCollector::global().drain();
    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
}

TEST(ServiceServerTest, ResponsePayloadsIdenticalWithTracingOnOrOff)
{
    auto run = [](unsigned workers, const char *tag, bool traced) {
        if (traced)
            obs::setTracingEnabled(true);
        ServiceConfig config;
        config.workers = workers;
        ServerOptions options;
        options.socketPath = makeSocketPath(tag);
        ServiceServer server(config, options);
        std::string error;
        EXPECT_TRUE(server.start(&error)) << error;
        ServiceClient client;
        EXPECT_TRUE(client.connect(options.socketPath, &error)) << error;

        std::vector<std::string> payloads;
        for (int i = 0; i < 3; i++) {
            JobRequest request = cleanRequest();
            if (i == 1)
                request.source = kBugSource;
            Frame reply;
            bool sent = traced
                ? client.submitTracedJob(request, &reply, &error)
                : client.submitJob(request, &reply, &error);
            EXPECT_TRUE(sent) << error;
            EXPECT_EQ(reply.type, FrameType::jobResponse);
            payloads.push_back(reply.payload);
        }
        server.requestDrain();
        EXPECT_EQ(server.runUntilDrained(), 0);
        if (traced) {
            obs::setTracingEnabled(false);
            obs::TraceCollector::global().drain();
        }
        return payloads;
    };
    // The tentpole's determinism gate: result payloads are bytewise
    // unaffected by tracing and by the worker count.
    std::vector<std::string> plain = run(1, "tron1", false);
    EXPECT_EQ(plain, run(1, "tron2", true));
    EXPECT_EQ(plain, run(8, "tron3", true));
}

TEST(ServiceServerTest, PostmortemOnJobDeathDroppedOnSuccess)
{
    ServiceConfig config;
    config.workers = 1;
    config.postmortemKeep = 4;
    ServerOptions options;
    options.socketPath = makeSocketPath("postmortem");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // A clean job leaves no postmortem behind.
    Frame reply;
    ASSERT_TRUE(client.submitJob(cleanRequest(), &reply, &error)) << error;
    ASSERT_EQ(reply.type, FrameType::jobResponse);
    EXPECT_TRUE(server.service().recentPostmortems().empty());

    // A detected bug is a death: the flight recorder is dumped.
    JobRequest bug = cleanRequest();
    bug.source = kBugSource;
    ASSERT_TRUE(client.submitJob(bug, &reply, &error)) << error;
    std::vector<std::string> postmortems =
        server.service().recentPostmortems();
    ASSERT_EQ(postmortems.size(), 1u);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(postmortems[0], &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("schema"), "msulong.postmortem/v1");
    EXPECT_EQ(doc.stringAt("bug_kind"), "out-of-bounds");
    EXPECT_EQ(doc.stringAt("tenant"), "default");
    const obs::JsonValue *events = doc.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_FALSE(events->elements().empty());
    bool sawDone = false;
    for (const obs::JsonValue &event : events->elements())
        sawDone |= event.stringAt("name") == "job.done";
    EXPECT_TRUE(sawDone);

    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
}

TEST(ServiceServerTest, PostmortemRecordsInjectedFaultFirings)
{
    FaultInjector faults(/*seed=*/3);
    faults.addRule(
        prefixRule("service.job/", FaultInjector::Action::hostException));
    ServiceConfig config;
    config.workers = 1;
    config.faults = &faults;
    ServerOptions options;
    options.socketPath = makeSocketPath("pmfault");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    Frame reply;
    ASSERT_TRUE(client.submitJob(cleanRequest(), &reply, &error)) << error;
    std::vector<std::string> postmortems =
        server.service().recentPostmortems();
    ASSERT_EQ(postmortems.size(), 1u);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(postmortems[0], &doc, &error)) << error;
    EXPECT_GE(doc.uintAt("fault_firings"), 1u);
    bool sawFault = false;
    for (const obs::JsonValue &event : doc.find("events")->elements())
        sawFault |= event.stringAt("name") == "job.host_fault";
    EXPECT_TRUE(sawFault);

    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
}

TEST(ServiceServerTest, StatsFrameAnswersUnderLoadInBothFormats)
{
    obs::setMetricsEnabled(true);
    ServiceConfig config;
    config.workers = 2;
    ServerOptions options;
    options.socketPath = makeSocketPath("stats");
    ServiceServer server(config, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::atomic<bool> stop{false};
    std::thread load([&options, &stop] {
        ServiceClient client;
        std::string err;
        if (!client.connect(options.socketPath, &err))
            return;
        while (!stop.load()) {
            Frame reply;
            if (!client.submitJob(cleanRequest(), &reply, &err))
                break;
        }
    });

    ServiceClient client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    for (int i = 0; i < 10; i++) {
        StatsRequest request;
        obs::JsonValue stats;
        ASSERT_TRUE(client.stats(request, &stats, &error)) << error;
        EXPECT_EQ(stats.stringAt("schema"), "msulong.stats/v1");
        ASSERT_NE(stats.find("window"), nullptr);
        EXPECT_EQ(stats.find("window")->uintAt("window_ms"), 60000u);
        ASSERT_NE(stats.find("metrics"), nullptr);
        EXPECT_EQ(stats.find("metrics")->stringAt("schema"), "obs/v1");

        request.format = "prometheus";
        obs::JsonValue expo;
        ASSERT_TRUE(client.stats(request, &expo, &error)) << error;
        EXPECT_EQ(expo.stringAt("format"), "prometheus");
        EXPECT_NE(expo.stringAt("expo").find("# TYPE"),
                  std::string::npos);
    }
    // The sliding window saw the admissions the load generated. The
    // load thread's first admission may still be in flight, so poll
    // until it lands or a generous deadline passes.
    StatsRequest request;
    obs::JsonValue stats;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        ASSERT_TRUE(client.stats(request, &stats, &error)) << error;
        if (stats.find("window")->uintAt("admitted") > 0 ||
            std::chrono::steady_clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(stats.find("window")->uintAt("admitted"), 0u);

    stop.store(true);
    load.join();
    obs::setMetricsEnabled(false);
    server.requestDrain();
    EXPECT_EQ(server.runUntilDrained(), 0);
    obs::MetricsRegistry::global().reset();
}

} // namespace
} // namespace sulong::service
