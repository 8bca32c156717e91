/**
 * @file
 * Telemetry-layer tests: histogram bucket math, striped-counter merge
 * correctness under thread_pool contention, span nesting/ordering,
 * trace- and metrics-JSON round trips through the validating parser,
 * the jobs=1 vs jobs=8 counter-determinism contract, compile-cache LRU
 * eviction, and the disabled-by-default guarantee.
 */

#include "test_util.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/analyzer.h"
#include "corpus/corpus.h"
#include "obs/expo.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "support/thread_pool.h"
#include "tools/batch_runner.h"
#include "tools/compile_cache.h"

namespace sulong
{
namespace
{

using obs::Counter;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceCollector;
using obs::TraceEvent;

/**
 * Collection is process-global state; every test that turns it on
 * restores the off default so suites stay order-independent.
 */
struct MetricsOn
{
    MetricsOn() { obs::setMetricsEnabled(true); }
    ~MetricsOn() { obs::setMetricsEnabled(false); }
};

struct TracingOn
{
    TracingOn()
    {
        obs::setTracingEnabled(true);
        // Start from an empty ring: earlier tests may have traced.
        TraceCollector::global().drain();
    }
    ~TracingOn() { obs::setTracingEnabled(false); }
};

std::string
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buf;
    buf << file.rdbuf();
    return buf.str();
}

TEST(HistogramTest, BucketIndexAndBounds)
{
    // Bucket 0 holds only zeros; bucket k holds [2^(k-1), 2^k - 1].
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    EXPECT_EQ(Histogram::bucketIndex(~uint64_t{0}), 64u);

    EXPECT_EQ(Histogram::bucketLowerBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketLowerBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketLowerBound(2), 2u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Histogram::bucketLowerBound(11), 1024u);
    EXPECT_EQ(Histogram::bucketUpperBound(11), 2047u);
    EXPECT_EQ(Histogram::bucketLowerBound(64), uint64_t{1} << 63);
    EXPECT_EQ(Histogram::bucketUpperBound(64), ~uint64_t{0});

    // Every value falls inside its own bucket's inclusive range.
    for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull, 1000ull,
                       1024ull, 123456789ull}) {
        unsigned idx = Histogram::bucketIndex(v);
        EXPECT_GE(v, Histogram::bucketLowerBound(idx)) << v;
        EXPECT_LE(v, Histogram::bucketUpperBound(idx)) << v;
    }
}

TEST(HistogramTest, SnapshotMaterializesOnlyNonEmptyBuckets)
{
    MetricsOn on;
    Histogram hist("test.hist");
    hist.record(0);
    hist.record(1);
    hist.record(1);
    hist.record(1500); // bucket 11: [1024, 2047]

    HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 4u);
    EXPECT_EQ(snap.sum, 1502u);
    ASSERT_EQ(snap.buckets.size(), 3u);
    EXPECT_EQ(snap.buckets[0].lo, 0u);
    EXPECT_EQ(snap.buckets[0].hi, 0u);
    EXPECT_EQ(snap.buckets[0].count, 1u);
    EXPECT_EQ(snap.buckets[1].lo, 1u);
    EXPECT_EQ(snap.buckets[1].hi, 1u);
    EXPECT_EQ(snap.buckets[1].count, 2u);
    EXPECT_EQ(snap.buckets[2].lo, 1024u);
    EXPECT_EQ(snap.buckets[2].hi, 2047u);
    EXPECT_EQ(snap.buckets[2].count, 1u);

    hist.reset();
    EXPECT_EQ(hist.snapshot().count, 0u);
    EXPECT_TRUE(hist.snapshot().buckets.empty());
}

TEST(CounterTest, StripedMergeIsExactUnderContention)
{
    MetricsOn on;
    Counter counter("test.contended");

    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIncsPerThread = 100000;
    {
        ThreadPool pool(kThreads);
        for (unsigned t = 0; t < kThreads; t++) {
            pool.submit([&counter] {
                for (uint64_t i = 0; i < kIncsPerThread; i++)
                    counter.inc();
            });
        }
        pool.waitIdle();
    }
    EXPECT_EQ(counter.value(), kThreads * kIncsPerThread);

    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(CounterTest, DisabledCollectionRecordsNothing)
{
    ASSERT_FALSE(obs::metricsEnabled());
    Counter counter("test.disabled");
    counter.inc(42);
    EXPECT_EQ(counter.value(), 0u);

    Histogram hist("test.disabled.hist");
    hist.record(7);
    EXPECT_EQ(hist.snapshot().count, 0u);

    // Spans short-circuit at construction when tracing is off.
    ASSERT_FALSE(obs::tracingEnabled());
    TraceCollector::global().drain();
    {
        MS_TRACE_SPAN("test.disabled.span");
    }
    EXPECT_TRUE(TraceCollector::global().drain().empty());
}

TEST(RegistryTest, HandlesAreStableAndResetKeepsThem)
{
    MetricsOn on;
    MetricsRegistry &reg = MetricsRegistry::global();
    Counter &c = reg.counter("obs_test.registry.counter");
    Counter &again = reg.counter("obs_test.registry.counter");
    EXPECT_EQ(&c, &again);

    c.inc(3);
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("obs_test.registry.counter"), 3u);

    reg.reset();
    // Zero-valued metrics are skipped by snapshot...
    EXPECT_EQ(reg.snapshot().counters.count("obs_test.registry.counter"),
              0u);
    // ...but the old handle still works after the reset.
    c.inc();
    EXPECT_EQ(reg.snapshot().counters.at("obs_test.registry.counter"), 1u);
}

TEST(TraceTest, SpanNestingAndDrainOrdering)
{
    TracingOn on;
    {
        MS_TRACE_SPAN("outer");
        {
            MS_TRACE_SPAN("inner", "detail-text");
            // Give the inner span measurable width so the outer span is
            // strictly longer and the (ts, -dur) sort is unambiguous.
            volatile uint64_t sink = 0;
            for (int i = 0; i < 50000; i++)
                sink = sink + static_cast<uint64_t>(i);
        }
        obs::traceInstant("mark");
    }

    std::vector<TraceEvent> events = TraceCollector::global().drain();
    ASSERT_EQ(events.size(), 3u);

    // Sorted by start time: the outer span opened first, so it precedes
    // the inner span it contains; the instant fired last.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[2].name, "mark");
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_EQ(events[2].phase, 'i');
    EXPECT_EQ(events[1].detail, "detail-text");

    // Containment: inner lies inside [outer.ts, outer.ts + outer.dur].
    const TraceEvent &outer = events[0];
    const TraceEvent &inner = events[1];
    EXPECT_LE(outer.tsNs, inner.tsNs);
    EXPECT_GE(outer.tsNs + outer.durNs, inner.tsNs + inner.durNs);

    // drain(clear=true) emptied the rings.
    EXPECT_TRUE(TraceCollector::global().drain().empty());
}

TEST(TraceTest, AnalysisPhasesNestUnderTheModuleSpan)
{
    PreparedProgram prepared = prepareProgram(
        "static int pick(int n) { return n + 3; }\n"
        "int main(void) { int a[4]; a[pick(0)] = 1; return a[3]; }\n",
        ToolConfig::make(ToolKind::safeSulong));
    ASSERT_TRUE(prepared.ok()) << prepared.compileErrors;

    TracingOn on;
    analyzeModule(*prepared.module);
    std::vector<TraceEvent> events = TraceCollector::global().drain();

    auto find = [&events](const char *name) -> const TraceEvent * {
        for (const TraceEvent &e : events)
            if (e.name == name)
                return &e;
        return nullptr;
    };
    const TraceEvent *module = find("analysis.module");
    const TraceEvent *callgraph = find("analysis.callgraph");
    const TraceEvent *fixpoint = find("analysis.fixpoint");
    const TraceEvent *refute = find("analysis.refute");
    ASSERT_NE(module, nullptr);
    ASSERT_NE(callgraph, nullptr);
    ASSERT_NE(fixpoint, nullptr);
    ASSERT_NE(refute, nullptr);

    // The call graph, then the fixpoint (with its findings sweep), then
    // the refutation replay, each inside the module span.
    uint64_t moduleEnd = module->tsNs + module->durNs;
    for (const TraceEvent *phase : {callgraph, fixpoint, refute}) {
        EXPECT_LE(module->tsNs, phase->tsNs) << phase->name;
        EXPECT_LE(phase->tsNs + phase->durNs, moduleEnd) << phase->name;
    }
    EXPECT_LE(callgraph->tsNs + callgraph->durNs, fixpoint->tsNs);
    EXPECT_LE(fixpoint->tsNs + fixpoint->durNs, refute->tsNs);
}

TEST(TraceTest, RingOverwritesOldestAndCountsDropped)
{
    TracingOn on;
    TraceCollector &collector = TraceCollector::global();
    collector.setCapacityPerThread(4);
    // Capacity applies to rings created after the call, so record from
    // a fresh thread.
    std::thread([&collector] {
        for (int i = 0; i < 10; i++)
            obs::traceInstant("evt" + std::to_string(i));
    }).join();

    // 10 events into a 4-slot ring: 6 overwritten.
    EXPECT_EQ(collector.dropped(), 6u);
    std::vector<TraceEvent> events = collector.drain();
    EXPECT_EQ(collector.dropped(), 0u); // drain(clear) resets the count
    // The survivors are the newest four, still in timestamp order.
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().name, "evt6");
    EXPECT_EQ(events.back().name, "evt9");
    collector.setCapacityPerThread(TraceCollector::kDefaultCapacityPerThread);
}

TEST(JsonTest, EscaperHandlesControlsQuotesAndHighBytes)
{
    EXPECT_EQ(obs::jsonEscape("plain ascii"), "plain ascii");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(obs::jsonEscape("line\nbreak\r"), "line\\nbreak\\r");
    EXPECT_EQ(obs::jsonEscape(std::string("\x01\x1f", 2)),
              "\\u0001\\u001f");
    // DEL and high bytes must not pass through raw (and must not
    // sign-extend into \uffXX).
    EXPECT_EQ(obs::jsonEscape("\x7f"), "\\u007f");
    EXPECT_EQ(obs::jsonEscape("caf\xc3\xa9"), "caf\\u00c3\\u00a9");
    // Embedded NUL survives as an escape, not a truncation.
    EXPECT_EQ(obs::jsonEscape(std::string_view("a\0b", 3)), "a\\u0000b");

    // Whatever the escaper emits must parse as a JSON string.
    std::string nasty;
    for (int c = 0; c < 256; c++)
        nasty += static_cast<char>(c);
    std::string doc = "\"" + obs::jsonEscape(nasty) + "\"";
    std::string error;
    EXPECT_TRUE(obs::validateJson(doc, &error)) << error;
}

TEST(JsonTest, ValidatorAcceptsGoodAndRejectsBad)
{
    EXPECT_TRUE(obs::validateJson("{}"));
    EXPECT_TRUE(obs::validateJson("[1, -2.5, 1e9, \"x\", true, null]"));
    EXPECT_TRUE(obs::validateJson("{\"a\": {\"b\": [0.125]}}"));

    EXPECT_FALSE(obs::validateJson(""));
    EXPECT_FALSE(obs::validateJson("{"));
    EXPECT_FALSE(obs::validateJson("{\"a\":}"));
    EXPECT_FALSE(obs::validateJson("[1,]"));
    EXPECT_FALSE(obs::validateJson("\"unterminated"));
    EXPECT_FALSE(obs::validateJson("\"raw\ncontrol\""));
    EXPECT_FALSE(obs::validateJson("{} trailing"));
    EXPECT_FALSE(obs::validateJson("01x"));
}

TEST(JsonTest, ParserBuildsTypedValuesPreservingMemberOrder)
{
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(
        "{\"n\": 42, \"neg\": -1, \"frac\": 2.5, \"s\": \"a\\\"b\\n\","
        " \"t\": true, \"z\": null, \"arr\": [1, \"two\", false],"
        " \"obj\": {\"inner\": 7}}",
        &doc, &error))
        << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.uintAt("n"), 42u);
    // Counts-only contract: negative and fractional fall back.
    EXPECT_EQ(doc.uintAt("neg", 99), 99u);
    EXPECT_EQ(doc.uintAt("frac", 99), 99u);
    EXPECT_EQ(doc.find("frac")->asDouble(), 2.5);
    EXPECT_EQ(doc.stringAt("s"), "a\"b\n");
    EXPECT_TRUE(doc.boolAt("t"));
    EXPECT_TRUE(doc.find("z")->isNull());
    ASSERT_NE(doc.find("arr"), nullptr);
    ASSERT_EQ(doc.find("arr")->elements().size(), 3u);
    EXPECT_EQ(doc.find("arr")->elements()[1].asString(), "two");
    EXPECT_EQ(doc.find("obj")->uintAt("inner"), 7u);
    // Member order is insertion order, so re-emission is deterministic.
    EXPECT_EQ(doc.members().front().first, "n");
    EXPECT_EQ(doc.members().back().first, "obj");
    // Missing keys and wrong types are fallbacks, never throws.
    EXPECT_EQ(doc.find("nope"), nullptr);
    EXPECT_EQ(doc.uintAt("s", 5), 5u);
    EXPECT_EQ(doc.stringAt("n", "dflt"), "dflt");
}

TEST(JsonTest, ParserRejectsMalformedInputAndRoundTripsEscapes)
{
    obs::JsonValue doc;
    std::string error;
    EXPECT_FALSE(obs::parseJson("{\"a\":", &doc, &error));
    EXPECT_FALSE(obs::parseJson("[1,]", &doc, &error));
    EXPECT_FALSE(obs::parseJson("", &doc, &error));

    // jsonEscape output parses back to the original bytes, including
    // high bytes escaped as \u00XX.
    std::string raw = "quote\" slash\\ ctrl\x01 high\xC3\xA9";
    ASSERT_TRUE(obs::parseJson("\"" + obs::jsonEscape(raw) + "\"", &doc,
                               &error))
        << error;
    EXPECT_EQ(doc.asString(), raw);
}

TEST(JsonTest, ChromeTraceRoundTrip)
{
    TracingOn on;
    {
        MS_TRACE_SPAN("roundtrip.span", "with \"quotes\" and \n newline");
        obs::traceInstant("roundtrip.instant");
    }

    const std::string path = "obs_test_trace.json";
    std::string error;
    ASSERT_TRUE(obs::writeChromeTrace(path, &error)) << error;

    std::string text = readFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(obs::validateJson(text, &error)) << error;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"roundtrip.span\""), std::string::npos);
    EXPECT_NE(text.find("\"roundtrip.instant\""), std::string::npos);
    EXPECT_NE(text.find("\\\"quotes\\\""), std::string::npos);
    // Instants carry Chrome's scope field; spans carry durations.
    EXPECT_NE(text.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\":"), std::string::npos);
}

TEST(JsonTest, MetricsRoundTripCarriesSchemaAndBuckets)
{
    MetricsOn on;
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    reg.counter("obs_test.json.counter").inc(5);
    reg.gauge("obs_test.json.gauge").set(-3);
    reg.histogram("obs_test.json.hist").record(1500);

    const std::string path = "obs_test_metrics.json";
    std::string error;
    ASSERT_TRUE(obs::writeMetricsJson(path, &error)) << error;

    std::string text = readFile(path);
    std::remove(path.c_str());
    EXPECT_TRUE(obs::validateJson(text, &error)) << error;
    EXPECT_NE(text.find("\"schema\":\"obs/v1\""), std::string::npos);
    EXPECT_NE(text.find("\"obs_test.json.counter\":5"), std::string::npos);
    EXPECT_NE(text.find("\"obs_test.json.gauge\":-3"), std::string::npos);
    // The 1500 landed in log2 bucket [1024, 2047].
    EXPECT_NE(text.find("[1024,2047,1]"), std::string::npos);
    reg.reset();
}

TEST(CompileCacheTest, LruEvictionKeepsInFlightEntriesAlive)
{
    const char *srcA = "int main(void) { return 11; }\n";
    const char *srcB = "int main(void) { return 22; }\n";
    auto sources = [](const char *text) {
        return std::vector<SourceFile>{SourceFile{"<obs_test>", text}};
    };

    CompileCache cache;
    cache.setCapacity(1);

    auto a = cache.getOrCompile(sources(srcA), LibcVariant::safe, -1);
    ASSERT_TRUE(a->ok()) << a->errors;
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Second key displaces the first (capacity 1)...
    auto b = cache.getOrCompile(sources(srcB), LibcVariant::safe, -1);
    ASSERT_TRUE(b->ok()) << b->errors;
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    // ...but eviction only dropped the cache's reference: the handle we
    // hold still works.
    EXPECT_TRUE(a->ok());

    // Re-requesting the evicted stage recompiles it.
    auto a2 = cache.getOrCompile(sources(srcA), LibcVariant::safe, -1);
    ASSERT_TRUE(a2->ok()) << a2->errors;
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().evictions, 2u);

    // And asking again while it is resident is a hit.
    auto a3 = cache.getOrCompile(sources(srcA), LibcVariant::safe, -1);
    EXPECT_EQ(a2->prototype.get(), a3->prototype.get());
    EXPECT_EQ(cache.stats().hits, 1u);
}

/**
 * The determinism contract: counters never record wall-clock values
 * (those only feed histograms), so a batch run's counter totals are
 * identical for any worker count. Spans and timing histograms may
 * differ; the counter map may not.
 */
TEST(DeterminismTest, CounterTotalsMatchAcrossJobCounts)
{
    MetricsOn on;
    MetricsRegistry &reg = MetricsRegistry::global();

    const auto &corpus = bugCorpus();
    const size_t kEntries = 10;
    ASSERT_GE(corpus.size(), kEntries);
    std::vector<BatchJob> jobs;
    for (size_t i = 0; i < kEntries; i++) {
        jobs.push_back(BatchJob::make(
            corpus[i].source, ToolConfig::make(ToolKind::safeSulong),
            corpus[i].args, corpus[i].stdinData));
    }

    // A process compiles its libc once; build it before either run so
    // both start from the same process state.
    libcPrototype();
    auto runWithJobs = [&](unsigned workers) {
        reg.reset();
        BatchOptions options;
        options.jobs = workers;
        runBatch(jobs, options);
        return reg.snapshot().counters;
    };

    std::map<std::string, uint64_t> serial = runWithJobs(1);
    std::map<std::string, uint64_t> parallel = runWithJobs(8);
    reg.reset();

    // The runs exercised the interesting counters at all.
    EXPECT_GT(serial.at("batch.jobs"), 0u);
    EXPECT_GT(serial.at("managed.steps.tier1"), 0u);
    EXPECT_GT(serial.at("compile_cache.misses"), 0u);

    EXPECT_EQ(serial.size(), parallel.size());
    for (const auto &[name, value] : serial) {
        auto it = parallel.find(name);
        ASSERT_NE(it, parallel.end()) << name << " missing in parallel run";
        EXPECT_EQ(value, it->second) << name << " diverged across job counts";
    }
}

TEST(HistogramTest, PercentileInterpolatesWithinBuckets)
{
    MetricsOn on;
    Histogram hist("test.pct");

    // Empty histogram: every quantile is 0.
    EXPECT_EQ(hist.snapshot().percentile(0.5), 0u);

    // All mass in one bucket: every quantile lands inside it.
    for (int i = 0; i < 100; i++)
        hist.record(10); // bucket [8, 15]
    HistogramSnapshot snap = hist.snapshot();
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_GE(snap.percentile(q), 8u) << q;
        EXPECT_LE(snap.percentile(q), 15u) << q;
    }

    // Bimodal: 90 small values, 10 large ones. The p50 must stay in
    // the small bucket, the p99 must reach the large one, and the
    // sequence must be monotone.
    hist.reset();
    for (int i = 0; i < 90; i++)
        hist.record(10); // [8, 15]
    for (int i = 0; i < 10; i++)
        hist.record(5000); // [4096, 8191]
    snap = hist.snapshot();
    uint64_t p50 = snap.percentile(0.50);
    uint64_t p90 = snap.percentile(0.90);
    uint64_t p99 = snap.percentile(0.99);
    EXPECT_GE(p50, 8u);
    EXPECT_LE(p50, 15u);
    EXPECT_GE(p99, 4096u);
    EXPECT_LE(p99, 8191u);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);

    // Out-of-range q clamps instead of misbehaving.
    EXPECT_EQ(snap.percentile(-1.0), snap.percentile(0.0));
    EXPECT_EQ(snap.percentile(2.0), snap.percentile(1.0));
}

TEST(SlidingWindowTest, LazyRotationExpiresOldBuckets)
{
    obs::SlidingWindow window(/*bucket_count=*/3, /*bucket_width_ms=*/1000);
    EXPECT_EQ(window.windowMs(), 3000u);

    window.record(1000, 5); // epoch 1
    window.record(2500, 2); // epoch 2
    EXPECT_EQ(window.totalInWindow(2500), 7u);

    // At t=4500 the window covers epochs [2, 4]: epoch 1 has expired.
    EXPECT_EQ(window.totalInWindow(4500), 2u);

    // Writing into a slot holding a stale epoch resets it rather than
    // accumulating into ancient history (slot 4 % 3 == slot 1 % 3).
    window.record(4500, 1);
    EXPECT_EQ(window.totalInWindow(4500), 3u);

    // Far in the future everything has rotated out.
    EXPECT_EQ(window.totalInWindow(60000), 0u);

    // Rate scales the window sum by the covered seconds.
    obs::SlidingWindow rate(/*bucket_count=*/10, /*bucket_width_ms=*/100);
    rate.record(500, 10);
    EXPECT_NEAR(rate.ratePerSec(500), 10.0, 1e-9);
}

TEST(ExpoTest, NameSplittingSanitizationAndEscaping)
{
    auto [plain, no_labels] = obs::splitLabeledName("service.admitted");
    EXPECT_EQ(plain, "service.admitted");
    EXPECT_EQ(no_labels, "");
    auto [base, labels] =
        obs::splitLabeledName("service.tenant.admitted{tenant=\"acme\"}");
    EXPECT_EQ(base, "service.tenant.admitted");
    EXPECT_EQ(labels, "{tenant=\"acme\"}");

    EXPECT_EQ(obs::prometheusName("service.jobs.ok"), "service_jobs_ok");
    EXPECT_EQ(obs::prometheusName("bugs.out-of-bounds"),
              "bugs_out_of_bounds");
    EXPECT_EQ(obs::prometheusName("9lives"), "_9lives");

    EXPECT_EQ(obs::prometheusLabelEscape("plain"), "plain");
    EXPECT_EQ(obs::prometheusLabelEscape("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
}

TEST(ExpoTest, PrometheusTextCarriesTypesLabelsAndCumulativeBuckets)
{
    MetricsOn on;
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    reg.counter("obs_test.expo.counter").inc(5);
    reg.counter("obs_test.expo.labeled{tenant=\"a b\"}").inc(2);
    reg.gauge("obs_test.expo.gauge").set(-3);
    Histogram &hist = reg.histogram("obs_test.expo.hist");
    hist.record(1);    // bucket [1, 1]
    hist.record(1500); // bucket [1024, 2047]

    std::string text = obs::prometheusText(reg.snapshot());
    reg.reset();

    EXPECT_NE(text.find("# TYPE obs_test_expo_counter counter"),
              std::string::npos);
    EXPECT_NE(text.find("obs_test_expo_counter 5\n"), std::string::npos);
    // Labels survive the round trip out of the flat registry name.
    EXPECT_NE(text.find("obs_test_expo_labeled{tenant=\"a b\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE obs_test_expo_gauge gauge"),
              std::string::npos);
    EXPECT_NE(text.find("obs_test_expo_gauge -3\n"), std::string::npos);
    // Cumulative histogram series ending at +Inf == _count.
    EXPECT_NE(text.find("obs_test_expo_hist_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("obs_test_expo_hist_bucket{le=\"2047\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("obs_test_expo_hist_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("obs_test_expo_hist_sum 1501\n"),
              std::string::npos);
    EXPECT_NE(text.find("obs_test_expo_hist_count 2\n"),
              std::string::npos);
    // Interpolated percentiles ride along as companion gauges.
    EXPECT_NE(text.find("# TYPE obs_test_expo_hist_p50 gauge"),
              std::string::npos);
    EXPECT_NE(text.find("obs_test_expo_hist_p99 "), std::string::npos);
}

TEST(FlightRecorderTest, RingKeepsNewestEventsOldestFirst)
{
    // NOT gated on the metrics switch: creation is the opt-in.
    ASSERT_FALSE(obs::metricsEnabled());
    obs::FlightRecorder recorder(4);
    for (int i = 0; i < 6; i++)
        recorder.note("evt" + std::to_string(i), i % 2 ? "odd" : "");

    EXPECT_EQ(recorder.recorded(), 6u);
    std::vector<obs::FlightRecorder::Event> events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().name, "evt2");
    EXPECT_EQ(events.back().name, "evt5");
    EXPECT_EQ(events.back().detail, "odd");
    for (size_t i = 1; i < events.size(); i++)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
}

TEST(FlightRecorderTest, PostmortemJsonIsValidatedAndComplete)
{
    obs::FlightRecorder recorder(8);
    recorder.note("job.attempt", "attempt 1");
    recorder.note("job.host_fault", "injected \"quote\"");

    obs::PostmortemInfo info;
    info.jobId = 42;
    info.tenant = "acme";
    info.tool = "safe";
    info.traceId = std::string(32, 'a');
    info.termination = "host-fault";
    info.terminationDetail = "injected fault";
    info.attempts = 2;
    info.faultFirings = 1;

    std::string doc_text = obs::postmortemJson(info, recorder);
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(doc_text, &doc, &error)) << error;
    EXPECT_EQ(doc.stringAt("schema"), "msulong.postmortem/v1");
    EXPECT_EQ(doc.uintAt("job"), 42u);
    EXPECT_EQ(doc.stringAt("tenant"), "acme");
    EXPECT_EQ(doc.stringAt("trace_id"), std::string(32, 'a'));
    EXPECT_EQ(doc.stringAt("termination"), "host-fault");
    EXPECT_EQ(doc.uintAt("attempts"), 2u);
    EXPECT_EQ(doc.uintAt("fault_firings"), 1u);
    const obs::JsonValue *events = doc.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->elements().size(), 2u);
    EXPECT_EQ(events->elements()[1].stringAt("name"), "job.host_fault");
    EXPECT_EQ(events->elements()[1].stringAt("detail"),
              "injected \"quote\"");
}

TEST(TraceTest, ContextScopeChainsParentsAndRestores)
{
    TracingOn on;
    const std::string trace_id(32, 'b');
    {
        obs::TraceContextScope scope(obs::TraceContext{trace_id, 77});
        {
            MS_TRACE_SPAN("ctx.outer");
            {
                MS_TRACE_SPAN("ctx.inner");
            }
        }
        // Both spans closed: the remote parent is current again.
        EXPECT_EQ(obs::currentTraceContext().spanId, 77u);
    }
    EXPECT_FALSE(obs::currentTraceContext().active());

    std::vector<TraceEvent> events = TraceCollector::global().drain();
    ASSERT_EQ(events.size(), 2u);
    const TraceEvent &outer = events[0];
    const TraceEvent &inner = events[1];
    EXPECT_EQ(outer.name, "ctx.outer");
    EXPECT_EQ(outer.traceId, trace_id);
    EXPECT_EQ(outer.parentSpan, 77u);
    EXPECT_NE(outer.spanId, 0u);
    EXPECT_EQ(inner.traceId, trace_id);
    EXPECT_EQ(inner.parentSpan, outer.spanId);
    EXPECT_NE(inner.spanId, outer.spanId);

    // Without a context, spans carry no trace identity.
    {
        MS_TRACE_SPAN("ctx.none");
    }
    events = TraceCollector::global().drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].traceId.empty());
    EXPECT_EQ(events[0].spanId, 0u);
}

TEST(TraceTest, RemoteContextOptsInWithoutLocalTracing)
{
    ASSERT_FALSE(obs::tracingEnabled());
    TraceCollector::global().drain();
    {
        obs::TraceContextScope scope(
            obs::TraceContext{std::string(32, 'c'), 5});
        MS_TRACE_SPAN("optin.span");
    }
    std::vector<TraceEvent> events = TraceCollector::global().drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].parentSpan, 5u);
    EXPECT_NE(events[0].spanId, 0u);

    // And with neither tracing nor a context, nothing is recorded.
    {
        MS_TRACE_SPAN("still.off");
    }
    EXPECT_TRUE(TraceCollector::global().drain().empty());
}

TEST(TraceTest, SpanIdHexRoundTripAndValidation)
{
    uint64_t id = obs::mintSpanId();
    EXPECT_NE(id, 0u);
    EXPECT_NE(obs::mintSpanId(), id); // process-unique

    std::string hex = obs::spanIdToHex(0xdeadbeefull);
    EXPECT_EQ(hex, "00000000deadbeef");
    uint64_t parsed = 0;
    ASSERT_TRUE(obs::parseSpanIdHex(hex, &parsed));
    EXPECT_EQ(parsed, 0xdeadbeefull);
    ASSERT_TRUE(obs::parseSpanIdHex("1f", &parsed));
    EXPECT_EQ(parsed, 0x1fu);

    EXPECT_FALSE(obs::parseSpanIdHex("", &parsed));
    EXPECT_FALSE(obs::parseSpanIdHex("XYZ", &parsed));
    EXPECT_FALSE(obs::parseSpanIdHex("ABCD", &parsed)); // uppercase
    EXPECT_FALSE(obs::parseSpanIdHex("00000000deadbeef0", &parsed));

    std::string trace_id = obs::mintTraceId();
    EXPECT_EQ(trace_id.size(), 32u);
    EXPECT_TRUE(obs::isLowerHex(trace_id));
}

TEST(JsonTest, ChromeTraceCarriesPidAndSpanIdentity)
{
    TraceEvent event;
    event.name = "merged.daemon.span";
    event.phase = 'X';
    event.tsNs = 1000;
    event.durNs = 500;
    event.pid = 2;
    event.traceId = std::string(32, 'd');
    event.spanId = 0x10;
    event.parentSpan = 0x20;

    const std::string path = "obs_test_merged_trace.json";
    std::string error;
    ASSERT_TRUE(obs::writeChromeTraceFile(path, {event}, &error)) << error;
    std::string text = readFile(path);
    std::remove(path.c_str());
    EXPECT_TRUE(obs::validateJson(text, &error)) << error;
    EXPECT_NE(text.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(text.find("\"span_id\":\"0000000000000010\""),
              std::string::npos);
    EXPECT_NE(text.find("\"parent_span\":\"0000000000000020\""),
              std::string::npos);
    EXPECT_NE(text.find(std::string(32, 'd')), std::string::npos);
}

} // namespace
} // namespace sulong
