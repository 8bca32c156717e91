/**
 * @file
 * perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload fuzz|peak|service --seed N --seconds S
 *             [--trace 0|1] [--socket PATH] [--list-items]
 *             [--record-expected]
 *
 * Three workloads, each in its own process, drive the system through its
 * public entry points (see README.md for why each was chosen and which
 * layer it stresses). Every run has a fixed list of items derived from
 * (seed, seconds) -- never time-boxed -- and every item is checked
 * against an answer that does not come from the code under test.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * With --trace 0 the metrics are the end-to-end ones (recording off);
 * with --trace 1 they are the per-layer ones, computed from spans the
 * benchmark records around its own calls and, via link-time
 * interposition (interpose.def), around calls the real code path makes
 * internally. --list-items prints the item list and exits (the
 * determinism self-test compares it across seeds); --record-expected
 * prints the peak answers for peak_expected.inc instead of checking them.
 */
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "fuzz/campaign.h"
#include "obs/json.h"
#include "service/client.h"
#include "service/server.h"
#include "tools/benchmark_programs.h"
#include "tools/compile_cache.h"
#include "tools/driver.h"
#include "tracer.h"

using namespace sulong;
using perfbench::nowNs;
using perfbench::Span;

namespace
{

// ---------------------------------------------------------------------
// Workload constants. Item counts scale with --seconds; everything else
// is fixed, so a run's work is a pure function of (seed, seconds).

/// fuzz: a fixed list of consecutive seeds, judged in several passes
/// (one pass per kFuzzSecondsPerPass of --seconds, at least one), each
/// pass in its own seeded order. A seed's latency is its median over the
/// passes, so a slow phase of the host that covers one pass barely moves
/// any seed's number.
constexpr size_t kFuzzSeeds = 120;
constexpr unsigned kFuzzSecondsPerPass = 4;
/// fuzz set-up: fixed warm-up seeds, outside any workload's range.
constexpr uint64_t kFuzzWarmupSeed = uint64_t(1) << 40;
constexpr int kFuzzWarmupItems = 3;

/// peak: problem sizes (scaled down from the Fig. 16 defaults to a few
/// ms per warmed run; meteor's smallest size is ~50 ms), warm-up runs
/// per program, and rounds. The warm-up is past the default tier-2
/// threshold (50 calls of main) plus the default tier-3 threshold (200
/// tier-2 activations): at these sizes no main() reaches tier-3 by OSR,
/// so every program's tier-3 translations land at about run 250. The
/// round count is fixed, not scaled by --seconds: programs with global
/// state (fasta) print a different output on every run of a persistent
/// engine, so the committed answers are per run sequence.
const std::map<std::string, std::string> kPeakArgs = {
    {"fannkuchredux", "6"}, {"fasta", "150"},     {"fastaredux", "3000"},
    {"mandelbrot", "16"},   {"meteor", "1"},      {"nbody", "120"},
    {"spectralnorm", "10"}, {"whetstone", "15"},  {"binarytrees", "5"},
    {"calltower", "1500"},  {"pointerchase", "15"},
};
constexpr int kPeakWarmupRuns = 260;
constexpr size_t kPeakRounds = 200;

/// service: a closed loop on one connection (one job in flight) against
/// the daemon with one worker, with the whole process, daemon included,
/// kept on one CPU. Every hand-off between the client, the
/// daemon's reader thread and a worker is then a context switch on a
/// CPU that never idles. Spread over several CPUs, each hand-off woke an
/// idle vCPU, and on a shared VM that wake-up took up to ms whenever
/// the host was busy: the job medians of an open loop, and of a closed
/// loop on two connections, moved by 25-55% between runs of the same
/// code with the host's steal time. Jobs per second of --seconds: the
/// seed commit answers 280-390/s, so a run's fixed job list takes about
/// --seconds.
constexpr unsigned kServiceJobsPerSecond = 300;
constexpr unsigned kPoolFuzzSources = 8;
constexpr unsigned kPoolCorpusSources = 4;
constexpr double kZipfExponent = 1.0;
constexpr unsigned kFreshPercent = 5;
constexpr unsigned kAnalyzePercent = 20;
/// Fixed seed of the pool (generated sources, corpus picks, tools, ranks)
/// and of the never-seen programs.
constexpr uint64_t kServicePoolSeed = uint64_t(1) << 52;

/// Set-up repetitions on fuzz and service; setup_s is their median.
/// Peak sets up once: its warm-up alone is ~3000 runs.
constexpr int kSetupReps = 5;

// ---------------------------------------------------------------------
// Deterministic randomness owned by the benchmark (independent of the
// repo's Rng, so a change there cannot change the item lists).

struct SplitMix
{
    uint64_t state;
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    double uniform() { return (next() >> 11) * 0x1.0p-53; }
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }
};

uint64_t
combine(uint64_t seed, uint64_t value)
{
    return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

// ---------------------------------------------------------------------
// Statistics.

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
        (values[hi] - values[lo]);
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Percentile @p q with the rule that at least ten samples lie beyond
 *  it; a workload sized below that is a benchmark bug. */
double
tailQuantile(const std::vector<double> &values, double q, const char *what)
{
    // Samples above the interpolation interval [lo, lo + 1].
    size_t n = values.size();
    size_t lo = n == 0 ? 0 : static_cast<size_t>(q * static_cast<double>(n - 1));
    size_t beyond = n == 0 ? 0 : n - lo - 1;
    if (beyond < 10) {
        std::fprintf(stderr,
                     "perfbench: %s p%g has %zu samples beyond it "
                     "(need >= 10)\n",
                     what, q * 100, beyond);
        std::exit(2);
    }
    return quantile(values, q);
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return values.empty() ? 0
                          : std::exp(log_sum / static_cast<double>(
                                                   values.size()));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
ms(int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

// ---------------------------------------------------------------------
// Result of one workload run.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    size_t samples; ///< reported alongside, in the human-readable lines
};

struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr
    std::vector<Metric> metrics;

    void
    fail(const std::string &why)
    {
        failed++;
        if (failures.size() < 10)
            failures.push_back(why);
    }
    void
    add(const std::string &name, double value, const std::string &unit,
        size_t samples)
    {
        metrics.push_back({name, value, unit, samples});
    }
};

/** Items measured by a workload: wall time per item plus its group
 *  (the peak program index; 0 elsewhere). */
struct ItemTimes
{
    std::vector<int64_t> startNs;
    std::vector<int64_t> endNs;
    std::vector<int> group;
};

// ---------------------------------------------------------------------
// Per-layer aggregation from spans.

/** Self time per (layer, item): duration minus the children's. */
struct LayerSelf
{
    std::map<std::string, double> totalMs;          ///< over all items
    std::map<std::pair<std::string, int>, double> groupMs; ///< by group
    double rootMs = 0; ///< item time covered by root spans
};

LayerSelf
aggregateSpans(const std::vector<perfbench::SpanRecord> &spans,
               const std::function<int64_t(int64_t)> &item_of,
               const std::vector<int> &group_of_item)
{
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const perfbench::SpanRecord &s : spans)
        if (s.parent >= 0)
            child_ns[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    LayerSelf out;
    for (size_t i = 0; i < spans.size(); i++) {
        const perfbench::SpanRecord &s = spans[i];
        int64_t item = item_of(s.item);
        if (item < 0 || item >= static_cast<int64_t>(group_of_item.size()))
            continue;
        double self = ms(s.endNs - s.startNs - child_ns[i]);
        out.totalMs[s.layer] += self;
        out.groupMs[{s.layer, group_of_item[static_cast<size_t>(item)]}] +=
            self;
        if (s.parent < 0)
            out.rootMs += ms(s.endNs - s.startNs);
    }
    return out;
}

/// Layers reported as "<layer>_ms" (self ms per item) on every traced run.
const char *const kTimedLayers[] = {
    "fuzz.generate",        "fuzz.oracle",    "frontend.compile",
    "opt.o0",               "opt.o3",         "ir.clone",
    "sanitizer.instrument", "sanitizer.run",  "native.run",
    "memcheck.run",         "interp.tier1",   "interp.tier2",
    "interp.tier3",         "analysis.analyze", "tools.prepare",
    "tools.cache_get",      "service.exec",
};

void
addLayerMetrics(RunResult &out, const LayerSelf &self, size_t items)
{
    double n = static_cast<double>(std::max<size_t>(items, 1));
    for (const char *layer : kTimedLayers) {
        auto it = self.totalMs.find(layer);
        out.add(std::string(layer) + "_ms",
                it == self.totalMs.end() ? 0 : it->second / n, "ms", items);
    }
    uint64_t calls = 0;
    for (const perfbench::RowCalls &row : perfbench::interposedCalls())
        if (row.layer == "frontend.compile")
            calls += row.calls;
    out.add("frontend.calls", static_cast<double>(calls), "count", items);
    out.add("frontend.ir_insts",
            static_cast<double>(perfbench::frontendIrInsts()), "count",
            items);
    out.add("analysis.findings",
            static_cast<double>(perfbench::analysisFindings()), "count",
            items);
}

/** Human-readable list of interposed rows and their call counts. */
void
printRowCalls()
{
    for (const perfbench::RowCalls &row : perfbench::interposedCalls())
        std::printf("interposed %-22s %-22s calls=%llu\n", row.id.c_str(),
                    row.layer.c_str(),
                    static_cast<unsigned long long>(row.calls));
}

/** Peak-only and service-only per-layer metrics, zero elsewhere. */
void
addPeakMetrics(RunResult &out, const std::vector<double> &run_ms,
               const std::vector<uint64_t> &steps)
{
    const std::vector<BenchmarkProgram> &programs = benchmarkPrograms();
    for (size_t p = 0; p < programs.size(); p++) {
        out.add("interp.run_ms." + programs[p].name,
                p < run_ms.size() ? run_ms[p] : 0, "ms", 0);
        out.add("interp.steps." + programs[p].name,
                p < steps.size() ? static_cast<double>(steps[p]) : 0,
                "count", 0);
    }
}

struct ServiceLayers
{
    double wireMs = 0;
    double queueWaitMs = 0;
    double generatorLagMs = 0;
    uint64_t rejected = 0;
};

void
addServiceMetrics(RunResult &out, const ServiceLayers &layers, size_t items)
{
    out.add("service.wire_ms", layers.wireMs, "ms", items);
    out.add("service.queue_wait_ms", layers.queueWaitMs, "ms", items);
    out.add("service.generator_lag_ms", layers.generatorLagMs, "ms", items);
    out.add("service.rejected", static_cast<double>(layers.rejected),
            "count", items);
}

double
unattributed(double item_ms, double covered_ms)
{
    return item_ms > 0 ? std::max(0.0, item_ms - covered_ms) / item_ms : 0;
}

double
sumItemMs(const ItemTimes &items)
{
    double total = 0;
    for (size_t i = 0; i < items.startNs.size(); i++)
        total += ms(items.endNs[i] - items.startNs[i]);
    return total;
}

/** Median of @p reps set-up repetitions (seconds). */
double
timedSetups(int reps, const std::function<void(bool last)> &setup)
{
    std::vector<double> secs;
    for (int rep = 0; rep < reps; rep++) {
        int64_t t0 = nowNs();
        setup(rep == reps - 1);
        secs.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return median(secs);
}

// ---------------------------------------------------------------------
// fuzz: closed loop, one thread, one seed per item.

CampaignOptions
fuzzCampaign()
{
    CampaignOptions campaign; // defaults: 50% injected, analysis on
    return campaign;
}

std::vector<uint64_t>
fuzzSeeds(uint64_t seed)
{
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < kFuzzSeeds; i++)
        seeds.push_back(seed + i);
    return seeds;
}

/** Seeded shuffle of 0..n-1 for every one of @p passes. */
std::vector<std::vector<size_t>>
shuffledPasses(uint64_t seed, size_t passes, size_t n)
{
    SplitMix rng{seed};
    std::vector<std::vector<size_t>> order(passes);
    for (std::vector<size_t> &pass : order) {
        for (size_t i = 0; i < n; i++)
            pass.push_back(i);
        for (size_t k = n; k > 1; k--)
            std::swap(pass[k - 1], pass[rng.below(k)]);
    }
    return order;
}

std::vector<std::vector<size_t>>
fuzzPasses(uint64_t seed, unsigned seconds)
{
    size_t passes = std::max<size_t>(1, seconds / kFuzzSecondsPerPass);
    return shuffledPasses(seed ^ 0x66757a7a00000000ull, passes, kFuzzSeeds);
}

/** Check one oracle report against the generator's ground truth. */
std::string
checkFuzz(const FuzzProgram &program, const OracleReport &report)
{
    if (report.compileError)
        return "compile error: " + report.compileErrorDetail;
    if (const EngineVerdict *v = report.firstDisagreement())
        return "unexplained " + std::string(disagreementKindName(
                                    v->disagreement)) +
            " from " + v->engine + ": " + v->detail;
    for (const EngineVerdict &v : report.verdicts) {
        if (v.engine.rfind("managed", 0) != 0)
            continue;
        if (v.reported != program.bug.kind)
            return v.engine + " reported " + errorKindName(v.reported) +
                ", ground truth " + errorKindName(program.bug.kind);
    }
    return "";
}

RunResult
runFuzz(uint64_t seed, unsigned seconds, bool trace)
{
    RunResult out;
    CampaignOptions campaign = fuzzCampaign();
    std::vector<uint64_t> seeds;
    std::vector<std::vector<size_t>> passes;
    double setup_s = timedSetups(kSetupReps, [&](bool) {
        for (int i = 0; i < kFuzzWarmupItems; i++) {
            FuzzProgram program =
                generateSeedProgram(kFuzzWarmupSeed + i, campaign);
            CompileCache cache;
            OracleReport report = runOracle(program, campaign.oracle, &cache);
            if (!checkFuzz(program, report).empty())
                out.fail("warm-up seed failed");
        }
        seeds = fuzzSeeds(seed);
        passes = fuzzPasses(seed, seconds);
    });

    perfbench::setTracing(trace);
    ItemTimes items;
    CompileCacheStats cache_totals;
    std::vector<std::vector<double>> seed_ms(seeds.size());
    std::vector<double> pass_rates;
    for (const std::vector<size_t> &pass : passes) {
        int64_t pass_start = nowNs();
        for (size_t k : pass) {
            perfbench::setCurrentItem(
                static_cast<int64_t>(items.startNs.size()));
            int64_t t0 = nowNs();
            FuzzProgram program;
            {
                Span span("fuzz.generate");
                program = generateSeedProgram(seeds[k], campaign);
            }
            CompileCache cache;
            OracleReport report;
            {
                Span span("fuzz.oracle");
                report = runOracle(program, campaign.oracle, &cache);
            }
            int64_t t1 = nowNs();
            items.startNs.push_back(t0);
            items.endNs.push_back(t1);
            items.group.push_back(0);
            seed_ms[k].push_back(ms(t1 - t0));
            CompileCacheStats stats = cache.stats();
            cache_totals.hits += stats.hits;
            cache_totals.misses += stats.misses;
            out.attempted++;
            std::string why = checkFuzz(program, report);
            if (!why.empty())
                out.fail("seed " + std::to_string(seeds[k]) + ": " + why);
        }
        pass_rates.push_back(static_cast<double>(pass.size()) * 1e9 /
                             static_cast<double>(nowNs() - pass_start));
    }
    perfbench::setCurrentItem(perfbench::kNoItem);
    perfbench::setTracing(false);

    // One latency per program: its median over the passes.
    std::vector<double> latencies;
    for (const std::vector<double> &times : seed_ms)
        latencies.push_back(median(times));
    if (!trace) {
        out.add("setup_s", setup_s, "s", kSetupReps);
        out.add("peak_rss_mb", peakRssMb(), "MB", 1);
        out.add("items_per_s", median(pass_rates), "1/s", pass_rates.size());
        out.add("item_ms", geomean(latencies), "ms", latencies.size());
        out.add("item_tail_ms",
                tailQuantile(latencies, 0.90, "fuzz program latency"), "ms",
                latencies.size());
        return out;
    }
    LayerSelf self = aggregateSpans(
        perfbench::takeSpans(), [](int64_t item) { return item; },
        items.group);
    addLayerMetrics(out, self, items.startNs.size());
    uint64_t lookups = cache_totals.hits + cache_totals.misses;
    out.add("tools.cache_hit_ratio",
            lookups ? static_cast<double>(cache_totals.hits) / lookups : 0,
            "1", lookups);
    addPeakMetrics(out, {}, {});
    addServiceMetrics(out, {}, items.startNs.size());
    out.add("unattributed_frac",
            unattributed(sumItemMs(items), self.rootMs), "1",
            items.startNs.size());
    out.add("traced.item_ms", geomean(latencies), "ms", latencies.size());
    return out;
}

// ---------------------------------------------------------------------
// peak: warmed Safe Sulong runs of the Fig. 16 programs, interleaved.

#include "peak_expected.inc"

struct PeakProgram
{
    const BenchmarkProgram *program;
    std::vector<std::string> args;
    PreparedProgram prepared;
};

uint64_t
engineSteps(Engine *engine)
{
    auto *managed =
        dynamic_cast<ManagedEngine *>(perfbench::innerEngine(engine));
    return managed != nullptr ? managed->executedSteps() : 0;
}

/** Shuffled program order for every round: item r*P+k runs program
 *  order[r][k]. */
std::vector<std::vector<size_t>>
peakRounds(uint64_t seed, size_t programs)
{
    return shuffledPasses(seed ^ 0x7065616b00000000ull, kPeakRounds,
                          programs);
}

unsigned
tier3Functions(const PeakProgram &p)
{
    auto *managed = dynamic_cast<ManagedEngine *>(
        perfbench::innerEngine(p.prepared.engine.get()));
    return managed != nullptr ? managed->tier3Functions() : 0;
}

RunResult
runPeak(uint64_t seed, bool trace, bool record_expected)
{
    RunResult out;
    const std::vector<BenchmarkProgram> &suite = benchmarkPrograms();
    std::vector<PeakProgram> programs;
    // Set-up records spans too when tracing (they carry no item id and
    // are left out of the per-item numbers): it is what the wrapped
    // engines need to be in place for the measured runs.
    perfbench::setTracing(trace);
    double setup_s = timedSetups(1, [&](bool) {
        programs.clear();
        for (const BenchmarkProgram &bench : suite) {
            PeakProgram p;
            p.program = &bench;
            p.args = {kPeakArgs.at(bench.name)};
            ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
            config.managed.persistState = true;
            p.prepared = prepareProgram(bench.source, config);
            if (!p.prepared.ok()) {
                out.fail(bench.name + " failed to compile");
                continue;
            }
            for (int i = 0; i < kPeakWarmupRuns; i++)
                p.prepared.run(p.args);
            programs.push_back(std::move(p));
        }
    });
    if (programs.size() != suite.size()) {
        out.attempted = 1;
        return out;
    }

    std::vector<std::vector<size_t>> order =
        peakRounds(seed, programs.size());
    std::vector<unsigned> warm_tier3;
    for (const PeakProgram &p : programs)
        warm_tier3.push_back(tier3Functions(p));
    ItemTimes items;
    std::vector<std::vector<double>> run_ms(programs.size());
    std::vector<uint64_t> steps(programs.size(), 0);
    std::vector<uint64_t> digests(programs.size(), 0);
    std::vector<double> round_ms;
    size_t item = 0;
    for (const std::vector<size_t> &round : order) {
        int64_t round_start = nowNs();
        for (size_t index : round) {
            PeakProgram &p = programs[index];
            perfbench::setCurrentItem(static_cast<int64_t>(item++));
            int64_t t0 = nowNs();
            ExecutionResult result = p.prepared.run(p.args);
            int64_t t1 = nowNs();
            items.startNs.push_back(t0);
            items.endNs.push_back(t1);
            items.group.push_back(static_cast<int>(index));
            run_ms[index].push_back(ms(t1 - t0));
            size_t k = index;
            // Outputs and steps fold into one answer per program, in the
            // program's own run order (the same for every seed).
            digests[k] = combine(digests[k], fnv1a(result.output));
            steps[k] += engineSteps(p.prepared.engine.get());
            out.attempted++;
            if (!result.ok())
                out.fail(p.program->name + ": " + result.bug.toString() +
                         " " + result.terminationDetail);
        }
        round_ms.push_back(ms(nowNs() - round_start));
    }
    perfbench::setCurrentItem(perfbench::kNoItem);
    perfbench::setTracing(false);

    for (size_t p = 0; p < programs.size(); p++) {
        const std::string &name = programs[p].program->name;
        if (record_expected) {
            std::printf("    {\"%s\", 0x%016llxull, %lluull},\n",
                        name.c_str(),
                        static_cast<unsigned long long>(digests[p]),
                        static_cast<unsigned long long>(steps[p]));
            continue;
        }
        const PeakExpected *expected = nullptr;
        for (const PeakExpected &e : kPeakExpected)
            if (name == e.name)
                expected = &e;
        if (expected == nullptr || digests[p] != expected->outputDigest ||
            steps[p] != expected->steps) {
            // The answer covers all of the program's runs: count them all.
            for (size_t r = 1; r < kPeakRounds; r++)
                out.fail(name);
            out.fail(name + ": output digest/steps " +
                     std::to_string(digests[p]) + "/" +
                     std::to_string(steps[p]) + " differ from the " +
                     "committed answer");
        }
    }

    // Per-program p90 and p95, not the median: on a host that alternates
    // between two speeds (~1.7x apart, for seconds to minutes) a warmed
    // run's time is bimodal, and a median flips between the modes with
    // the share of time spent in each. The upper quantiles stay in the
    // slower mode, which every run visits.
    std::vector<double> p90s;
    std::vector<double> p95s;
    for (size_t p = 0; p < programs.size(); p++) {
        std::printf("peak %-14s median %9.3f  p90 %9.3f ms over %zu runs; "
                    "tier-3 functions %u after warm-up, %u at the end\n",
                    programs[p].program->name.c_str(), median(run_ms[p]),
                    quantile(run_ms[p], 0.90), run_ms[p].size(),
                    warm_tier3[p], tier3Functions(programs[p]));
        p90s.push_back(tailQuantile(run_ms[p], 0.90, "peak run time"));
        p95s.push_back(tailQuantile(run_ms[p], 0.95, "peak run time"));
    }
    if (!trace) {
        // The wall-clock rate of a round (every program once, with the
        // benchmark's own per-run work) at the p90 round time, for the
        // same reason as the p90 run times above.
        out.add("setup_s", setup_s, "s", 1);
        out.add("peak_rss_mb", peakRssMb(), "MB", 1);
        out.add("items_per_s",
                1000.0 * static_cast<double>(programs.size()) /
                    tailQuantile(round_ms, 0.90, "peak round time"),
                "1/s", round_ms.size());
        out.add("item_ms", geomean(p90s), "ms", order.size());
        out.add("item_tail_ms", geomean(p95s), "ms", order.size());
        return out;
    }
    LayerSelf self = aggregateSpans(
        perfbench::takeSpans(), [](int64_t item) { return item; },
        items.group);
    addLayerMetrics(out, self, items.startNs.size());
    out.add("tools.cache_hit_ratio", 0, "1", 0);
    std::vector<double> per_program(programs.size(), 0);
    for (size_t p = 0; p < programs.size(); p++) {
        double total = 0;
        for (const char *layer : {"interp.tier1", "interp.tier2",
                                  "interp.tier3"}) {
            auto it = self.groupMs.find({layer, static_cast<int>(p)});
            if (it != self.groupMs.end())
                total += it->second;
        }
        per_program[p] = total / static_cast<double>(order.size());
    }
    addPeakMetrics(out, per_program, steps);
    addServiceMetrics(out, {}, items.startNs.size());
    out.add("unattributed_frac",
            unattributed(sumItemMs(items), self.rootMs), "1",
            items.startNs.size());
    out.add("traced.item_ms", geomean(p90s), "ms", order.size());
    return out;
}

// ---------------------------------------------------------------------
// service: closed loop against an in-process daemon, on one CPU.

/** One job of the service mix, with its ground truth. */
struct ServiceJob
{
    std::string label; ///< "fuzz:<seed>" or "corpus:<id>", plus the tool
    service::JobRequest request;
    bool buggy = false;
    InjectedBug truth; ///< valid when buggy
    bool fresh = false; ///< a never-seen source (cache miss class)
    int entry = -1;     ///< pool index; -1 for a never-seen source
};

/// Tool configurations jobs are spread over.
const std::pair<const char *, int> kServiceTools[] = {
    {"safe", 0},     {"asan", 0}, {"memcheck", 0}, {"clang", 0},
    {"safe", 3},     {"asan", 3}, {"memcheck", 3}, {"clang", 3},
};

/** A generated program the daemon can judge: Safe Sulong runs with
 *  uninitialized-read detection off in the daemon (its default), so
 *  uninit-read injections are skipped. */
bool
nextServiceProgram(uint64_t &fuzz_seed, FuzzProgram *out)
{
    CampaignOptions campaign = fuzzCampaign();
    for (int tries = 0; tries < 64; tries++) {
        FuzzProgram program = generateSeedProgram(fuzz_seed++, campaign);
        if (program.bug.mutator != MutatorKind::uninitRead) {
            *out = std::move(program);
            return true;
        }
    }
    return false;
}

ServiceJob
jobFromFuzz(const FuzzProgram &program, const char *tool, int opt)
{
    ServiceJob job;
    job.label = "fuzz:" + std::to_string(program.seed);
    job.request.tool = tool;
    job.request.optLevel = opt;
    job.request.source = program.render();
    job.buggy = program.bug.injected();
    job.truth = program.bug;
    return job;
}

ServiceJob
jobFromCorpus(const CorpusEntry &entry, const char *tool, int opt)
{
    ServiceJob job;
    job.label = "corpus:" + entry.id;
    job.request.tool = tool;
    job.request.optLevel = opt;
    job.request.source = entry.source;
    job.request.args = entry.args;
    job.request.stdinData = entry.stdinData;
    job.buggy = true;
    job.truth.kind = entry.kind;
    job.truth.access = entry.access;
    job.truth.storage = entry.storage;
    job.truth.direction = entry.direction;
    // The corpus does not record overflow distance: treat every
    // out-of-bounds entry as possibly beyond a redzone.
    job.truth.adjacent = false;
    job.truth.foldable = entry.removableByO3;
    return job;
}

/** The seed's job list: draws from a Zipf-ranked pool of (source, tool)
 *  pairs, a fixed share of never-seen sources, a fixed share with
 *  analysis, in a seeded order. The pool (sources, tools, ranks)
 *  and the never-seen programs are the same for every seed: drawn per
 *  seed, they moved the median and the p99 with whichever programs
 *  happened to come up. Also returns the pool (for warm-up). */
std::vector<ServiceJob>
serviceItems(uint64_t seed, unsigned seconds, std::vector<ServiceJob> *pool)
{
    SplitMix rng{kServicePoolSeed};
    uint64_t fuzz_seed = kServicePoolSeed;
    pool->clear();
    auto pick_tools = [&rng](int count) {
        std::vector<size_t> chosen;
        while (static_cast<int>(chosen.size()) < count) {
            size_t t = rng.below(std::size(kServiceTools));
            if (std::find(chosen.begin(), chosen.end(), t) == chosen.end())
                chosen.push_back(t);
        }
        return chosen;
    };
    for (unsigned i = 0; i < kPoolFuzzSources; i++) {
        FuzzProgram program;
        if (!nextServiceProgram(fuzz_seed, &program))
            break;
        for (size_t t : pick_tools(2))
            pool->push_back(jobFromFuzz(program, kServiceTools[t].first,
                                        kServiceTools[t].second));
    }
    const std::vector<CorpusEntry> &corpus = bugCorpus();
    std::set<size_t> corpus_picked;
    while (corpus_picked.size() < kPoolCorpusSources)
        corpus_picked.insert(rng.below(corpus.size()));
    for (size_t c : corpus_picked)
        for (size_t t : pick_tools(2))
            pool->push_back(jobFromCorpus(corpus[c], kServiceTools[t].first,
                                          kServiceTools[t].second));
    // Zipf ranks over a shuffled pool.
    for (size_t k = pool->size(); k > 1; k--)
        std::swap((*pool)[k - 1], (*pool)[rng.below(k)]);
    std::vector<double> cdf;
    double total = 0;
    for (size_t r = 0; r < pool->size(); r++) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf.push_back(total);
    }

    // The shares are exact, not drawn per job: every run sends the same
    // never-seen programs (a fixed list, spread evenly over the tools),
    // and exactly kAnalyzePercent of each class sets analyze. The seed
    // places them in the sequence and draws the pool entries.
    size_t n = static_cast<size_t>(kServiceJobsPerSecond) * seconds;
    size_t fresh_n = n * kFreshPercent / 100;
    auto analyze_nth = [](size_t i) {
        return i * kAnalyzePercent % 100 < kAnalyzePercent;
    };
    std::vector<ServiceJob> fresh_jobs;
    uint64_t fresh_seed = kServicePoolSeed + (uint64_t(1) << 20);
    for (size_t i = 0; i < fresh_n; i++) {
        FuzzProgram program;
        nextServiceProgram(fresh_seed, &program);
        const auto &tool = kServiceTools[i % std::size(kServiceTools)];
        fresh_jobs.push_back(jobFromFuzz(program, tool.first, tool.second));
        fresh_jobs.back().fresh = true;
        fresh_jobs.back().request.analyze = analyze_nth(i);
    }
    // Slot k < fresh_n is the k-th never-seen job; slot k >= fresh_n a
    // pool draw, the (k - fresh_n)-th of its class.
    rng = SplitMix{seed ^ 0x7365727669636500ull};
    std::vector<size_t> slots(n);
    for (size_t k = 0; k < n; k++)
        slots[k] = k;
    for (size_t k = n; k > 1; k--)
        std::swap(slots[k - 1], slots[rng.below(k)]);

    std::vector<ServiceJob> jobs;
    for (size_t i = 0; i < n; i++) {
        size_t k = slots[i];
        ServiceJob job;
        if (k < fresh_n) {
            job = fresh_jobs[k];
        } else {
            double u = rng.uniform() * total;
            size_t r = static_cast<size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            job = (*pool)[std::min(r, pool->size() - 1)];
            job.entry = static_cast<int>(std::min(r, pool->size() - 1));
            job.request.analyze = analyze_nth(k - fresh_n);
        }
        job.request.tenant = "t" + std::to_string(i % 3);
        job.label += " " + job.request.tool + " -O" +
            std::to_string(job.request.optLevel) +
            (job.request.analyze ? " analyze" : "") +
            (job.fresh ? " fresh" : "");
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Check one reply against the job's ground truth via the capability
 *  matrix (expectedDetection). -O3 may legitimately delete a planted
 *  bug before a native tool sees it, so -O3 native detection is only
 *  required not to be a wrong report on a clean program. */
std::string
checkReply(const ServiceJob &job, const service::Frame &reply,
           uint64_t *daemon_id)
{
    if (reply.type != service::FrameType::jobResponse)
        return "error frame: " + reply.payload;
    obs::JsonValue doc;
    std::string error;
    if (!obs::parseJson(reply.payload, &doc, &error))
        return "unparsable reply: " + error;
    *daemon_id = doc.uintAt("id");
    if (doc.stringAt("termination") != "normal")
        return "termination " + doc.stringAt("termination");
    const obs::JsonValue *bug = doc.find("bug");
    std::string kind = bug != nullptr ? bug->stringAt("kind") : "none";
    if (job.request.analyze && doc.find("static") == nullptr)
        return "analysis requested but absent";
    if (!job.buggy)
        return kind == "none" ? "" : "bug " + kind + " on a clean program";
    ToolKind tool = ToolKind::safeSulong;
    service::toolFromName(job.request.tool, &tool);
    bool must = expectedDetection(tool, job.truth) == Expectation::mustDetect;
    if (tool != ToolKind::safeSulong && job.request.optLevel >= 3)
        must = false;
    std::string want = errorKindName(job.truth.kind);
    if (must && kind != want)
        return "reported " + kind + ", ground truth " + want;
    return "";
}

/** Keep this process (and every thread it starts later) on the CPU it
 *  runs on now; false when the kernel refuses. */
bool
pinToCurrentCpu()
{
    int cpu = ::sched_getcpu();
    if (cpu < 0)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

RunResult
runService(uint64_t seed, unsigned seconds, bool trace,
           const std::string &socket)
{
    RunResult out;
    if (!pinToCurrentCpu())
        std::fprintf(stderr, "perfbench: could not pin to one CPU: %s\n",
                     std::strerror(errno));
    std::vector<ServiceJob> pool;
    std::vector<ServiceJob> jobs;
    std::unique_ptr<service::ServiceServer> server;
    std::unique_ptr<service::ServiceClient> client;
    std::string error;
    // Set-up: item list, daemon start, client connection, and one pass
    // over the pool so its stages are cached. The measured daemon is the
    // process's first: the threads of a daemon started after another one
    // reuse its threads' malloc arenas, in whichever order those threads
    // exited, and that moved peak RSS between 164 and 203 MB on one seed
    // (137.8 +- 0.1 MB as the first daemon). The other set-ups that
    // setup_s takes its median over run after the measured phase.
    std::vector<double> setup_secs;
    auto set_up = [&]() {
        int64_t t0 = nowNs();
        jobs = serviceItems(seed, seconds, &pool);
        // The daemon's defaults (64-stage LRU, queue and tenant caps)
        // but one worker, for the one CPU the process may run on. With
        // one job in flight a second worker only adds which-thread-ran-it
        // noise: its own malloc arena moved peak RSS by up to 9% between
        // runs of the same seed.
        service::ServiceConfig config;
        config.workers = 1;
        service::ServerOptions options;
        options.socketPath = socket;
        server = std::make_unique<service::ServiceServer>(config, options);
        if (!server->start(&error)) {
            std::fprintf(stderr, "perfbench: %s\n", error.c_str());
            std::exit(1);
        }
        client = std::make_unique<service::ServiceClient>();
        if (!client->connect(socket, &error)) {
            std::fprintf(stderr, "perfbench: %s\n", error.c_str());
            std::exit(1);
        }
        for (const ServiceJob &job : pool) {
            service::Frame reply;
            uint64_t id = 0;
            if (!client->submitJob(job.request, &reply, &error) ||
                !checkReply(job, reply, &id).empty())
                out.fail("warm-up " + job.label + " failed");
        }
        setup_secs.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    };
    set_up();

    // The measured phase: a closed loop, the next job sent as soon as the
    // reply to the last one is in. The client blocks in poll() while a
    // job is in flight, which on one CPU hands the CPU to the daemon.
    CompileCacheStats before = server->service().cacheStats();
    std::vector<int64_t> send_ns(jobs.size());
    std::vector<int64_t> reply_ns(jobs.size());
    std::vector<service::Frame> replies(jobs.size());
    perfbench::setTracing(trace);
    int64_t start = nowNs();
    for (size_t i = 0; i < jobs.size(); i++) {
        send_ns[i] = nowNs();
        if (!client->submitJob(jobs[i].request, &replies[i], &error)) {
            replies[i].type = service::FrameType::error;
            replies[i].payload = "transport: " + error;
        }
        reply_ns[i] = nowNs();
    }
    int64_t end = nowNs();
    perfbench::setTracing(false);
    CompileCacheStats after = server->service().cacheStats();

    // Latency is send to reply; per class, and per pool entry.
    std::vector<double> latencies;
    std::vector<double> fresh_ms;
    std::vector<std::vector<double>> entry_ms(pool.size());
    std::vector<uint64_t> daemon_ids(jobs.size(), 0);
    ServiceLayers layers;
    for (size_t i = 0; i < jobs.size(); i++) {
        out.attempted++;
        std::string why = checkReply(jobs[i], replies[i], &daemon_ids[i]);
        if (replies[i].type == service::FrameType::error)
            layers.rejected++;
        if (!why.empty()) {
            out.fail(std::to_string(i) + " " + jobs[i].label + ": " + why);
            continue;
        }
        double latency = ms(reply_ns[i] - send_ns[i]);
        latencies.push_back(latency);
        if (jobs[i].fresh)
            fresh_ms.push_back(latency);
        else
            entry_ms[static_cast<size_t>(jobs[i].entry)].push_back(latency);
    }
    double peak_rss_mb = peakRssMb();
    server.reset();
    std::vector<double> entry_medians;
    for (const std::vector<double> &times : entry_ms)
        if (!times.empty())
            entry_medians.push_back(median(times));
    std::vector<double> pool_ms;
    for (const std::vector<double> &times : entry_ms)
        pool_ms.insert(pool_ms.end(), times.begin(), times.end());
    std::printf("service pool   jobs %5zu  p50 %8.3f ms  p90 %8.3f ms\n",
                pool_ms.size(), median(pool_ms), quantile(pool_ms, 0.9));
    std::printf("service fresh  jobs %5zu  p50 %8.3f ms  p90 %8.3f ms\n",
                fresh_ms.size(), median(fresh_ms), quantile(fresh_ms, 0.9));

    if (!trace) {
        // A closed loop's rate is set by the daemon: on one connection it
        // is the inverse of the mean job time, over every class.
        double items_per_s = static_cast<double>(jobs.size()) * 1e9 /
            static_cast<double>(end - start);
        for (int rep = 1; rep < kSetupReps; rep++) {
            set_up();
            client.reset();
            server.reset();
        }
        out.add("setup_s", median(setup_secs), "s", setup_secs.size());
        out.add("peak_rss_mb", peak_rss_mb, "MB", 1);
        out.add("items_per_s", items_per_s, "1/s", jobs.size());
        out.add("item_ms", geomean(entry_medians), "ms",
                entry_medians.size());
        out.add("item_tail_ms",
                tailQuantile(latencies, 0.99, "service job latency"), "ms",
                latencies.size());
        return out;
    }

    std::map<uint64_t, size_t> item_of_daemon;
    for (size_t i = 0; i < jobs.size(); i++)
        item_of_daemon[daemon_ids[i]] = i;
    std::vector<perfbench::SpanRecord> spans = perfbench::takeSpans();
    std::map<uint64_t, perfbench::DaemonJobTimes> daemon =
        perfbench::takeDaemonTimes();
    std::vector<int> groups(jobs.size(), 0);
    LayerSelf self = aggregateSpans(
        spans,
        [&item_of_daemon](int64_t item) -> int64_t {
            if (item < 0 || (item & perfbench::kDaemonItem) == 0)
                return -1;
            auto it = item_of_daemon.find(static_cast<uint64_t>(
                item & ~perfbench::kDaemonItem));
            return it == item_of_daemon.end()
                ? -1
                : static_cast<int64_t>(it->second);
        },
        groups);
    std::map<uint64_t, const perfbench::SpanRecord *> exec_of;
    for (const perfbench::SpanRecord &s : spans)
        if (std::strcmp(s.layer, "service.exec") == 0 &&
            (s.item & perfbench::kDaemonItem) != 0)
            exec_of[static_cast<uint64_t>(s.item &
                                          ~perfbench::kDaemonItem)] = &s;
    double item_ms = 0, exec_ms = 0;
    size_t matched = 0;
    for (size_t i = 0; i < jobs.size(); i++) {
        auto times = daemon.find(daemon_ids[i]);
        auto exec = exec_of.find(daemon_ids[i]);
        if (times == daemon.end() || exec == exec_of.end())
            continue;
        matched++;
        // Item time runs from the previous reply, so the client's own
        // turnaround is in it, as generator lag.
        int64_t ready = i == 0 ? start : reply_ns[i - 1];
        const perfbench::DaemonJobTimes &t = times->second;
        layers.generatorLagMs += ms(send_ns[i] - ready);
        layers.wireMs += ms((reply_ns[i] - send_ns[i]) -
                            (t.doneNs - t.submitNs));
        layers.queueWaitMs += ms(exec->second->startNs - t.submitNs);
        item_ms += ms(reply_ns[i] - ready);
        exec_ms += ms(exec->second->endNs - exec->second->startNs);
    }
    // Item time (due to reply) covered by the four service spans, summed
    // over the items.
    double covered_ms = layers.generatorLagMs + layers.wireMs +
        layers.queueWaitMs + exec_ms;
    double n = static_cast<double>(std::max<size_t>(matched, 1));
    layers.generatorLagMs /= n;
    layers.wireMs /= n;
    layers.queueWaitMs /= n;
    addLayerMetrics(out, self, matched);
    uint64_t hits = after.hits - before.hits;
    uint64_t lookups = hits + (after.misses - before.misses);
    out.add("tools.cache_hit_ratio",
            lookups ? static_cast<double>(hits) / lookups : 0, "1", lookups);
    addPeakMetrics(out, {}, {});
    addServiceMetrics(out, layers, matched);
    out.add("unattributed_frac", unattributed(item_ms, covered_ms), "1",
            matched);
    out.add("traced.item_ms", geomean(entry_medians), "ms",
            entry_medians.size());
    if (matched != jobs.size())
        out.fail(std::to_string(jobs.size() - matched) +
                 " jobs without daemon-side spans");
    return out;
}

// ---------------------------------------------------------------------

void
listItems(const std::string &workload, uint64_t seed, unsigned seconds)
{
    if (workload == "fuzz") {
        CampaignOptions campaign = fuzzCampaign();
        std::vector<uint64_t> seeds = fuzzSeeds(seed);
        for (uint64_t s : seeds)
            std::printf("%llu %016llx\n", static_cast<unsigned long long>(s),
                        static_cast<unsigned long long>(fnv1a(
                            generateSeedProgram(s, campaign).render())));
        for (const std::vector<size_t> &pass : fuzzPasses(seed, seconds)) {
            for (size_t k : pass)
                std::printf("%llu ",
                            static_cast<unsigned long long>(seeds[k]));
            std::printf("\n");
        }
    } else if (workload == "peak") {
        for (const std::vector<size_t> &round :
             peakRounds(seed, benchmarkPrograms().size())) {
            for (size_t p : round)
                std::printf("%s ", benchmarkPrograms()[p].name.c_str());
            std::printf("\n");
        }
    } else {
        std::vector<ServiceJob> pool;
        for (const ServiceJob &job : serviceItems(seed, seconds, &pool))
            std::printf("%d %s %016llx\n", job.entry, job.label.c_str(),
                        static_cast<unsigned long long>(
                            fnv1a(job.request.source)));
    }
}

void
printResult(const RunResult &result)
{
    for (const Metric &m : result.metrics)
        std::printf("metric %-32s %14.6f %-6s samples=%zu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    for (const std::string &why : result.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    std::string json = "{\"correct\": ";
    json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); i++) {
        const Metric &m = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** `--name value` or `--name=value`; @p fallback when absent. */
std::string
flagValue(int argc, char **argv, const std::string &name,
          const std::string &fallback = "")
{
    std::string flag = "--" + name;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == flag && i + 1 < argc)
            return argv[i + 1];
        if (arg.rfind(flag + "=", 0) == 0)
            return arg.substr(flag.size() + 1);
    }
    return fallback;
}

bool
flagPresent(int argc, char **argv, const std::string &name)
{
    for (int i = 1; i < argc; i++)
        if (argv[i] == "--" + name)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = flagValue(argc, argv, "workload");
    uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
    try {
        seed = std::stoull(flagValue(argc, argv, "seed", "1"));
        seconds = static_cast<unsigned>(
            std::stoul(flagValue(argc, argv, "seconds", "10")));
        trace = std::stoi(flagValue(argc, argv, "trace", "0")) != 0;
    } catch (const std::exception &) {
        seconds = 0;
    }
    std::string socket = flagValue(
        argc, argv, "socket",
        "perfbench-" + std::to_string(::getpid()) + ".sock");
    if ((workload != "fuzz" && workload != "peak" && workload != "service") ||
        seconds == 0) {
        std::fprintf(stderr,
                     "usage: perfbench --workload fuzz|peak|service "
                     "--seed N --seconds S(>=1) [--trace 0|1] "
                     "[--socket PATH] [--list-items] [--record-expected]\n");
        return 2;
    }
    if (flagPresent(argc, argv, "list-items")) {
        listItems(workload, seed, seconds);
        return 0;
    }
    RunResult result;
    if (workload == "fuzz")
        result = runFuzz(seed, seconds, trace);
    else if (workload == "peak")
        result = runPeak(seed, trace,
                         flagPresent(argc, argv, "record-expected"));
    else
        result = runService(seed, seconds, trace, socket);
    if (trace)
        printRowCalls();
    printResult(result);
    return result.failed == 0 ? 0 : 1;
}
