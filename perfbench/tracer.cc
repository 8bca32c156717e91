#include "tracer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "analysis/analyzer.h"
#include "frontend/compiler.h"
#include "ir/clone.h"
#include "opt/passes.h"
#include "sanitizer/asan_pass.h"
#include "service/service.h"
#include "tools/batch_runner.h"
#include "tools/compile_cache.h"
#include "tools/driver.h"

using namespace sulong;

namespace perfbench
{
namespace
{

std::atomic<bool> g_tracing{false};

std::mutex g_spanMutex;
std::vector<SpanRecord> g_spans;
thread_local std::vector<int32_t> t_open;
thread_local int64_t t_item = kNoItem;

std::atomic<uint64_t> g_irInsts{0};
std::atomic<uint64_t> g_findings{0};


std::mutex g_daemonMutex;
std::map<uint64_t, DaemonJobTimes> g_daemonTimes;

// One entry per interpose.def row, in table order.
enum Row
{
#define MS_INTERPOSE(id, layer, sym) row_##id,
#include "interpose.def"
#undef MS_INTERPOSE
    rowCount
};

struct RowInfo
{
    const char *id;
    const char *layer;
};
constexpr RowInfo kRows[rowCount] = {
#define MS_INTERPOSE(id, layer, sym) {#id, layer},
#include "interpose.def"
#undef MS_INTERPOSE
};
std::atomic<uint64_t> g_rowCalls[rowCount];

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

/** Times one call of an interposed row (the span is a no-op untraced). */
class RowCall
{
  public:
    explicit RowCall(Row row) : span_(enter(row)) {}

  private:
    static const char *
    enter(Row row)
    {
        if (g_tracing.load(std::memory_order_relaxed))
            g_rowCalls[row].fetch_add(1, std::memory_order_relaxed);
        return kRows[row].layer;
    }
    Span span_;
};

uint64_t
countInsts(const Module &module)
{
    uint64_t total = 0;
    for (const auto &fn : module.functions())
        for (const auto &block : fn->blocks())
            total += block->insts().size();
    return total;
}

/** The layer an engine's run() is timed under, from its tool config.
 *  The three managed arms of the fuzz oracle differ in tiering: eager
 *  tier-3, eager tier-2 without tier-3, and default tiering (starts in
 *  tier-1 and tiers up by profile). */
const char *
runLayer(const ToolConfig &config)
{
    switch (config.kind) {
      case ToolKind::safeSulong:
        if (config.managed.enableTier3 && config.managed.tier3Threshold == 0)
            return "interp.tier3";
        if (config.managed.enableTier2 &&
            config.managed.compileThreshold <= 1 &&
            !config.managed.enableTier3)
            return "interp.tier2";
        return "interp.tier1";
      case ToolKind::clang:
        return "native.run";
      case ToolKind::asan:
        return "sanitizer.run";
      case ToolKind::memcheck:
        return "memcheck.run";
    }
    return "unknown.run";
}

/** Engine decorator timing run(); limits and the cancellation token are
 *  set on the decorator by the caller and forwarded on every run. */
class TimedEngine final : public Engine
{
  public:
    TimedEngine(std::unique_ptr<Engine> inner, const char *layer)
        : inner_(std::move(inner)), layer_(layer)
    {}

    using Engine::run;
    std::string name() const override { return inner_->name(); }
    ExecutionResult
    run(const Module &module, const std::vector<std::string> &args,
        const std::string &stdin_data) override
    {
        inner_->limits() = limits_;
        inner_->setCancellationToken(cancelToken_);
        Span span(layer_);
        return inner_->run(module, args, stdin_data);
    }
    Engine *inner() const { return inner_.get(); }

  private:
    std::unique_ptr<Engine> inner_;
    const char *layer_;
};

PreparedProgram
timeEngine(PreparedProgram prepared, const ToolConfig &config)
{
    if (prepared.engine != nullptr)
        prepared.engine = std::make_unique<TimedEngine>(
            std::move(prepared.engine), runLayer(config));
    return prepared;
}

/** The original of @p row as a typed function pointer. With the repo's
 *  libraries linked whole, a wrapper only runs when its original exists. */
template <typename Fn>
Fn
real(void (*weak_original)(), Row row)
{
    if (weak_original == nullptr) {
        std::fprintf(stderr, "perfbench: %s is called but not linked\n",
                     kRows[row].id);
        std::abort();
    }
    return reinterpret_cast<Fn>(weak_original);
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setTracing(bool on)
{
    if (on) {
        std::lock_guard<std::mutex> lock(g_spanMutex);
        g_spans.reserve(1 << 16);
    }
    g_tracing.store(on);
}

void
setCurrentItem(int64_t item)
{
    t_item = item;
}

Span::Span(const char *layer)
{
    if (!g_tracing.load(std::memory_order_relaxed))
        return;
    SpanRecord record;
    record.layer = layer;
    record.parent = t_open.empty() ? -1 : t_open.back();
    record.item = t_item;
    record.startNs = nowNs();
    std::lock_guard<std::mutex> lock(g_spanMutex);
    index_ = static_cast<int32_t>(g_spans.size());
    g_spans.push_back(record);
    t_open.push_back(index_);
}

Span::~Span()
{
    if (index_ < 0)
        return;
    int64_t end = nowNs();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(g_spanMutex);
    g_spans[static_cast<size_t>(index_)].endNs = end;
}

std::vector<SpanRecord>
takeSpans()
{
    std::lock_guard<std::mutex> lock(g_spanMutex);
    return std::move(g_spans);
}

std::vector<RowCalls>
interposedCalls()
{
    std::vector<RowCalls> out;
    for (int row = 0; row < rowCount; row++)
        out.push_back({kRows[row].id, kRows[row].layer,
                       g_rowCalls[row].load()});
    return out;
}

uint64_t
frontendIrInsts()
{
    return g_irInsts.load();
}

uint64_t
analysisFindings()
{
    return g_findings.load();
}

std::map<uint64_t, DaemonJobTimes>
takeDaemonTimes()
{
    std::lock_guard<std::mutex> lock(g_daemonMutex);
    return std::move(g_daemonTimes);
}

Engine *
innerEngine(Engine *engine)
{
    auto *timed = dynamic_cast<TimedEngine *>(engine);
    return timed != nullptr ? timed->inner() : engine;
}

} // namespace perfbench

// ---------------------------------------------------------------------
// Link-time interposition. For every interpose.def row: a weak reference
// to the original (`__real_<symbol>`, resolved by `ld --wrap`) and
// `__wrap_<symbol>` as an alias of the typed wrapper below.

#define MS_INTERPOSE(id, layer, sym)                                       \
    extern "C" void ms_real_##id() __asm__("__real_" #sym)                 \
        __attribute__((weak));                                             \
    __asm__(".globl __wrap_" #sym "\n\t.type __wrap_" #sym                 \
            ", @function\n\t.set __wrap_" #sym ", ms_wrap_" #id);
#include "interpose.def"
#undef MS_INTERPOSE

using perfbench::RowCall;
using perfbench::real;
using perfbench::tracing;
using service::AdmitStatus;
using service::AnalysisService;
using service::JobOutcome;
using service::JobRequest;

#define MS_REAL(id, type) real<type>(&ms_real_##id, perfbench::row_##id)

extern "C" {

CompileResult
ms_wrap_compileC(const std::vector<SourceFile> &sources,
                 const CompileOptions &options)
{
    auto original = MS_REAL(compileC, CompileResult (*)(
        const std::vector<SourceFile> &, const CompileOptions &));
    if (!tracing())
        return original(sources, options);
    CompileResult result;
    {
        RowCall call(perfbench::row_compileC);
        result = original(sources, options);
    }
    if (result.module != nullptr)
        perfbench::g_irInsts += perfbench::countInsts(*result.module);
    return result;
}

void
ms_wrap_runO0Pipeline(Module &module)
{
    RowCall call(perfbench::row_runO0Pipeline);
    MS_REAL(runO0Pipeline, void (*)(Module &))(module);
}

void
ms_wrap_runO3Pipeline(Module &module)
{
    RowCall call(perfbench::row_runO3Pipeline);
    MS_REAL(runO3Pipeline, void (*)(Module &))(module);
}

std::unique_ptr<Module>
ms_wrap_cloneModule(const Module &original)
{
    RowCall call(perfbench::row_cloneModule);
    return MS_REAL(cloneModule,
                   std::unique_ptr<Module> (*)(const Module &))(original);
}

AsanPassStats
ms_wrap_runAsanPass(Module &module)
{
    RowCall call(perfbench::row_runAsanPass);
    return MS_REAL(runAsanPass, AsanPassStats (*)(Module &))(module);
}

AnalysisReport
ms_wrap_analyzeModule(const Module &module, const AnalysisOptions &options)
{
    auto original = MS_REAL(analyzeModule, AnalysisReport (*)(
        const Module &, const AnalysisOptions &));
    if (!tracing())
        return original(module, options);
    AnalysisReport report;
    {
        RowCall call(perfbench::row_analyzeModule);
        report = original(module, options);
    }
    perfbench::g_findings += report.findings.size();
    return report;
}

PreparedProgram
ms_wrap_prepareProgram(const std::vector<SourceFile> &sources,
                       const ToolConfig &config, CompileCache *cache)
{
    auto original = MS_REAL(prepareProgram, PreparedProgram (*)(
        const std::vector<SourceFile> &, const ToolConfig &,
        CompileCache *));
    if (!tracing())
        return original(sources, config, cache);
    PreparedProgram prepared;
    {
        RowCall call(perfbench::row_prepareProgram);
        prepared = original(sources, config, cache);
    }
    return perfbench::timeEngine(std::move(prepared), config);
}

PreparedProgram
ms_wrap_prepareProgramSource(const std::string &source,
                             const ToolConfig &config, CompileCache *cache)
{
    auto original = MS_REAL(prepareProgramSource, PreparedProgram (*)(
        const std::string &, const ToolConfig &, CompileCache *));
    if (!tracing())
        return original(source, config, cache);
    PreparedProgram prepared;
    {
        RowCall call(perfbench::row_prepareProgramSource);
        prepared = original(source, config, cache);
    }
    return perfbench::timeEngine(std::move(prepared), config);
}

// Member functions: `this` is the first argument.
std::shared_ptr<const CompileCache::Entry>
ms_wrap_getOrCompile(CompileCache *self,
                     const std::vector<SourceFile> &sources,
                     LibcVariant variant, int opt_level, bool instrumented)
{
    RowCall call(perfbench::row_getOrCompile);
    return MS_REAL(getOrCompile,
                   std::shared_ptr<const CompileCache::Entry> (*)(
                       CompileCache *, const std::vector<SourceFile> &,
                       LibcVariant, int, bool))(self, sources, variant,
                                                opt_level, instrumented);
}

AdmitStatus
ms_wrap_submit(AnalysisService *self, JobRequest request,
               AnalysisService::DoneFn done, uint64_t *retry_after_ms)
{
    auto original = MS_REAL(submit, AdmitStatus (*)(
        AnalysisService *, JobRequest, AnalysisService::DoneFn,
        uint64_t *));
    if (!tracing())
        return original(self, std::move(request), std::move(done),
                        retry_after_ms);
    int64_t submitted = perfbench::nowNs();
    RowCall call(perfbench::row_submit);
    auto timed_done = [submitted,
                       done = std::move(done)](const JobOutcome &outcome) {
        {
            std::lock_guard<std::mutex> lock(perfbench::g_daemonMutex);
            perfbench::g_daemonTimes[outcome.id] = {submitted,
                                                    perfbench::nowNs()};
        }
        done(outcome);
    };
    return original(self, std::move(request), std::move(timed_done),
                    retry_after_ms);
}

ExecutionResult
ms_wrap_runGuardedJob(const BatchJob &job, size_t index, CompileCache *cache,
                      const GuardedJobOptions &options,
                      const std::atomic<bool> &drain, JobWatchdog &watchdog,
                      BatchReport::JobStats &stats)
{
    auto original = MS_REAL(runGuardedJob, ExecutionResult (*)(
        const BatchJob &, size_t, CompileCache *, const GuardedJobOptions &,
        const std::atomic<bool> &, JobWatchdog &, BatchReport::JobStats &));
    if (!tracing())
        return original(job, index, cache, options, drain, watchdog, stats);
    perfbench::setCurrentItem(perfbench::kDaemonItem |
                              static_cast<int64_t>(index));
    ExecutionResult result;
    {
        RowCall call(perfbench::row_runGuardedJob);
        result = original(job, index, cache, options, drain, watchdog, stats);
    }
    perfbench::setCurrentItem(perfbench::kNoItem);
    return result;
}

} // extern "C"
