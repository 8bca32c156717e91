/**
 * @file
 * The managed engine's end-of-run telemetry flush.
 *
 * This lives in its own translation unit on purpose: the flush builds
 * counter names and walks the registry — several hundred instructions
 * of cold code that, compiled into managed_engine.cc, shifts GCC's
 * unit-growth inlining budget and perturbs the codegen of the hot
 * interpreter templates in that TU. Keeping it here makes the
 * interpreter's object code byte-identical between MS_OBS=ON and =OFF
 * builds, which is exactly what the CI overhead gate compares.
 */

#include "interp/managed_engine.h"

#include "managed/heap.h"
#include "obs/metrics.h"
#include "support/error.h"

namespace sulong
{

void
ManagedEngine::flushTelemetry(const ExecutionResult &result)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("managed.runs").inc();

    uint64_t tier1Steps = 0;
    uint64_t tier2Steps = 0;
    for (const auto &[fn, prof] : fnProfiles_) {
        tier1Steps += prof.tier1Steps;
        tier2Steps += prof.tier2Steps;
        // Per-function retired-step and tier attribution. Counter names
        // are keyed by function name, so identical functions from
        // different batch jobs aggregate — which keeps totals
        // deterministic across worker counts.
        uint64_t total = prof.tier1Steps + prof.tier2Steps;
        if (total != 0)
            reg.histogram("managed.fn.steps").record(total);
        if (prof.tier1Steps != 0)
            reg.counter("managed.fn." + fn->name() + ".steps.tier1")
                .inc(prof.tier1Steps);
        if (prof.tier2Steps != 0)
            reg.counter("managed.fn." + fn->name() + ".steps.tier2")
                .inc(prof.tier2Steps);
    }
    if (tier1Steps != 0)
        reg.counter("managed.steps.tier1").inc(tier1Steps);
    if (tier2Steps != 0)
        reg.counter("managed.steps.tier2").inc(tier2Steps);

    if (telem_.tier2Compiles != 0)
        reg.counter("managed.tier2.compiles").inc(telem_.tier2Compiles);
    if (telem_.inlinedSites != 0)
        reg.counter("managed.tier2.inlined_sites")
            .inc(telem_.inlinedSites);
    for (uint64_t size : telem_.tier2CodeSizes)
        reg.histogram("managed.tier2.code_size").record(size);
    if (telem_.icToMono != 0)
        reg.counter("managed.ic.to_mono").inc(telem_.icToMono);
    if (telem_.icToMega != 0)
        reg.counter("managed.ic.to_mega").inc(telem_.icToMega);
    if (telem_.icHits != 0)
        reg.counter("managed.ic.hits").inc(telem_.icHits);
    if (telem_.elideShapeHits != 0)
        reg.counter("managed.elide.shape_hits")
            .inc(telem_.elideShapeHits);
    if (telem_.elideShapeMisses != 0)
        reg.counter("managed.elide.shape_misses")
            .inc(telem_.elideShapeMisses);

    // The heap survives run() under persistState: flush deltas.
    if (heap_ != nullptr) {
        uint64_t allocBytes =
            heap_->allocBytesTotal() - heapAllocBytesFlushed_;
        uint64_t freedBytes =
            heap_->freedBytesTotal() - heapFreedBytesFlushed_;
        uint64_t allocs = heap_->allocationCount() - heapAllocsFlushed_;
        uint64_t frees = heap_->freeCount() - heapFreesFlushed_;
        heapAllocBytesFlushed_ = heap_->allocBytesTotal();
        heapFreedBytesFlushed_ = heap_->freedBytesTotal();
        heapAllocsFlushed_ = heap_->allocationCount();
        heapFreesFlushed_ = heap_->freeCount();
        if (allocBytes != 0)
            reg.counter("managed.heap.alloc_bytes").inc(allocBytes);
        if (freedBytes != 0)
            reg.counter("managed.heap.freed_bytes").inc(freedBytes);
        if (allocs != 0) {
            reg.counter("managed.heap.allocs").inc(allocs);
            reg.histogram("managed.heap.alloc_bytes_per_run")
                .record(allocBytes);
        }
        if (frees != 0)
            reg.counter("managed.heap.frees").inc(frees);
    }

    // Per-bug-class detection counters.
    if (result.bug.kind != ErrorKind::none)
        reg.counter(std::string("bugs.") + errorKindName(result.bug.kind))
            .inc();
    if (result.termination != TerminationKind::normal)
        reg.counter(std::string("terminations.") +
                    terminationKindName(result.termination))
            .inc();
    reg.histogram("managed.run.steps").record(guard_.steps());
}

} // namespace sulong
