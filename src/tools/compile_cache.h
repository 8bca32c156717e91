/**
 * @file
 * Shared compile cache for the evaluation pipeline.
 *
 * A detection-matrix run compiles every corpus program once per tool
 * configuration even though most cells share the identical front-end and
 * optimization work: ASan -O0, Memcheck -O0 and Clang -O0 all execute
 * the nativeOptimized libc linked with the user program and run the O0
 * pipeline; the -O3 tools share the O3 pipeline; Safe Sulong runs the
 * unoptimized IR with the safe libc. The cache keys on
 * (source names and texts, libc variant, opt level) — the pipeline
 * *stage* a tool kind maps onto — and stores one immutable prototype
 * module per stage. It is the only code that compiles a program:
 * prepareProgram() without a cache uses a call-local one.
 *
 * The user sources are compiled once, against the process-wide libc
 * prototype (libcPrototype(), compiled once per process from the safe
 * libc and shared by every cache): that front-end module, with the
 * prototype's bodies it reaches, is the (safe, -1) stage. Every other
 * stage looks that entry up in the same cache and copies the program's
 * own code onto the libc stage of its variant and level
 * (LibraryPrototype::stage(), built once per process; linkCopy()), then
 * runs the O0/O3 pipeline on the program's own functions only. A cached
 * stage owns only the user code: every libc function and global it
 * shows is the process-wide stage's, shared by reference, and a copy
 * shares only the IR types of the front-end module, so evicting that
 * entry frees its code.
 *
 * No tool rewrites a stage: ASan checks accesses at run time through the
 * native engine's access hook, like Memcheck, so it shares the plain
 * stage. Engines treat modules as strictly read-only, so batch jobs
 * execute the shared prototypes directly, and a shared cache's runs
 * stay bit-identical to cold ones.
 *
 * Thread safe: concurrent lookups of the same key compile once and
 * share the result; lookups of different keys compile in parallel.
 */

#ifndef MS_TOOLS_COMPILE_CACHE_H
#define MS_TOOLS_COMPILE_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "ir/module.h"
#include "libc/libc_sources.h"

namespace sulong
{

/** Hit/miss/evict counters, reported by the benches and the registry. */
struct CompileCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

class CompileCache
{
  public:
    /** A compiled-and-optimized pipeline stage (or its compile error). */
    struct Entry
    {
        /// Post-pipeline prototype; null when compilation failed.
        std::shared_ptr<const Module> prototype;
        std::string errors;

        bool ok() const { return prototype != nullptr; }
    };

    /**
     * Return the stage for @p user_sources linked against @p variant and
     * run through the given pipeline (@p opt_level: -1 none, 0, or 3),
     * compiling it on first use. Never returns null.
     */
    std::shared_ptr<const Entry>
    getOrCompile(const std::vector<SourceFile> &user_sources,
                 LibcVariant variant, int opt_level);

    CompileCacheStats stats() const;

    /**
     * Bound the cache to @p max_entries stages, evicting in LRU order
     * (0 = unbounded, the default). In-flight users of an evicted stage
     * keep it alive through their shared_ptr; eviction only drops the
     * cache's own reference.
     */
    void setCapacity(size_t max_entries);

  private:
    /** The full source text is the key: equal keys are equal programs. */
    struct Key
    {
        std::vector<SourceFile> sources;
        LibcVariant variant;
        int optLevel;

        bool operator<(const Key &other) const;
    };

    struct Slot;
    using SlotMap = std::map<Key, std::shared_ptr<Slot>>;

    /** One cache slot; compiled at most once via its own flag. */
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const Entry> entry;
        /// Position in lru_ for O(1) touch/evict.
        std::list<SlotMap::iterator>::iterator lruPos;
    };

    /** Evict least-recently-used slots down to capacity_ (locked). */
    void enforceCapacityLocked();

    mutable std::mutex mutex_;
    SlotMap slots_;
    /// Most-recently-used slots at the front.
    std::list<SlotMap::iterator> lru_;
    size_t capacity_ = 0;
    CompileCacheStats stats_;
};

} // namespace sulong

#endif // MS_TOOLS_COMPILE_CACHE_H
