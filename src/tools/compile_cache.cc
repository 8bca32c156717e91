#include "tools/compile_cache.h"

#include <algorithm>
#include <tuple>

#include "frontend/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/passes.h"

namespace sulong
{

bool
CompileCache::Key::operator<(const Key &other) const
{
    auto stage = [](const Key &key) {
        return std::tie(key.variant, key.optLevel);
    };
    if (stage(*this) != stage(other))
        return stage(*this) < stage(other);
    return std::lexicographical_compare(
        sources.begin(), sources.end(), other.sources.begin(),
        other.sources.end(), [](const SourceFile &a, const SourceFile &b) {
            return std::tie(a.name, a.text) < std::tie(b.name, b.text);
        });
}

std::shared_ptr<const CompileCache::Entry>
CompileCache::getOrCompile(const std::vector<SourceFile> &user_sources,
                           LibcVariant variant, int opt_level)
{
    Key key{user_sources, variant, opt_level};

    std::shared_ptr<Slot> slot;
    bool created = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = slots_.find(key);
        if (it == slots_.end()) {
            it = slots_.emplace(std::move(key), std::make_shared<Slot>())
                     .first;
            lru_.push_front(it);
            it->second->lruPos = lru_.begin();
            created = true;
            enforceCapacityLocked();
        } else {
            lru_.splice(lru_.begin(), lru_, it->second->lruPos);
        }
        slot = it->second;
        // A hit may still have to wait for the compiling thread below,
        // but it never repeats the work.
        (created ? stats_.misses : stats_.hits)++;
    }
    obs::MetricsRegistry::global()
        .counter(created ? "compile_cache.misses" : "compile_cache.hits")
        .inc();

    std::call_once(slot->once, [&]() {
        MS_TRACE_SPAN("compile_cache.compile");
        auto entry = std::make_shared<Entry>();
        CompileOptions options;
        options.library = &libcPrototype(variant);
        CompileResult compiled = compileC(user_sources, options);
        if (!compiled.ok()) {
            entry->errors = compiled.errors;
        } else {
            if (opt_level >= 3)
                runO3Pipeline(*compiled.module);
            else if (opt_level >= 0)
                runO0Pipeline(*compiled.module);
            entry->prototype = std::move(compiled.module);
        }
        slot->entry = std::move(entry);
    });
    return slot->entry;
}

CompileCacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
CompileCache::setCapacity(size_t max_entries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = max_entries;
    enforceCapacityLocked();
}

void
CompileCache::enforceCapacityLocked()
{
    if (capacity_ == 0)
        return;
    uint64_t evicted = 0;
    while (slots_.size() > capacity_ && !lru_.empty()) {
        // A thread still compiling into the evicted slot keeps it alive
        // through its own shared_ptr; we only drop the cache's ref.
        slots_.erase(lru_.back());
        lru_.pop_back();
        stats_.evictions++;
        evicted++;
    }
    if (evicted != 0)
        obs::MetricsRegistry::global()
            .counter("compile_cache.evictions")
            .inc(evicted);
}

} // namespace sulong
