/**
 * @file
 * The Memcheck/Valgrind-style runtime-instrumentation tool (paper
 * Section 2.2, "dynamic instrumentation").
 *
 * Checks every memory access of every function (including libc — binary
 * instrumentation sees all code), but its addressability tracking (the
 * A-bits) only covers the heap: stack and global accesses that stay
 * inside mapped memory are never flagged, which is why the paper finds
 * that "Valgrind reliably detects only out-of-bounds accesses to the
 * heap". Definedness tracking (the V-bits) gives the unreliable indirect
 * detection of stack out-of-bounds *reads* the paper mentions.
 */

#ifndef MS_MEMCHECK_MEMCHECK_RUNTIME_H
#define MS_MEMCHECK_MEMCHECK_RUNTIME_H

#include <deque>

#include "native/hooks.h"
#include "sanitizer/shadow.h"

namespace sulong
{

struct MemcheckOptions
{
    /// Redzone bytes around heap blocks.
    uint64_t redzone = 16;
    /// Freed blocks held in the free-list before reuse.
    size_t quarantineBlocks = 1024;
    /// Track definedness (V-bits); reports on condition/syscall use.
    bool trackUninit = true;
    /// Report never-freed heap blocks at exit (--leak-check analogue).
    bool detectLeaks = false;
};

class MemcheckRuntime : public NativeHooks
{
  public:
    explicit MemcheckRuntime(MemcheckOptions options = {});

    void
    onRunStart() override
    {
        abits_ = ShadowMap{};
        vbits_ = ShadowMap{};
        live_.clear();
        quarantine_.clear();
    }

    bool
    checksAccessesIn(const Function &fn) const override
    {
        (void)fn;
        return true;
    }
    void onLoad(NativeMemory &mem, uint64_t addr, unsigned size,
                const SourceLoc &loc) override;
    void onStore(NativeMemory &mem, uint64_t addr, unsigned size,
                 const SourceLoc &loc) override;

    uint64_t onMalloc(NativeMemory &mem, uint64_t size) override;
    void onFree(NativeMemory &mem, uint64_t addr,
                const SourceLoc &loc) override;
    uint64_t onRealloc(NativeMemory &mem, uint64_t addr,
                       uint64_t size) override;

    bool
    reportLeaks(BugReport &report) override
    {
        if (!options_.detectLeaks || live_.empty())
            return false;
        int64_t bytes = 0;
        for (const auto &[user, size] : live_)
            bytes += static_cast<int64_t>(size);
        report.kind = ErrorKind::memoryLeak;
        report.storage = StorageKind::heap;
        report.detail = std::to_string(live_.size()) +
            " heap block(s), " + std::to_string(bytes) +
            " byte(s) definitely lost";
        return true;
    }

    bool tracksDefinedness() const override
    {
        return options_.trackUninit;
    }
    bool loadDefined(NativeMemory &mem, uint64_t addr,
                     unsigned size) override;
    void storeDefined(NativeMemory &mem, uint64_t addr, unsigned size,
                      bool defined) override;
    void onUndefinedUse(const SourceLoc &loc) override;
    void onStackAlloc(NativeMemory &mem, uint64_t addr,
                      uint64_t size) override;
    void onFrameExit(NativeMemory &mem, uint64_t lo, uint64_t hi) override;

  private:
    /// A-bit values for heap addresses.
    enum class ABits : uint8_t
    {
        noAccess = 0,   ///< never allocated / redzone
        allocated = 1,
        freed = 2,
    };

    void checkAccess(uint64_t addr, unsigned size, bool is_write,
                     const SourceLoc &loc);
    void releaseOldest(NativeMemory &mem);

    MemcheckOptions options_;
    ShadowMap abits_;
    /// V-bits: 1 = undefined (default 0 = defined, so globals and the
    /// args region start defined like initialized data).
    ShadowMap vbits_;
    std::map<uint64_t, uint64_t> live_; ///< user addr -> size
    std::deque<std::pair<uint64_t, uint64_t>> quarantine_;
};

} // namespace sulong

#endif // MS_MEMCHECK_MEMCHECK_RUNTIME_H
