/**
 * @file
 * The ASan-style runtime: shadow memory + redzones + quarantine +
 * interceptors (paper Section 2.2, "compile-time instrumentation").
 *
 * The compile-time part is modelled per function: the native engine
 * checks every load and store that executes in a frame of an
 * instrumented function (checksAccessesIn) against the shadow map, on
 * the module the O0/O3 pipeline produced. So accesses the optimizer
 * deleted are never checked (P2), and libc bodies, precompiled without
 * instrumentation, are not checked either (P4) — unless O3 inlined them
 * into user code. Each check retires one step, the cost of the call
 * the compiler would have inserted.
 *
 * Deliberately faithful to the gaps the paper exploits in Section 4.1:
 *  - the argv/envp region is never poisoned or checked (Fig. 10);
 *  - there is no strtok interceptor by default (Fig. 11);
 *  - the printf interceptor checks only pointer (%s) arguments, not
 *    argument counts or integer widths (Fig. 12);
 *  - redzones are finite, so a far out-of-bounds index lands in valid
 *    memory undetected (Fig. 14);
 *  - quarantine is finite, so a use-after-free after enough intervening
 *    allocation traffic is missed (P3).
 */

#ifndef MS_SANITIZER_ASAN_RUNTIME_H
#define MS_SANITIZER_ASAN_RUNTIME_H

#include <deque>

#include "native/hooks.h"
#include "sanitizer/shadow.h"

namespace sulong
{

struct AsanOptions
{
    /// Redzone bytes around heap and stack objects and between globals.
    uint64_t redzone = 32;
    /// Freed blocks held before real release (rapid-reuse mitigation).
    size_t quarantineBlocks = 256;
    /// Model the post-paper fix: intercept strtok (llvm rL298650).
    bool interceptStrtok = false;
    /// Report never-freed heap blocks at exit (LeakSanitizer analogue).
    bool detectLeaks = false;
};

/** Shadow byte values (0 = addressable). */
enum class Poison : uint8_t
{
    ok = 0,
    heapRedzone = 1,
    heapFreed = 2,
    stackRedzone = 3,
    globalRedzone = 4,
};

class AsanRuntime : public NativeHooks
{
  public:
    explicit AsanRuntime(AsanOptions options = {});

    void
    onRunStart() override
    {
        shadow_ = ShadowMap{};
        live_.clear();
        quarantine_.clear();
    }

    void onStartup(NativeMemory &mem, const Module &module,
                   const std::vector<uint64_t> &global_addrs) override;
    uint64_t globalGap() const override { return options_.redzone; }

    uint64_t onMalloc(NativeMemory &mem, uint64_t size) override;
    void onFree(NativeMemory &mem, uint64_t addr,
                const SourceLoc &loc) override;
    uint64_t onRealloc(NativeMemory &mem, uint64_t addr,
                       uint64_t size) override;

    bool checksAccessesIn(const Function &fn) const override;
    bool chargesAccessChecks() const override { return true; }
    void
    onLoad(NativeMemory &mem, uint64_t addr, unsigned size,
           const SourceLoc &loc) override
    {
        (void)mem;
        checkAccess(addr, size, false, loc);
    }
    void
    onStore(NativeMemory &mem, uint64_t addr, unsigned size,
            const SourceLoc &loc) override
    {
        (void)mem;
        checkAccess(addr, size, true, loc);
    }

    uint64_t allocaRedzone() const override { return options_.redzone; }
    void onAlloca(NativeMemory &mem, uint64_t base, uint64_t var_addr,
                  uint64_t var_size, uint64_t total) override;
    void onFrameExit(NativeMemory &mem, uint64_t lo, uint64_t hi) override;

    bool
    reportLeaks(BugReport &report) override
    {
        if (!options_.detectLeaks || live_.empty())
            return false;
        int64_t bytes = 0;
        for (const auto &[user, block] : live_)
            bytes += static_cast<int64_t>(block.size);
        report.kind = ErrorKind::memoryLeak;
        report.storage = StorageKind::heap;
        report.detail = std::to_string(live_.size()) +
            " heap block(s), " + std::to_string(bytes) +
            " byte(s) never freed (LeakSanitizer)";
        return true;
    }

    bool interceptsLibc() const override { return true; }
    void onLibcCall(NativeMemory &mem, const std::string &name,
                    const std::vector<NValue> &args,
                    const SourceLoc &loc) override;

  private:
    struct LiveBlock
    {
        uint64_t base = 0;  ///< allocation base including left redzone
        uint64_t size = 0;  ///< user-visible size
        uint64_t total = 0; ///< size including both redzones
    };

    [[noreturn]] void report(Poison kind, uint64_t addr, unsigned size,
                             bool is_write, const SourceLoc &loc);
    void checkAccess(uint64_t addr, unsigned size, bool is_write,
                     const SourceLoc &loc);
    /** Walk a guest string checking shadow per byte (interceptors). */
    void checkString(NativeMemory &mem, uint64_t addr,
                     const SourceLoc &loc);
    void checkRange(NativeMemory &mem, uint64_t addr, uint64_t len,
                    bool is_write, const SourceLoc &loc);
    void releaseOldest(NativeMemory &mem);

    AsanOptions options_;
    ShadowMap shadow_;
    std::map<uint64_t, LiveBlock> live_;
    std::deque<std::pair<uint64_t, LiveBlock>> quarantine_;
};

} // namespace sulong

#endif // MS_SANITIZER_ASAN_RUNTIME_H
