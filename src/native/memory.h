/**
 * @file
 * The flat process-memory model of the native execution engines.
 *
 * Lays memory out like a real (simplified) AMD64 Linux process: a global
 * data segment, a growing heap whose allocator reuses freed blocks
 * immediately, a contiguous downward-growing stack, and an argv/envp
 * region set up before the program starts. Accesses within mapped
 * segments always succeed — out-of-bounds accesses silently read or
 * corrupt neighbouring objects, which is exactly the behaviour
 * shadow-memory tools try (and partially fail) to detect. Accesses to
 * unmapped addresses trap like SIGSEGV.
 */

#ifndef MS_NATIVE_MEMORY_H
#define MS_NATIVE_MEMORY_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "managed/errors.h"
#include "support/limits.h"

namespace sulong
{

/** Raised on an access to unmapped simulated memory. */
class NativeTrap
{
  public:
    NativeTrap(uint64_t addr, bool is_write)
        : addr_(addr), isWrite_(is_write)
    {}

    uint64_t addr() const { return addr_; }
    bool isWrite() const { return isWrite_; }

  private:
    uint64_t addr_;
    bool isWrite_;
};

/** Segment layout constants (32-bit-ish addresses inside i64 values). */
struct NativeLayout
{
    static constexpr uint64_t globalBase = 0x0060'0000;
    static constexpr uint64_t heapBase = 0x1000'0000;
    static constexpr uint64_t heapMax = 0x3000'0000;
    static constexpr uint64_t stackTop = 0x7fff'0000;
    static constexpr uint64_t stackSize = 8 * 1024 * 1024;
    static constexpr uint64_t stackBase = stackTop - stackSize;
    static constexpr uint64_t argsBase = 0x7fff'4000;
    static constexpr uint64_t argsSize = 0x4000;
};

/**
 * The simulated address space plus its heap allocator.
 */
class NativeMemory
{
  public:
    NativeMemory();

    /**
     * Attach the per-run resource guard: heap traffic (malloc/free/
     * realloc, including the instrumented allocators layered on top) is
     * metered against its heap limits.
     */
    void setGuard(ResourceGuard *guard) { guard_ = guard; }

    // --- Raw access --------------------------------------------------------

    /** Resolve to host memory; throws NativeTrap when unmapped. */
    uint8_t *resolve(uint64_t addr, uint64_t size, bool is_write);

    uint64_t readInt(uint64_t addr, unsigned size);
    void writeInt(uint64_t addr, unsigned size, uint64_t value);
    void readBytes(uint64_t addr, void *out, uint64_t len);
    void writeBytes(uint64_t addr, const void *data, uint64_t len);

    /** Guest C-string (for interceptors / diagnostics); caps length. */
    std::string readCString(uint64_t addr, uint64_t max_len = 1u << 20);

    // --- Heap allocator ----------------------------------------------------

    /** One heap block (host-side metadata; headers are not in guest
     *  memory, so corruption bugs stay silent rather than crashing the
     *  simulation). */
    struct Block
    {
        uint64_t size = 0;
        bool free = false;
    };

    /**
     * First-fit allocation with immediate reuse of freed blocks (the
     * behaviour that makes use-after-free silently "work" natively and
     * forces ASan-style tools to quarantine, paper P3).
     */
    uint64_t heapAlloc(uint64_t size);
    /** @return the freed size, or 0 when @p addr is not a live block. */
    uint64_t heapFree(uint64_t addr);
    uint64_t heapRealloc(uint64_t addr, uint64_t new_size);
    /** Size of the live block at @p addr, or 0. */
    uint64_t blockSize(uint64_t addr) const;
    const std::map<uint64_t, Block> &blocks() const { return blocks_; }

    // --- Stack -------------------------------------------------------------

    uint64_t stackPointer() const { return sp_; }
    void setStackPointer(uint64_t sp) { sp_ = sp; }
    /** Bump-allocate @p size bytes (16-aligned) on the stack. */
    uint64_t stackAlloc(uint64_t size);

    // --- Program data ------------------------------------------------------

    /**
     * Lay out all globals (with @p gap padding bytes between them — ASan
     * uses this for redzones) and apply their initializers.
     * @return address of each global, in module order.
     */
    std::vector<uint64_t> layoutGlobals(const Module &module, uint64_t gap);

    uint64_t globalAddress(const GlobalVariable *g) const;

    /** Function "addresses" for function pointers: id | functionTagBase. */
    static constexpr uint64_t functionTagBase = 0x4000'0000'0000'0000ull;
    static uint64_t functionAddress(unsigned id)
    {
        return functionTagBase + id;
    }
    static bool isFunctionAddress(uint64_t addr)
    {
        return addr >= functionTagBase;
    }
    static unsigned functionId(uint64_t addr)
    {
        return static_cast<unsigned>(addr - functionTagBase);
    }

    /** Build argv/envp in the args region; returns the array address. */
    uint64_t buildStringArray(const std::vector<std::string> &strings);

    /**
     * Build argv and envp the way the kernel does: both NULL-terminated
     * pointer arrays are adjacent, so reading past argv's terminator
     * yields valid environment-string pointers — the information leak of
     * paper Fig. 10.
     * @return {argv address, envp address}
     */
    std::pair<uint64_t, uint64_t>
    buildMainArgs(const std::vector<std::string> &argv_strings,
                  const std::vector<std::string> &env_strings);

  private:
    void applyInit(uint64_t addr, const Type *type, const Initializer &init);

    /** Unmaps the stack mapping. */
    struct Unmap
    {
        void operator()(uint8_t *stack) const;
    };

    std::vector<uint8_t> globals_;
    std::vector<uint8_t> heap_;
    /// Anonymous zero pages the OS backs on first touch: a run pays for
    /// the stack it uses, not for all 8 MB of it.
    std::unique_ptr<uint8_t, Unmap> stack_;
    std::vector<uint8_t> args_;
    uint64_t globalEnd_ = NativeLayout::globalBase;
    uint64_t heapEnd_ = NativeLayout::heapBase;
    uint64_t sp_ = NativeLayout::stackTop;
    uint64_t argsEnd_ = NativeLayout::argsBase;
    std::map<uint64_t, Block> blocks_;
    /// LIFO free lists per aligned size class: freed blocks are reused
    /// immediately and most-recently-freed first (the behaviour that
    /// defeats naive use-after-free detection, paper P3).
    std::map<uint64_t, std::vector<uint64_t>> freeLists_;
    std::map<const GlobalVariable *, uint64_t> globalAddrs_;
    ResourceGuard *guard_ = nullptr;
};

} // namespace sulong

#endif // MS_NATIVE_MEMORY_H
