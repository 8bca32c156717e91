/**
 * @file
 * Instrumentation hook interface for the native engine.
 *
 * The plain engine runs with no hooks ("Clang" baseline). Both tools
 * check loads and stores through onLoad/onStore, in the frames of the
 * functions checksAccessesIn() selects: the ASan-style tool in its
 * instrumented (non-libc) functions, plus allocator interposition,
 * stack redzones and interceptors (compile-time instrumentation); the
 * Memcheck-style tool in every function, plus definedness tracking
 * (runtime instrumentation). Hook implementations report bugs by
 * throwing MemoryErrorException.
 */

#ifndef MS_NATIVE_HOOKS_H
#define MS_NATIVE_HOOKS_H

#include "native/memory.h"
#include "native/nvalue.h"

namespace sulong
{

class NativeHooks
{
  public:
    virtual ~NativeHooks() = default;

    /** Called at the start of every run, before memory is laid out:
     *  reset all per-process shadow state (the engine recreates its
     *  NativeMemory per run, and the hooks must match). */
    virtual void onRunStart() {}

    /** Called once after globals are laid out and argv/envp built. */
    virtual void
    onStartup(NativeMemory &mem, const Module &module,
              const std::vector<uint64_t> &global_addrs)
    {
        (void)mem;
        (void)module;
        (void)global_addrs;
    }

    /** Padding between globals (ASan global redzones). */
    virtual uint64_t globalGap() const { return 0; }

    // --- Access checks ----------------------------------------------------

    /**
     * True when the loads and stores executed in a frame of @p fn go
     * through onLoad/onStore, and its allocas get allocaRedzone() bytes
     * on each side. Asked once per call frame.
     */
    virtual bool
    checksAccessesIn(const Function &fn) const
    {
        (void)fn;
        return false;
    }
    /**
     * True when each checked load or store retires one step between its
     * check and the access: the check is code compiled into the program
     * (ASan's inserted call), not work of the tool around it (Memcheck).
     */
    virtual bool chargesAccessChecks() const { return false; }
    virtual void
    onLoad(NativeMemory &mem, uint64_t addr, unsigned size,
           const SourceLoc &loc)
    {
        (void)mem; (void)addr; (void)size; (void)loc;
    }
    virtual void
    onStore(NativeMemory &mem, uint64_t addr, unsigned size,
            const SourceLoc &loc)
    {
        (void)mem; (void)addr; (void)size; (void)loc;
    }

    // --- Allocator interposition -----------------------------------------

    virtual uint64_t
    onMalloc(NativeMemory &mem, uint64_t size)
    {
        return mem.heapAlloc(size);
    }
    virtual void
    onFree(NativeMemory &mem, uint64_t addr, const SourceLoc &loc)
    {
        (void)loc;
        if (addr != 0)
            mem.heapFree(addr); // invalid frees are silent natively
    }
    virtual uint64_t
    onRealloc(NativeMemory &mem, uint64_t addr, uint64_t size)
    {
        return mem.heapRealloc(addr, size);
    }

    // --- Stack instrumentation (ASan) --------------------------------------

    /** Redzone bytes placed on each side of an alloca in a checked frame. */
    virtual uint64_t allocaRedzone() const { return 0; }
    virtual void
    onAlloca(NativeMemory &mem, uint64_t base, uint64_t var_addr,
             uint64_t var_size, uint64_t total)
    {
        (void)mem; (void)base; (void)var_addr; (void)var_size; (void)total;
    }
    /** Frame teardown: [lo, hi) returns to ordinary stack memory. */
    virtual void
    onFrameExit(NativeMemory &mem, uint64_t lo, uint64_t hi)
    {
        (void)mem; (void)lo; (void)hi;
    }

    /** Every stack allocation (all functions) — V-bit tracking uses this
     *  to mark fresh stack memory undefined. */
    virtual void
    onStackAlloc(NativeMemory &mem, uint64_t addr, uint64_t size)
    {
        (void)mem; (void)addr; (void)size;
    }

    // --- libc interceptors (ASan) -------------------------------------------

    virtual bool interceptsLibc() const { return false; }
    virtual void
    onLibcCall(NativeMemory &mem, const std::string &name,
               const std::vector<NValue> &args, const SourceLoc &loc)
    {
        (void)mem; (void)name; (void)args; (void)loc;
    }

    // --- Definedness (V-bit) tracking (Memcheck) ------------------------------

    virtual bool tracksDefinedness() const { return false; }
    virtual bool
    loadDefined(NativeMemory &mem, uint64_t addr, unsigned size)
    {
        (void)mem; (void)addr; (void)size;
        return true;
    }
    virtual void
    storeDefined(NativeMemory &mem, uint64_t addr, unsigned size,
                 bool defined)
    {
        (void)mem; (void)addr; (void)size; (void)defined;
    }
    /** An undefined value reached a branch or a system call. */
    virtual void
    onUndefinedUse(const SourceLoc &loc)
    {
        (void)loc;
    }

    /**
     * Leak census at normal program exit. Tools that track allocations
     * (ASan/Memcheck style) fill @p report and return true when blocks
     * were never freed; the engine attaches it to the result.
     */
    virtual bool
    reportLeaks(BugReport &report)
    {
        (void)report;
        return false;
    }

    /**
     * V-bit combination for one value operation. Real Memcheck's binary
     * translation inserts shadow operations for *every* instruction, not
     * just memory accesses; tools that track definedness get this call
     * per arithmetic/compare operation, which models that cost.
     */
    virtual bool
    combineDefined(const NValue &l, const NValue &r)
    {
        return l.defined && r.defined;
    }
};

} // namespace sulong

#endif // MS_NATIVE_HOOKS_H
