/**
 * @file
 * Safe Sulong: the managed execution engine (paper Sections 3.1-3.4).
 *
 * Executes IR on the managed object model. Every memory access is
 * checked; detected bugs abort the run with a structured report. A
 * two-tier execution model stands in for the Truffle/Graal dynamic
 * compiler: functions start in the tier-1 interpreter and, once hot, are
 * "compiled" to a pre-decoded direct-threaded form with safe semantics
 * (bugs still trap; nothing is optimized away).
 */

#ifndef MS_INTERP_MANAGED_ENGINE_H
#define MS_INTERP_MANAGED_ENGINE_H

#include <memory>
#include <optional>
#include <unordered_map>

#include "interp/mvalue.h"
#include "ir/type.h"
#include "managed/globals.h"
#include "managed/heap.h"
#include "tools/engine.h"

namespace sulong
{

class CompiledFunction;

/** Tunables of the managed engine. */
struct ManagedOptions
{
    /// Enable the tier-2 "compiler" (off = pure interpreter).
    bool enableTier2 = true;
    /// Invocation count after which a function is tier-2 compiled.
    unsigned compileThreshold = 50;
    /// On-stack replacement: tier-up inside a running function once its
    /// loops get hot. The paper's prototype *lacks* OSR (Sections
    /// 4.2/5) — off by default to stay faithful; enabling it is the
    /// "future work" fix.
    bool enableOsr = false;
    /// Loop back-edges executed in one invocation before OSR kicks in.
    unsigned osrThreshold = 20'000;
    /// Simulated per-instruction compile latency in nanoseconds, modelling
    /// Graal's compile time for the warm-up experiments (0 = free).
    uint64_t compileLatencyNsPerInst = 0;
    /// Profile-guided inlining: splice small hot callees directly into
    /// the caller's tier-2 code (slots renamed, checks intact).
    bool enableInlining = true;
    /// Maximum pre-decoded instructions a call site may add (including
    /// nested inlined calls) before inlining is rejected.
    unsigned inlineBudget = 64;
    /// Call-site invocations observed during tier-1 warm-up before a
    /// site counts as hot. -1 = auto (half the compile threshold);
    /// 0 = inline every eligible site (tests/ablation).
    int inlineSiteMin = -1;
    /// Redundant-check elision: cache pointee resolution per address
    /// slot / per access site so straight-line re-accesses skip the
    /// aggregate walk. Bounds/type/liveness checks always run; the
    /// --no-check-elision ablation proves reports are bit-identical.
    bool enableCheckElision = true;
    /// Not settable; kept only because perfbench/ reads these names.
    static constexpr bool enableTier3 = false;
    static constexpr unsigned tier3Threshold = 0;
    /// Disable the relaxed type rules of Section 3.2 (ablation).
    bool strictTypes = false;
    /// Keep profiling counters and tier-2 code across run() calls on the
    /// same module — the in-process re-execution mode the paper's
    /// warm-up experiment (Fig. 15) uses.
    bool persistState = false;
    /// Report heap blocks never freed at normal exit as a memory-leak
    /// bug (paper Section 6 future work; the managed heap's exact
    /// allocation tracking makes this precise, no heuristics).
    bool detectLeaks = false;
    /// Exact uninitialized-read detection (the paper's footnote-3/§6
    /// future feature): reading a never-written stack or heap byte is
    /// reported at the faulting load.
    bool detectUninitReads = false;
};

/** One compile event, recorded for the warm-up experiment (Fig. 15). */
struct CompileEvent
{
    std::string function;
    uint64_t atStep = 0;
};

/**
 * Per-run execution-profiler scratch. Plain (non-atomic) fields: the
 * engine is single-threaded per run, so hot paths pay one predicted
 * branch per event and the totals go to the global obs registry in one
 * batch when run() finishes (see ManagedEngine::flushTelemetry).
 */
struct ManagedTelemetry
{
    uint64_t tier2Compiles = 0;
    uint64_t inlinedSites = 0;
    // Call inline caches (tier-2 indirect call sites).
    uint64_t icToMono = 0;
    uint64_t icToMega = 0;
    uint64_t icHits = 0;
    // Redundant-check elision: address-slot resolutions and struct-shape
    // access caches (the two complementary tiers of PR 3).
    uint64_t elideSlotHits = 0;
    uint64_t elideSlotMisses = 0;
    uint64_t elideShapeHits = 0;
    uint64_t elideShapeMisses = 0;
    /// Code size of each tier-2 compile this run; recorded here and
    /// flushed to the registry histogram at run() end, so the compile
    /// path never touches the registry from this TU.
    std::vector<uint64_t> tier2CodeSizes;
};

/**
 * The Safe Sulong engine.
 */
class ManagedEngine : public Engine
{
  public:
    explicit ManagedEngine(ManagedOptions options = {});
    ~ManagedEngine() override;

    std::string name() const override { return "SafeSulong"; }

    ExecutionResult run(const Module &module,
                        const std::vector<std::string> &args,
                        const std::string &stdin_data) override;

    /** Compile events of the last run (warm-up instrumentation). */
    const std::vector<CompileEvent> &compileEvents() const
    {
        return compileEvents_;
    }
    /** Executed IR instructions in the last run. */
    uint64_t executedSteps() const { return guard_.steps(); }
    /** Functions executed at tier 2 at least once in the last run. */
    unsigned tier2Functions() const { return tier2Count_; }
    /// Always 0; kept only because perfbench/ reads this name.
    unsigned tier3Functions() const { return 0; }
    /** Call sites spliced into their caller by tier-2 inlining. */
    unsigned inlinedSites() const { return inlinedSites_; }

  private:
    friend class CompiledFunction;
    friend class Tier2Compiler;
    friend std::unique_ptr<CompiledFunction>
    compileTier2(const Function &fn, ManagedEngine &engine);

    struct Frame
    {
        std::vector<MValue> slots;
        std::vector<MValue> varargs;
    };

    /// Scalar evaluation shared by both tiers. The arithmetic itself is
    /// ir/semantics.h, the one definition every evaluator calls; these
    /// only map it onto MValues, raise division by zero, and compare
    /// pointers by object. Inline: they sit on the per-instruction path
    /// of every tier; the throwing edges stay out-of-line so the hot
    /// body carries no EH setup. Results are written by the caller
    /// (MValue::setInt) or into @p dest in place.
    static int64_t
    evalIntBinOp(Opcode op, const MValue &l, const MValue &r, unsigned width)
    {
        std::optional<int64_t> out = sem::intBinOp(op, l.i, r.i, width);
        if (!out)
            raiseDivZero();
        return *out;
    }

    static bool
    evalICmp(IntPred pred, const MValue &l, const MValue &r)
    {
        if (l.kind == MValue::Kind::addrV || r.kind == MValue::Kind::addrV)
            return evalPtrCmp(pred, l, r);
        return sem::icmp(pred, l.i, r.i);
    }

    /** Cast @p op (trunc .. fptrunc) of @p v to a @p to-bit type. */
    static void
    evalCast(Opcode op, const MValue &v, unsigned to, MValue &dest)
    {
        switch (op) {
          case Opcode::trunc: case Opcode::zext: case Opcode::sext:
            dest.setInt(sem::intCast(op, v.i, v.bits, to), to);
            return;
          case Opcode::fptosi: case Opcode::fptoui:
            dest.setInt(sem::fpToInt(op, v.f, to), to);
            return;
          case Opcode::sitofp: case Opcode::uitofp:
            dest.setFP(sem::intToFP(op, v.i, v.bits, to), to);
            return;
          default: // fpext, fptrunc
            dest.setFP(v.f, to);
            return;
        }
    }

    /** evalCast into a new value (tier-1 returns its results). */
    static MValue
    evalCast(Opcode op, const MValue &v, unsigned to)
    {
        MValue out;
        evalCast(op, v, to, out);
        return out;
    }

    /// Cold edges of the inline eval cores.
    [[noreturn, gnu::cold]] static void raiseDivZero();
    static bool evalPtrCmp(IntPred pred, const MValue &l, const MValue &r);

    // --- Interpreter core -------------------------------------------------
    MValue callFunction(const Function *fn, std::vector<MValue> args,
                        std::vector<MValue> varargs);
    MValue interpret(const Function *fn, Frame &frame);
    MValue evalOperand(const Value *v, Frame &frame);
    MValue execInstruction(const Instruction &inst, Frame &frame);
    MValue loadFrom(const Address &addr, const Type *type,
                    const SourceLoc &loc);
    void storeTo(const Address &addr, const Type *type, const MValue &v,
                 const SourceLoc &loc);
    /// The one checked scalar access of both tiers, against an
    /// already-resolved (object, offset) pair: the tail of
    /// loadFrom/storeTo, and of tier-2's loadAt/storeAt. An integer or
    /// float access that a primitive leaf's inline check admits is done
    /// here, without a call; everything else goes to loadOther or
    /// storeOther. A load writes its result into @p dest in place.
    static void
    loadFromObject(ManagedObject *obj, int64_t offset,
                   const ScalarAccess &acc, MValue &dest)
    {
        // The common scalar read, with no call on its way: a primitive
        // leaf's inline check admits it, and the bits land in dest.
        uint64_t bits = 0;
        if (acc.cls != AccessClass::pointer && obj->exactKind() &&
            obj->kind() != ObjectKind::addressArray &&
            static_cast<PrimitiveLeaf *>(obj)->tryRead(acc.size, offset,
                                                       bits)) {
            setScalar(dest, acc, bits);
            return;
        }
        loadOther(obj, offset, acc, dest);
    }

    /** Every other load: pointer reads, and whatever the inline test
     *  did not admit. Out of line, so the common read needs no frame. */
    [[gnu::noinline]] static void
    loadOther(ManagedObject *obj, int64_t offset, const ScalarAccess &acc,
              MValue &dest)
    {
        uint64_t bits = 0;
        // A pointer read lands in dest.a; no other read touches it.
        if (isAddressArray(obj)) {
            static_cast<AddressArray *>(obj)->read(acc.cls, acc.size,
                                                   offset, bits, dest.a);
        } else {
            obj->read(acc.cls, acc.size, offset, bits, dest.a);
        }
        if (acc.cls == AccessClass::pointer)
            dest.markAddr();
        else
            setScalar(dest, acc, bits);
    }

    /** Write the integer or float read as @p bits into @p dest. */
    static void
    setScalar(MValue &dest, const ScalarAccess &acc, uint64_t bits)
    {
        if (acc.cls == AccessClass::integer) {
            dest.setInt(static_cast<int64_t>(bits), acc.bits);
        } else if (acc.bits == 32) {
            float f = 0;
            std::memcpy(&f, &bits, 4);
            dest.setFP(f, 32);
        } else {
            double d = 0;
            std::memcpy(&d, &bits, 8);
            dest.setFP(d, 64);
        }
    }

    static void
    storeToObject(ManagedObject *obj, int64_t offset,
                  const ScalarAccess &acc, const MValue &v)
    {
        // The common scalar write, with no call on its way (see
        // loadFromObject).
        if (acc.cls != AccessClass::pointer && obj->exactKind() &&
            obj->kind() != ObjectKind::addressArray &&
            static_cast<PrimitiveLeaf *>(obj)->tryWrite(
                acc.cls, acc.size, offset, scalarBits(acc, v)))
            return;
        storeOther(obj, offset, acc, v);
    }

    /** Every other store; the mirror of loadOther. */
    [[gnu::noinline]] static void
    storeOther(ManagedObject *obj, int64_t offset, const ScalarAccess &acc,
               const MValue &v)
    {
        const uint64_t bits =
            acc.cls == AccessClass::pointer ? 0 : scalarBits(acc, v);
        // Only a pointer-class write reads the Address argument.
        if (isAddressArray(obj)) {
            static_cast<AddressArray *>(obj)->write(acc.cls, acc.size,
                                                    offset, bits, v.a);
        } else {
            obj->write(acc.cls, acc.size, offset, bits, v.a);
        }
    }

    /// An AddressArray's inline check needs no virtual call; every other
    /// object that reaches loadOther/storeOther takes its virtual
    /// read/write, which runs the full check and raises the report.
    static bool
    isAddressArray(const ManagedObject *obj)
    {
        return obj->exactKind() && obj->kind() == ObjectKind::addressArray;
    }

    /** The bits an integer or float store of @p v writes. */
    static uint64_t
    scalarBits(const ScalarAccess &acc, const MValue &v)
    {
        if (acc.cls == AccessClass::integer)
            return static_cast<uint64_t>(v.i);
        if (acc.bits == 32) {
            float f = static_cast<float>(v.f);
            uint32_t raw = 0;
            std::memcpy(&raw, &f, 4);
            return raw;
        }
        uint64_t raw = 0;
        std::memcpy(&raw, &v.f, 8);
        return raw;
    }

    MValue execCall(const Instruction &inst, Frame &frame);
    MValue callIntrinsic(const Function *fn, const Instruction *site,
                         std::vector<MValue> &args);
    ObjRef allocaObject(const Instruction &inst);
    /** Compile (or fetch) tier-2 code outside the invocation-count path:
     *  OSR transitions and inline-cache compile-on-first-dispatch. */
    CompiledFunction *tier2CodeFor(const Function *fn, const char *why);
    /** Compiled code's call fast path (direct calls and inline-cache
     *  hits): invoke @p code on a frame the caller already sized and
     *  filled (via acquireFrame), with the same depth accounting as
     *  callFunction. */
    MValue invokeCompiled(CompiledFunction *code, Frame &frame);
    /** Pop a cleared frame off the pool (fresh value-initialized slots
     *  after resize; the backing allocation is reused across calls). */
    Frame acquireFrame();
    /** Clear @p frame and return it to the pool. Skipped on unwind —
     *  the frame just destructs and the pool refills on later calls. */
    void releaseFrame(Frame &&frame);
    /** Cached intrinsic id (raw enum value) for a declared function. */
    uint8_t intrinsicIdFor(const Function *fn);

    [[noreturn, gnu::cold]] void raiseNullDeref(bool is_write,
                                                const SourceLoc &loc);
    /** Stamp @p report with its faulting instruction, and `function`
     *  with that instruction's function. Every tier calls this in its
     *  handler; only the innermost frame's call takes effect. */
    static void noteBugSite(BugReport &report, const Instruction &inst);
    void step();
    void reportLeaks(ExecutionResult &result);

    // --- Execution profiler ------------------------------------------------
    /// Per-function retired-step and tier attribution.
    struct FnProfile
    {
        uint64_t tier1Steps = 0;
        uint64_t tier2Steps = 0;
    };
    FnProfile *profileFor(const Function *fn);
    /// Push this run's telemetry into the global obs registry. Defined
    /// in engine_telemetry.cc: keeping the registry-heavy code out of
    /// this TU keeps the interpreter's codegen byte-identical between
    /// MS_OBS=ON and =OFF builds (the perf-gate comparison).
    void flushTelemetry(const ExecutionResult &result);

    // --- State ---------------------------------------------------------------
    ManagedOptions options_;
    const Module *module_ = nullptr;
    std::unique_ptr<GlobalStore> globals_;
    /// Private context for heap-interned array shapes. Keeping it off the
    /// module's TypeContext leaves the module strictly read-only during
    /// execution, so batch jobs can share one cached module across
    /// threads. Declared before heap_, which holds a reference into it.
    std::unique_ptr<TypeContext> heapTypes_;
    std::unique_ptr<ManagedHeap> heap_;
    GuestIO io_;
    /// Per-run resource accounting (steps, call depth, heap, output,
    /// deadline, cancellation). Reset on every run(); the heap and the
    /// guest IO report into it by stable address.
    ResourceGuard guard_;

    /// Allocation-site mementos (Section 3.3), hashed: the malloc
    /// wrappers of the safe libc make this a hot lookup.
    std::unordered_map<const Instruction *, const Type *> mementos_;
    /// ptrtoint pinning: object id -> object.
    std::unordered_map<uint64_t, ObjRef> pinned_;
    uint64_t nextPinId_ = 1;
    std::unordered_map<const ManagedObject *, uint64_t> pinIds_;

    /// Intrinsic ids cached per Function (avoids name lookups on the
    /// hot call path).
    std::unordered_map<const Function *, uint8_t> intrinsicCache_;

    /// Tier-2 state.
    std::unordered_map<const Function *, unsigned> invocationCounts_;
    std::unordered_map<const Function *, std::unique_ptr<CompiledFunction>>
        compiled_;
    /// Per-call-site invocation counts from tier-1 warm-up; tier-2
    /// compilation consults them to pick inlining candidates.
    std::unordered_map<const Instruction *, uint32_t> callSiteCounts_;
    std::vector<CompileEvent> compileEvents_;
    unsigned tier2Count_ = 0;
    unsigned inlinedSites_ = 0;
    /// Recycled call frames for compiled code's call handlers: tiny-call
    /// workloads otherwise spend more time in the per-call slot-vector
    /// malloc/free than in the callee. Frames are cleared on release,
    /// so acquire + resize hands out value-initialized slots — the
    /// exact state a fresh frame would have.
    std::vector<Frame> framePool_;
    /// Resolution-cache epoch: bumped at call boundaries, the only
    /// place object structure can change (free/realloc are calls).
    /// Stores and branches never invalidate — aggregate layout is
    /// immutable while an object is live, and every cached resolution
    /// is re-validated structurally (object identity, offset, width,
    /// liveness) before use anyway. Starts at 1 so the epoch==0
    /// "uncacheable" sentinel in SlotResolution can never match.
    uint64_t resolveEpoch_ = 1;

    /// Execution-profiler state; profiling_ is captured once per run
    /// from obs::metricsEnabled() so the per-instruction cost of a
    /// disabled profiler is a single predicted branch.
    bool profiling_ = false;
    ManagedTelemetry telem_;
    std::unordered_map<const Function *, FnProfile> fnProfiles_;
    /// Heap totals already flushed (the heap outlives run() under
    /// persistState, so flushes must be delta-based).
    uint64_t heapAllocBytesFlushed_ = 0;
    uint64_t heapFreedBytesFlushed_ = 0;
    uint64_t heapAllocsFlushed_ = 0;
    uint64_t heapFreesFlushed_ = 0;
};

} // namespace sulong

#endif // MS_INTERP_MANAGED_ENGINE_H
