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
    /// body carries no EH setup.
    static MValue
    evalIntBinOp(Opcode op, const MValue &l, const MValue &r, unsigned width)
    {
        std::optional<int64_t> out = sem::intBinOp(op, l.i, r.i, width);
        if (!out)
            raiseDivZero();
        return MValue::makeInt(*out, width);
    }

    static bool
    evalICmp(IntPred pred, const MValue &l, const MValue &r)
    {
        if (l.kind == MValue::Kind::addrV || r.kind == MValue::Kind::addrV)
            return evalPtrCmp(pred, l, r);
        return sem::icmp(pred, l.i, r.i);
    }

    /** Cast @p op (trunc .. fptrunc) of @p v to a @p to-bit type. */
    static MValue
    evalCast(Opcode op, const MValue &v, unsigned to)
    {
        switch (op) {
          case Opcode::trunc: case Opcode::zext: case Opcode::sext:
            return MValue::makeInt(sem::intCast(op, v.i, v.bits, to), to);
          case Opcode::fptosi: case Opcode::fptoui:
            return MValue::makeInt(sem::fpToInt(op, v.f, to), to);
          case Opcode::sitofp: case Opcode::uitofp:
            return MValue::makeFP(sem::intToFP(op, v.i, v.bits, to), to);
          default: // fpext, fptrunc
            return MValue::makeFP(v.f, to);
        }
    }

    /// Cold edges of the inline eval cores.
    [[noreturn]] static void raiseDivZero();
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
    /// Scalar access against an already-resolved (object, offset) pair —
    /// the tail of loadFrom/storeTo, shared with tier-2's resolution
    /// cache so the leaf checks are one piece of code in both paths.
    /// Inline, with a devirtualizing kind dispatch: leaf reads/writes
    /// are the single hottest operation of every tier, and the leaf
    /// classes are final, so naming the concrete class lets the whole
    /// check-and-copy body inline into the caller.
    MValue
    loadFromObject(ManagedObject *obj, int64_t offset, const Type *type)
    {
        AccessClass cls = accessClassOf(type);
        unsigned size = static_cast<unsigned>(type->size());
        uint64_t bits = 0;
        Address out;
        readObject(obj, cls, size, offset, bits, out);
        switch (cls) {
          case AccessClass::pointer:
            return MValue::makeAddr(std::move(out));
          case AccessClass::floating:
            if (type->kind() == TypeKind::f32) {
                float f = 0;
                std::memcpy(&f, &bits, 4);
                return MValue::makeFP(f, 32);
            } else {
                double d = 0;
                std::memcpy(&d, &bits, 8);
                return MValue::makeFP(d, 64);
            }
          case AccessClass::integer:
            return MValue::makeInt(static_cast<int64_t>(bits),
                                   type->intBits() == 1 ? 1
                                                        : type->intBits());
        }
        return badAccessClass();
    }

    void
    storeToObject(ManagedObject *obj, int64_t offset, const Type *type,
                  const MValue &v)
    {
        AccessClass cls = accessClassOf(type);
        unsigned size = static_cast<unsigned>(type->size());
        switch (cls) {
          case AccessClass::pointer:
            writeObject(obj, cls, 8, offset, 0, v.a);
            return;
          case AccessClass::floating: {
            uint64_t bits = 0;
            if (type->kind() == TypeKind::f32) {
                float f = static_cast<float>(v.f);
                std::memcpy(&bits, &f, 4);
            } else {
                std::memcpy(&bits, &v.f, 8);
            }
            writeObject(obj, cls, size, offset, bits, Address{});
            return;
          }
          case AccessClass::integer:
            writeObject(obj, cls, size, offset,
                        static_cast<uint64_t>(v.i), Address{});
            return;
        }
    }

    static AccessClass
    accessClassOf(const Type *type)
    {
        if (type->isPointer())
            return AccessClass::pointer;
        if (type->isFloat())
            return AccessClass::floating;
        return AccessClass::integer;
    }

    /// Dispatch a leaf read by object kind so final leaf classes
    /// devirtualize; aggregates keep the virtual byte-wise walk.
    static void
    readObject(ManagedObject *obj, AccessClass cls, unsigned size,
               int64_t offset, uint64_t &bits, Address &out)
    {
        if (!obj->exactKind()) {
            obj->read(cls, size, offset, bits, out);
            return;
        }
        switch (obj->kind()) {
          case ObjectKind::i8Array:
            static_cast<I8Array *>(obj)->read(cls, size, offset, bits, out);
            return;
          case ObjectKind::i16Array:
            static_cast<I16Array *>(obj)->read(cls, size, offset, bits,
                                               out);
            return;
          case ObjectKind::i32Array:
            static_cast<I32Array *>(obj)->read(cls, size, offset, bits,
                                               out);
            return;
          case ObjectKind::i64Array:
            static_cast<I64Array *>(obj)->read(cls, size, offset, bits,
                                               out);
            return;
          case ObjectKind::f32Array:
            static_cast<F32Array *>(obj)->read(cls, size, offset, bits,
                                               out);
            return;
          case ObjectKind::f64Array:
            static_cast<F64Array *>(obj)->read(cls, size, offset, bits,
                                               out);
            return;
          default:
            obj->read(cls, size, offset, bits, out);
            return;
        }
    }

    static void
    writeObject(ManagedObject *obj, AccessClass cls, unsigned size,
                int64_t offset, uint64_t bits, const Address &addr)
    {
        if (!obj->exactKind()) {
            obj->write(cls, size, offset, bits, addr);
            return;
        }
        switch (obj->kind()) {
          case ObjectKind::i8Array:
            static_cast<I8Array *>(obj)->write(cls, size, offset, bits,
                                               addr);
            return;
          case ObjectKind::i16Array:
            static_cast<I16Array *>(obj)->write(cls, size, offset, bits,
                                                addr);
            return;
          case ObjectKind::i32Array:
            static_cast<I32Array *>(obj)->write(cls, size, offset, bits,
                                                addr);
            return;
          case ObjectKind::i64Array:
            static_cast<I64Array *>(obj)->write(cls, size, offset, bits,
                                                addr);
            return;
          case ObjectKind::f32Array:
            static_cast<F32Array *>(obj)->write(cls, size, offset, bits,
                                                addr);
            return;
          case ObjectKind::f64Array:
            static_cast<F64Array *>(obj)->write(cls, size, offset, bits,
                                                addr);
            return;
          default:
            obj->write(cls, size, offset, bits, addr);
            return;
        }
    }

    [[noreturn]] static MValue badAccessClass();
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

    [[noreturn]] void raiseNullDeref(bool is_write, const SourceLoc &loc);
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
