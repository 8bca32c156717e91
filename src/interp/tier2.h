/**
 * @file
 * Tier-2 execution: the stand-in for Graal's dynamic compilation.
 *
 * When a function gets hot, it is "compiled": its blocks are flattened
 * into a pre-decoded instruction array with resolved operand descriptors
 * (slot index or constant-pool index, globals resolved to managed
 * Addresses), direct branch-target indices, and safe superinstruction
 * fusion (compare+branch, load+arith, arith+store). On top of that the
 * optimizing layer adds profile-guided inlining of small hot callees
 * (slots renamed, spliced in place of the call), call inline caches for
 * the remaining monomorphic sites, and redundant-check elision through
 * a per-access-site struct-shape cache.
 *
 * The stream runs on a direct-threaded executor: every instruction
 * carries a dense dispatch opcode (TOp, threaded.h) so the executor
 * jumps handler-to-handler through a computed-goto label table (or a
 * portable switch) instead of re-decoding flags every step. Straight-
 * line runs are fused into *superblocks*: maximal single-entry runs that
 * end at any branch, return, call, or interpreter escape. The head
 * charges the whole run's step count against the ResourceGuard at once;
 * every op still executes individually with every check — fusion
 * batches *accounting*, never semantics. An exception mid-superblock
 * returns the not-yet-executed remainder with uncharge(), and a batch
 * the guard refuses (it would cross the step limit) switches the
 * activation to op-by-op charging, so executedSteps() equals the
 * per-op count on every path and the limit trips on exactly the
 * instruction where tier-1 stops.
 *
 * All checks of the managed object model remain in place: like Graal,
 * this tier optimizes under safe semantics and can never optimize a bug
 * away (paper Sections 3.1/3.4). Check elision is one cache per
 * access site: which field of which struct type the access last went
 * through. A hit skips only the struct's field lookup; the field's
 * liveness, bounds, type, and initialization checks run on every
 * access. One cache is enough: with leaf roots going straight to
 * their inline check, a per-address-slot resolution cache had no hit
 * in the 11 peak programs, the 68-program corpus or 40 eager-tier-2
 * fuzz seeds (the shape cache: 1.57M), and a warmed A/B of the peak
 * programs ran no slower without it.
 *
 * What an access costs when it succeeds: its class, size and width are
 * decoded into the PInst once (ScalarAccess), so the executor reads no
 * Type; a leaf root goes straight to the leaf's one inline check and
 * fixed-width copy (PrimitiveLeaf, AddressArray; the same code tier-1's
 * loadFrom/storeTo end in), with no virtual or library call; and the
 * result is written into its slot in place (MValue::set*). Every
 * failing check falls through to the leaf's out-of-line checked path,
 * which raises the report; the raise paths are cold.
 */

#ifndef MS_INTERP_TIER2_H
#define MS_INTERP_TIER2_H

#include <unordered_map>

#include "interp/managed_engine.h"
#include "interp/threaded.h"

namespace sulong
{

/** One pre-decoded operand: a frame slot or a constant-pool index. */
struct POperand
{
    bool isSlot = false;
    int32_t index = 0; ///< slot number, or constant-pool index
};

/// PInst::flags bits.
enum : uint8_t
{
    /// icmp fused with the directly following condbr (targets t0/t1).
    kPFuseCmpBr = 1 << 0,
    /// A preceding load was fused in: perform it first (address in
    /// loadAddr, result into destLoad), then evaluate as usual.
    kPFuseLoad = 1 << 1,
    /// The directly following store was fused in: after writing dest,
    /// store the result through operand c.
    kPFuseStore = 1 << 2,
};

/**
 * One pre-decoded instruction.
 *
 * Every op that loads names its load in the load fields (loadAddr,
 * destLoad, srcLoad, accLoad, icLoad) and every op that stores names
 * its store in the store fields (c, srcStore, accStore, icStore),
 * whether the access is the op itself or fused into it; a plain store's
 * value is operand a, a fused store's the op's own result.
 */
struct PInst
{
    Opcode op = Opcode::unreachable_;
    /// Flat dispatch opcode (op with the fusion flags folded in).
    TOp top = TOp::tInterp;
    uint8_t bits = 32;
    uint8_t pred = 0;
    uint8_t flags = 0;
    /// The load's and the store's access, decoded once from the IR
    /// type: the executor reads no Type on a successful access.
    ScalarAccess accLoad;
    ScalarAccess accStore;
    /// Superblock length in ops, charged at once on entry; 0 on
    /// non-head instructions (already covered by their head's charge).
    uint16_t charge = 0;
    int32_t dest = -1;     ///< result slot (-1 none, -2 void-return)
    int32_t destLoad = -1; ///< the load's result slot
    int32_t t0 = 0;
    int32_t t1 = 0;
    int64_t gepOff = 0;
    uint64_t gepScale = 0;
    POperand a;
    POperand b;
    POperand c;        ///< select's third operand / the store's address
    POperand loadAddr; ///< the load's address operand
    int32_t icLoad = -1;   ///< access-cache index of the (fused) load
    int32_t icStore = -1;  ///< access-cache index of the (fused) store
    int32_t callSite = -1; ///< call-site index of p2Call* ops
    /// Index into CompiledFunction::allocaCache_ for recyclable alloca
    /// sites (scalar and primitive-array locals); -1 when the site's
    /// type has no reset support and must always allocate afresh.
    int32_t allocaSite = -1;
    /// Original instruction (loc, access type, call site, fallback).
    const Instruction *src = nullptr;
    const Instruction *srcLoad = nullptr;  ///< the load (fault sites)
    const Instruction *srcStore = nullptr; ///< the store (fault sites)
};

/// Superblock length cap (PInst::charge is uint16_t; also bounds the
/// step-accounting granularity the guard sees in one batch).
constexpr size_t kMaxSuperblockLen = 1024;

/// Inline-cache states of an indirect call site.
constexpr uint32_t kICEmpty = ~0u;
constexpr uint32_t kICMegamorphic = ~0u - 1;

/** A non-inlined call site with an inline cache (paper: FunctionAddress
 *  ids back Sulong's call inline caches). */
struct CallSite
{
    std::vector<POperand> args;
    const Function *callee = nullptr; ///< cached target
    CompiledFunction *code = nullptr; ///< compiled on first dispatch
    uint32_t cachedFnId = kICEmpty;   ///< indirect-site guard/state
};

/** Per-site monomorphic struct-shape cache: which field of which struct
 *  type this access last resolved to. A hit re-checks liveness and the
 *  field span, then goes straight to the field object (whose own checks
 *  still run); any mismatch takes the full resolve path and refills. */
struct AccessCache
{
    const Type *structType = nullptr;
    uint32_t fieldIndex = 0;
    int64_t fieldOffset = 0;
    int64_t fieldSize = 0;
};

/** The instruction a bug raised by @p pi belongs to: on a fused op, a
 *  read fault is the fused load's and a write fault the fused store's.
 *  Inlined code keeps its callee's instructions, so this also names
 *  the callee a spliced body came from. */
inline const Instruction &
faultSite(const PInst &pi, AccessKind access)
{
    if (access == AccessKind::read && pi.srcLoad != nullptr)
        return *pi.srcLoad;
    if (access == AccessKind::write && pi.srcStore != nullptr)
        return *pi.srcStore;
    return *pi.src;
}

/**
 * A tier-2 compiled function body.
 */
class CompiledFunction
{
  public:
    explicit CompiledFunction(const Function *fn) : fn_(fn) {}

    /**
     * Execute on the given frame (same semantics as the interpreter)
     * through the direct-threaded executor (threaded.cc).
     * @param start_pc  pre-decoded index to begin at — function entry
     *                  or a block entry (both superblock heads); block
     *                  entries let tier-1 on-stack replacement enter
     *                  mid-function with the interpreter's live frame.
     */
    MValue execute(ManagedEngine &engine, ManagedEngine::Frame &frame,
                   size_t start_pc = 0);

    size_t codeSize() const { return code_.size(); }

    /** Frame slots needed (the function's own plus inlined bodies'). */
    uint32_t frameSize() const { return frameSize_; }

    /** Call sites spliced into this body by inlining. */
    unsigned inlinedSites() const { return inlinedSites_; }

    /** Pre-decoded entry index of a basic block (for OSR). */
    size_t
    entryFor(const BasicBlock *bb) const
    {
        return static_cast<size_t>(blockStart_.at(bb));
    }

  private:
    friend class Tier2Compiler;

    /** The threaded dispatch loop. @p kPerOp charges every op on its
     *  own instead of per superblock; a batched activation switches to
     *  it when the guard refuses a batch that would cross the limit. */
    template <bool kPerOp>
    MValue run(ManagedEngine &engine, ManagedEngine::Frame &frame,
               size_t start_pc);

    /** @p pi's checked load from @p addr, its result written in place
     *  into @p dest. A leaf root goes straight to the leaf's inline
     *  check; an aggregate root goes through the shape cache. */
    void loadAt(ManagedEngine &engine, const PInst &pi, const Address &addr,
                MValue &dest);
    /** @p pi's checked store of @p v to @p addr; the mirror of loadAt. */
    void storeAt(ManagedEngine &engine, const PInst &pi,
                 const Address &addr, const MValue &v);
    /// The aggregate-root half of loadAt/storeAt: the struct-shape
    /// cache of access site @p ic (-1: none), then @p access(object,
    /// offset), the checked access itself. Out of line, so the leaf
    /// path stays a small frame.
    template <typename Access>
    [[gnu::noinline]] void accessAggregate(ManagedEngine &engine,
                                           int32_t ic, ManagedObject *obj,
                                           int64_t offset, unsigned size,
                                           const Access &access);
    static void fillAccessCache(AccessCache &cache,
                                const StructObject *sobj, int64_t offset,
                                uint32_t size);

    const Function *fn_;
    std::vector<PInst> code_;
    std::vector<MValue> constants_;
    std::unordered_map<const BasicBlock *, int32_t> blockStart_;
    uint32_t frameSize_ = 0;
    std::vector<CallSite> callSites_;
    std::vector<AccessCache> accessCaches_;
    /// Per recyclable alloca site: the object most recently handed out.
    /// When its refcount drops back to 1 (only this cache holds it), the
    /// local provably died without escaping and the next execution of
    /// the site resets and reuses it instead of allocating.
    std::vector<ObjRef> allocaCache_;
    unsigned inlinedSites_ = 0;
};

/** Pre-decode @p fn (resolving globals through the engine's state). */
std::unique_ptr<CompiledFunction> compileTier2(const Function &fn,
                                               ManagedEngine &engine);

} // namespace sulong

#endif // MS_INTERP_TIER2_H
