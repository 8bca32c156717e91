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
 * the remaining monomorphic sites, and a redundant-check elision pass
 * that caches pointee resolution per address slot and per access site.
 *
 * All checks of the managed object model remain in place: like Graal,
 * this tier optimizes under safe semantics and can never optimize a bug
 * away (paper Sections 3.1/3.4). Elision only short-circuits the
 * aggregate *walk* to an already-resolved leaf; the leaf's liveness,
 * bounds, type, and initialization checks run on every access.
 */

#ifndef MS_INTERP_TIER2_H
#define MS_INTERP_TIER2_H

#include <unordered_map>

#include "interp/managed_engine.h"

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
    /// The (fused) load participates in the per-slot resolution cache.
    kPElideLoad = 1 << 3,
    /// The (fused) store participates in the per-slot resolution cache.
    kPElideStore = 1 << 4,
};

/** One pre-decoded instruction. */
struct PInst
{
    Opcode op = Opcode::unreachable_;
    uint8_t bits = 32;
    uint8_t pred = 0;
    uint8_t flags = 0;
    int32_t dest = -1;     ///< result slot (-1 none, -2 void-return)
    int32_t destLoad = -1; ///< fused load's own result slot
    int32_t t0 = 0;
    int32_t t1 = 0;
    int64_t gepOff = 0;
    uint64_t gepScale = 0;
    POperand a;
    POperand b;
    POperand c;        ///< select's third operand / fused store address
    POperand loadAddr; ///< fused load's address operand
    int32_t icLoad = -1;   ///< access-cache index of the (fused) load
    int32_t icStore = -1;  ///< access-cache index of the (fused) store
    int32_t callSite = -1; ///< call-site index of p2Call* ops
    /// Original instruction (loc, access type, call site, fallback).
    const Instruction *src = nullptr;
    const Instruction *srcLoad = nullptr;  ///< fused preceding load
    const Instruction *srcStore = nullptr; ///< fused following store
};

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

/** Cached resolution of the address last seen in one frame slot. Holds
 *  a real reference to the root object so the cached leaf can never
 *  dangle or be recycled; a hit additionally re-proves the resolution
 *  structurally (same object, offset, width, and not freed), so only
 *  call boundaries move the epoch (free/realloc live behind calls).
 *  epoch 0 marks an entry that must not hit (sub-object-spanning
 *  access; the engine's epoch counter starts at 1). */
struct SlotResolution
{
    uint64_t epoch = 0;
    ObjRef obj;
    int64_t offset = 0;
    uint32_t size = 0;
    ManagedObject *leaf = nullptr; ///< sub-object owned by obj
    int64_t leafOffset = 0;
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

class Tier3Code;

/**
 * A tier-2 compiled function body.
 */
class CompiledFunction
{
  public:
    // Ctor/dtor out of line: Tier3Code is incomplete here (tier3Owner_).
    explicit CompiledFunction(const Function *fn);
    ~CompiledFunction();

    /**
     * Execute on the given frame (same semantics as the interpreter).
     * @param start_pc  pre-decoded index to begin at — block entries
     *                  only; used by on-stack replacement to enter
     *                  mid-function with the interpreter's live frame.
     * @param allow_osr3  count loop back-edges and OSR into tier-3 when
     *                  hot; off when tier-3 itself resumes here after a
     *                  deopt (no ping-pong re-entry).
     */
    MValue execute(ManagedEngine &engine, ManagedEngine::Frame &frame,
                   size_t start_pc = 0, bool allow_osr3 = true);

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
    friend class Tier3Code;
    friend class ManagedEngine;
    friend std::unique_ptr<Tier3Code>
    translateTier3(const Function &fn, CompiledFunction &t2,
                   ManagedEngine &engine);

    /**
     * Checked load/store through the elision caches. @p shape_miss,
     * when given, tracks the access site's consecutive shape-cache miss
     * streak (reset on a hit) so tier-3 can deopt a site that went
     * polymorphic; tier-2 itself never needs it.
     */
    MValue loadAt(ManagedEngine &engine, const Address &addr,
                  const Instruction *src, int32_t ic, SlotResolution *sr,
                  uint16_t *shape_miss = nullptr);
    void storeAt(ManagedEngine &engine, const Address &addr,
                 const Instruction *src, const MValue &v, int32_t ic,
                 SlotResolution *sr, uint16_t *shape_miss = nullptr);
    static ManagedObject *resolveLeaf(ManagedObject *obj, int64_t offset,
                                      unsigned size, bool is_write,
                                      int64_t &leaf_offset);
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
    std::vector<SlotResolution> slotRes_;
    unsigned inlinedSites_ = 0;

    // --- tier-3 state (owned here so the hot lookup is one load) ---
    /// Tier-2 activations since the last (re)translation; crossing
    /// ManagedOptions::tier3Threshold triggers tier-3 translation.
    uint32_t activations_ = 0;
    /// Times tier-3 code for this function was invalidated; two strikes
    /// bar the function from retranslation (megamorphism is sticky).
    uint8_t tier3Fails_ = 0;
    Tier3Code *tier3_ = nullptr; ///< hot pointer (null = not translated)
    std::unique_ptr<Tier3Code> tier3Owner_;
};

/** Pre-decode @p fn (resolving globals through the engine's state). */
std::unique_ptr<CompiledFunction> compileTier2(const Function &fn,
                                               ManagedEngine &engine);

} // namespace sulong

#endif // MS_INTERP_TIER2_H
