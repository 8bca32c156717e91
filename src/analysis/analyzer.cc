/**
 * @file
 * The flow-sensitive intraprocedural abstract interpreter (analyzer.h).
 *
 * One FunctionAnalyzer per function definition: enumerate abstract
 * objects (module globals + local allocation sites), run a widening
 * worklist fixpoint over the CFG propagating AbsState (frame slots +
 * per-object memory maps), then one final collect pass over the
 * converged states that emits candidate findings. analyzeModule() glues
 * the per-function results together and replays the program on the
 * managed engine to confirm or demote them.
 */

#include "analysis/analyzer.h"

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/callgraph.h"
#include "analysis/lattice.h"
#include "analysis/summary.h"
#include "interp/managed_engine.h"
#include "ir/cfg.h"
#include "ir/semantics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

namespace sulong
{

namespace
{

using Ret = FunctionSummary::Ret;

/// Top value of a load/parameter of static type @p type.
AbstractValue
typedTop(const Type *type)
{
    if (type == nullptr)
        return AbstractValue::top();
    if (type->isInteger())
        return AbstractValue::ofInterval(intervalOfWidth(type->intBits()));
    if (type->isPointer())
        return AbstractValue::unknownPointer();
    if (type->isFloat())
        return AbstractValue::anyFloat();
    return AbstractValue::top();
}

/// What zero-backed storage yields when read as @p type.
AbstractValue
typedZero(const Type *type)
{
    if (type == nullptr)
        return AbstractValue::top();
    if (type->isInteger())
        return AbstractValue::ofInt(0);
    if (type->isPointer())
        return AbstractValue::nullPointer();
    if (type->isFloat())
        return AbstractValue::anyFloat();
    return AbstractValue::top();
}

/// Zero joined into an existing entry value (join of "other path reads 0").
AbstractValue
zeroOfKind(const AbstractValue &like)
{
    switch (like.kind) {
      case AbstractValue::Kind::intVal:
        return AbstractValue::ofInt(0);
      case AbstractValue::Kind::pointer:
        return AbstractValue::nullPointer();
      case AbstractValue::Kind::fpVal:
        return AbstractValue::anyFloat();
      case AbstractValue::Kind::any:
        break;
    }
    return AbstractValue::top();
}

/// The value behind a copy-on-write @p handle, cloned first if another
/// state shares it.
template <typename T>
T &
cow(std::shared_ptr<T> &handle)
{
    if (handle.use_count() != 1)
        handle = std::make_shared<T>(*handle);
    return *handle;
}

/** The frame slots one block defines (chunk 0: the arguments). */
using SlotChunk = std::vector<AbstractValue>;

/** Where each frame slot lives: a chunk and an index within it. */
struct SlotLayout
{
    std::vector<unsigned> chunkOf;
    std::vector<unsigned> indexOf;
    std::vector<unsigned> chunkSize;
};

/**
 * The whole abstract state at one program point. Its parts are shared
 * copy-on-write between the states of different program points: a
 * state is a vector of handles to slot chunks (one per defining block,
 * so a block's transfer writes only its own chunk) and to object states,
 * and a transfer clones only the parts it writes (mutSlot(), mutObj()).
 * Most objects (every untouched global) are never written by a
 * function, so they stay one allocation per analysis.
 */
struct AbsState
{
    const SlotLayout *layout = nullptr;
    /// Write only through mutSlot()/mutObj(): a handle may be shared.
    std::vector<std::shared_ptr<SlotChunk>> slots;
    std::vector<std::shared_ptr<ObjState>> objects;

    const AbstractValue &
    slot(unsigned s) const
    {
        return (*slots[layout->chunkOf[s]])[layout->indexOf[s]];
    }
    AbstractValue &
    mutSlot(unsigned s)
    {
        return cow(slots[layout->chunkOf[s]])[layout->indexOf[s]];
    }
    const ObjState &obj(unsigned i) const { return *objects[i]; }
    ObjState &mutObj(unsigned i) { return cow(objects[i]); }
};

ObjState::Liveness
joinLiveness(ObjState::Liveness a, ObjState::Liveness b)
{
    if (a == b)
        return a;
    return ObjState::Liveness::maybeFreed;
}

ContentsDefault
joinDefault(ContentsDefault a, ContentsDefault b)
{
    if (a == b)
        return a;
    if (a == ContentsDefault::uninit || a == ContentsDefault::maybeUninit ||
        b == ContentsDefault::uninit || b == ContentsDefault::maybeUninit)
        return ContentsDefault::maybeUninit;
    return ContentsDefault::unknown;
}

/// Do the byte ranges [ao, ao+aw) and [bo, bo+bw) intersect?
bool
bytesOverlap(int64_t ao, unsigned aw, int64_t bo, unsigned bw)
{
    return ao < bo + static_cast<int64_t>(bw) &&
        bo < ao + static_cast<int64_t>(aw);
}

/// Does @p contents have any entry overlapping [off, off+width)?
bool
anyOverlap(const std::map<int64_t, MemEntry> &contents, int64_t off,
           unsigned width)
{
    // Entries are at most 8 bytes wide; scan the window around [off,
    // off+width).
    auto it = contents.lower_bound(off - 8);
    for (; it != contents.end() && it->first < off + static_cast<int64_t>(width);
         ++it) {
        if (bytesOverlap(it->first, it->second.width, off, width))
            return true;
    }
    return false;
}

/// True when @p dflt means "bytes might not have been written".
bool
defaultMayBeUninit(ContentsDefault dflt)
{
    return dflt == ContentsDefault::uninit ||
        dflt == ContentsDefault::maybeUninit;
}

uint32_t &
versionCounter()
{
    static thread_local uint32_t counter = 0;
    return counter;
}

uint32_t
freshVersion()
{
    return ++versionCounter();
}

/**
 * Join objects @p a and @p b, or widen them with the thresholds @p widen
 * points to. The contents merge is the subtle part: an entry surviving
 * the merge claims to describe its bytes on BOTH paths, so any shape
 * mismatch degrades to a top-valued entry (never silently to the
 * default, which could falsely promise zero or uninit bytes).
 */
ObjState
mergeObjs(const ObjState &a, const ObjState &b,
          const std::vector<int64_t> *widen)
{
    ObjState out;
    std::map<int64_t, MemEntry> &merged = out.contents;
    auto topEntry = [](unsigned width, bool mayBeUninit) {
        MemEntry e;
        e.width = static_cast<uint8_t>(width);
        e.val = AbstractValue::top();
        e.mayBeUninit = mayBeUninit;
        e.version = freshVersion();
        return e;
    };
    // Entries present only on one side: bytes on the other side read as
    // that side's default.
    auto mergeOneSided = [&](const MemEntry &e, int64_t off,
                             const ObjState &other) {
        if (anyOverlap(other.contents, off, e.width)) {
            // Mismatched shapes across the join: value unknown.
            merged.emplace_hint(merged.end(), off,
                                topEntry(e.width,
                                         e.mayBeUninit ||
                                             defaultMayBeUninit(other.dflt)));
            return;
        }
        MemEntry out = e;
        switch (other.dflt) {
          case ContentsDefault::zero:
            out.val = joinValues(out.val, zeroOfKind(out.val));
            break;
          case ContentsDefault::uninit:
            out.mayBeUninit = true;
            break;
          case ContentsDefault::maybeUninit:
            out.val = AbstractValue::top();
            out.mayBeUninit = true;
            break;
          case ContentsDefault::unknown:
            out.val = AbstractValue::top();
            break;
        }
        if (other.weaklyWritten)
            out.val = AbstractValue::top();
        out.version = freshVersion();
        merged.emplace_hint(merged.end(), off, std::move(out));
    };

    // One ordered walk over both maps.
    auto itA = a.contents.begin();
    auto itB = b.contents.begin();
    while (itA != a.contents.end() || itB != b.contents.end()) {
        if (itB == b.contents.end() ||
            (itA != a.contents.end() && itA->first < itB->first)) {
            mergeOneSided(itA->second, itA->first, b);
            ++itA;
        } else if (itA == a.contents.end() || itB->first < itA->first) {
            mergeOneSided(itB->second, itB->first, a);
            ++itB;
        } else {
            const MemEntry &ea = itA->second;
            const MemEntry &eb = itB->second;
            if (ea.width == eb.width) {
                MemEntry out;
                out.width = ea.width;
                out.val = widen ? widenValues(ea.val, eb.val, *widen)
                                : joinValues(ea.val, eb.val);
                out.mayBeUninit = ea.mayBeUninit || eb.mayBeUninit;
                out.version =
                    ea.version == eb.version ? ea.version : freshVersion();
                merged.emplace_hint(merged.end(), itA->first,
                                    std::move(out));
            } else {
                merged.emplace_hint(
                    merged.end(), itA->first,
                    topEntry(std::max<unsigned>(ea.width, eb.width),
                             ea.mayBeUninit || eb.mayBeUninit));
            }
            ++itA;
            ++itB;
        }
    }

    out.live = joinLiveness(a.live, b.live);
    out.dflt = joinDefault(a.dflt, b.dflt);
    out.weaklyWritten = a.weaklyWritten || b.weaklyWritten;
    out.escaped = a.escaped || b.escaped;
    return out;
}

/**
 * Joins (or widens) @p in into the stored block state @p into in place,
 * one slot and one object at a time; returns whether anything changed.
 * Chunks and objects whose handle both sides share are skipped, and so
 * are slots and objects equal on both sides (join is idempotent). A
 * merged object replaces the stored one only when it differs from it,
 * so an unchanged object keeps its handle and its entries' versions.
 * Versions are compared only within one block transfer (origins_ are
 * reset per block), so which side's version survives does not matter.
 */
bool
joinStateInto(AbsState &into, const AbsState &in,
              const std::vector<int64_t> *widen)
{
    bool changed = false;
    for (size_t c = 0; c < into.slots.size(); c++) {
        if (into.slots[c] == in.slots[c])
            continue;
        const SlotChunk &b = *in.slots[c];
        for (size_t i = 0; i < b.size(); i++) {
            const AbstractValue &a = (*into.slots[c])[i];
            if (a == b[i])
                continue;
            AbstractValue merged =
                widen ? widenValues(a, b[i], *widen) : joinValues(a, b[i]);
            if (merged != a) {
                cow(into.slots[c])[i] = std::move(merged);
                changed = true;
            }
        }
    }
    for (size_t i = 0; i < into.objects.size(); i++) {
        if (into.objects[i] == in.objects[i])
            continue;
        const ObjState &a = into.obj(static_cast<unsigned>(i));
        const ObjState &b = in.obj(static_cast<unsigned>(i));
        if (a == b)
            continue;
        ObjState merged = mergeObjs(a, b, widen);
        if (!(merged == a)) {
            into.objects[i] = std::make_shared<ObjState>(std::move(merged));
            changed = true;
        }
    }
    return changed;
}

/// Load provenance for sound refinement write-back (reset per block).
struct Origin
{
    int obj = -1;
    int64_t off = 0;
    uint8_t width = 0;
    uint32_t version = 0;
};

/** What one abstract memory access can do. */
struct AccessOutcome
{
    /// Every possibility faults: the path stops here.
    bool mustFault = false;
    /// The joined loaded value over non-faulting possibilities.
    AbstractValue loaded = AbstractValue::top();
};

/**
 * Analyzes one function definition. See the file comment for the
 * phases; all per-function state lives here.
 */
class FunctionAnalyzer
{
  public:
    /**
     * @p callgraph / @p summaries / @p summaryOut are the interprocedural
     * hooks: when null (PR-4 mode, --no-summaries), calls to user
     * functions havoc everything reachable. When set, completed callee
     * summaries are applied at call sites, indirect calls are folded over
     * the may-call set, and this function's own summary is recorded into
     * @p summaryOut.
     */
    FunctionAnalyzer(const Module &module, const Function &fn,
                     const AnalysisOptions &options,
                     const CallGraph *callgraph = nullptr,
                     const SummaryDb *summaries = nullptr,
                     FunctionSummary *summaryOut = nullptr)
        : module_(module), fn_(fn), options_(options),
          callgraph_(callgraph), summaries_(summaries),
          summaryOut_(summaryOut), cfg_(fn)
    {
        enumerateObjects();
        layOutSlots();
    }

    /// Appends this function's candidates to @p findings; returns false
    /// when the fixpoint was abandoned (findings stay maybe).
    bool run(std::vector<StaticFinding> &findings);

    /// Fixpoint iterations of the last run() (telemetry).
    uint64_t
    blockVisitsTotal() const
    {
        uint64_t total = 0;
        for (unsigned v : visits_)
            total += v;
        return total;
    }

    /// Call sites where a callee summary replaced the havoc fallback
    /// (counted during the collect pass only, so the value is
    /// deterministic).
    unsigned summariesApplied() const { return summariesApplied_; }

  private:
    // --- Object enumeration ----------------------------------------------

    void enumerateObjects();
    void computeMultiInstance();
    void layOutSlots();

    // --- States ----------------------------------------------------------

    AbsState entryState() const;
    void seedGlobalContents(ObjState &state, const GlobalVariable &g) const;
    bool expandInit(ObjState &state, const Type *type,
                    const Initializer &init, int64_t off) const;

    // --- Transfer --------------------------------------------------------

    /// Executes block @p b on @p state. Successor edge states are pushed
    /// via joinInto unless collecting. Returns nothing; findings are
    /// emitted only when collect_ is set.
    void transferBlock(unsigned b, AbsState state);

    AbstractValue evalValue(const Value *v, const AbsState &st) const;
    void setSlot(AbsState &st, const Instruction &inst,
                 const AbstractValue &val);

    AccessOutcome checkAccess(const Instruction &inst, AccessKind access,
                              const AbstractValue &ptr, unsigned width,
                              const Type *readType, AbsState &st);
    AbstractValue readTarget(const Instruction &inst, const PointerTarget &t,
                             unsigned width, const Type *readType,
                             AbsState &st, bool &possibilityFaults);
    void writeTarget(const PointerTarget &t, unsigned width,
                     const AbstractValue &val, bool strong, AbsState &st);
    void eraseOverlap(ObjState &obj, int64_t off, unsigned width,
                      AbsState &st);
    void markPointerEntriesEscaped(const MemEntry &entry, AbsState &st);

    void transferCall(const Instruction &inst, AbsState &st, bool &stop);
    void transferIntrinsic(const Instruction &inst, const Function &callee,
                           AbsState &st, bool &stop);
    bool transferLibcSummary(const Instruction &inst, const Function &callee,
                             AbsState &st);
    void havocUnknownCall(const Instruction &inst, AbsState &st);
    void havocReachableFrom(std::vector<unsigned> seeds, AbsState &st);
    void havocObject(unsigned obj, AbsState &st, bool escape);
    /// Site @p id allocates @p fresh: a single-instance site starts
    /// over, a multi-instance one keeps its older instances joined in.
    void enterAllocation(AbsState &st, unsigned id, ObjState fresh);
    void freePointer(const Instruction &inst, const AbstractValue &ptr,
                     AbsState &st, bool viaRealloc);

    // --- Interprocedural summaries ---------------------------------------

    /// The summary entry for a pointer-parameter pseudo object, or null.
    ParamEffect *paramEffectOf(unsigned obj);
    /// Applies @p sum at call @p inst instead of havocking.
    void applySummary(const Instruction &inst, const FunctionSummary &sum,
                      AbsState &st, bool &stop);
    /// Folds one `ret` site into summaryOut_ (collect pass only).
    void recordReturn(const Instruction &inst, AbsState &st);

    // --- Branch refinement -----------------------------------------------

    const Instruction *resolveCondChain(const Value *cond,
                                        bool &polarity) const;
    bool applyRefinement(AbsState &st, const Instruction &cmp, bool truth);
    void writeRefinedInt(AbsState &st, const Value *v,
                         const Interval &refined);
    void writeRefinedPointer(AbsState &st, const Value *v,
                             const AbstractValue &refined);
    /// The entry @p load read, if it still holds what the load saw
    /// (same width and version); null otherwise.
    const MemEntry *loadedEntry(const AbsState &st,
                                const Instruction &load) const;
    /// That entry, in an object cloned for writing if shared.
    MemEntry &loadedEntryToWrite(AbsState &st, const Instruction &load);

    // --- Findings --------------------------------------------------------

    void emitFinding(const Instruction &inst, ErrorKind kind,
                     AccessKind access, StorageKind storage,
                     BoundsDirection direction, bool definite,
                     const std::string &detail,
                     const std::string &pathCondition,
                     std::optional<int64_t> offset = std::nullopt,
                     std::optional<int64_t> objectSize = std::nullopt);
    std::string describeObject(unsigned obj) const;

    // --- Fixpoint driver -------------------------------------------------

    void joinInto(unsigned block, AbsState &&state);

    const Module &module_;
    const Function &fn_;
    const AnalysisOptions &options_;
    const CallGraph *callgraph_ = nullptr;
    const SummaryDb *summaries_ = nullptr;
    FunctionSummary *summaryOut_ = nullptr;
    Cfg cfg_;

    std::vector<ObjectInfo> objInfo_;
    SlotLayout slotLayout_;
    std::map<const GlobalVariable *, unsigned> globalObj_;
    std::map<const Instruction *, unsigned> siteObj_;
    /// Parameter index -> pseudo-object id (-1 when not a pointer param).
    std::vector<int> paramObj_;
    unsigned summariesApplied_ = 0;

    std::vector<std::optional<AbsState>> blockIn_;
    std::vector<unsigned> visits_;
    /// Widening thresholds (sorted): 0 and c-1, c, c+1 for every
    /// integer constant c this function compares against.
    std::vector<int64_t> thresholds_;
    std::set<std::pair<int, unsigned>> worklist_; ///< (rpoIndex, block)
    bool abandoned_ = false;

    /// Set during the final pass: emitFinding records candidates.
    bool collect_ = false;
    std::vector<StaticFinding> *out_ = nullptr;
    /// Index of the instruction currently transferred within its block.
    unsigned curInstIndex_ = 0;
    /// Dedupe of (block, inst, kind) during the collect pass.
    std::map<std::tuple<unsigned, unsigned, int>, size_t> emitted_;

    /// Load provenance per frame slot; valid within one block transfer.
    std::vector<Origin> origins_;
};

// --- Object enumeration --------------------------------------------------

void
FunctionAnalyzer::enumerateObjects()
{
    for (const auto &g : module_.globals()) {
        unsigned id = static_cast<unsigned>(objInfo_.size());
        globalObj_[g] = id;
        ObjectInfo info;
        info.storage = StorageKind::global;
        info.size = Interval::of(
            static_cast<int64_t>(g->valueType()->size()));
        info.name = g->name();
        info.isConst = g->isConst();
        objInfo_.push_back(std::move(info));
    }
    for (const auto &bb : fn_.blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->op() == Opcode::alloca_) {
                unsigned id = static_cast<unsigned>(objInfo_.size());
                siteObj_[inst.get()] = id;
                ObjectInfo info;
                info.storage = StorageKind::stack;
                info.size = Interval::of(
                    static_cast<int64_t>(inst->accessType()->size()));
                info.name = inst->name().empty()
                    ? "stack@" + bb->name()
                    : inst->name();
                objInfo_.push_back(std::move(info));
            } else if (inst->op() == Opcode::call &&
                       !inst->operands().empty()) {
                const auto *callee =
                    dynamic_cast<const Function *>(inst->operand(0));
                if (callee == nullptr)
                    continue;
                bool site = false;
                if (callee->isIntrinsic()) {
                    const std::string &name = callee->name();
                    site = name == "malloc" || name == "calloc" ||
                        name == "realloc";
                } else if (summaries_ != nullptr &&
                           !callee->isDeclaration()) {
                    // A summarized callee that returns a fresh heap
                    // allocation gets a site object of its own, exactly
                    // like a direct malloc().
                    const FunctionSummary &s = (*summaries_)[callee->id()];
                    site = s.computed && !s.pessimistic &&
                        s.ret == Ret::freshHeap;
                }
                if (!site)
                    continue;
                unsigned id = static_cast<unsigned>(objInfo_.size());
                siteObj_[inst.get()] = id;
                ObjectInfo info;
                info.storage = StorageKind::heap;
                info.size = Interval::empty(); ///< joined at the site
                info.name = callee->name() + "@" + bb->name();
                objInfo_.push_back(std::move(info));
            }
        }
    }
    // Pointer-parameter pseudo objects: when this function is being
    // summarized, each pointer argument is modelled as pointing into an
    // opaque caller-owned object of unknown size, so that stores through
    // it can be tracked as ParamEffects. Findings against these objects
    // are suppressed (silent): the access is judged at the call sites,
    // where the real object is known.
    paramObj_.assign(fn_.numArgs(), -1);
    if (summaryOut_ != nullptr && fn_.name() != "main") {
        for (const auto &arg : fn_.args()) {
            if (!arg->type()->isPointer())
                continue;
            unsigned id = static_cast<unsigned>(objInfo_.size());
            paramObj_[arg->index()] = static_cast<int>(id);
            ObjectInfo info;
            info.storage = StorageKind::unknown;
            // Not top(): checkAccess computes size.hi - width, which
            // would overflow INT64_MIN.
            info.size = Interval::range(0, INT64_MAX);
            info.name = arg->name().empty()
                ? "arg" + std::to_string(arg->index())
                : arg->name();
            info.silent = true;
            info.paramIndex = static_cast<int>(arg->index());
            objInfo_.push_back(std::move(info));
        }
    }
    computeMultiInstance();
}

void
FunctionAnalyzer::computeMultiInstance()
{
    size_t n = cfg_.numBlocks();
    // selfReach[b]: b lies on a CFG cycle (reaches itself).
    std::vector<bool> selfReach(n, false);
    for (unsigned b = 0; b < n; b++) {
        if (!cfg_.reachable(b))
            continue;
        std::vector<bool> seen(n, false);
        std::vector<unsigned> stack(cfg_.succs(b));
        bool found = false;
        while (!stack.empty() && !found) {
            unsigned cur = stack.back();
            stack.pop_back();
            if (cur == b) {
                found = true;
                break;
            }
            if (seen[cur])
                continue;
            seen[cur] = true;
            for (unsigned s : cfg_.succs(cur))
                stack.push_back(s);
        }
        selfReach[b] = found;
    }
    for (const auto &[inst, id] : siteObj_)
        objInfo_[id].multiInstance = selfReach[inst->parent()->index()];
}

void
FunctionAnalyzer::layOutSlots()
{
    // Chunk 0 holds the arguments (and any slot no instruction defines),
    // chunk b + 1 the values block b defines.
    SlotLayout &layout = slotLayout_;
    layout.chunkOf.assign(fn_.numSlots(), 0);
    layout.indexOf.assign(fn_.numSlots(), 0);
    layout.chunkSize.assign(fn_.blocks().size() + 1, 0);
    std::vector<bool> defined(fn_.numSlots(), false);
    for (const auto &bb : fn_.blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->slot() < 0)
                continue;
            unsigned s = static_cast<unsigned>(inst->slot());
            unsigned chunk = bb->index() + 1;
            layout.chunkOf[s] = chunk;
            layout.indexOf[s] = layout.chunkSize[chunk]++;
            defined[s] = true;
        }
    }
    for (unsigned s = 0; s < fn_.numSlots(); s++)
        if (!defined[s])
            layout.indexOf[s] = layout.chunkSize[0]++;
}

// --- Entry state ---------------------------------------------------------

bool
FunctionAnalyzer::expandInit(ObjState &state, const Type *type,
                             const Initializer &init, int64_t off) const
{
    if (state.contents.size() > 4096)
        return false;
    switch (init.kind) {
      case Initializer::Kind::zero:
        return true; // dflt zero covers it
      case Initializer::Kind::intVal: {
        MemEntry e;
        e.width = static_cast<uint8_t>(type->size());
        if (type->isInteger()) {
            Interval v = intervalWrap(Interval::of(init.intValue),
                                      type->intBits());
            e.val = AbstractValue::ofInterval(v);
        } else if (type->isPointer()) {
            // e.g. a pointer global initialized to 0.
            e.val = init.intValue == 0 ? AbstractValue::nullPointer()
                                       : AbstractValue::unknownPointer();
        } else {
            e.val = typedTop(type);
        }
        state.contents[off] = e;
        return true;
      }
      case Initializer::Kind::fpVal: {
        MemEntry e;
        e.width = static_cast<uint8_t>(type->size());
        e.val = AbstractValue::anyFloat();
        state.contents[off] = e;
        return true;
      }
      case Initializer::Kind::bytes: {
        for (size_t i = 0; i < init.bytes.size(); i++) {
            if (state.contents.size() > 4096)
                return false;
            int8_t b = static_cast<int8_t>(init.bytes[i]);
            if (b == 0)
                continue; // dflt zero covers it
            MemEntry e;
            e.width = 1;
            e.val = AbstractValue::ofInt(b);
            state.contents[off + static_cast<int64_t>(i)] = e;
        }
        return true;
      }
      case Initializer::Kind::array: {
        const Type *elem = type->elemType();
        int64_t esize = static_cast<int64_t>(elem->size());
        for (size_t i = 0; i < init.elems.size(); i++) {
            if (!expandInit(state, elem, init.elems[i],
                            off + static_cast<int64_t>(i) * esize))
                return false;
        }
        return true;
      }
      case Initializer::Kind::structVal: {
        const auto &fields = type->fields();
        for (size_t i = 0; i < init.elems.size() && i < fields.size(); i++) {
            if (!expandInit(state, fields[i].type, init.elems[i],
                            off + static_cast<int64_t>(fields[i].offset)))
                return false;
        }
        return true;
      }
      case Initializer::Kind::globalRef: {
        MemEntry e;
        e.width = 8;
        auto it = globalObj_.find(init.global);
        e.val = it != globalObj_.end()
            ? AbstractValue::pointerTo(it->second, Interval::of(init.addend))
            : AbstractValue::unknownPointer();
        state.contents[off] = e;
        return true;
      }
      case Initializer::Kind::functionRef: {
        MemEntry e;
        e.width = 8;
        AbstractValue fp;
        fp.kind = AbstractValue::Kind::pointer;
        fp.canBeUnknown = true;
        e.val = fp;
        state.contents[off] = e;
        return true;
      }
    }
    return true;
}

void
FunctionAnalyzer::seedGlobalContents(ObjState &state,
                                     const GlobalVariable &g) const
{
    state.dflt = ContentsDefault::zero;
    if (!expandInit(state, g.valueType(), g.init(), 0)) {
        state.contents.clear();
        state.dflt = ContentsDefault::unknown;
    }
}

AbsState
FunctionAnalyzer::entryState() const
{
    AbsState st;
    st.layout = &slotLayout_;
    for (unsigned size : slotLayout_.chunkSize)
        st.slots.push_back(std::make_shared<SlotChunk>(
            size, AbstractValue::top()));
    bool isMain = fn_.name() == "main";
    for (const auto &arg : fn_.args()) {
        AbstractValue v = typedTop(arg->type());
        if (isMain && arg->index() == 0 && arg->type()->isInteger()) {
            // argc >= 1 (argv[0] is the program name).
            v = AbstractValue::ofInterval(
                Interval::range(1, INT32_MAX));
        } else if (isMain && arg->index() == 1) {
            // argv itself is never null.
            v.canBeNull = false;
        } else if (paramObj_[arg->index()] >= 0) {
            // The pointer may be null, but when it is not, it refers to
            // the parameter's pseudo object at its start.
            v = AbstractValue::pointerTo(
                static_cast<unsigned>(paramObj_[arg->index()]));
            v.canBeNull = true;
        }
        st.mutSlot(arg->index()) = v;
    }
    // Every object starts from one shared blank state (live, never
    // written); the first write to one clones it.
    st.objects.assign(objInfo_.size(), std::make_shared<ObjState>());
    for (int id : paramObj_) {
        if (id < 0)
            continue;
        ObjState &obj = st.mutObj(static_cast<unsigned>(id));
        // Caller memory: initialized-but-unknown bytes, and externally
        // aliased (the caller holds the address), so unknown calls
        // clobber it.
        obj.dflt = ContentsDefault::unknown;
        obj.escaped = true;
    }
    for (const auto &g : module_.globals()) {
        unsigned id = globalObj_.at(g);
        ObjState &obj = st.mutObj(id);
        if (g->isConst() || isMain) {
            seedGlobalContents(obj, *g);
        } else {
            // A helper can observe any global state its callers created.
            obj.dflt = ContentsDefault::unknown;
        }
    }
    // Local allocation sites start live/uninit; no pointer can reach
    // them before their site executes.
    return st;
}

// --- Values --------------------------------------------------------------

AbstractValue
FunctionAnalyzer::evalValue(const Value *v, const AbsState &st) const
{
    switch (v->valueKind()) {
      case ValueKind::argument:
        return st.slot(static_cast<const Argument *>(v)->index());
      case ValueKind::instruction: {
        int slot = static_cast<const Instruction *>(v)->slot();
        return slot >= 0 ? st.slot(slot) : AbstractValue::top();
      }
      case ValueKind::constantInt:
        return AbstractValue::ofInt(
            static_cast<const ConstantInt *>(v)->value());
      case ValueKind::constantFP:
        return AbstractValue::anyFloat();
      case ValueKind::constantNull:
        return AbstractValue::nullPointer();
      case ValueKind::global: {
        auto it = globalObj_.find(static_cast<const GlobalVariable *>(v));
        if (it == globalObj_.end())
            return AbstractValue::unknownPointer();
        return AbstractValue::pointerTo(it->second);
      }
      case ValueKind::function: {
        AbstractValue fp;
        fp.kind = AbstractValue::Kind::pointer;
        fp.canBeUnknown = true; ///< non-null, unknown provenance
        return fp;
      }
    }
    return AbstractValue::top();
}

void
FunctionAnalyzer::setSlot(AbsState &st, const Instruction &inst,
                          const AbstractValue &val)
{
    if (inst.slot() >= 0)
        st.mutSlot(inst.slot()) = val;
}

// --- Memory --------------------------------------------------------------

ParamEffect *
FunctionAnalyzer::paramEffectOf(unsigned obj)
{
    if (summaryOut_ == nullptr || objInfo_[obj].paramIndex < 0)
        return nullptr;
    size_t idx = static_cast<size_t>(objInfo_[obj].paramIndex);
    if (summaryOut_->params.size() <= idx)
        summaryOut_->params.resize(fn_.numArgs());
    return &summaryOut_->params[idx];
}

void
FunctionAnalyzer::markPointerEntriesEscaped(const MemEntry &entry,
                                            AbsState &st)
{
    if (entry.val.kind != AbstractValue::Kind::pointer)
        return;
    for (const PointerTarget &t : entry.val.targets) {
        if (!st.obj(t.obj).escaped)
            st.mutObj(t.obj).escaped = true;
        if (ParamEffect *pe = paramEffectOf(t.obj))
            pe->escapes = true;
    }
}

void
FunctionAnalyzer::eraseOverlap(ObjState &obj, int64_t off, unsigned width,
                               AbsState &st)
{
    auto it = obj.contents.lower_bound(off - 8);
    while (it != obj.contents.end() &&
           it->first < off + static_cast<int64_t>(width)) {
        if (bytesOverlap(it->first, it->second.width, off, width)) {
            markPointerEntriesEscaped(it->second, st);
            it = obj.contents.erase(it);
        } else {
            ++it;
        }
    }
}

/**
 * Reads `width` bytes at t.offset of t.obj. Emits UAF / bounds / uninit
 * candidates (when collecting) and sets @p possibilityFaults when this
 * possibility faults on every concrete instance it describes.
 */
AbstractValue
FunctionAnalyzer::readTarget(const Instruction &inst, const PointerTarget &t,
                             unsigned width, const Type *readType,
                             AbsState &st, bool &possibilityFaults)
{
    const ObjectInfo &info = objInfo_[t.obj];
    const ObjState &obj = st.obj(t.obj);
    AccessKind access = AccessKind::read;
    // Parameter pseudo objects: accesses are judged at call sites.
    const bool report = collect_ && !info.silent;

    // Finding text is built only for a finding the collect pass emits.
    auto where = [&] { return describeObject(t.obj); };
    auto pathCond = [&] {
        return "offset " + t.offset.toString() + " of " + where();
    };

    // Temporal first, like the dynamic engine.
    if (obj.live == ObjState::Liveness::freed) {
        bool definite = !info.multiInstance;
        if (report)
            emitFinding(inst, ErrorKind::useAfterFree, access, info.storage,
                        BoundsDirection::unknown, definite,
                        std::to_string(width) + "-byte read of freed " +
                            where(),
                        pathCond(),
                        t.offset.isSingleton()
                            ? std::optional<int64_t>(t.offset.lo)
                            : std::nullopt,
                        info.size.isSingleton()
                            ? std::optional<int64_t>(info.size.lo)
                            : std::nullopt);
        possibilityFaults = true;
        return AbstractValue::top();
    }
    if (obj.live == ObjState::Liveness::maybeFreed && report) {
        emitFinding(inst, ErrorKind::useAfterFree, access, info.storage,
                    BoundsDirection::unknown, false,
                    std::to_string(width) + "-byte read of possibly freed " +
                        where(),
                    pathCond());
    }

    // Bounds: fault iff off < 0 || off + width > size.
    const Interval &off = t.offset;
    const Interval &size = info.size;
    int64_t w = static_cast<int64_t>(width);
    bool mustOob = !off.isEmpty() && !size.isEmpty() &&
        (off.hi < 0 || off.lo > size.hi - w);
    bool mayOob = !off.isEmpty() &&
        (off.lo < 0 || size.isEmpty() || off.hi > size.lo - w);
    if (mustOob || mayOob) {
        BoundsDirection dir = BoundsDirection::unknown;
        bool under = off.lo < 0;
        bool over = size.isEmpty() || off.hi > size.lo - w;
        if (under && !over)
            dir = BoundsDirection::underflow;
        else if (over && !under)
            dir = BoundsDirection::overflow;
        if (report)
            emitFinding(inst, ErrorKind::outOfBounds, access, info.storage,
                        dir, mustOob,
                        std::to_string(width) + "-byte read at offset " +
                            off.toString() + " of " + where(),
                        pathCond(),
                        off.isSingleton() ? std::optional<int64_t>(off.lo)
                                          : std::nullopt,
                        size.isSingleton() ? std::optional<int64_t>(size.lo)
                                           : std::nullopt);
        if (mustOob) {
            possibilityFaults = true;
            return AbstractValue::top();
        }
    }

    // Contents. Track uninitialized bytes for stack and heap storage
    // (globals and argv are zero-backed in the managed engine).
    bool tracked = info.storage == StorageKind::stack ||
        info.storage == StorageKind::heap;
    auto maybeUninitFinding = [&](auto what) {
        if (collect_ && tracked)
            emitFinding(inst, ErrorKind::uninitRead, access, info.storage,
                        BoundsDirection::unknown, false,
                        std::to_string(width) +
                            "-byte read of possibly uninitialized bytes" +
                            what() + where(),
                        pathCond());
    };
    if (off.isSingleton()) {
        int64_t k = off.lo;
        auto at = [&] { return " at offset " + std::to_string(k) + " of "; };
        auto it = obj.contents.find(k);
        if (it != obj.contents.end() && it->second.width == width) {
            if (it->second.mayBeUninit)
                maybeUninitFinding(at);
            if (inst.op() == Opcode::load && inst.slot() >= 0) {
                origins_[inst.slot()] = {static_cast<int>(t.obj), k,
                                         static_cast<uint8_t>(width),
                                         it->second.version};
            }
            return it->second.val;
        }
        if (anyOverlap(obj.contents, k, width)) {
            // Partially covered: value unknown; uninit at most maybe.
            bool maybeUninit = tracked &&
                (defaultMayBeUninit(obj.dflt) ||
                 [&] {
                     auto o = obj.contents.lower_bound(k - 8);
                     for (; o != obj.contents.end() &&
                          o->first < k + static_cast<int64_t>(width);
                          ++o) {
                         if (bytesOverlap(o->first, o->second.width, k,
                                          width) &&
                             o->second.mayBeUninit)
                             return true;
                     }
                     return false;
                 }());
            if (maybeUninit)
                maybeUninitFinding(at);
            return typedTop(readType);
        }
        // No entry: fall back to the default.
        switch (obj.dflt) {
          case ContentsDefault::uninit:
            if (tracked && !obj.weaklyWritten && !obj.escaped) {
                bool definite = !info.multiInstance;
                if (collect_)
                    emitFinding(inst, ErrorKind::uninitRead, access,
                                info.storage, BoundsDirection::unknown,
                                definite,
                                std::to_string(width) +
                                    "-byte read of uninitialized bytes" +
                                    at() + where(),
                                pathCond(),
                                k,
                                size.isSingleton()
                                    ? std::optional<int64_t>(size.lo)
                                    : std::nullopt);
                if (definite) {
                    possibilityFaults = true;
                    return AbstractValue::top();
                }
            } else {
                maybeUninitFinding(at);
            }
            return typedTop(readType);
          case ContentsDefault::maybeUninit:
            maybeUninitFinding(at);
            return typedTop(readType);
          case ContentsDefault::zero: {
            // Materialize an entry so branch refinement can write back.
            MemEntry e;
            e.width = static_cast<uint8_t>(width);
            e.val = typedZero(readType);
            e.version = freshVersion();
            auto [slotIt, unused] = st.mutObj(t.obj).contents.emplace(k, e);
            (void)unused;
            if (inst.op() == Opcode::load && inst.slot() >= 0) {
                origins_[inst.slot()] = {static_cast<int>(t.obj), k,
                                         static_cast<uint8_t>(width),
                                         slotIt->second.version};
            }
            return slotIt->second.val;
          }
          case ContentsDefault::unknown:
            return typedTop(readType);
        }
        return typedTop(readType);
    }

    // Non-singleton offset: value unknown; uninit reasoning over the
    // whole object.
    if (tracked) {
        bool allUninit = obj.dflt == ContentsDefault::uninit &&
            obj.contents.empty() && !obj.weaklyWritten && !obj.escaped &&
            !info.multiInstance;
        if (allUninit) {
            if (collect_)
                emitFinding(inst, ErrorKind::uninitRead, access,
                            info.storage, BoundsDirection::unknown, true,
                            std::to_string(width) +
                                "-byte read of entirely uninitialized " +
                                where(),
                            pathCond());
            possibilityFaults = true;
            return AbstractValue::top();
        }
        bool someUninit = defaultMayBeUninit(obj.dflt) ||
            std::any_of(obj.contents.begin(), obj.contents.end(),
                        [](const auto &kv) {
                            return kv.second.mayBeUninit;
                        });
        if (someUninit)
            maybeUninitFinding([] { return std::string(" of "); });
    }
    return typedTop(readType);
}

/**
 * Checks one load/store. Enumerates the pointer's possibilities (null,
 * unknown, each target), emits candidates, and decides whether every
 * possibility faults (mustFault: the abstract path ends here).
 *
 * A finding is emitted as definite only when the possibility that
 * produces it is the ONLY possibility (single target, no null, no
 * unknown) — otherwise some concrete execution may take a non-faulting
 * possibility and the claim degrades to maybe. emitFinding() applies
 * that via the `definite` flag computed here.
 */
AccessOutcome
FunctionAnalyzer::checkAccess(const Instruction &inst, AccessKind access,
                              const AbstractValue &ptr, unsigned width,
                              const Type *readType, AbsState &st)
{
    AccessOutcome out;
    out.loaded = typedTop(readType);

    if (ptr.kind != AbstractValue::Kind::pointer) {
        // Not provably a pointer (joined kinds): no claims.
        return out;
    }

    unsigned possibilities = (ptr.canBeNull ? 1 : 0) +
        (ptr.canBeUnknown ? 1 : 0) +
        static_cast<unsigned>(ptr.targets.size());
    bool exclusive = possibilities == 1;

    unsigned faulting = 0;
    if (ptr.canBeNull) {
        if (collect_)
            emitFinding(inst, ErrorKind::nullDeref, access,
                        StorageKind::unknown, BoundsDirection::unknown,
                        exclusive,
                        std::to_string(width) + "-byte " +
                            (access == AccessKind::write ? "write"
                                                         : "read") +
                            " through a NULL pointer",
                        exclusive ? "pointer is null on every path"
                                  : "pointer may be null");
        faulting++;
    }

    bool first = true;
    for (const PointerTarget &t : ptr.targets) {
        bool possibilityFaults = false;
        AbstractValue v;
        if (access == AccessKind::read) {
            v = readTarget(inst, t, width, readType, st, possibilityFaults);
        } else {
            // Writes share the temporal/bounds logic via readTarget's
            // checks; reuse it with the write access kind by inlining
            // the same checks would duplicate code, so probe with a
            // dedicated path below.
            v = AbstractValue::top();
            possibilityFaults = false;
            const ObjectInfo &info = objInfo_[t.obj];
            const ObjState &obj = st.obj(t.obj);
            const bool report = collect_ && !info.silent;
            auto where = [&] { return describeObject(t.obj); };
            auto pathCond = [&] {
                return "offset " + t.offset.toString() + " of " + where();
            };
            if (obj.live == ObjState::Liveness::freed) {
                if (report)
                    emitFinding(inst, ErrorKind::useAfterFree, access,
                                info.storage, BoundsDirection::unknown,
                                exclusive && !info.multiInstance,
                                std::to_string(width) +
                                    "-byte write to freed " + where(),
                                pathCond());
                possibilityFaults = true;
            } else {
                if (obj.live == ObjState::Liveness::maybeFreed && report) {
                    emitFinding(inst, ErrorKind::useAfterFree, access,
                                info.storage, BoundsDirection::unknown, false,
                                std::to_string(width) +
                                    "-byte write to possibly freed " + where(),
                                pathCond());
                }
                const Interval &off = t.offset;
                const Interval &size = info.size;
                int64_t w = static_cast<int64_t>(width);
                bool mustOob = !off.isEmpty() && !size.isEmpty() &&
                    (off.hi < 0 || off.lo > size.hi - w);
                bool mayOob = !off.isEmpty() &&
                    (off.lo < 0 || size.isEmpty() || off.hi > size.lo - w);
                if (mustOob || mayOob) {
                    BoundsDirection dir = BoundsDirection::unknown;
                    bool under = off.lo < 0;
                    bool over = size.isEmpty() || off.hi > size.lo - w;
                    if (under && !over)
                        dir = BoundsDirection::underflow;
                    else if (over && !under)
                        dir = BoundsDirection::overflow;
                    if (report)
                        emitFinding(inst, ErrorKind::outOfBounds, access,
                                    info.storage, dir, mustOob && exclusive,
                                    std::to_string(width) +
                                        "-byte write at offset " +
                                        off.toString() + " of " + where(),
                                    pathCond(),
                                    off.isSingleton()
                                        ? std::optional<int64_t>(off.lo)
                                        : std::nullopt,
                                    size.isSingleton()
                                        ? std::optional<int64_t>(size.lo)
                                        : std::nullopt);
                    if (mustOob)
                        possibilityFaults = true;
                }
            }
        }
        if (possibilityFaults)
            faulting++;
        else if (access == AccessKind::read) {
            out.loaded = first ? v : joinValues(out.loaded, v);
            first = false;
        }
    }
    if (access == AccessKind::read && first && !ptr.canBeUnknown &&
        possibilities > 0) {
        // Every enumerated possibility faulted; loaded value is moot.
        out.loaded = AbstractValue::top();
    }

    out.mustFault = !ptr.canBeUnknown && possibilities > 0 &&
        faulting == possibilities;
    return out;
}

void
FunctionAnalyzer::writeTarget(const PointerTarget &t, unsigned width,
                              const AbstractValue &val, bool strong,
                              AbsState &st)
{
    if (summaryOut_ != nullptr) {
        if (ParamEffect *pe = paramEffectOf(t.obj))
            pe->pointeeWritten = true;
        const ObjectInfo &dst = objInfo_[t.obj];
        if (dst.storage == StorageKind::global && !dst.isConst)
            summaryOut_->writesGlobals = true;
        // Storing a pointer-to-parameter value somewhere the caller (or
        // external code) can reach it makes the parameter escape. Stores
        // into private locals are exempt: if the local itself escapes
        // later, markPointerEntriesEscaped records it then.
        bool shared = dst.storage == StorageKind::global ||
            dst.storage == StorageKind::heap || dst.silent ||
            st.obj(t.obj).escaped;
        if (shared && val.kind == AbstractValue::Kind::pointer) {
            for (const PointerTarget &vt : val.targets)
                if (ParamEffect *pe = paramEffectOf(vt.obj))
                    pe->escapes = true;
        }
    }
    if (st.obj(t.obj).live == ObjState::Liveness::freed)
        return;
    ObjState &obj = st.mutObj(t.obj);
    if (t.offset.isSingleton()) {
        int64_t k = t.offset.lo;
        if (strong) {
            eraseOverlap(obj, k, width, st);
            MemEntry e;
            e.width = static_cast<uint8_t>(width);
            e.val = val;
            e.version = freshVersion();
            obj.contents[k] = e;
            return;
        }
        // Weak update at a known offset.
        auto it = obj.contents.find(k);
        if (it != obj.contents.end() && it->second.width == width) {
            it->second.val = joinValues(it->second.val, val);
            it->second.version = freshVersion();
            return;
        }
        bool tracked = objInfo_[t.obj].storage == StorageKind::stack ||
            objInfo_[t.obj].storage == StorageKind::heap;
        bool hadOverlap = anyOverlap(obj.contents, k, width);
        bool wasUninit = !hadOverlap && defaultMayBeUninit(obj.dflt) &&
            tracked;
        eraseOverlap(obj, k, width, st);
        MemEntry e;
        e.width = static_cast<uint8_t>(width);
        // Other instances/paths may retain the old bytes: a known value
        // only survives when the old bytes were a known default.
        if (hadOverlap)
            e.val = AbstractValue::top();
        else if (obj.dflt == ContentsDefault::zero)
            e.val = joinValues(val, zeroOfKind(val));
        else if (obj.dflt == ContentsDefault::uninit)
            e.val = val; ///< either uninit (flagged) or this value
        else
            e.val = AbstractValue::top();
        e.mayBeUninit = wasUninit;
        e.version = freshVersion();
        obj.contents[k] = e;
        obj.weaklyWritten = true;
        return;
    }
    // Unknown offset: clobber the overlap range.
    if (t.offset.isTop() || t.offset.isEmpty()) {
        for (auto &[off, entry] : obj.contents)
            markPointerEntriesEscaped(entry, st);
        obj.contents.clear();
    } else {
        // Clobber every entry overlapping [lo, hi + width). Compared in
        // 128 bits: a widened offset can sit at a rail.
        for (auto it = obj.contents.begin(); it != obj.contents.end();) {
            __int128 off = it->first;
            if (off < static_cast<__int128>(t.offset.hi) + width &&
                off + it->second.width > t.offset.lo) {
                markPointerEntriesEscaped(it->second, st);
                it = obj.contents.erase(it);
            } else {
                ++it;
            }
        }
    }
    obj.weaklyWritten = true;
    if (obj.dflt == ContentsDefault::zero ||
        obj.dflt == ContentsDefault::uninit)
        obj.dflt = obj.dflt == ContentsDefault::uninit
            ? ContentsDefault::maybeUninit
            : ContentsDefault::unknown;
}

// --- Calls ---------------------------------------------------------------

void
FunctionAnalyzer::havocObject(unsigned obj, AbsState &st, bool escape)
{
    if (objInfo_[obj].isConst)
        return;
    if (summaryOut_ != nullptr) {
        if (ParamEffect *pe = paramEffectOf(obj)) {
            pe->pointeeWritten = true;
            if (escape)
                pe->escapes = true;
        }
        if (objInfo_[obj].storage == StorageKind::global)
            summaryOut_->writesGlobals = true;
    }
    const ObjState &before = st.obj(obj);
    ContentsDefault dflt = defaultMayBeUninit(before.dflt)
        ? ContentsDefault::maybeUninit
        : ContentsDefault::unknown;
    if (before.contents.empty() && before.dflt == dflt &&
        before.weaklyWritten && (before.escaped || !escape))
        return; // already havocked: nothing to clone
    ObjState &o = st.mutObj(obj);
    for (auto &[off, entry] : o.contents)
        markPointerEntriesEscaped(entry, st);
    o.contents.clear();
    o.dflt = dflt;
    o.weaklyWritten = true;
    if (escape)
        o.escaped = true;
}

void
FunctionAnalyzer::enterAllocation(AbsState &st, unsigned id, ObjState fresh)
{
    if (objInfo_[id].multiInstance)
        fresh = mergeObjs(st.obj(id), fresh, nullptr);
    st.objects[id] = std::make_shared<ObjState>(std::move(fresh));
}

/**
 * Clobbers @p seeds and everything transitively reachable from pointers
 * stored inside them, marking every visited object escaped.
 */
void
FunctionAnalyzer::havocReachableFrom(std::vector<unsigned> seeds,
                                     AbsState &st)
{
    std::vector<unsigned> work;
    std::vector<bool> seen(objInfo_.size(), false);
    auto seed = [&](unsigned obj) {
        if (!seen[obj]) {
            seen[obj] = true;
            work.push_back(obj);
        }
    };
    for (unsigned obj : seeds)
        seed(obj);
    while (!work.empty()) {
        unsigned obj = work.back();
        work.pop_back();
        // Walk pointers stored inside before clobbering.
        for (const auto &[off, entry] : st.obj(obj).contents)
            if (entry.val.kind == AbstractValue::Kind::pointer)
                for (const PointerTarget &t : entry.val.targets)
                    seed(t.obj);
        havocObject(obj, st, /*escape=*/true);
    }
}

/**
 * Transfer of a call whose effects we cannot model: clobber everything
 * reachable from the arguments, the non-const globals and previously
 * escaped objects. Liveness is deliberately never touched — the
 * documented unsoundness is that callees are assumed not to free their
 * arguments (DESIGN.md).
 */
void
FunctionAnalyzer::havocUnknownCall(const Instruction &inst, AbsState &st)
{
    if (summaryOut_ != nullptr) {
        // The unknown callee may write any global (and anything
        // reachable from one), so the caller of *this* function must
        // havoc its own globals too.
        summaryOut_->writesGlobals = true;
    }
    std::vector<unsigned> seeds;
    for (size_t i = 1; i < inst.operands().size(); i++) {
        AbstractValue v = evalValue(inst.operand(i), st);
        if (v.kind == AbstractValue::Kind::pointer)
            for (const PointerTarget &t : v.targets)
                seeds.push_back(t.obj);
    }
    for (const auto &[g, id] : globalObj_)
        if (!g->isConst())
            seeds.push_back(id);
    for (unsigned i = 0; i < st.objects.size(); i++)
        if (st.obj(i).escaped)
            seeds.push_back(i);
    havocReachableFrom(std::move(seeds), st);
}

void
FunctionAnalyzer::freePointer(const Instruction &inst,
                              const AbstractValue &ptr, AbsState &st,
                              bool viaRealloc)
{
    if (ptr.kind != AbstractValue::Kind::pointer)
        return;
    // free(NULL) is a no-op; it contributes a non-faulting possibility.
    unsigned possibilities = (ptr.canBeNull ? 1 : 0) +
        (ptr.canBeUnknown ? 1 : 0) +
        static_cast<unsigned>(ptr.targets.size());
    bool exclusive = possibilities == 1;
    const char *what = viaRealloc ? "realloc" : "free";

    for (const PointerTarget &t : ptr.targets) {
        const ObjectInfo &info = objInfo_[t.obj];
        const ObjState &obj = st.obj(t.obj);
        if (info.silent) {
            // A parameter pseudo object: whether the free is valid
            // depends on the caller's argument. Record the effect and
            // judge nothing here.
            if (ParamEffect *pe = paramEffectOf(t.obj))
                pe->mayFree = true;
            ObjState::Liveness live =
                joinLiveness(obj.live, ObjState::Liveness::maybeFreed);
            if (live != obj.live)
                st.mutObj(t.obj).live = live;
            continue;
        }
        // Finding text is built only for a finding the collect pass
        // emits.
        auto where = [&] { return describeObject(t.obj); };
        auto pathCond = [&] {
            return "offset " + t.offset.toString() + " of " + where();
        };
        if (info.storage != StorageKind::heap) {
            if (collect_)
                emitFinding(inst, ErrorKind::invalidFree, AccessKind::free,
                            info.storage, BoundsDirection::unknown,
                            exclusive,
                            std::string(what) + "() of non-heap " + where(),
                            pathCond());
            continue;
        }
        // The managed heap checks the interior-pointer case before the
        // freed case, and reports realloc() of a freed block as a
        // use-after-free rather than a double free; mirror both so the
        // replay and the dynamic oracle confirm the same kind.
        if (!t.offset.contains(0)) {
            if (collect_)
                emitFinding(inst, ErrorKind::invalidFree, AccessKind::free,
                            info.storage, BoundsDirection::unknown,
                            exclusive,
                            std::string(what) +
                                "() of interior pointer (offset " +
                                t.offset.toString() + ") into " + where(),
                            pathCond());
            continue;
        }
        ErrorKind freedKind = viaRealloc ? ErrorKind::useAfterFree
                                         : ErrorKind::doubleFree;
        if (obj.live == ObjState::Liveness::freed) {
            if (collect_)
                emitFinding(inst, freedKind, AccessKind::free, info.storage,
                            BoundsDirection::unknown,
                            exclusive && !info.multiInstance &&
                                t.offset.isSingleton(),
                            std::string(what) + "() of already freed " +
                                where(),
                            pathCond());
            continue;
        }
        if (obj.live == ObjState::Liveness::maybeFreed && collect_) {
            emitFinding(inst, freedKind, AccessKind::free, info.storage,
                        BoundsDirection::unknown, false,
                        std::string(what) + "() of possibly freed " + where(),
                        pathCond());
        }
        if ((!t.offset.isSingleton() || t.offset.lo != 0) && collect_) {
            emitFinding(inst, ErrorKind::invalidFree, AccessKind::free,
                        info.storage, BoundsDirection::unknown, false,
                        std::string(what) +
                            "() of possibly interior pointer into " + where(),
                        pathCond());
        }
        bool strong = exclusive && t.offset.isSingleton() &&
            t.offset.lo == 0 && !info.multiInstance &&
            obj.live == ObjState::Liveness::live;
        ObjState::Liveness live = strong ? ObjState::Liveness::freed
                                         : ObjState::Liveness::maybeFreed;
        if (live != obj.live)
            st.mutObj(t.obj).live = live;
    }
}

void
FunctionAnalyzer::transferIntrinsic(const Instruction &inst,
                                    const Function &callee, AbsState &st,
                                    bool &stop)
{
    const std::string &name = callee.name();
    auto argVal = [&](size_t i) {
        return i + 1 < inst.operands().size()
            ? evalValue(inst.operand(i + 1), st)
            : AbstractValue::top();
    };
    auto argInterval = [&](size_t i) {
        AbstractValue v = argVal(i);
        return v.isInt() ? v.ival : Interval::top();
    };
    auto freshAllocation = [&](ContentsDefault dflt, const Interval &size) {
        auto it = siteObj_.find(&inst);
        if (it == siteObj_.end()) {
            setSlot(st, inst, AbstractValue::unknownPointer());
            return;
        }
        unsigned id = it->second;
        objInfo_[id].size = objInfo_[id].size.join(size);
        ObjState fresh;
        fresh.dflt = dflt;
        enterAllocation(st, id, std::move(fresh));
        setSlot(st, inst, AbstractValue::pointerTo(id));
    };

    if (name == "malloc") {
        freshAllocation(ContentsDefault::uninit, argInterval(0));
    } else if (name == "calloc") {
        freshAllocation(ContentsDefault::zero,
                        intervalMul(argInterval(0), argInterval(1)));
    } else if (name == "realloc") {
        AbstractValue old = argVal(0);
        Interval newSize = argInterval(1);
        // realloc(NULL, n) is malloc(n); otherwise the old object is
        // freed and its prefix copied.
        freePointer(inst, old, st, /*viaRealloc=*/true);
        auto it = siteObj_.find(&inst);
        if (it != siteObj_.end()) {
            unsigned id = it->second;
            objInfo_[id].size = objInfo_[id].size.join(newSize);
            ObjState fresh;
            // The copied prefix is old contents; the tail is zero-backed
            // in the managed engine and marked initialized.
            fresh.dflt = ContentsDefault::unknown;
            if (old.targets.size() == 1 && !old.canBeUnknown &&
                !old.canBeNull && old.targets[0].offset.isSingleton() &&
                old.targets[0].offset.lo == 0) {
                const ObjState &src = st.obj(old.targets[0].obj);
                fresh.contents = src.contents;
                for (auto &[off, entry] : fresh.contents) {
                    if (entry.mayBeUninit) {
                        entry.val = joinValues(entry.val,
                                               zeroOfKind(entry.val));
                        entry.mayBeUninit = false;
                    }
                    entry.version = freshVersion();
                }
                fresh.dflt = src.dflt == ContentsDefault::uninit ||
                        src.dflt == ContentsDefault::maybeUninit ||
                        src.dflt == ContentsDefault::zero
                    ? ContentsDefault::zero
                    : ContentsDefault::unknown;
                fresh.weaklyWritten = src.weaklyWritten;
            }
            if (old.canBeNull && fresh.dflt == ContentsDefault::unknown &&
                old.targets.empty())
                fresh.dflt = ContentsDefault::zero; // pure malloc path
            enterAllocation(st, id, std::move(fresh));
            setSlot(st, inst, AbstractValue::pointerTo(id));
        } else {
            setSlot(st, inst, AbstractValue::unknownPointer());
        }
    } else if (name == "free") {
        freePointer(inst, argVal(0), st, false);
    } else if (name == "__sys_exit") {
        stop = true;
    } else if (name == "__sys_write") {
        AbstractValue buf = argVal(1);
        Interval len = argInterval(2);
        if (buf.kind == AbstractValue::Kind::pointer && len.lo > 0) {
            if (buf.isMustNull()) {
                emitFinding(inst, ErrorKind::nullDeref, AccessKind::read,
                            StorageKind::unknown, BoundsDirection::unknown,
                            true, "write() from a NULL buffer",
                            "buffer is null, length > 0");
                stop = true;
            } else if (buf.canBeNull) {
                emitFinding(inst, ErrorKind::nullDeref, AccessKind::read,
                            StorageKind::unknown, BoundsDirection::unknown,
                            false, "write() from a possibly NULL buffer",
                            "buffer may be null");
            }
            // Spatial checks on the buffered read: maybe-tier only (the
            // replay confirms concrete cases).
            for (const PointerTarget &t : buf.targets) {
                const ObjectInfo &info = objInfo_[t.obj];
                if (!info.silent && !info.size.isEmpty() &&
                    !t.offset.isEmpty() &&
                    (t.offset.lo < 0 ||
                     t.offset.hi > info.size.lo - len.lo)) {
                    emitFinding(inst, ErrorKind::outOfBounds,
                                AccessKind::read, info.storage,
                                BoundsDirection::unknown, false,
                                "write() of " + len.toString() +
                                    " bytes may overrun " +
                                    describeObject(t.obj),
                                "offset " + t.offset.toString());
                }
            }
        }
        setSlot(st, inst, AbstractValue::ofInterval(
                              Interval::range(-1, INT32_MAX)));
    } else if (name == "__sys_getchar") {
        setSlot(st, inst, AbstractValue::ofInterval(Interval::range(-1, 255)));
    } else if (name == "__sys_alloc_size") {
        AbstractValue p = argVal(0);
        if (p.kind == AbstractValue::Kind::pointer && p.isMustNull()) {
            setSlot(st, inst, AbstractValue::ofInt(0));
        } else if (p.kind == AbstractValue::Kind::pointer &&
                   p.targets.size() == 1 && !p.canBeNull &&
                   !p.canBeUnknown &&
                   objInfo_[p.targets[0].obj].size.isSingleton()) {
            setSlot(st, inst, AbstractValue::ofInterval(
                                  objInfo_[p.targets[0].obj].size));
        } else {
            setSlot(st, inst, AbstractValue::ofInterval(
                                  Interval::range(0, INT64_MAX)));
        }
    } else if (name == "__va_start" || name == "__va_arg_ptr") {
        // Varargs objects are not abstracted; a missing-argument
        // access is only found by the replay.
        setSlot(st, inst, AbstractValue::unknownPointer());
    } else if (name == "__va_count") {
        setSlot(st, inst, AbstractValue::ofInterval(
                              Interval::range(0, INT32_MAX)));
    } else if (name == "__va_end") {
        // No effect.
    } else {
        // Math intrinsics et al.: pure, float result.
        setSlot(st, inst, typedTop(inst.type()));
    }
}

namespace
{

bool
isReadOnlyLibc(const std::string &name)
{
    static const std::set<std::string> kReadOnly = {
        // ctype
        "isalpha", "isdigit", "isalnum", "isspace", "isupper", "islower",
        "ispunct", "isprint", "isxdigit", "iscntrl", "isgraph", "toupper",
        "tolower",
        // string scanning
        "strlen", "strcmp", "strncmp", "strchr", "strrchr", "strstr",
        "strspn", "strcspn", "strpbrk", "memcmp", "memchr",
        // conversions / math
        "atoi", "atol", "atoll", "abs", "labs", "llabs",
        // output (guest-visible writes go to the host io channel only)
        "printf", "puts", "putchar", "fputs", "fputc", "fprintf",
        // PRNG state is libc-private
        "rand", "srand",
        // input without guest-memory writes
        "getchar", "getc", "fgetc",
    };
    return kReadOnly.count(name) > 0;
}

bool
isDstWriteLibc(const std::string &name)
{
    static const std::set<std::string> kDstWrite = {
        "strcpy", "strncpy", "strcat", "strncat", "memcpy", "memmove",
        "memset", "sprintf", "snprintf",
    };
    return kDstWrite.count(name) > 0;
}

} // namespace

/// strlen/memset concrete walks; returns false to fall through to the
/// havoc fallbacks.
bool
FunctionAnalyzer::transferLibcSummary(const Instruction &inst,
                                      const Function &callee, AbsState &st)
{
    const std::string &name = callee.name();
    auto argVal = [&](size_t i) {
        return i + 1 < inst.operands().size()
            ? evalValue(inst.operand(i + 1), st)
            : AbstractValue::top();
    };
    // A pointer we can walk concretely: one live target at a known
    // non-negative offset of an object of known size.
    auto concrete = [&](const AbstractValue &v, unsigned &obj,
                        int64_t &off) {
        if (v.kind != AbstractValue::Kind::pointer || v.canBeNull ||
            v.canBeUnknown || v.targets.size() != 1 ||
            !v.targets[0].offset.isSingleton() ||
            v.targets[0].offset.lo < 0)
            return false;
        obj = v.targets[0].obj;
        off = v.targets[0].offset.lo;
        return st.obj(obj).live == ObjState::Liveness::live &&
            objInfo_[obj].size.isSingleton();
    };
    auto knownByte = [&](unsigned obj, int64_t off, int64_t &out) {
        const ObjState &o = st.obj(obj);
        auto it = o.contents.find(off);
        if (it != o.contents.end() && it->second.width == 1 &&
            !it->second.mayBeUninit) {
            return it->second.val.isConstInt(out);
        }
        if (it == o.contents.end() && !anyOverlap(o.contents, off, 1) &&
            o.dflt == ContentsDefault::zero && !o.weaklyWritten &&
            !o.escaped) {
            out = 0;
            return true;
        }
        return false;
    };

    if (name == "strlen") {
        unsigned obj;
        int64_t off;
        if (!concrete(argVal(0), obj, off))
            return false;
        int64_t size = objInfo_[obj].size.lo;
        for (int64_t i = 0; i < 4096; i++) {
            if (off + i >= size) {
                emitFinding(inst, ErrorKind::outOfBounds, AccessKind::read,
                            objInfo_[obj].storage, BoundsDirection::overflow,
                            false,
                            "strlen() runs past the end of " +
                                describeObject(obj) +
                                " (no terminating NUL)",
                            "scan from offset " + std::to_string(off),
                            off + i, size);
                setSlot(st, inst, AbstractValue::ofInterval(
                                      Interval::range(0, INT64_MAX)));
                return true;
            }
            int64_t b;
            if (!knownByte(obj, off + i, b))
                return false;
            if (b == 0) {
                setSlot(st, inst, AbstractValue::ofInt(i));
                return true;
            }
        }
        return false;
    }

    if (name == "memset") {
        unsigned obj;
        int64_t off;
        AbstractValue n = argVal(2);
        AbstractValue c = argVal(1);
        int64_t len, fill;
        if (!concrete(argVal(0), obj, off) || !n.isConstInt(len) ||
            !c.isConstInt(fill) || len < 0 || len > 4096)
            return false;
        int64_t size = objInfo_[obj].size.lo;
        if (off + len > size) {
            emitFinding(inst, ErrorKind::outOfBounds, AccessKind::write,
                        objInfo_[obj].storage, BoundsDirection::overflow,
                        false,
                        "memset() of " + std::to_string(len) +
                            " bytes overruns " + describeObject(obj),
                        "start offset " + std::to_string(off), off, size);
            return false; // fall through to the dst havoc
        }
        bool strong = !objInfo_[obj].multiInstance;
        AbstractValue byte =
            AbstractValue::ofInt(static_cast<int8_t>(fill));
        PointerTarget t{obj, Interval::of(0)};
        for (int64_t i = 0; i < len; i++) {
            t.offset = Interval::of(off + i);
            writeTarget(t, 1, byte, strong, st);
        }
        setSlot(st, inst, argVal(0));
        return true;
    }

    return false;
}

void
FunctionAnalyzer::transferCall(const Instruction &inst, AbsState &st,
                               bool &stop)
{
    const auto *callee = inst.operands().empty()
        ? nullptr
        : dynamic_cast<const Function *>(inst.operand(0));
    if (callee == nullptr) {
        // Indirect call through a function pointer value: when every
        // type-compatible address-taken candidate has a usable summary,
        // their join is a sound transfer function for the site.
        if (callgraph_ != nullptr && summaries_ != nullptr) {
            std::vector<const Function *> cands = callgraph_->mayCall(inst);
            bool usable = !cands.empty();
            FunctionSummary merged;
            for (const Function *c : cands) {
                if (!usable)
                    break;
                const FunctionSummary &cs = (*summaries_)[c->id()];
                if (!cs.computed || cs.pessimistic) {
                    usable = false;
                    break;
                }
                joinSummaryInto(merged, cs, /*widen=*/false);
            }
            if (usable && merged.computed && !merged.pessimistic) {
                applySummary(inst, merged, st, stop);
                return;
            }
        }
        havocUnknownCall(inst, st);
        setSlot(st, inst, typedTop(inst.type()));
        return;
    }
    if (callee->isIntrinsic()) {
        transferIntrinsic(inst, *callee, st, stop);
        return;
    }
    if (callee->isDeclaration()) {
        // Unresolved external: the engines raise an engine-error, so no
        // path continues past this call.
        stop = true;
        return;
    }
    const std::string &name = callee->name();
    bool isLibc = callee->sourceFile().rfind("libc/", 0) == 0;
    if (isLibc) {
        if (name == "exit" || name == "abort" || name == "_exit") {
            stop = true;
            return;
        }
        if (isReadOnlyLibc(name)) {
            setSlot(st, inst, typedTop(inst.type()));
            return;
        }
        if (transferLibcSummary(inst, *callee, st))
            return;
        if (isDstWriteLibc(name)) {
            // Only the destination buffer is written; it does not
            // escape through these calls.
            AbstractValue dst = inst.operands().size() > 1
                ? evalValue(inst.operand(1), st)
                : AbstractValue::top();
            if (dst.kind == AbstractValue::Kind::pointer) {
                for (const PointerTarget &t : dst.targets)
                    havocObject(t.obj, st, /*escape=*/false);
                setSlot(st, inst,
                        inst.type() != nullptr && inst.type()->isPointer()
                            ? dst
                            : typedTop(inst.type()));
                return;
            }
        }
    }
    // Interprocedural: a completed, bounded callee summary replaces the
    // havoc-everything fallback. Libc definitions are never summarized
    // (userCodeOnly skips them), so their `computed` flag stays false
    // and they keep the PR-4 treatment above.
    if (summaries_ != nullptr) {
        const FunctionSummary &sum = (*summaries_)[callee->id()];
        if (sum.computed && !sum.pessimistic) {
            applySummary(inst, sum, st, stop);
            return;
        }
    }
    havocUnknownCall(inst, st);
    setSlot(st, inst, typedTop(inst.type()));
}

void
FunctionAnalyzer::applySummary(const Instruction &inst,
                               const FunctionSummary &sum, AbsState &st,
                               bool &stop)
{
    if (collect_)
        summariesApplied_++;
    size_t nargs = inst.operands().empty() ? 0 : inst.operands().size() - 1;

    // Per-argument pointee effects.
    for (size_t i = 0; i < nargs; i++) {
        AbstractValue v = evalValue(inst.operand(i + 1), st);
        if (v.kind != AbstractValue::Kind::pointer)
            continue;
        ParamEffect e;
        if (i < sum.params.size()) {
            e = sum.params[i];
        } else {
            // Varargs beyond the formals: assume the worst.
            e.pointeeWritten = e.escapes = e.mayFree = true;
        }
        for (const PointerTarget &t : v.targets) {
            if (e.mayFree) {
                // Callee may free() the block (never "must": the
                // summary joins every path).
                if (objInfo_[t.obj].storage == StorageKind::heap ||
                    objInfo_[t.obj].silent) {
                    ObjState::Liveness live = joinLiveness(
                        st.obj(t.obj).live, ObjState::Liveness::maybeFreed);
                    if (live != st.obj(t.obj).live)
                        st.mutObj(t.obj).live = live;
                }
                if (ParamEffect *pe = paramEffectOf(t.obj))
                    pe->mayFree = true;
            }
            if (e.pointeeWritten) {
                havocObject(t.obj, st, /*escape=*/e.escapes);
            } else if (e.escapes) {
                if (!st.obj(t.obj).escaped)
                    st.mutObj(t.obj).escaped = true;
                if (ParamEffect *pe = paramEffectOf(t.obj))
                    pe->escapes = true;
            }
        }
    }

    if (sum.writesGlobals) {
        std::vector<unsigned> seeds;
        for (const auto &[g, id] : globalObj_)
            if (!g->isConst())
                seeds.push_back(id);
        for (unsigned i = 0; i < st.objects.size(); i++)
            if (st.obj(i).escaped)
                seeds.push_back(i);
        havocReachableFrom(std::move(seeds), st);
    }

    if (sum.neverReturns) {
        stop = true;
        return;
    }

    switch (sum.ret) {
      case Ret::none:
        // void return.
        setSlot(st, inst, typedTop(inst.type()));
        break;
      case Ret::interval: {
        Interval r = Interval::empty();
        if (sum.hasAffine && sum.affineArg < nargs) {
            AbstractValue a =
                evalValue(inst.operand(sum.affineArg + 1), st);
            if (a.isInt())
                r = affineApply(sum, a.ival);
        }
        if (r.isEmpty())
            r = sum.retInterval;
        setSlot(st, inst,
                r.isEmpty() ? typedTop(inst.type())
                            : AbstractValue::ofInterval(r));
        break;
      }
      case Ret::freshHeap: {
        auto it = siteObj_.find(&inst);
        if (it == siteObj_.end()) {
            setSlot(st, inst, AbstractValue::unknownPointer());
            break;
        }
        unsigned id = it->second;
        objInfo_[id].size = objInfo_[id].size.join(sum.allocSize);
        ObjState fresh;
        fresh.dflt = sum.allocContents;
        enterAllocation(st, id, std::move(fresh));
        AbstractValue p = AbstractValue::pointerTo(id);
        p.canBeNull = sum.retMayBeNull;
        setSlot(st, inst, p);
        break;
      }
      case Ret::unknown:
        setSlot(st, inst, typedTop(inst.type()));
        break;
    }
}

void
FunctionAnalyzer::recordReturn(const Instruction &inst, AbsState &st)
{
    FunctionSummary &s = *summaryOut_;
    s.neverReturns = false;
    if (inst.operands().empty())
        return; // void: Ret::none stays the bottom of the lattice
    AbstractValue v = evalValue(inst.operand(0), st);
    auto degrade = [&s] { s.ret = Ret::unknown; };

    if (v.isInt()) {
        if (s.ret == Ret::none) {
            s.ret = Ret::interval;
            s.retInterval = v.ival;
        } else if (s.ret == Ret::interval) {
            s.retInterval = s.retInterval.join(v.ival);
        } else {
            degrade();
        }
        return;
    }
    if (v.kind == AbstractValue::Kind::pointer && !v.canBeUnknown) {
        // Fresh-heap recognition: every non-null possibility is a live,
        // unescaped heap allocation of this function, returned at its
        // start. Anything else (stack/global/parameter pointers,
        // interior pointers, escaped or freed blocks) degrades.
        Interval size = Interval::empty();
        ContentsDefault contents = ContentsDefault::unknown;
        bool first = true;
        for (const PointerTarget &t : v.targets) {
            const ObjState &o = st.obj(t.obj);
            if (objInfo_[t.obj].storage != StorageKind::heap ||
                !t.offset.isSingleton() || t.offset.lo != 0 ||
                o.live != ObjState::Liveness::live || o.escaped) {
                degrade();
                return;
            }
            // Bytes the callee wrote individually are initialized but
            // unknown to the caller; the rest keep the block's default.
            ContentsDefault d = o.contents.empty()
                ? o.dflt
                : joinDefault(o.dflt, ContentsDefault::unknown);
            size = size.join(objInfo_[t.obj].size);
            contents = first ? d : joinDefault(contents, d);
            first = false;
        }
        if (s.ret == Ret::none) {
            s.ret = Ret::freshHeap;
            s.allocSize = size;
            s.allocContents = v.targets.empty()
                ? ContentsDefault::unknown
                : contents;
            s.retMayBeNull = v.canBeNull;
        } else if (s.ret == Ret::freshHeap) {
            s.allocSize = s.allocSize.join(size);
            if (!v.targets.empty())
                s.allocContents = joinDefault(s.allocContents, contents);
            s.retMayBeNull = s.retMayBeNull || v.canBeNull;
        } else {
            degrade();
        }
        return;
    }
    degrade();
}

// --- Branch refinement ---------------------------------------------------

/**
 * Peels the codegen's `icmp ne/eq (zext (icmp ...)), 0` chains down to
 * the innermost icmp. @p polarity starts as the branch truth and flips
 * on every `eq ..., 0` layer.
 */
const Instruction *
FunctionAnalyzer::resolveCondChain(const Value *cond, bool &polarity) const
{
    const auto *inst = dynamic_cast<const Instruction *>(cond);
    while (inst != nullptr && inst->op() == Opcode::icmp) {
        IntPred pred = inst->intPred();
        if (pred != IntPred::eq && pred != IntPred::ne)
            return inst;
        const auto *rhs =
            dynamic_cast<const ConstantInt *>(inst->operand(1));
        if (rhs == nullptr || rhs->value() != 0 ||
            !inst->operand(0)->type()->isInteger())
            return inst;
        const auto *src =
            dynamic_cast<const Instruction *>(inst->operand(0));
        while (src != nullptr &&
               (src->op() == Opcode::zext || src->op() == Opcode::sext))
            src = dynamic_cast<const Instruction *>(src->operand(0));
        if (src == nullptr || src->op() != Opcode::icmp)
            return inst;
        // `x != 0` keeps the truth of x, `x == 0` negates it.
        if (pred == IntPred::eq)
            polarity = !polarity;
        inst = src;
    }
    return nullptr;
}

const MemEntry *
FunctionAnalyzer::loadedEntry(const AbsState &st,
                              const Instruction &load) const
{
    const Origin &origin = origins_[load.slot()];
    if (origin.obj < 0)
        return nullptr;
    const ObjState &obj = st.obj(static_cast<unsigned>(origin.obj));
    auto it = obj.contents.find(origin.off);
    if (it == obj.contents.end() || it->second.width != origin.width ||
        it->second.version != origin.version)
        return nullptr;
    return &it->second;
}

MemEntry &
FunctionAnalyzer::loadedEntryToWrite(AbsState &st, const Instruction &load)
{
    const Origin &origin = origins_[load.slot()];
    return st.mutObj(static_cast<unsigned>(origin.obj))
        .contents.find(origin.off)
        ->second;
}

void
FunctionAnalyzer::writeRefinedInt(AbsState &st, const Value *v,
                                  const Interval &refined)
{
    int slot = -1;
    if (v->valueKind() == ValueKind::argument)
        slot = static_cast<int>(static_cast<const Argument *>(v)->index());
    else if (v->valueKind() == ValueKind::instruction)
        slot = static_cast<const Instruction *>(v)->slot();
    if (slot >= 0 && st.slot(slot).isInt()) {
        Interval met = st.slot(slot).ival.meet(refined);
        if (!met.isEmpty() && met != st.slot(slot).ival)
            st.mutSlot(slot).ival = met;
    }
    const auto *inst = dynamic_cast<const Instruction *>(v);
    if (inst == nullptr)
        return;
    switch (inst->op()) {
      case Opcode::sext:
        // Canonical values are sign-extended: the mapping is identity.
        writeRefinedInt(st, inst->operand(0), refined);
        return;
      case Opcode::zext: {
        const Type *srcType = inst->operand(0)->type();
        if (!srcType->isInteger())
            return;
        unsigned srcBits = srcType->intBits();
        if (srcBits >= 64) {
            writeRefinedInt(st, inst->operand(0), refined);
            return;
        }
        int64_t half = int64_t{1} << (srcBits - 1);
        int64_t full = int64_t{1} << srcBits;
        if (refined.lo >= 0 && refined.hi < half) {
            writeRefinedInt(st, inst->operand(0), refined);
        } else if (refined.lo >= half && refined.hi < full) {
            writeRefinedInt(st, inst->operand(0),
                            Interval::range(refined.lo - full,
                                            refined.hi - full));
        }
        return;
      }
      case Opcode::load: {
        if (inst->slot() < 0)
            return;
        const MemEntry *entry = loadedEntry(st, *inst);
        if (entry == nullptr || !entry->val.isInt())
            return; // memory may have changed since the load
        Interval met = entry->val.ival.meet(refined);
        if (!met.isEmpty() && met != entry->val.ival)
            loadedEntryToWrite(st, *inst).val.ival = met;
        return;
      }
      default:
        return;
    }
}

void
FunctionAnalyzer::writeRefinedPointer(AbsState &st, const Value *v,
                                      const AbstractValue &refined)
{
    int slot = -1;
    if (v->valueKind() == ValueKind::argument)
        slot = static_cast<int>(static_cast<const Argument *>(v)->index());
    else if (v->valueKind() == ValueKind::instruction)
        slot = static_cast<const Instruction *>(v)->slot();
    if (slot >= 0 && st.slot(slot).isPointer() && st.slot(slot) != refined)
        st.mutSlot(slot) = refined;
    const auto *inst = dynamic_cast<const Instruction *>(v);
    if (inst == nullptr || inst->op() != Opcode::load || inst->slot() < 0)
        return;
    const MemEntry *entry = loadedEntry(st, *inst);
    if (entry != nullptr && entry->val.isPointer() && entry->val != refined)
        loadedEntryToWrite(st, *inst).val = refined;
}

namespace
{

IntPred
negatePred(IntPred pred)
{
    switch (pred) {
      case IntPred::eq:  return IntPred::ne;
      case IntPred::ne:  return IntPred::eq;
      case IntPred::slt: return IntPred::sge;
      case IntPred::sle: return IntPred::sgt;
      case IntPred::sgt: return IntPred::sle;
      case IntPred::sge: return IntPred::slt;
      case IntPred::ult: return IntPred::uge;
      case IntPred::ule: return IntPred::ugt;
      case IntPred::ugt: return IntPred::ule;
      case IntPred::uge: return IntPred::ult;
    }
    return pred;
}

Interval
belowStrict(int64_t hi)
{
    if (hi == INT64_MIN)
        return Interval::empty();
    return Interval::range(INT64_MIN, hi - 1);
}

Interval
aboveStrict(int64_t lo)
{
    if (lo == INT64_MAX)
        return Interval::empty();
    return Interval::range(lo + 1, INT64_MAX);
}

} // namespace

/** Narrows operand values along a branch edge; false = edge infeasible. */
bool
FunctionAnalyzer::applyRefinement(AbsState &st, const Instruction &cmp,
                                  bool truth)
{
    const Value *a = cmp.operand(0);
    const Value *b = cmp.operand(1);
    IntPred pred = truth ? cmp.intPred() : negatePred(cmp.intPred());

    if (a->type()->isPointer()) {
        // Only the null test is refined; object identity is not.
        if (pred != IntPred::eq && pred != IntPred::ne)
            return true;
        AbstractValue av = evalValue(a, st);
        AbstractValue bv = evalValue(b, st);
        auto refineNull = [&](const Value *side, const AbstractValue &val,
                              bool mustBeNull) -> bool {
            if (val.kind != AbstractValue::Kind::pointer)
                return true;
            if (mustBeNull) {
                if (!val.canBeNull)
                    return false; // never null: edge infeasible
                writeRefinedPointer(st, side, AbstractValue::nullPointer());
                return true;
            }
            AbstractValue refined = val;
            refined.canBeNull = false;
            if (refined.targets.empty() && !refined.canBeUnknown)
                return false; // must-null pointer on a non-null edge
            writeRefinedPointer(st, side, refined);
            return true;
        };
        bool eq = pred == IntPred::eq;
        if (bv.isMustNull() || b->valueKind() == ValueKind::constantNull)
            return refineNull(a, av, eq);
        if (av.isMustNull() || a->valueKind() == ValueKind::constantNull)
            return refineNull(b, bv, eq);
        return true;
    }
    if (!a->type()->isInteger())
        return true;

    AbstractValue av = evalValue(a, st);
    AbstractValue bv = evalValue(b, st);
    if (!av.isInt() || !bv.isInt())
        return true;
    Interval ai = av.ival;
    Interval bi = bv.ival;
    Interval newA = ai;
    Interval newB = bi;

    switch (pred) {
      case IntPred::eq:
        newA = newB = ai.meet(bi);
        break;
      case IntPred::ne:
        if (bi.isSingleton()) {
            if (ai.lo == bi.lo)
                newA = aboveStrict(ai.lo).meet(ai);
            if (ai.hi == bi.lo)
                newA = newA.meet(belowStrict(ai.hi));
        }
        if (ai.isSingleton()) {
            if (bi.lo == ai.lo)
                newB = aboveStrict(bi.lo).meet(bi);
            if (bi.hi == ai.lo)
                newB = newB.meet(belowStrict(bi.hi));
        }
        if (ai.isSingleton() && bi.isSingleton() && ai.lo == bi.lo)
            return false; // equal constants on a != edge
        break;
      case IntPred::slt:
        newA = ai.meet(belowStrict(bi.hi));
        newB = bi.meet(aboveStrict(ai.lo));
        break;
      case IntPred::sle:
        newA = ai.meet(Interval::range(INT64_MIN, bi.hi));
        newB = bi.meet(Interval::range(ai.lo, INT64_MAX));
        break;
      case IntPred::sgt:
        newA = ai.meet(aboveStrict(bi.lo));
        newB = bi.meet(belowStrict(ai.hi));
        break;
      case IntPred::sge:
        newA = ai.meet(Interval::range(bi.lo, INT64_MAX));
        newB = bi.meet(Interval::range(INT64_MIN, ai.hi));
        break;
      case IntPred::ult:
        // unsigned(a) < b with b's sign known non-negative bounds a to
        // [0, b.hi-1]: any signed-negative a is a huge unsigned value.
        if (bi.lo >= 0)
            newA = ai.meet(Interval::range(0, bi.hi - 1));
        if (ai.lo >= 0 && bi.lo >= 0)
            newB = bi.meet(aboveStrict(ai.lo));
        break;
      case IntPred::ule:
        if (bi.lo >= 0)
            newA = ai.meet(Interval::range(0, bi.hi));
        if (ai.lo >= 0 && bi.lo >= 0)
            newB = bi.meet(Interval::range(ai.lo, INT64_MAX));
        break;
      case IntPred::ugt:
        if (ai.lo >= 0 && bi.lo >= 0)
            newA = ai.meet(aboveStrict(bi.lo));
        if (bi.lo >= 0 && ai.lo >= 0)
            newB = bi.meet(belowStrict(ai.hi));
        break;
      case IntPred::uge:
        if (ai.lo >= 0 && bi.lo >= 0) {
            newA = ai.meet(Interval::range(bi.lo, INT64_MAX));
            newB = bi.meet(Interval::range(INT64_MIN, ai.hi));
        }
        break;
    }
    if (newA.isEmpty() || newB.isEmpty())
        return false;
    if (newA != ai)
        writeRefinedInt(st, a, newA);
    if (newB != bi)
        writeRefinedInt(st, b, newB);
    return true;
}

// --- Transfer ------------------------------------------------------------

namespace
{

/// i1 result interval of `icmp pred a, b` at @p bits operand width.
Interval
cmpIntervals(IntPred pred, const Interval &a, const Interval &b,
             unsigned bits)
{
    if (a.isEmpty() || b.isEmpty())
        return Interval::range(0, 1);
    bool canTrue = true;
    bool canFalse = true;
    auto signedCase = [&](IntPred p) {
        switch (p) {
          case IntPred::slt:
            canTrue = a.lo < b.hi;
            canFalse = a.hi >= b.lo;
            break;
          case IntPred::sle:
            canTrue = a.lo <= b.hi;
            canFalse = a.hi > b.lo;
            break;
          case IntPred::sgt:
            canTrue = a.hi > b.lo;
            canFalse = a.lo <= b.hi;
            break;
          case IntPred::sge:
            canTrue = a.hi >= b.lo;
            canFalse = a.lo < b.hi;
            break;
          default:
            break;
        }
    };
    switch (pred) {
      case IntPred::eq:
        canTrue = !a.meet(b).isEmpty();
        canFalse = !(a.isSingleton() && b.isSingleton() && a.lo == b.lo);
        break;
      case IntPred::ne:
        canFalse = !a.meet(b).isEmpty();
        canTrue = !(a.isSingleton() && b.isSingleton() && a.lo == b.lo);
        break;
      case IntPred::slt:
      case IntPred::sle:
      case IntPred::sgt:
      case IntPred::sge:
        signedCase(pred);
        break;
      case IntPred::ult:
      case IntPred::ule:
      case IntPred::ugt:
      case IntPred::uge: {
        if (a.lo >= 0 && b.lo >= 0) {
            // Same order as signed for non-negative values.
            IntPred s = pred == IntPred::ult ? IntPred::slt
                : pred == IntPred::ule      ? IntPred::sle
                : pred == IntPred::ugt      ? IntPred::sgt
                                            : IntPred::sge;
            signedCase(s);
        } else if (a.isSingleton() && b.isSingleton()) {
            uint64_t mask = bits >= 64 ? ~uint64_t{0}
                                       : (uint64_t{1} << bits) - 1;
            uint64_t ua = static_cast<uint64_t>(a.lo) & mask;
            uint64_t ub = static_cast<uint64_t>(b.lo) & mask;
            bool r = pred == IntPred::ult ? ua < ub
                : pred == IntPred::ule   ? ua <= ub
                : pred == IntPred::ugt   ? ua > ub
                                         : ua >= ub;
            canTrue = r;
            canFalse = !r;
        }
        break;
      }
    }
    if (canTrue && !canFalse)
        return Interval::of(1);
    if (!canTrue && canFalse)
        return Interval::of(0);
    return Interval::range(0, 1);
}

bool
mustNonNull(const AbstractValue &v)
{
    return v.isPointer() && !v.canBeNull &&
        (v.canBeUnknown || !v.targets.empty());
}

} // namespace

void
FunctionAnalyzer::joinInto(unsigned block, AbsState &&state)
{
    if (collect_)
        return;
    if (!blockIn_[block].has_value()) {
        blockIn_[block] = std::move(state);
        worklist_.insert({cfg_.rpoIndex(block), block});
        return;
    }
    bool widen = visits_[block] >= options_.widenAfter;
    if (joinStateInto(*blockIn_[block], state,
                      widen ? &thresholds_ : nullptr))
        worklist_.insert({cfg_.rpoIndex(block), block});
}

std::string
FunctionAnalyzer::describeObject(unsigned obj) const
{
    const ObjectInfo &info = objInfo_[obj];
    std::string out;
    if (info.size.isSingleton())
        out += std::to_string(info.size.lo) + "-byte ";
    switch (info.storage) {
      case StorageKind::stack:
        out += "stack object";
        break;
      case StorageKind::heap:
        out += "heap object";
        break;
      case StorageKind::global:
        out += "global";
        break;
      case StorageKind::mainArgs:
        out += "argv object";
        break;
      case StorageKind::unknown:
        out += "object";
        break;
    }
    if (!info.name.empty())
        out += " '" + info.name + "'";
    return out;
}

void
FunctionAnalyzer::emitFinding(const Instruction &inst, ErrorKind kind,
                              AccessKind access, StorageKind storage,
                              BoundsDirection direction, bool definite,
                              const std::string &detail,
                              const std::string &pathCondition,
                              std::optional<int64_t> offset,
                              std::optional<int64_t> objectSize)
{
    if (!collect_ || out_ == nullptr)
        return;
    StaticFinding f;
    f.kind = kind;
    f.access = access;
    f.storage = storage;
    f.direction = direction;
    f.confidence = definite && !abandoned_ ? Confidence::definite
                                           : Confidence::maybe;
    f.function = fn_.name();
    f.blockIndex = inst.parent()->index();
    f.instIndex = curInstIndex_;
    f.loc = inst.loc();
    f.detail = detail;
    f.pathCondition = pathCondition;
    f.offset = offset;
    f.objectSize = objectSize;
    auto key = std::make_tuple(f.blockIndex, f.instIndex,
                               static_cast<int>(kind));
    auto [it, fresh] = emitted_.emplace(key, out_->size());
    if (fresh) {
        out_->push_back(std::move(f));
    } else if (f.confidence == Confidence::definite &&
               (*out_)[it->second].confidence == Confidence::maybe) {
        (*out_)[it->second] = std::move(f);
    }
}

void
FunctionAnalyzer::transferBlock(unsigned b, AbsState st)
{
    std::fill(origins_.begin(), origins_.end(), Origin{});
    const BasicBlock &bb = *fn_.blocks()[b];
    const auto &insts = bb.insts();
    for (size_t idx = 0; idx < insts.size(); idx++) {
        const Instruction &inst = *insts[idx];
        curInstIndex_ = static_cast<unsigned>(idx);
        switch (inst.op()) {
          case Opcode::alloca_: {
            auto it = siteObj_.find(&inst);
            if (it == siteObj_.end())
                break;
            unsigned id = it->second;
            enterAllocation(st, id, ObjState{}); // live, uninit
            setSlot(st, inst, AbstractValue::pointerTo(id));
            break;
          }
          case Opcode::load: {
            AbstractValue ptr = evalValue(inst.operand(0), st);
            unsigned width =
                static_cast<unsigned>(inst.accessType()->size());
            AccessOutcome out = checkAccess(inst, AccessKind::read, ptr,
                                            width, inst.accessType(), st);
            if (out.mustFault)
                return;
            setSlot(st, inst, out.loaded);
            break;
          }
          case Opcode::store: {
            AbstractValue val = evalValue(inst.operand(0), st);
            AbstractValue ptr = evalValue(inst.operand(1), st);
            unsigned width =
                static_cast<unsigned>(inst.accessType()->size());
            AccessOutcome out = checkAccess(inst, AccessKind::write, ptr,
                                            width, inst.accessType(), st);
            if (out.mustFault)
                return;
            if (ptr.kind != AbstractValue::Kind::pointer ||
                ptr.canBeUnknown) {
                // The store may hit any object we track.
                for (unsigned i = 0; i < st.objects.size(); i++)
                    havocObject(i, st, /*escape=*/false);
                break;
            }
            bool strong = ptr.targets.size() == 1 && !ptr.canBeNull &&
                ptr.targets[0].offset.isSingleton() &&
                !objInfo_[ptr.targets[0].obj].multiInstance &&
                st.obj(ptr.targets[0].obj).live ==
                    ObjState::Liveness::live;
            for (const PointerTarget &t : ptr.targets)
                writeTarget(t, width, val, strong, st);
            break;
          }
          case Opcode::gep: {
            AbstractValue base = evalValue(inst.operand(0), st);
            Interval add = Interval::of(inst.gepConstOffset());
            if (inst.operands().size() > 1) {
                AbstractValue idxV = evalValue(inst.operand(1), st);
                Interval idx = idxV.isInt() ? idxV.ival : Interval::top();
                add = intervalAdd(
                    add,
                    intervalMul(idx, Interval::of(static_cast<int64_t>(
                                         inst.gepScale()))));
            }
            if (base.kind != AbstractValue::Kind::pointer) {
                setSlot(st, inst, AbstractValue::unknownPointer());
                break;
            }
            AbstractValue out = base;
            for (PointerTarget &t : out.targets)
                t.offset = intervalAdd(t.offset, add);
            setSlot(st, inst, out);
            break;
          }
          case Opcode::add:
          case Opcode::sub:
          case Opcode::mul: {
            AbstractValue av = evalValue(inst.operand(0), st);
            AbstractValue bv = evalValue(inst.operand(1), st);
            unsigned bits = inst.type()->intBits();
            if (!av.isInt() || !bv.isInt()) {
                setSlot(st, inst,
                        AbstractValue::ofInterval(intervalOfWidth(bits)));
                break;
            }
            Interval r = inst.op() == Opcode::add
                ? intervalAdd(av.ival, bv.ival)
                : inst.op() == Opcode::sub
                    ? intervalSub(av.ival, bv.ival)
                    : intervalMul(av.ival, bv.ival);
            setSlot(st, inst,
                    AbstractValue::ofInterval(intervalWrap(r, bits)));
            break;
          }
          case Opcode::sdiv:
          case Opcode::udiv:
          case Opcode::srem:
          case Opcode::urem:
          case Opcode::and_:
          case Opcode::or_:
          case Opcode::xor_:
          case Opcode::shl:
          case Opcode::lshr:
          case Opcode::ashr: {
            AbstractValue av = evalValue(inst.operand(0), st);
            AbstractValue bv = evalValue(inst.operand(1), st);
            unsigned bits = inst.type()->intBits();
            int64_t ca = 0, cb = 0;
            bool exact = av.isConstInt(ca) && bv.isConstInt(cb);
            Interval r = intervalOfWidth(bits);
            if (exact) {
                // Division by zero has no value: the interval stays the
                // whole width.
                if (std::optional<int64_t> v =
                        sem::intBinOp(inst.op(), ca, cb, bits)) {
                    r = Interval::of(*v);
                }
            } else if (inst.op() == Opcode::and_) {
                // a & m with a non-negative mask is within [0, m].
                if (bv.isConstInt(cb) && cb >= 0)
                    r = Interval::range(0, cb);
                else if (av.isConstInt(ca) && ca >= 0)
                    r = Interval::range(0, ca);
            } else if (inst.op() == Opcode::urem && bv.isConstInt(cb) &&
                       cb > 0 && av.isInt() && av.ival.lo >= 0) {
                r = Interval::range(0, cb - 1);
            } else if (inst.op() == Opcode::sdiv && bv.isConstInt(cb) &&
                       cb > 1 && av.isInt() && av.ival.lo >= 0 &&
                       !av.ival.isTop()) {
                r = Interval::range(av.ival.lo / cb, av.ival.hi / cb);
            }
            setSlot(st, inst, AbstractValue::ofInterval(r));
            break;
          }
          case Opcode::fadd:
          case Opcode::fsub:
          case Opcode::fmul:
          case Opcode::fdiv:
          case Opcode::frem:
          case Opcode::fneg:
            setSlot(st, inst, AbstractValue::anyFloat());
            break;
          case Opcode::icmp: {
            AbstractValue av = evalValue(inst.operand(0), st);
            AbstractValue bv = evalValue(inst.operand(1), st);
            Interval r = Interval::range(0, 1);
            if (av.isInt() && bv.isInt()) {
                unsigned bits = inst.operand(0)->type()->isInteger()
                    ? inst.operand(0)->type()->intBits()
                    : 64;
                r = cmpIntervals(inst.intPred(), av.ival, bv.ival, bits);
            } else if (av.isPointer() || bv.isPointer()) {
                IntPred pred = inst.intPred();
                if (pred == IntPred::eq || pred == IntPred::ne) {
                    bool knownEq = av.isMustNull() && bv.isMustNull();
                    bool knownNe = (av.isMustNull() && mustNonNull(bv)) ||
                        (bv.isMustNull() && mustNonNull(av));
                    if (knownEq)
                        r = Interval::of(pred == IntPred::eq ? 1 : 0);
                    else if (knownNe)
                        r = Interval::of(pred == IntPred::eq ? 0 : 1);
                }
            }
            setSlot(st, inst, AbstractValue::ofInterval(r));
            break;
          }
          case Opcode::fcmp:
            setSlot(st, inst,
                    AbstractValue::ofInterval(Interval::range(0, 1)));
            break;
          case Opcode::trunc: {
            AbstractValue av = evalValue(inst.operand(0), st);
            unsigned bits = inst.type()->intBits();
            setSlot(st, inst,
                    AbstractValue::ofInterval(
                        av.isInt() ? intervalWrap(av.ival, bits)
                                   : intervalOfWidth(bits)));
            break;
          }
          case Opcode::zext: {
            AbstractValue av = evalValue(inst.operand(0), st);
            const Type *srcType = inst.operand(0)->type();
            unsigned srcBits =
                srcType->isInteger() ? srcType->intBits() : 64;
            Interval r = intervalOfWidth(inst.type()->intBits());
            if (av.isInt()) {
                if (av.ival.lo >= 0) {
                    r = av.ival;
                } else if (av.ival.isSingleton() && srcBits < 64) {
                    uint64_t m = (uint64_t{1} << srcBits) - 1;
                    r = Interval::of(static_cast<int64_t>(
                        static_cast<uint64_t>(av.ival.lo) & m));
                } else if (srcBits < 64) {
                    r = Interval::range(0,
                                        static_cast<int64_t>(
                                            (uint64_t{1} << srcBits) - 1));
                }
            }
            setSlot(st, inst, AbstractValue::ofInterval(r));
            break;
          }
          case Opcode::sext: {
            AbstractValue av = evalValue(inst.operand(0), st);
            setSlot(st, inst,
                    av.isInt() ? av
                               : AbstractValue::ofInterval(
                                     intervalOfWidth(
                                         inst.type()->intBits())));
            break;
          }
          case Opcode::fptosi:
          case Opcode::fptoui:
          case Opcode::ptrtoint:
            setSlot(st, inst,
                    AbstractValue::ofInterval(
                        intervalOfWidth(inst.type()->intBits())));
            break;
          case Opcode::sitofp:
          case Opcode::uitofp:
          case Opcode::fpext:
          case Opcode::fptrunc:
            setSlot(st, inst, AbstractValue::anyFloat());
            break;
          case Opcode::inttoptr:
            setSlot(st, inst, AbstractValue::unknownPointer());
            break;
          case Opcode::select: {
            AbstractValue cond = evalValue(inst.operand(0), st);
            int64_t c;
            if (cond.isConstInt(c)) {
                setSlot(st, inst,
                        evalValue(inst.operand(c != 0 ? 1 : 2), st));
            } else {
                setSlot(st, inst,
                        joinValues(evalValue(inst.operand(1), st),
                                   evalValue(inst.operand(2), st)));
            }
            break;
          }
          case Opcode::call: {
            bool stop = false;
            transferCall(inst, st, stop);
            if (stop)
                return;
            break;
          }
          case Opcode::br:
            joinInto(inst.target(0)->index(), std::move(st));
            return;
          case Opcode::condbr: {
            if (collect_)
                return; // edge states feed only the fixpoint
            AbstractValue cond = evalValue(inst.operand(0), st);
            int64_t c;
            if (cond.isConstInt(c)) {
                joinInto(inst.target(c != 0 ? 0 : 1)->index(),
                         std::move(st));
                return;
            }
            auto follow = [&](unsigned edge, AbsState branch) {
                bool polarity = edge == 0;
                const Instruction *cmp =
                    resolveCondChain(inst.operand(0), polarity);
                bool feasible = true;
                if (cmp != nullptr)
                    feasible = applyRefinement(branch, *cmp, polarity);
                if (feasible)
                    joinInto(inst.target(edge)->index(), std::move(branch));
            };
            follow(0, st);
            follow(1, std::move(st)); // the false edge takes the state
            return;
          }
          case Opcode::ret:
            if (collect_ && summaryOut_ != nullptr)
                recordReturn(inst, st);
            return;
          case Opcode::unreachable_:
            return;
          default:
            // Tier-2 pseudo-ops never appear in analyzable IR.
            setSlot(st, inst, AbstractValue::top());
            break;
        }
    }
}

bool
FunctionAnalyzer::run(std::vector<StaticFinding> &findings)
{
    size_t n = cfg_.numBlocks();
    if (n == 0)
        return true;
    blockIn_.assign(n, std::nullopt);
    visits_.assign(n, 0);
    origins_.assign(fn_.numSlots(), Origin{});
    thresholds_ = {0};
    for (const auto &bb : fn_.blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->op() != Opcode::icmp)
                continue;
            for (const Value *operand : inst->operands()) {
                const auto *c = dynamic_cast<const ConstantInt *>(operand);
                if (c == nullptr)
                    continue;
                int64_t v = c->value();
                thresholds_.push_back(v);
                if (v > INT64_MIN)
                    thresholds_.push_back(v - 1);
                if (v < INT64_MAX)
                    thresholds_.push_back(v + 1);
            }
        }
    }
    std::sort(thresholds_.begin(), thresholds_.end());
    thresholds_.erase(std::unique(thresholds_.begin(), thresholds_.end()),
                      thresholds_.end());
    unsigned entry = fn_.entry()->index();
    blockIn_[entry] = entryState();
    worklist_.insert({cfg_.rpoIndex(entry), entry});
    while (!worklist_.empty()) {
        auto it = worklist_.begin();
        unsigned b = it->second;
        worklist_.erase(it);
        if (++visits_[b] > options_.maxBlockVisits) {
            abandoned_ = true;
            break;
        }
        transferBlock(b, *blockIn_[b]);
    }
    // The collect pass is the last reader of each block's state.
    collect_ = true;
    out_ = &findings;
    for (unsigned b : cfg_.reversePostOrder()) {
        if (blockIn_[b].has_value())
            transferBlock(b, std::move(*blockIn_[b]));
    }
    collect_ = false;
    out_ = nullptr;
    return !abandoned_;
}

// --- Affine return detection ---------------------------------------------

/**
 * Syntactic recognition of `return m*x + k` shapes over one integer
 * argument in straight-line functions. The unoptimized codegen spills
 * every argument to an alloca and splits the body over an
 * unconditional entry -> body chain, so the recognizer concatenates
 * that chain (bailing at any conditional branch) and allows the value
 * chain to pass through one load of an alloca that is stored exactly
 * once — from the argument, before the load — and never otherwise
 * referenced.
 *
 * Records the composed (mul, add) after every chain step as an
 * AffineStep prefix; affineApply() later refuses the chain whenever any
 * prefix's image over the call-site argument interval leaves its wrap
 * width, which keeps the transfer sound under two's-complement wrap.
 */
void
detectAffineReturn(const Function &fn, FunctionSummary &s)
{
    if (s.ret != Ret::interval || fn.blocks().empty())
        return;
    // Straight-line region: follow unconditional branches from the
    // entry. Every reachable block lies on this chain (a conditional
    // branch bails out), so blocks off the chain are dead and the
    // concatenation is the execution order.
    std::vector<const Instruction *> insts;
    const Instruction *term = nullptr;
    const BasicBlock *bb = fn.blocks().front().get();
    for (size_t guard = fn.blocks().size(); bb != nullptr && guard > 0;
         guard--) {
        const BasicBlock *next = nullptr;
        for (const auto &inst : bb->insts()) {
            switch (inst->op()) {
              case Opcode::br:
                next = inst->target(0);
                break;
              case Opcode::ret:
                term = inst.get();
                break;
              case Opcode::condbr:
              case Opcode::unreachable_:
                return;
              default:
                insts.push_back(inst.get());
                break;
            }
        }
        if (term != nullptr)
            break;
        bb = next;
    }
    if (term == nullptr || term->operands().empty())
        return;

    constexpr int64_t kCoefLimit = int64_t{1} << 31;
    struct RawStep
    {
        int64_t mul = 1;
        int64_t add = 0;
        unsigned bits = 64;
    };
    std::vector<RawStep> ops; ///< outermost op first
    const Value *v = term->operand(0);
    int argIndex = -1;
    unsigned argBits = 64;

    while (argIndex < 0) {
        if (v->valueKind() == ValueKind::argument) {
            const auto *a = static_cast<const Argument *>(v);
            if (!a->type()->isInteger())
                return;
            argIndex = static_cast<int>(a->index());
            argBits = a->type()->intBits();
            break;
        }
        const auto *inst = dynamic_cast<const Instruction *>(v);
        if (inst == nullptr)
            return;
        if (inst->op() == Opcode::sext) {
            // Value-preserving widening.
            v = inst->operand(0);
            continue;
        }
        if (inst->op() == Opcode::add || inst->op() == Opcode::sub ||
            inst->op() == Opcode::mul) {
            if (inst->type() == nullptr || !inst->type()->isInteger())
                return;
            const auto *c0 =
                dynamic_cast<const ConstantInt *>(inst->operand(0));
            const auto *c1 =
                dynamic_cast<const ConstantInt *>(inst->operand(1));
            if ((c0 == nullptr) == (c1 == nullptr))
                return; // need exactly one constant side
            int64_t c = c0 != nullptr ? c0->value() : c1->value();
            if (c > kCoefLimit || c < -kCoefLimit)
                return;
            RawStep step;
            step.bits = inst->type()->intBits();
            switch (inst->op()) {
              case Opcode::add:
                step.mul = 1;
                step.add = c;
                break;
              case Opcode::sub:
                if (c1 != nullptr) { // x - c
                    step.mul = 1;
                    step.add = -c;
                } else { // c - x
                    step.mul = -1;
                    step.add = c;
                }
                break;
              default: // mul
                step.mul = c;
                step.add = 0;
                break;
            }
            ops.push_back(step);
            v = c0 != nullptr ? inst->operand(1) : inst->operand(0);
            continue;
        }
        if (inst->op() == Opcode::load) {
            const auto *addr =
                dynamic_cast<const Instruction *>(inst->operand(0));
            if (addr == nullptr || addr->op() != Opcode::alloca_)
                return;
            const Argument *spilled = nullptr;
            size_t storePos = insts.size();
            size_t loadPos = insts.size();
            int stores = 0;
            for (size_t i = 0; i < insts.size(); i++) {
                const Instruction *cur = insts[i];
                if (cur == inst)
                    loadPos = i;
                if (cur == addr)
                    continue;
                bool refs = false;
                for (size_t oi = 0; oi < cur->operands().size(); oi++)
                    if (cur->operand(oi) == addr)
                        refs = true;
                if (!refs)
                    continue;
                if (cur->op() == Opcode::store &&
                    cur->operand(1) == addr &&
                    cur->operand(0) != addr) {
                    stores++;
                    storePos = i;
                    spilled =
                        dynamic_cast<const Argument *>(cur->operand(0));
                } else if (cur->op() == Opcode::load &&
                           cur->operand(0) == addr) {
                    // Reads are harmless.
                } else {
                    return; // the address escapes; value not tracked
                }
            }
            if (stores != 1 || spilled == nullptr ||
                !spilled->type()->isInteger() || storePos > loadPos)
                return;
            argIndex = static_cast<int>(spilled->index());
            argBits = spilled->type()->intBits();
            break;
        }
        return;
    }

    // Compose innermost-first, recording every prefix.
    int64_t mul = 1;
    int64_t add = 0;
    std::vector<AffineStep> prefixes;
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        __int128 nm = static_cast<__int128>(it->mul) * mul;
        __int128 na = static_cast<__int128>(it->mul) * add + it->add;
        if (nm > kCoefLimit || nm < -kCoefLimit || na > kCoefLimit ||
            na < -kCoefLimit)
            return;
        mul = static_cast<int64_t>(nm);
        add = static_cast<int64_t>(na);
        prefixes.push_back({mul, add, it->bits});
    }
    if (prefixes.empty()) // `return x` verbatim
        prefixes.push_back({1, 0, argBits});
    s.hasAffine = true;
    s.affineArg = static_cast<unsigned>(argIndex);
    s.prefixes = std::move(prefixes);
}

/// Call-depth and guest-heap budgets of the refutation replay.
constexpr unsigned kReplayDepth = 512;
constexpr uint64_t kReplayHeapBytes = 64ull << 20;

/**
 * Run @p module once under the managed engine, configured as the corpus
 * cross-validation's oracle (default options plus uninitialized-read
 * detection), within the replay budgets and on the replay inputs.
 */
ExecutionResult
replayOnEngine(const Module &module, const AnalysisOptions &options)
{
    ManagedOptions managed;
    managed.detectUninitReads = true;
    ManagedEngine engine(managed);
    ResourceLimits &limits = engine.limits();
    limits.maxSteps = options.replaySteps;
    limits.maxCallDepth = kReplayDepth;
    limits.maxHeapBytes = kReplayHeapBytes;
    return engine.run(module, options.replayArgs, options.replayStdin);
}

/** The replay's fault @p bug as a definite finding at its site. */
StaticFinding
findingOfFault(const Module &module, const BugReport &bug)
{
    StaticFinding f;
    f.kind = bug.kind;
    f.access = bug.access;
    f.storage = bug.storage;
    f.direction = bug.direction;
    f.confidence = Confidence::definite;
    f.function = bug.function;
    f.blockIndex = *bug.blockIndex;
    f.instIndex = *bug.instIndex;
    f.loc = module.findFunction(bug.function)
                ->blocks()[f.blockIndex]
                ->insts()[f.instIndex]
                ->loc();
    f.detail = bug.detail;
    f.replayConfirmed = true;
    f.offset = bug.offset;
    f.objectSize = bug.objectSize;
    return f;
}

} // namespace

AnalysisReport
analyzeModule(const Module &module, const AnalysisOptions &options)
{
    MS_TRACE_SPAN("analysis.module");
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    AnalysisReport report;

    auto analyzable = [&options](const Function &fn) {
        if (fn.isDeclaration() || fn.isIntrinsic())
            return false;
        if (options.userCodeOnly && fn.sourceFile().rfind("libc/", 0) == 0)
            return false;
        return true;
    };

    // Interprocedural scaffolding: the call graph's SCC condensation
    // orders the per-function analyses bottom-up (callees before
    // callers), so a call site always sees its callees' completed
    // summaries. It covers the analyzable definitions only: a call into
    // anything else (a declaration, an unanalyzed libc body) is
    // havocked, so it orders nothing. SCCs of equal depth are pairwise
    // unreachable and run in parallel when options.jobs > 1; results
    // are keyed by function id and assembled in module order, so the
    // output is identical for every job count.
    CallGraph graph;
    SccInfo sccs;
    {
        MS_TRACE_SPAN("analysis.callgraph");
        graph = CallGraph::build(module, analyzable);
        sccs = condense(graph);
    }
    report.sccCount = static_cast<unsigned>(sccs.sccs.size());

    const bool useSummaries = options.summaries;
    size_t n = graph.size();
    SummaryDb summaries(n);
    std::vector<std::vector<StaticFinding>> fnFindings(n);
    std::vector<uint8_t> fnComplete(n, 1);
    std::vector<uint8_t> fnAnalyzed(n, 0);
    std::vector<uint64_t> fnVisits(n, 0);
    std::vector<unsigned> fnApplied(n, 0);

    auto runScc = [&](const Scc &scc) {
        std::vector<const Function *> members;
        for (unsigned id : scc.members)
            members.push_back(graph.node(id).fn);
        if (useSummaries && scc.recursive) {
            // Optimistic bottom: no effects, no returns. Iterate to a
            // widened fixpoint; an unstable SCC degrades to pessimistic
            // so call sites fall back to havocking.
            for (const Function *fn : members) {
                FunctionSummary init;
                init.computed = true;
                init.ret = Ret::none;
                init.neverReturns = true;
                init.params.assign(fn->numArgs(), ParamEffect{});
                summaries[fn->id()] = init;
            }
            bool stable = false;
            for (unsigned round = 0;
                 round < options.summaryDepth && !stable; round++) {
                stable = true;
                for (const Function *fn : members) {
                    FunctionSummary fresh;
                    std::vector<StaticFinding> scratch;
                    FunctionAnalyzer a(module, *fn, options, &graph,
                                       &summaries, &fresh);
                    bool complete = a.run(scratch);
                    fresh.computed = true;
                    if (!complete)
                        fresh = FunctionSummary::makePessimistic(
                            fn->numArgs());
                    if (joinSummaryInto(summaries[fn->id()], fresh,
                                        /*widen=*/round >= 1))
                        stable = false;
                }
            }
            if (!stable) {
                for (const Function *fn : members)
                    summaries[fn->id()] =
                        FunctionSummary::makePessimistic(fn->numArgs());
            }
        }
        // Findings pass over the (now stable) summaries; singletons
        // compute their summary in the same run.
        for (const Function *fn : members) {
            unsigned id = fn->id();
            // Optimistic bottom, like the recursive init: recordReturn
            // raises `ret` from none and clears neverReturns at the
            // first executed `ret` site. (The default-constructed
            // summary starts at Ret::unknown — the lattice top — which
            // recordReturn can never improve.)
            FunctionSummary fresh;
            fresh.ret = Ret::none;
            fresh.neverReturns = true;
            FunctionAnalyzer a(module, *fn, options,
                               useSummaries ? &graph : nullptr,
                               useSummaries ? &summaries : nullptr,
                               useSummaries ? &fresh : nullptr);
            bool complete = a.run(fnFindings[id]);
            fnAnalyzed[id] = 1;
            fnComplete[id] = complete ? 1 : 0;
            fnVisits[id] = a.blockVisitsTotal();
            fnApplied[id] = a.summariesApplied();
            if (useSummaries && !scc.recursive) {
                fresh.computed = true;
                if (!complete) {
                    fresh = FunctionSummary::makePessimistic(fn->numArgs());
                } else {
                    if (fresh.params.size() < fn->numArgs())
                        fresh.params.resize(fn->numArgs());
                    detectAffineReturn(*fn, fresh);
                }
                summaries[id] = std::move(fresh);
            }
        }
    };

    // Schedule by SCC depth: within one level, SCCs are independent.
    // The span covers every fixpoint and its findings sweep.
    {
        MS_TRACE_SPAN("analysis.fixpoint");
        std::vector<std::vector<unsigned>> byDepth(sccs.maxDepth + 1);
        for (unsigned i = 0; i < sccs.sccs.size(); i++)
            byDepth[sccs.sccs[i].depth].push_back(i);
        unsigned jobs = std::max(1u, options.jobs);
        std::optional<ThreadPool> pool;
        for (const auto &level : byDepth) {
            if (jobs > 1 && level.size() > 1) {
                if (!pool.has_value())
                    pool.emplace(jobs);
                std::vector<std::future<void>> pending;
                for (unsigned si : level)
                    pending.push_back(pool->submit(
                        [&runScc, &sccs, si] { runScc(sccs.sccs[si]); }));
                for (std::future<void> &f : pending)
                    f.get();
            } else {
                for (unsigned si : level)
                    runScc(sccs.sccs[si]);
            }
        }
    }

    // Deterministic assembly in module function order.
    for (const auto &fn : module.functions()) {
        unsigned id = fn->id();
        if (id >= n || !fnAnalyzed[id])
            continue;
        reg.counter("analysis.functions").inc();
        if (fnVisits[id] != 0)
            reg.counter("analysis.fixpoint.block_visits").inc(fnVisits[id]);
        report.incomplete = report.incomplete || !fnComplete[id];
        report.functionsAnalyzed++;
        report.summariesApplied += fnApplied[id];
        report.blockVisits += fnVisits[id];
        for (StaticFinding &f : fnFindings[id])
            report.findings.push_back(std::move(f));
    }
    reg.counter("analysis.callgraph.functions").inc(graph.functionCount());
    reg.counter("analysis.callgraph.sccs").inc(report.sccCount);
    if (report.summariesApplied != 0)
        reg.counter("analysis.summary.applied").inc(report.summariesApplied);

    auto countFindings = [&reg, &report] {
        uint64_t definite = 0;
        uint64_t maybe = 0;
        for (const StaticFinding &f : report.findings)
            (f.confidence == Confidence::definite ? definite : maybe)++;
        if (definite != 0)
            reg.counter("analysis.findings.definite").inc(definite);
        if (maybe != 0)
            reg.counter("analysis.findings.maybe").inc(maybe);
    };

    if (!options.refute) {
        countFindings();
        return report;
    }

    const Function *main = module.findFunction("main");
    if (main == nullptr || main->isDeclaration()) {
        // Nothing to replay: nothing can stay definite.
        for (StaticFinding &f : report.findings)
            f.confidence = Confidence::maybe;
        countFindings();
        return report;
    }

    MS_TRACE_SPAN("analysis.refute");
    ExecutionResult replay = replayOnEngine(module, options);
    const BugReport &bug = replay.bug;
    bool faulted =
        bug.kind != ErrorKind::none && bug.kind != ErrorKind::engineError;
    report.replayRan = true;
    if (faulted)
        report.replayOutcome = "fault";
    else if (bug.kind == ErrorKind::engineError)
        report.replayOutcome = "inconclusive: " + bug.detail;
    else if (replay.termination != TerminationKind::normal)
        report.replayOutcome = "inconclusive: " + replay.terminationDetail;
    else
        report.replayOutcome = "exit";

    bool matched = false;
    uint64_t confirmed = 0;
    uint64_t demoted = 0;
    for (StaticFinding &f : report.findings) {
        bool confirms = faulted && bug.kind == f.kind &&
            bug.function == f.function && bug.blockIndex == f.blockIndex &&
            bug.instIndex == f.instIndex;
        if (confirms) {
            f.confidence = Confidence::definite;
            f.replayConfirmed = true;
            // Prefer the concrete details the replay established.
            if (bug.offset.has_value())
                f.offset = bug.offset;
            if (bug.objectSize.has_value())
                f.objectSize = bug.objectSize;
            matched = true;
            confirmed++;
        } else {
            if (f.confidence == Confidence::definite)
                demoted++;
            f.confidence = Confidence::maybe;
        }
    }
    if (faulted && !matched && bug.blockIndex.has_value()) {
        report.findings.push_back(findingOfFault(module, bug));
        reg.counter("analysis.refute.promoted").inc();
    }
    if (confirmed != 0)
        reg.counter("analysis.refute.confirmed").inc(confirmed);
    if (demoted != 0)
        reg.counter("analysis.refute.demoted").inc(demoted);
    countFindings();
    return report;
}

} // namespace sulong
