/**
 * @file
 * Tier-3 translation and direct-threaded execution (model in tier3.h).
 *
 * The translator is a single linear pass over the tier-2 PInst stream:
 * it assigns each instruction a flat dispatch opcode (folding the
 * superinstruction flags into the opcode so the hot loop never re-tests
 * them), marks superblock heads (function entry, every branch target,
 * every block entry, and the successor of every op that ends a
 * superblock but falls through — calls and interpreter escapes), and
 * stamps each head with the batched step charge for its straight-line
 * run. Indices are shared with tier-2 verbatim, so OSR entry and deopt
 * resume need no pc mapping and no state reconstruction: the frame's
 * slot array *is* the deopt state.
 *
 * The executor mirrors tier-2's semantics case by case — same eval
 * cores, same checked loadAt/storeAt, same IC state machine, same
 * interpreter escapes — and differs only in dispatch (computed goto /
 * switch), batched step accounting (reconciled with uncharge() on
 * every early exit), and the three deopt edges described in tier3.h.
 */

#include "interp/tier3.h"

#include <algorithm>

namespace sulong
{

namespace
{

/** Does this op end a superblock? Anything that branches, returns, or
 *  hands control to another accounting domain (calls, interpreter
 *  escapes) must be the last op of its superblock, so the head's batch
 *  charge is exact at every point where steps can be observed. */
bool
endsSuperblock(TOp top)
{
    switch (top) {
      case TOp::tBr:
      case TOp::tCondBr:
      case TOp::tRet:
      case TOp::tRetVoid:
      case TOp::tICmpBr:
      case TOp::tICmpLoadBr:
      case TOp::tInlineRet:
      case TOp::tCallDirect:
      case TOp::tCallIndirect:
      case TOp::tInterp:
      case TOp::tUnreachable:
        return true;
      default:
        return false;
    }
}

/** Superblock enders that continue at the next instruction (the rest
 *  jump, so their successor is only a head if something branches to
 *  it). */
bool
fallsThrough(TOp top)
{
    return top == TOp::tCallDirect || top == TOp::tCallIndirect ||
        top == TOp::tInterp;
}

/** Checked memory effects of one op (plain + fused), for the
 *  "fused checks retired" telemetry. */
uint32_t
checkedEffects(const PInst &pi)
{
    uint32_t n = 0;
    if (pi.op == Opcode::load || pi.op == Opcode::store ||
        pi.op == Opcode::alloca_)
        n++;
    if ((pi.flags & kPFuseLoad) != 0)
        n++;
    if ((pi.flags & kPFuseStore) != 0)
        n++;
    return n;
}

/** Flat dispatch opcode for one tier-2 instruction. */
TOp
topFor(const PInst &pi, const std::vector<CallSite> &sites);

} // namespace

/** Alloca types whose objects support resetForReuse(). */
static bool
recyclableAlloca(const Type *type)
{
    if (type->isScalar())
        return true;
    if (type->isArray()) {
        const Type *elem = type->elemType();
        return elem->isInteger() || elem->isFloat() || elem->isPointer();
    }
    return false;
}

std::unique_ptr<Tier3Code>
translateTier3(const Function &fn, CompiledFunction &t2,
               ManagedEngine &engine)
{
    const std::vector<PInst> &code = t2.code_;
    const size_t n = code.size();
    if (n == 0)
        return nullptr;
    auto out = std::make_unique<Tier3Code>(&fn, &t2);
    out->code_.resize(n);
    for (size_t i = 0; i < n; i++) {
        out->code_[i].pi = code[i];
        out->code_[i].top = topFor(code[i], t2.callSites_);
        if (code[i].op == Opcode::alloca_ &&
            recyclableAlloca(code[i].src->accessType())) {
            out->code_[i].allocaSite =
                static_cast<int32_t>(out->allocaCache_.size());
            out->allocaCache_.emplace_back();
        }
    }

    // Superblock heads: entry, block entries, branch targets, and the
    // fall-through successor of every call/interpreter escape.
    std::vector<char> head(n, 0);
    head[0] = 1;
    for (const auto &entry : t2.blockStart_)
        head[static_cast<size_t>(entry.second)] = 1;
    for (size_t i = 0; i < n; i++) {
        const PInst &pi = code[i];
        switch (pi.op) {
          case Opcode::br:
            head[static_cast<size_t>(pi.t0)] = 1;
            break;
          case Opcode::condbr:
            head[static_cast<size_t>(pi.t0)] = 1;
            head[static_cast<size_t>(pi.t1)] = 1;
            break;
          case Opcode::icmp:
            if ((pi.flags & kPFuseCmpBr) != 0) {
                head[static_cast<size_t>(pi.t0)] = 1;
                head[static_cast<size_t>(pi.t1)] = 1;
            }
            break;
          case Opcode::p2Ret:
            head[static_cast<size_t>(pi.t0)] = 1;
            break;
          default:
            break;
        }
        if (fallsThrough(out->code_[i].top) && i + 1 < n)
            head[i + 1] = 1;
    }
    if (!engine.options_.enableFusion)
        std::fill(head.begin(), head.end(), 1);

    // Stamp each head with its straight-line run's charge. The walk
    // partitions the stream: it stops at superblock enders, at the next
    // head, and at the length cap (forcing a head there so no op is
    // ever executed outside a charged superblock).
    for (size_t h = 0; h < n; h++) {
        if (head[h] == 0)
            continue;
        size_t j = h;
        size_t len = 1;
        uint32_t checks = checkedEffects(code[h]);
        while (!endsSuperblock(out->code_[j].top) && j + 1 < n &&
               head[j + 1] == 0 && len < kMaxSuperblockLen) {
            j++;
            len++;
            checks += checkedEffects(code[j]);
        }
        if (!endsSuperblock(out->code_[j].top) && j + 1 < n)
            head[j + 1] = 1; // length cap hit: next run starts a head
        out->code_[h].charge = static_cast<uint16_t>(len);
        out->code_[h].checks = static_cast<uint16_t>(
            std::min<uint32_t>(checks, UINT16_MAX));
        out->superblocks_++;
    }

    out->shapeMiss_.assign(t2.accessCaches_.size(), 0);
    return out;
}

namespace
{

TOp
topFor(const PInst &pi, const std::vector<CallSite> &sites)
{
    const bool fl = (pi.flags & kPFuseLoad) != 0;
    const bool fs = (pi.flags & kPFuseStore) != 0;
    switch (pi.op) {
      case Opcode::br:
        return TOp::tBr;
      case Opcode::condbr:
        return TOp::tCondBr;
      case Opcode::ret:
        return pi.dest == -2 ? TOp::tRetVoid : TOp::tRet;
      case Opcode::icmp:
        if ((pi.flags & kPFuseCmpBr) != 0)
            return fl ? TOp::tICmpLoadBr : TOp::tICmpBr;
        return fl ? TOp::tICmpLoad : TOp::tICmp;
      case Opcode::add: case Opcode::sub: case Opcode::mul:
      case Opcode::sdiv: case Opcode::udiv: case Opcode::srem:
      case Opcode::urem: case Opcode::and_: case Opcode::or_:
      case Opcode::xor_: case Opcode::shl: case Opcode::lshr:
      case Opcode::ashr:
        return fl ? (fs ? TOp::tIArithLS : TOp::tIArithL)
                  : (fs ? TOp::tIArithS : TOp::tIArith);
      case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
      case Opcode::fdiv: case Opcode::frem:
        return fl ? (fs ? TOp::tFArithLS : TOp::tFArithL)
                  : (fs ? TOp::tFArithS : TOp::tFArith);
      case Opcode::fcmp:
        return TOp::tFCmp;
      case Opcode::gep:
        return TOp::tGep;
      case Opcode::load:
        return TOp::tLoad;
      case Opcode::store:
        return TOp::tStore;
      case Opcode::alloca_:
        return TOp::tAlloca;
      case Opcode::select:
        return TOp::tSelect;
      case Opcode::fneg:
        return TOp::tFneg;
      case Opcode::trunc:
      case Opcode::sext:
        return TOp::tTruncSext;
      case Opcode::zext:
        return TOp::tZext;
      case Opcode::fptosi: case Opcode::fptoui: case Opcode::sitofp:
      case Opcode::uitofp: case Opcode::fpext: case Opcode::fptrunc:
        return TOp::tCastOther;
      case Opcode::p2Move:
        return TOp::tMove;
      case Opcode::p2Ret:
        return TOp::tInlineRet;
      case Opcode::p2CallDirect:
        return TOp::tCallDirect;
      case Opcode::p2CallIndirect:
        // A site that is already megamorphic stays megamorphic forever;
        // routing it through the interpreter escape (exactly tier-2's
        // fallback) instead of the IC handler prevents a retranslation
        // from deopting on its first execution again.
        return sites[static_cast<size_t>(pi.callSite)].cachedFnId ==
                kICMegamorphic
            ? TOp::tInterp
            : TOp::tCallIndirect;
      case Opcode::unreachable_:
        return TOp::tUnreachable;
      default:
        // call, ptrtoint, inttoptr — tier-2's interpreter escape.
        return TOp::tInterp;
    }
}

} // namespace

/*
 * Batched step accounting at a superblock head. Order matters for the
 * reconciliation in the catch blocks below: sbEnd and the profiler
 * counter move *before* onSteps so that, when the guard's interrupt
 * poll throws after charging, the handlers can compute the unexecuted
 * remainder from sbEnd and return it — leaving exactly the head op
 * charged, the same state tier-1/tier-2 leave after a throwing step().
 * A refused batch (would cross the step limit) charges nothing; tier-2
 * then steps per-op so the limit trips on exactly the right
 * instruction.
 */
#define T3_CHARGE()                                                     \
    do {                                                                \
        const uint32_t charge_n = ip->charge;                           \
        if (charge_n != 0) {                                            \
            sbEnd = ip + charge_n;                                      \
            if (prof != nullptr) {                                      \
                prof->tier3Steps += charge_n;                           \
                engine.telem_.t3FusedChecks += ip->checks;              \
            }                                                           \
            if (!guard.onSteps(charge_n)) {                             \
                if (prof != nullptr)                                    \
                    prof->tier3Steps -= charge_n;                       \
                goto deopt_steps;                                       \
            }                                                           \
        }                                                               \
    } while (0)

/*
 * In threaded mode every handler ends in its own indirect jump (the
 * branch predictor learns per-handler successor patterns — the point of
 * computed goto); the switch fallback funnels through one dispatch
 * label instead.
 */
#ifdef MS_THREADED_DISPATCH
#define T3_DISPATCH()                                                   \
    do {                                                                \
        T3_CHARGE();                                                    \
        goto *kLabels[static_cast<size_t>(ip->top)];                    \
    } while (0)
#else
#define T3_DISPATCH() goto t3_dispatch
#endif

#define T3_NEXT()                                                       \
    do {                                                                \
        ++ip;                                                           \
        T3_DISPATCH();                                                  \
    } while (0)

MValue
Tier3Code::execute(ManagedEngine &engine, ManagedEngine::Frame &frame,
                   size_t start_pc)
{
    CompiledFunction &t2 = *t2_;
    auto &slots = frame.slots;
    if (slots.size() < t2.frameSize_)
        slots.resize(t2.frameSize_); // OSR entry from a leaner frame
    const MValue *constants = t2.constants_.data();
    auto fetch = [&](const POperand &op) -> const MValue & {
        return op.isSlot ? slots[static_cast<size_t>(op.index)]
                         : constants[static_cast<size_t>(op.index)];
    };
    auto doFusedLoad = [&](const PInst &pi) {
        SlotResolution *sr = (pi.flags & kPElideLoad) != 0
            ? &t2.slotRes_[static_cast<size_t>(pi.loadAddr.index)]
            : nullptr;
        slots[static_cast<size_t>(pi.destLoad)] = t2.loadAt(
            engine, fetch(pi.loadAddr).a, pi.srcLoad, pi.icLoad, sr);
    };
    auto doFusedStore = [&](const PInst &pi, const MValue &v) {
        SlotResolution *sr = (pi.flags & kPElideStore) != 0
            ? &t2.slotRes_[static_cast<size_t>(pi.c.index)] : nullptr;
        t2.storeAt(engine, fetch(pi.c).a, pi.srcStore, v, pi.icStore, sr);
    };

    if (start_pc == 0 && !allocaCache_.empty()) {
        // Fresh activation: drop the previous activation's elision-cache
        // pins. Every call bumps resolveEpoch_, so these entries are
        // already unusable — but their ObjRefs would keep dead locals
        // alive and defeat the refcount-1 test in the alloca recycler.
        for (SlotResolution &sr : t2.slotRes_) {
            if (sr.obj.get() != nullptr)
                sr = SlotResolution{};
        }
    }
    ManagedEngine::FnProfile *prof =
        engine.profiling_ ? engine.profileFor(fn_) : nullptr;
    ResourceGuard &guard = engine.guard_;
    const TInst *const base = code_.data();
    const TInst *ip = base + start_pc;
    const TInst *sbEnd = ip + 1;
    // Entries (calls, OSR) land on superblock heads by construction;
    // anything else would execute uncharged, so refuse it defensively.
    if (ip->charge == 0)
        return t2.execute(engine, frame, start_pc, /*allow_osr3=*/false);

#ifdef MS_THREADED_DISPATCH
    // Dispatch table in MS_T3_OPS order — TOp values index it directly.
    static const void *const kLabels[] = {
#define MS_T3_LABEL(name) &&H_##name,
        MS_T3_OPS(MS_T3_LABEL)
#undef MS_T3_LABEL
    };
#endif

    try {
#ifndef MS_THREADED_DISPATCH
    t3_dispatch:
        T3_CHARGE();
        switch (ip->top) {
#define MS_T3_CASE(name)                                                \
          case TOp::name:                                               \
            goto H_##name;
            MS_T3_OPS(MS_T3_CASE)
#undef MS_T3_CASE
        }
#else
        T3_DISPATCH();
#endif

    H_tBr:
        ip = base + ip->pi.t0;
        T3_DISPATCH();

    H_tCondBr:
        ip = base + (fetch(ip->pi.a).i != 0 ? ip->pi.t0 : ip->pi.t1);
        T3_DISPATCH();

    H_tRet:
        return fetch(ip->pi.a);

    H_tRetVoid:
        return MValue{};

    H_tICmp: {
        const PInst &pi = ip->pi;
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0) {
            slots[static_cast<size_t>(pi.dest)] =
                MValue::makeInt(out ? 1 : 0, 1);
        }
        T3_NEXT();
    }

    H_tICmpBr: {
        const PInst &pi = ip->pi;
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0) {
            slots[static_cast<size_t>(pi.dest)] =
                MValue::makeInt(out ? 1 : 0, 1);
        }
        ip = base + (out ? pi.t0 : pi.t1);
        T3_DISPATCH();
    }

    H_tICmpLoad: {
        const PInst &pi = ip->pi;
        doFusedLoad(pi);
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0) {
            slots[static_cast<size_t>(pi.dest)] =
                MValue::makeInt(out ? 1 : 0, 1);
        }
        T3_NEXT();
    }

    H_tICmpLoadBr: {
        const PInst &pi = ip->pi;
        doFusedLoad(pi);
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0) {
            slots[static_cast<size_t>(pi.dest)] =
                MValue::makeInt(out ? 1 : 0, 1);
        }
        ip = base + (out ? pi.t0 : pi.t1);
        T3_DISPATCH();
    }

    H_tIArith: {
        const PInst &pi = ip->pi;
        slots[static_cast<size_t>(pi.dest)] = MValue::makeInt(
            ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                        pi.bits),
            pi.bits);
        T3_NEXT();
    }

    H_tIArithL: {
        const PInst &pi = ip->pi;
        doFusedLoad(pi);
        slots[static_cast<size_t>(pi.dest)] = MValue::makeInt(
            ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                        pi.bits),
            pi.bits);
        T3_NEXT();
    }

    H_tIArithS: {
        const PInst &pi = ip->pi;
        MValue res = MValue::makeInt(
            ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                        pi.bits),
            pi.bits);
        slots[static_cast<size_t>(pi.dest)] = res;
        doFusedStore(pi, res);
        T3_NEXT();
    }

    H_tIArithLS: {
        const PInst &pi = ip->pi;
        doFusedLoad(pi);
        MValue res = MValue::makeInt(
            ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                        pi.bits),
            pi.bits);
        slots[static_cast<size_t>(pi.dest)] = res;
        doFusedStore(pi, res);
        T3_NEXT();
    }

    H_tFArith: {
        const PInst &pi = ip->pi;
        slots[static_cast<size_t>(pi.dest)] = MValue::makeFP(
            ManagedEngine::evalFloatBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                          pi.bits),
            pi.bits);
        T3_NEXT();
    }

    H_tFArithL: {
        const PInst &pi = ip->pi;
        doFusedLoad(pi);
        slots[static_cast<size_t>(pi.dest)] = MValue::makeFP(
            ManagedEngine::evalFloatBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                          pi.bits),
            pi.bits);
        T3_NEXT();
    }

    H_tFArithS: {
        const PInst &pi = ip->pi;
        MValue res = MValue::makeFP(
            ManagedEngine::evalFloatBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                          pi.bits),
            pi.bits);
        slots[static_cast<size_t>(pi.dest)] = res;
        doFusedStore(pi, res);
        T3_NEXT();
    }

    H_tFArithLS: {
        const PInst &pi = ip->pi;
        doFusedLoad(pi);
        MValue res = MValue::makeFP(
            ManagedEngine::evalFloatBinOp(pi.op, fetch(pi.a), fetch(pi.b),
                                          pi.bits),
            pi.bits);
        slots[static_cast<size_t>(pi.dest)] = res;
        doFusedStore(pi, res);
        T3_NEXT();
    }

    H_tFCmp: {
        const PInst &pi = ip->pi;
        bool out = ManagedEngine::evalFCmp(
            static_cast<FloatPred>(pi.pred), fetch(pi.a), fetch(pi.b));
        slots[static_cast<size_t>(pi.dest)] =
            MValue::makeInt(out ? 1 : 0, 1);
        T3_NEXT();
    }

    H_tGep: {
        const PInst &pi = ip->pi;
        const MValue &gep_base = fetch(pi.a);
        int64_t offset = pi.gepOff;
        if (pi.b.isSlot || pi.gepScale != 0) {
            offset +=
                fetch(pi.b).i * static_cast<int64_t>(pi.gepScale);
        }
        slots[static_cast<size_t>(pi.dest)] =
            MValue::makeAddr(gep_base.a.withOffset(offset));
        T3_NEXT();
    }

    H_tLoad: {
        const PInst &pi = ip->pi;
        SlotResolution *sr = (pi.flags & kPElideLoad) != 0
            ? &t2.slotRes_[static_cast<size_t>(pi.a.index)] : nullptr;
        uint16_t *miss = pi.icLoad >= 0
            ? &shapeMiss_[static_cast<size_t>(pi.icLoad)] : nullptr;
        slots[static_cast<size_t>(pi.dest)] = t2.loadAt(
            engine, fetch(pi.a).a, pi.src, pi.icLoad, sr, miss);
        if (miss != nullptr && *miss >= kShapeMissDeoptStreak)
            goto deopt_shape;
        T3_NEXT();
    }

    H_tStore: {
        const PInst &pi = ip->pi;
        SlotResolution *sr = (pi.flags & kPElideStore) != 0
            ? &t2.slotRes_[static_cast<size_t>(pi.b.index)] : nullptr;
        uint16_t *miss = pi.icStore >= 0
            ? &shapeMiss_[static_cast<size_t>(pi.icStore)] : nullptr;
        t2.storeAt(engine, fetch(pi.b).a, pi.src, fetch(pi.a),
                   pi.icStore, sr, miss);
        if (miss != nullptr && *miss >= kShapeMissDeoptStreak)
            goto deopt_shape;
        T3_NEXT();
    }

    H_tAlloca: {
        const PInst &pi = ip->pi;
        // Alloca recycling: if the object this site handed out last time
        // has died unescaped (the cache holds the sole reference), reset
        // it to its fresh state and hand it out again — no allocation,
        // and every later access runs the same checks as on a new
        // object. Escaped or live objects hold extra references and
        // force the ordinary allocation path.
        if (ip->allocaSite >= 0) {
            // The dest slot may still hold this site's previous object
            // (loops re-execute sites into the same slot); it is about
            // to be overwritten anyway, so drop it first or its stale
            // reference would defeat the refcount-1 test below.
            slots[static_cast<size_t>(pi.dest)] = MValue{};
            ObjRef &cached =
                allocaCache_[static_cast<size_t>(ip->allocaSite)];
            ManagedObject *o = cached.get();
            if (o != nullptr && o->refCount() == 1 && o->resetForReuse()) {
                slots[static_cast<size_t>(pi.dest)] =
                    MValue::makeAddr(Address{cached, 0});
                T3_NEXT();
            }
            ObjRef fresh = engine.allocaObject(*pi.src);
            cached = fresh;
            slots[static_cast<size_t>(pi.dest)] =
                MValue::makeAddr(Address{std::move(fresh), 0});
            T3_NEXT();
        }
        slots[static_cast<size_t>(pi.dest)] =
            MValue::makeAddr(Address{engine.allocaObject(*pi.src), 0});
        T3_NEXT();
    }

    H_tSelect: {
        const PInst &pi = ip->pi;
        const MValue &cond = fetch(pi.a);
        slots[static_cast<size_t>(pi.dest)] =
            fetch(cond.i != 0 ? pi.b : pi.c);
        T3_NEXT();
    }

    H_tFneg: {
        const PInst &pi = ip->pi;
        slots[static_cast<size_t>(pi.dest)] =
            MValue::makeFP(-fetch(pi.a).f, pi.bits);
        T3_NEXT();
    }

    H_tTruncSext: {
        const PInst &pi = ip->pi;
        slots[static_cast<size_t>(pi.dest)] =
            MValue::makeInt(fetch(pi.a).i, pi.bits);
        T3_NEXT();
    }

    H_tZext: {
        const PInst &pi = ip->pi;
        slots[static_cast<size_t>(pi.dest)] = MValue::makeInt(
            static_cast<int64_t>(fetch(pi.a).zext()), pi.bits);
        T3_NEXT();
    }

    H_tCastOther: {
        const PInst &pi = ip->pi;
        MValue &dest = slots[static_cast<size_t>(pi.dest)];
        switch (pi.op) {
          case Opcode::fptosi:
            dest = MValue::makeInt(ManagedEngine::satFptosi(fetch(pi.a).f),
                                   pi.bits);
            break;
          case Opcode::fptoui:
            dest = MValue::makeInt(
                static_cast<int64_t>(
                    ManagedEngine::satFptoui(fetch(pi.a).f)),
                pi.bits);
            break;
          case Opcode::sitofp:
            dest = MValue::makeFP(static_cast<double>(fetch(pi.a).i),
                                  pi.bits);
            break;
          case Opcode::uitofp:
            dest = MValue::makeFP(static_cast<double>(fetch(pi.a).zext()),
                                  pi.bits);
            break;
          case Opcode::fpext:
            dest = MValue::makeFP(fetch(pi.a).f, 64);
            break;
          default: // fptrunc
            dest = MValue::makeFP(fetch(pi.a).f, 32);
            break;
        }
        T3_NEXT();
    }

    H_tMove: {
        const PInst &pi = ip->pi;
        slots[static_cast<size_t>(pi.dest)] = fetch(pi.a);
        T3_NEXT();
    }

    H_tInlineRet: {
        const PInst &pi = ip->pi;
        if (pi.dest >= 0)
            slots[static_cast<size_t>(pi.dest)] = fetch(pi.a);
        ip = base + pi.t0;
        T3_DISPATCH();
    }

    H_tCallDirect: {
        const PInst &pi = ip->pi;
        CallSite &site =
            t2.callSites_[static_cast<size_t>(pi.callSite)];
        if (site.code == nullptr)
            site.code = engine.tier2CodeFor(site.callee, " (IC)");
        // Call fast path: arguments go straight into a pooled callee
        // frame — no intermediate argument vector, no per-call slot
        // allocation. Frame contents are identical to a fresh one.
        ManagedEngine::Frame callee = engine.acquireFrame();
        callee.slots.resize(site.code->frameSize());
        const size_t nargs =
            site.args.size() < callee.slots.size() ? site.args.size()
                                                   : callee.slots.size();
        for (size_t i = 0; i < nargs; i++)
            callee.slots[i] = fetch(site.args[i]);
        MValue v =
            engine.callCompiledFrame(site.callee, site.code, callee);
        engine.releaseFrame(std::move(callee));
        if (pi.dest >= 0)
            slots[static_cast<size_t>(pi.dest)] = std::move(v);
        T3_NEXT();
    }

    H_tCallIndirect: {
        const PInst &pi = ip->pi;
        CallSite &site =
            t2.callSites_[static_cast<size_t>(pi.callSite)];
        const MValue &target = fetch(pi.a);
        // Same IC state machine as tier-2 (same shared CallSite, so the
        // state survives deopts either way). The only difference: where
        // tier-2 drops to its interpreter fallback — megamorphism or a
        // special target — tier-3 deopts, and a later retranslation
        // routes the now-sticky megamorphic site through tInterp.
        if (target.kind == MValue::Kind::addrV && !target.a.isNull() &&
            target.a.pointee->kind() == ObjectKind::functionObject &&
            site.cachedFnId != kICMegamorphic) {
            uint32_t id = static_cast<const FunctionObject *>(
                target.a.pointee.get())->fnId();
            uint32_t cachedBefore = site.cachedFnId;
            if (site.cachedFnId == kICEmpty) {
                const Function *callee = engine.module_->functionById(id);
                if (callee != nullptr && !callee->isDeclaration() &&
                    !callee->isVarArg() &&
                    callee->numArgs() == site.args.size()) {
                    site.callee = callee;
                    site.code = engine.tier2CodeFor(callee, " (IC)");
                    site.cachedFnId = id;
                    if (engine.profiling_)
                        engine.telem_.icToMono++;
                } else {
                    site.cachedFnId = kICMegamorphic;
                    if (engine.profiling_)
                        engine.telem_.icToMega++;
                }
            } else if (site.cachedFnId != id) {
                site.cachedFnId = kICMegamorphic; // polymorphic
                if (engine.profiling_)
                    engine.telem_.icToMega++;
            }
            if (site.cachedFnId == id) {
                if (engine.profiling_ && cachedBefore == id)
                    engine.telem_.icHits++;
                ManagedEngine::Frame callee = engine.acquireFrame();
                callee.slots.resize(site.code->frameSize());
                const size_t nargs = site.args.size() < callee.slots.size()
                    ? site.args.size() : callee.slots.size();
                for (size_t i = 0; i < nargs; i++)
                    callee.slots[i] = fetch(site.args[i]);
                MValue v = engine.callCompiledFrame(site.callee,
                                                    site.code, callee);
                engine.releaseFrame(std::move(callee));
                if (pi.dest >= 0)
                    slots[static_cast<size_t>(pi.dest)] = std::move(v);
                T3_NEXT();
            }
        }
        goto deopt_mega;
    }

    H_tInterp: {
        const PInst &pi = ip->pi;
        MValue v = engine.execInstruction(*pi.src, frame);
        if (pi.src->slot() >= 0)
            slots[static_cast<size_t>(pi.src->slot())] = std::move(v);
        T3_NEXT();
    }

    H_tUnreachable:
        throw EngineError("reached 'unreachable' in " + fn_->name());

    } catch (MemoryErrorException &error) {
        // A detected bug deopts implicitly: return the not-yet-executed
        // remainder of the charged superblock (the faulting op counts
        // as attempted, exactly like a throwing step() in tier-1/2),
        // stamp the faulting op's site, and rethrow so the report is
        // byte-identical to the other tiers'.
        const uint64_t unret = static_cast<uint64_t>(sbEnd - ip) - 1;
        guard.uncharge(unret);
        if (prof != nullptr)
            prof->tier3Steps -= unret;
        engine.telem_.t3DeoptBug++;
        ManagedEngine::noteBugSite(
            error.report(), faultSite(ip->pi, error.report().access));
        throw;
    } catch (...) {
        // GuestExit / ResourceExhausted / EngineError: reconcile the
        // step batch the same way, then let the run() boundary handle
        // it. (An interrupt thrown at a head's charge poll leaves the
        // head op charged — matching tier-1/2, which charge an op
        // before polling.)
        const uint64_t unret = static_cast<uint64_t>(sbEnd - ip) - 1;
        guard.uncharge(unret);
        if (prof != nullptr)
            prof->tier3Steps -= unret;
        throw;
    }

deopt_steps:
    // The guard refused the batch (nothing was charged): resume tier-2
    // at this very instruction; its per-op accounting trips the step
    // limit on exactly the instruction tier-1 would trip it on.
    engine.telem_.t3DeoptSteps++;
    return t2.execute(engine, frame, static_cast<size_t>(ip - base),
                      /*allow_osr3=*/false);

deopt_shape: {
    // The access site went polymorphic (kShapeMissDeoptStreak straight
    // shape-cache misses). The op itself completed — return the charge
    // for the remainder and resume tier-2 *after* it. Retire the code:
    // tier-2 re-fills shape caches without deopting, and a later
    // retranslation gets a fresh streak (two strikes bar the function).
    const uint64_t unret = static_cast<uint64_t>(sbEnd - ip) - 1;
    guard.uncharge(unret);
    if (prof != nullptr)
        prof->tier3Steps -= unret;
    engine.telem_.t3DeoptShape++;
    const size_t resume = static_cast<size_t>(ip - base) + 1;
    engine.retireTier3(t2);
    return t2.execute(engine, frame, resume, /*allow_osr3=*/false);
}

deopt_mega: {
    // The indirect call site left the monomorphic fast path. The call
    // has not executed: return its charge too and resume tier-2 *at*
    // the call, whose interpreter fallback handles megamorphic and
    // special targets with interpreter-identical semantics.
    const uint64_t unret = static_cast<uint64_t>(sbEnd - ip);
    guard.uncharge(unret);
    if (prof != nullptr)
        prof->tier3Steps -= unret;
    engine.telem_.t3DeoptMega++;
    const size_t resume = static_cast<size_t>(ip - base);
    engine.retireTier3(t2);
    return t2.execute(engine, frame, resume, /*allow_osr3=*/false);
}
}

#undef T3_NEXT
#undef T3_DISPATCH
#undef T3_CHARGE

} // namespace sulong
