/**
 * @file
 * The compiled tier's direct-threaded executor (model in tier2.h,
 * dispatch vocabulary in threaded.h).
 *
 * It lives in its own translation unit on purpose: GCC caps inlining
 * per unit (inline-unit-growth), and sharing a unit with the tier-2
 * compiler left the eval cores and the guard's batch charge as
 * out-of-line calls on every dispatch. Here they inline, as they must
 * on the hottest loop of the engine.
 */

#include "interp/tier2.h"

namespace sulong
{

/*
 * Step accounting at a superblock head. Order matters for the
 * reconciliation in the catch blocks below: sbEnd and the profiler
 * counter move *before* the guard is charged so that, when its
 * interrupt poll throws after charging, the handlers can compute the
 * unexecuted remainder from sbEnd and return it — leaving exactly the
 * head op charged, the same state tier-1 leaves after a throwing
 * step(). A refused batch (it would cross the step limit) charges
 * nothing and switches the activation to op-by-op charging, so the
 * limit trips on exactly the instruction tier-1 would trip it on. In
 * that mode every op is its own superblock.
 */
#define T_CHARGE()                                                      \
    do {                                                                \
        if (kPerOp) {                                                   \
            sbEnd = ip + 1;                                             \
            guard.onStep();                                             \
            if (prof != nullptr)                                        \
                prof->tier2Steps++;                                     \
        } else if (const uint32_t charge_n = ip->charge; charge_n != 0) { \
            sbEnd = ip + charge_n;                                      \
            if (prof != nullptr)                                        \
                prof->tier2Steps += charge_n;                           \
            if (!guard.onSteps(charge_n)) {                             \
                if (prof != nullptr)                                    \
                    prof->tier2Steps -= charge_n;                       \
                goto refused;                                           \
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
#define T_DISPATCH()                                                    \
    do {                                                                \
        T_CHARGE();                                                     \
        goto *kLabels[static_cast<size_t>(ip->top)];                    \
    } while (0)
#else
#define T_DISPATCH() goto t_dispatch
#endif

#define T_NEXT()                                                        \
    do {                                                                \
        ++ip;                                                           \
        T_DISPATCH();                                                   \
    } while (0)

MValue
CompiledFunction::execute(ManagedEngine &engine,
                          ManagedEngine::Frame &frame, size_t start_pc)
{
    auto &slots = frame.slots;
    if (slots.size() < frameSize_)
        slots.resize(frameSize_); // OSR entry from an interpreter frame
    // Entries (calls, OSR) land on superblock heads by construction;
    // anything else would execute uncharged.
    if (code_[start_pc].charge == 0)
        throw InternalError("compiled entry off a superblock head");
    return run<false>(engine, frame, start_pc);
}

template <bool kPerOp>
MValue
CompiledFunction::run(ManagedEngine &engine, ManagedEngine::Frame &frame,
                      size_t start_pc)
{
    auto &slots = frame.slots;
    const MValue *constants = constants_.data();
    auto fetch = [&](const POperand &op) -> const MValue & {
        return op.isSlot ? slots[static_cast<size_t>(op.index)]
                         : constants[static_cast<size_t>(op.index)];
    };
    // Results land in their slot in place (MValue::set*): no temporary,
    // and a release only when the old value held a pointee.
    auto dest = [&](const PInst &pi) -> MValue & {
        return slots[static_cast<size_t>(pi.dest)];
    };
    auto doLoad = [&](const PInst &pi) {
        loadAt(engine, pi, fetch(pi.loadAddr).a,
               slots[static_cast<size_t>(pi.destLoad)]);
    };
    auto doStore = [&](const PInst &pi, const MValue &v) {
        storeAt(engine, pi, fetch(pi.c).a, v);
    };
    // Arguments go straight into a pooled callee frame — no intermediate
    // argument vector, no per-call slot allocation. Frame contents are
    // identical to a fresh one.
    auto callSite = [&](CallSite &site) {
        ManagedEngine::Frame callee = engine.acquireFrame();
        callee.slots.resize(site.code->frameSize());
        const size_t nargs = site.args.size() < callee.slots.size()
            ? site.args.size() : callee.slots.size();
        for (size_t i = 0; i < nargs; i++)
            callee.slots[i] = fetch(site.args[i]);
        MValue v = engine.invokeCompiled(site.code, callee);
        engine.releaseFrame(std::move(callee));
        return v;
    };

    ManagedEngine::FnProfile *prof =
        engine.profiling_ ? engine.profileFor(fn_) : nullptr;
    ResourceGuard &guard = engine.guard_;
    const PInst *const base = code_.data();
    const PInst *ip = base + start_pc;
    const PInst *sbEnd = ip + 1;

#ifdef MS_THREADED_DISPATCH
    // Dispatch table in MS_TOPS order — TOp values index it directly.
    static const void *const kLabels[] = {
#define MS_TOP_LABEL(name) &&H_##name,
        MS_TOPS(MS_TOP_LABEL)
#undef MS_TOP_LABEL
    };
#endif

    try {
#ifndef MS_THREADED_DISPATCH
    t_dispatch:
        T_CHARGE();
        switch (ip->top) {
#define MS_TOP_CASE(name)                                               \
          case TOp::name:                                               \
            goto H_##name;
            MS_TOPS(MS_TOP_CASE)
#undef MS_TOP_CASE
        }
#else
        T_DISPATCH();
#endif

    H_tBr:
        ip = base + ip->t0;
        T_DISPATCH();

    H_tCondBr:
        ip = base + (fetch(ip->a).i != 0 ? ip->t0 : ip->t1);
        T_DISPATCH();

    H_tRet:
        return fetch(ip->a);

    H_tRetVoid:
        return MValue{};

    H_tICmp: {
        const PInst &pi = *ip;
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0)
            dest(pi).setInt(out ? 1 : 0, 1);
        T_NEXT();
    }

    H_tICmpBr: {
        const PInst &pi = *ip;
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0)
            dest(pi).setInt(out ? 1 : 0, 1);
        ip = base + (out ? pi.t0 : pi.t1);
        T_DISPATCH();
    }

    H_tICmpLoad: {
        const PInst &pi = *ip;
        doLoad(pi);
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0)
            dest(pi).setInt(out ? 1 : 0, 1);
        T_NEXT();
    }

    H_tICmpLoadBr: {
        const PInst &pi = *ip;
        doLoad(pi);
        bool out = ManagedEngine::evalICmp(static_cast<IntPred>(pi.pred),
                                           fetch(pi.a), fetch(pi.b));
        if (pi.dest >= 0)
            dest(pi).setInt(out ? 1 : 0, 1);
        ip = base + (out ? pi.t0 : pi.t1);
        T_DISPATCH();
    }

    H_tIArith: {
        const PInst &pi = *ip;
        dest(pi).setInt(ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a),
                                                    fetch(pi.b), pi.bits),
                        pi.bits);
        T_NEXT();
    }

    H_tIArithL: {
        const PInst &pi = *ip;
        doLoad(pi);
        dest(pi).setInt(ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a),
                                                    fetch(pi.b), pi.bits),
                        pi.bits);
        T_NEXT();
    }

    H_tIArithS: {
        const PInst &pi = *ip;
        MValue &res = dest(pi);
        res.setInt(ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a),
                                               fetch(pi.b), pi.bits),
                   pi.bits);
        doStore(pi, res);
        T_NEXT();
    }

    H_tIArithLS: {
        const PInst &pi = *ip;
        doLoad(pi);
        MValue &res = dest(pi);
        res.setInt(ManagedEngine::evalIntBinOp(pi.op, fetch(pi.a),
                                               fetch(pi.b), pi.bits),
                   pi.bits);
        doStore(pi, res);
        T_NEXT();
    }

    H_tFArith: {
        const PInst &pi = *ip;
        dest(pi).setFP(
            sem::floatBinOp(pi.op, fetch(pi.a).f, fetch(pi.b).f, pi.bits),
            pi.bits);
        T_NEXT();
    }

    H_tFArithL: {
        const PInst &pi = *ip;
        doLoad(pi);
        dest(pi).setFP(
            sem::floatBinOp(pi.op, fetch(pi.a).f, fetch(pi.b).f, pi.bits),
            pi.bits);
        T_NEXT();
    }

    H_tFArithS: {
        const PInst &pi = *ip;
        MValue &res = dest(pi);
        res.setFP(
            sem::floatBinOp(pi.op, fetch(pi.a).f, fetch(pi.b).f, pi.bits),
            pi.bits);
        doStore(pi, res);
        T_NEXT();
    }

    H_tFArithLS: {
        const PInst &pi = *ip;
        doLoad(pi);
        MValue &res = dest(pi);
        res.setFP(
            sem::floatBinOp(pi.op, fetch(pi.a).f, fetch(pi.b).f, pi.bits),
            pi.bits);
        doStore(pi, res);
        T_NEXT();
    }

    H_tFCmp: {
        const PInst &pi = *ip;
        bool out = sem::fcmp(static_cast<FloatPred>(pi.pred), fetch(pi.a).f,
                             fetch(pi.b).f);
        dest(pi).setInt(out ? 1 : 0, 1);
        T_NEXT();
    }

    H_tGep: {
        const PInst &pi = *ip;
        const MValue &gep_base = fetch(pi.a);
        int64_t offset = pi.gepOff;
        if (pi.b.isSlot || pi.gepScale != 0) {
            offset +=
                fetch(pi.b).i * static_cast<int64_t>(pi.gepScale);
        }
        dest(pi).setAddr(gep_base.a.pointee, gep_base.a.offset + offset);
        T_NEXT();
    }

    H_tLoad:
        doLoad(*ip);
        T_NEXT();

    H_tStore: {
        const PInst &pi = *ip;
        doStore(pi, fetch(pi.a));
        T_NEXT();
    }

    H_tAlloca: {
        const PInst &pi = *ip;
        // Alloca recycling: if the object this site handed out last time
        // has died unescaped (the cache holds the sole reference), reset
        // it to its fresh state and hand it out again — no allocation,
        // and every later access runs the same checks as on a new
        // object. Escaped or live objects hold extra references and
        // force the ordinary allocation path.
        if (pi.allocaSite >= 0) {
            // The dest slot may still hold this site's previous object
            // (loops re-execute sites into the same slot); it is about
            // to be overwritten anyway, so drop it first or its stale
            // reference would defeat the refcount-1 test below.
            slots[static_cast<size_t>(pi.dest)] = MValue{};
            ObjRef &cached =
                allocaCache_[static_cast<size_t>(pi.allocaSite)];
            ManagedObject *o = cached.get();
            if (o != nullptr && o->refCount() == 1 && o->resetForReuse()) {
                slots[static_cast<size_t>(pi.dest)] =
                    MValue::makeAddr(Address{cached, 0});
                T_NEXT();
            }
            ObjRef fresh = engine.allocaObject(*pi.src);
            cached = fresh;
            slots[static_cast<size_t>(pi.dest)] =
                MValue::makeAddr(Address{std::move(fresh), 0});
            T_NEXT();
        }
        slots[static_cast<size_t>(pi.dest)] =
            MValue::makeAddr(Address{engine.allocaObject(*pi.src), 0});
        T_NEXT();
    }

    H_tSelect: {
        const PInst &pi = *ip;
        const MValue &cond = fetch(pi.a);
        slots[static_cast<size_t>(pi.dest)] =
            fetch(cond.i != 0 ? pi.b : pi.c);
        T_NEXT();
    }

    H_tFneg: {
        const PInst &pi = *ip;
        dest(pi).setFP(-fetch(pi.a).f, pi.bits);
        T_NEXT();
    }

    H_tIntCast: {
        const PInst &pi = *ip;
        const MValue &v = fetch(pi.a);
        dest(pi).setInt(sem::intCast(pi.op, v.i, v.bits, pi.bits), pi.bits);
        T_NEXT();
    }

    H_tCastOther: {
        const PInst &pi = *ip;
        ManagedEngine::evalCast(pi.op, fetch(pi.a), pi.bits, dest(pi));
        T_NEXT();
    }

    H_tMove: {
        const PInst &pi = *ip;
        slots[static_cast<size_t>(pi.dest)] = fetch(pi.a);
        T_NEXT();
    }

    H_tInlineRet: {
        // Inlined return: move the value to the call's slot and jump to
        // the continuation.
        const PInst &pi = *ip;
        if (pi.dest >= 0)
            slots[static_cast<size_t>(pi.dest)] = fetch(pi.a);
        ip = base + pi.t0;
        T_DISPATCH();
    }

    H_tCallDirect: {
        const PInst &pi = *ip;
        CallSite &site = callSites_[static_cast<size_t>(pi.callSite)];
        if (site.code == nullptr)
            site.code = engine.tier2CodeFor(site.callee, " (IC)");
        MValue v = callSite(site);
        if (pi.dest >= 0)
            slots[static_cast<size_t>(pi.dest)] = std::move(v);
        T_NEXT();
    }

    H_tCallIndirect: {
        const PInst &pi = *ip;
        CallSite &site = callSites_[static_cast<size_t>(pi.callSite)];
        const MValue &target = fetch(pi.a);
        // The guard mirrors the interpreter's dispatch exactly; any miss,
        // megamorphic site, or special target takes the interpreter's
        // generic call path below, in place.
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
                MValue v = callSite(site);
                if (pi.dest >= 0)
                    slots[static_cast<size_t>(pi.dest)] = std::move(v);
                T_NEXT();
            }
        }
        MValue v = engine.execInstruction(*pi.src, frame);
        if (pi.dest >= 0)
            slots[static_cast<size_t>(pi.dest)] = std::move(v);
        T_NEXT();
    }

    H_tInterp: {
        // Remaining calls, ptrtoint/inttoptr: share the interpreter path
        // so semantics (mementos, varargs, pinning) stay identical.
        const PInst &pi = *ip;
        MValue v = engine.execInstruction(*pi.src, frame);
        if (pi.src->slot() >= 0)
            slots[static_cast<size_t>(pi.src->slot())] = std::move(v);
        T_NEXT();
    }

    H_tUnreachable:
        throw EngineError("reached 'unreachable' in " + fn_->name());

    } catch (MemoryErrorException &error) {
        // Return the not-yet-executed remainder of the charged
        // superblock (the faulting op counts as attempted, exactly like
        // a throwing step() in tier-1), and stamp the faulting op's
        // site: spliced code keeps its callee's instructions, so the
        // site names where the bug lives, not where the compiler put it.
        const uint64_t unret = static_cast<uint64_t>(sbEnd - ip) - 1;
        guard.uncharge(unret);
        if (prof != nullptr)
            prof->tier2Steps -= unret;
        ManagedEngine::noteBugSite(error.report(),
                                   faultSite(*ip, error.report().access));
        throw;
    } catch (...) {
        // GuestExit / ResourceExhausted / EngineError: reconcile the
        // step batch the same way, then let the run() boundary handle
        // it. (An interrupt thrown at a head's charge poll leaves the
        // head op charged — matching tier-1, which charges an op before
        // polling.)
        const uint64_t unret = static_cast<uint64_t>(sbEnd - ip) - 1;
        guard.uncharge(unret);
        if (prof != nullptr)
            prof->tier2Steps -= unret;
        throw;
    }

refused:
    // The guard refused the batch and charged nothing: continue this
    // activation op by op. The limit trips inside this very superblock
    // (unless a bug ends the run first). The op-by-op loop never
    // refuses, so only the batched one gets here.
    return run<true>(engine, frame, static_cast<size_t>(ip - base));
}

#undef T_NEXT
#undef T_DISPATCH
#undef T_CHARGE

} // namespace sulong
