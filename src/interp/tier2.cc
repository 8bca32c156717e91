/**
 * @file
 * Tier-2 "compilation" and checked access (see tier2.h for the model;
 * the executor is in threaded.cc).
 *
 * The compiler flattens IR blocks into a pre-decoded PInst array and
 * layers the optimizing upgrades on top: profile-guided inlining of
 * small hot callees (slots renamed, bodies spliced), inline caches for
 * the remaining monomorphic call sites, superinstruction fusion
 * (compare+branch, load+arith, arith+store), and a conservative marking
 * pass that enables the redundant-check elision caches. Everything the
 * interpreter checks is still checked here; only the *re-derivation* of
 * already-established facts (aggregate walks, callee lookups) is
 * cached, and every cache guard falls back to the interpreter-identical
 * slow path on mismatch.
 *
 * A last linear pass stamps the stream for the threaded executor: each
 * instruction gets its flat dispatch opcode (the superinstruction flags
 * folded in, so the hot loop never re-tests them), superblock heads
 * (function entry, every block entry and branch target, and the
 * successor of every call/interpreter escape) get the batched step
 * charge of their straight-line run, and recyclable alloca sites get a
 * recycling slot.
 */

#include "interp/tier2.h"

#include <algorithm>

namespace sulong
{

namespace
{

/** Follow boolean-widening aliases. In a truthiness context (condbr
 *  condition, cmp+br fusion detection) every alias is safe: the source
 *  is non-zero iff the widened value is. In a *value* context only
 *  type-preserving aliases (i1 -> i1, from `icmp ne X, 0` of a bool) may
 *  be followed: MValue keeps integers in sign-extended canonical form,
 *  so an i1 true reads back as -1, and forwarding a zext(i1) consumer
 *  to the raw i1 slot would hand it -1 where the widened value is 1. */
const Value *
canonical(const Value *v,
          const std::unordered_map<const Value *, const Value *> &aliases,
          bool truthy)
{
    auto it = aliases.find(v);
    while (it != aliases.end() &&
           (truthy ||
            it->second->type()->kind() == v->type()->kind())) {
        v = it->second;
        it = aliases.find(v);
    }
    return v;
}

/** Int/float binops whose result a following store may consume. */
bool
isFusableProducer(Opcode op)
{
    switch (op) {
      case Opcode::add: case Opcode::sub: case Opcode::mul:
      case Opcode::sdiv: case Opcode::udiv: case Opcode::srem:
      case Opcode::urem: case Opcode::and_: case Opcode::or_:
      case Opcode::xor_: case Opcode::shl: case Opcode::lshr:
      case Opcode::ashr:
      case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
      case Opcode::fdiv: case Opcode::frem:
        return true;
      default:
        return false;
    }
}

/** Flat dispatch opcode for one pre-decoded instruction. */
TOp
topFor(const PInst &pi)
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
      case Opcode::trunc: case Opcode::zext: case Opcode::sext:
        return TOp::tIntCast;
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
        return TOp::tCallIndirect;
      case Opcode::unreachable_:
        return TOp::tUnreachable;
      default:
        // call, ptrtoint, inttoptr — the interpreter escape.
        return TOp::tInterp;
    }
}

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

/** Alloca types whose objects support resetForReuse(). */
bool
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

} // namespace

/**
 * Builds one CompiledFunction. Inlining works by re-entering the block
 * flattener on the callee with a slot-base offset, so inlined bodies
 * share the caller's frame; a splice that turns out to be impossible
 * (interpreter-fallback op inside, budget exceeded, recursion) is
 * rolled back and the site becomes a call-IC site instead.
 */
class Tier2Compiler
{
  public:
    Tier2Compiler(const Function &fn, ManagedEngine &engine)
        : fn_(fn), engine_(engine),
          out_(std::make_unique<CompiledFunction>(&fn))
    {}

    std::unique_ptr<CompiledFunction>
    compile()
    {
        nextSlot_ = static_cast<int32_t>(fn_.numSlots());
        maxSlot_ = nextSlot_;
        out_->constants_.push_back(MValue{}); // index 0: absent operand
        BodyCtx body;
        body.fn = &fn_;
        body.slotBase = 0;
        buildAliases(fn_, body.aliases);
        std::vector<const Function *> stack{&fn_};
        emitBody(body, -1, nullptr, stack, 0);
        out_->frameSize_ = static_cast<uint32_t>(maxSlot_);
        markCachesAndElision();
        stampDispatch();
        engine_.inlinedSites_ += out_->inlinedSites();
        return std::move(out_);
    }

  private:
    using AliasMap = std::unordered_map<const Value *, const Value *>;

    /** Per-emitted-body state: which function, its alias map, and the
     *  frame-slot offset its slots/arguments are renamed by. */
    struct BodyCtx
    {
        const Function *fn = nullptr;
        AliasMap aliases;
        int32_t slotBase = 0;
    };

    struct Fixup
    {
        size_t index;
        const BasicBlock *target;
        bool second; ///< patches t1 instead of t0
    };

    static void
    buildAliases(const Function &fn, AliasMap &aliases)
    {
        for (const auto &bb : fn.blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->op() == Opcode::zext &&
                    inst->operand(0)->type()->kind() == TypeKind::i1) {
                    aliases[inst.get()] = inst->operand(0);
                } else if (inst->op() == Opcode::icmp &&
                           inst->intPred() == IntPred::ne &&
                           inst->operand(1)->valueKind() ==
                               ValueKind::constantInt &&
                           static_cast<const ConstantInt *>(
                               inst->operand(1))->value() == 0) {
                    const Value *src =
                        canonical(inst->operand(0), aliases, true);
                    bool src_bool = src->type()->kind() == TypeKind::i1 ||
                        (src->valueKind() == ValueKind::instruction &&
                         static_cast<const Instruction *>(src)->op() ==
                             Opcode::icmp);
                    if (src_bool)
                        aliases[inst.get()] = src;
                }
            }
        }
    }

    int32_t
    internConstant(const Value *key, MValue value)
    {
        auto [it, inserted] = constantIndex_.try_emplace(
            key, static_cast<int32_t>(out_->constants_.size()));
        if (inserted)
            out_->constants_.push_back(std::move(value));
        return it->second;
    }

    POperand
    makeOperand(const Value *v, const BodyCtx &body, bool truthy = false)
    {
        v = canonical(v, body.aliases, truthy);
        POperand op;
        switch (v->valueKind()) {
          case ValueKind::argument:
            op.isSlot = true;
            op.index = static_cast<int32_t>(
                static_cast<const Argument *>(v)->index()) + body.slotBase;
            return op;
          case ValueKind::instruction:
            op.isSlot = true;
            op.index = static_cast<const Instruction *>(v)->slot() +
                body.slotBase;
            return op;
          case ValueKind::constantInt: {
            const auto *c = static_cast<const ConstantInt *>(v);
            op.index = internConstant(
                v, MValue::makeInt(c->value(), c->type()->intBits()));
            return op;
          }
          case ValueKind::constantFP: {
            const auto *c = static_cast<const ConstantFP *>(v);
            op.index = internConstant(
                v, MValue::makeFP(c->value(), c->type()->fpBits()));
            return op;
          }
          case ValueKind::constantNull:
            op.index = internConstant(v, MValue::makeAddr(Address{}));
            return op;
          case ValueKind::global:
            op.index = internConstant(
                v, MValue::makeAddr(engine_.globals_->addressOf(
                       static_cast<const GlobalVariable *>(v))));
            return op;
          case ValueKind::function:
            op.index = internConstant(
                v, MValue::makeAddr(engine_.globals_->addressOf(
                       static_cast<const Function *>(v))));
            return op;
        }
        throw InternalError("bad operand");
    }

    bool
    siteIsHot(const Instruction &inst) const
    {
        int site_min = engine_.options_.inlineSiteMin;
        unsigned need = site_min >= 0
            ? static_cast<unsigned>(site_min)
            : std::max(1u, engine_.options_.compileThreshold / 2);
        if (need == 0)
            return true;
        auto it = engine_.callSiteCounts_.find(&inst);
        return it != engine_.callSiteCounts_.end() && it->second >= need;
    }

    /** Splice @p callee in place of the call. @return false (with all
     *  emission rolled back) when the body cannot be inlined. */
    bool
    emitInline(const Instruction &inst, const Function &callee,
               const BodyCtx &caller, std::vector<const Function *> &stack,
               size_t budget_start)
    {
        if (std::find(stack.begin(), stack.end(), &callee) != stack.end())
            return false; // (mutually) recursive
        auto &code = out_->code_;
        size_t code_snap = code.size();
        size_t call_snap = out_->callSites_.size();
        unsigned sites_snap = out_->inlinedSites_;
        int32_t slot_snap = nextSlot_;

        int32_t base = nextSlot_;
        nextSlot_ += static_cast<int32_t>(callee.numSlots());
        maxSlot_ = std::max(maxSlot_, nextSlot_);

        // Argument setup: plain slot moves into the callee's renamed
        // argument slots.
        for (unsigned j = 0; j < callee.numArgs(); j++) {
            PInst pi;
            pi.op = Opcode::p2Move;
            pi.src = &inst;
            pi.dest = base + static_cast<int32_t>(j);
            pi.a = makeOperand(inst.operand(j + 1), caller);
            code.push_back(pi);
        }
        int32_t ret_slot = inst.slot() >= 0
            ? inst.slot() + caller.slotBase : -1;

        BodyCtx body;
        body.fn = &callee;
        body.slotBase = base;
        buildAliases(callee, body.aliases);
        std::vector<size_t> ret_fixups;
        stack.push_back(&callee);
        bool ok = emitBody(body, ret_slot, &ret_fixups, stack, budget_start);
        stack.pop_back();
        if (!ok) {
            code.resize(code_snap);
            out_->callSites_.resize(call_snap);
            out_->inlinedSites_ = sites_snap;
            nextSlot_ = slot_snap;
            return false;
        }
        for (size_t idx : ret_fixups)
            code[idx].t0 = static_cast<int32_t>(code.size());
        out_->inlinedSites_++;
        return true;
    }

    /** Emit a call site: inline it, give it an inline cache, or (top
     *  level only) fall back to the interpreter path. @return false when
     *  nested inside a splice and none of the safe forms apply. */
    bool
    emitCall(const Instruction &inst, const BodyCtx &body,
             std::vector<const Function *> &stack, size_t budget_start,
             bool nested)
    {
        int32_t dest = inst.slot() >= 0 ? inst.slot() + body.slotBase : -1;
        const Value *callee_v = inst.operand(0);
        if (callee_v->valueKind() == ValueKind::function) {
            const auto *callee = static_cast<const Function *>(callee_v);
            // Direct-dispatch eligibility mirrors the interpreter's
            // non-special path: a defined, non-variadic callee taking
            // exactly the arguments passed.
            bool eligible = !callee->isDeclaration() &&
                !callee->isVarArg() &&
                inst.numOperands() - 1 == callee->numArgs();
            if (eligible && engine_.options_.enableInlining &&
                (nested || siteIsHot(inst))) {
                size_t start = nested ? budget_start : out_->code_.size();
                if (emitInline(inst, *callee, body, stack, start))
                    return true;
            }
            if (eligible) {
                CallSite site;
                site.callee = callee;
                site.cachedFnId = callee->id();
                for (size_t i = 1; i < inst.numOperands(); i++)
                    site.args.push_back(makeOperand(inst.operand(i), body));
                PInst pi;
                pi.op = Opcode::p2CallDirect;
                pi.src = &inst;
                pi.dest = dest;
                pi.callSite = static_cast<int32_t>(out_->callSites_.size());
                out_->callSites_.push_back(std::move(site));
                out_->code_.push_back(pi);
                return true;
            }
            // Intrinsics, variadics, argument-count mismatches: only the
            // interpreter path reproduces their semantics exactly.
            if (nested)
                return false;
            PInst pi;
            pi.op = Opcode::call;
            pi.src = &inst;
            pi.dest = dest;
            out_->code_.push_back(pi);
            return true;
        }
        // Function-pointer site: inline cache with the interpreter as
        // the megamorphic/special-case fallback (needs identity slots,
        // so top level only).
        if (nested)
            return false;
        CallSite site;
        for (size_t i = 1; i < inst.numOperands(); i++)
            site.args.push_back(makeOperand(inst.operand(i), body));
        PInst pi;
        pi.op = Opcode::p2CallIndirect;
        pi.src = &inst;
        pi.dest = dest;
        pi.a = makeOperand(callee_v, body);
        pi.callSite = static_cast<int32_t>(out_->callSites_.size());
        out_->callSites_.push_back(std::move(site));
        out_->code_.push_back(pi);
        return true;
    }

    /**
     * Flatten one function body at @p body.slotBase. Top level
     * (@p ret_fixups == nullptr) records block entries for OSR and may
     * fall back to the interpreter per instruction; inlined bodies
     * (@p ret_fixups set) turn rets into jumps to the continuation and
     * must stay fallback-free — any violation returns false and the
     * caller rolls the splice back.
     */
    bool
    emitBody(const BodyCtx &body, int32_t ret_slot,
             std::vector<size_t> *ret_fixups,
             std::vector<const Function *> &stack, size_t budget_start)
    {
        bool nested = ret_fixups != nullptr;
        auto &code = out_->code_;
        std::unordered_map<const BasicBlock *, int32_t> block_start;
        std::vector<Fixup> fixups;

        for (const auto &bb : body.fn->blocks()) {
            int32_t start = static_cast<int32_t>(code.size());
            block_start[bb.get()] = start;
            if (!nested)
                out_->blockStart_[bb.get()] = start;
            const auto &insts = bb->insts();
            for (size_t i = 0; i < insts.size(); i++) {
                const Instruction &inst = *insts[i];
                PInst pi;
                pi.op = inst.op();
                pi.src = &inst;
                pi.dest = inst.slot() >= 0 ? inst.slot() + body.slotBase
                                           : -1;
                if (inst.type()->isInteger())
                    pi.bits = static_cast<uint8_t>(inst.type()->intBits());
                else if (inst.type()->kind() == TypeKind::f32)
                    pi.bits = 32;
                else if (inst.type()->kind() == TypeKind::f64)
                    pi.bits = 64;

                switch (inst.op()) {
                  case Opcode::br:
                    fixups.push_back(Fixup{code.size(), inst.target(0),
                                           false});
                    code.push_back(pi);
                    break;
                  case Opcode::condbr:
                    pi.a = makeOperand(inst.operand(0), body, true);
                    fixups.push_back(Fixup{code.size(), inst.target(0),
                                           false});
                    fixups.push_back(Fixup{code.size(), inst.target(1),
                                           true});
                    code.push_back(pi);
                    break;
                  case Opcode::ret:
                    if (nested) {
                        pi.op = Opcode::p2Ret;
                        if (inst.numOperands() == 1 && ret_slot >= 0) {
                            pi.dest = ret_slot;
                            pi.a = makeOperand(inst.operand(0), body);
                        } else {
                            pi.dest = -1;
                        }
                        ret_fixups->push_back(code.size());
                        code.push_back(pi);
                        break;
                    }
                    if (inst.numOperands() == 1)
                        pi.a = makeOperand(inst.operand(0), body);
                    else
                        pi.dest = -2; // void-return marker
                    code.push_back(pi);
                    break;
                  case Opcode::icmp: {
                    pi.pred = static_cast<uint8_t>(inst.intPred());
                    pi.a = makeOperand(inst.operand(0), body);
                    pi.b = makeOperand(inst.operand(1), body);
                    tryFuseLoad(pi, inst, body);
                    // Fuse with a directly following condbr on this
                    // result.
                    if (i + 1 < insts.size() &&
                        insts[i + 1]->op() == Opcode::condbr &&
                        canonical(insts[i + 1]->operand(0),
                                  body.aliases, true) == &inst) {
                        pi.flags |= kPFuseCmpBr;
                        fixups.push_back(Fixup{code.size(),
                                               insts[i + 1]->target(0),
                                               false});
                        fixups.push_back(Fixup{code.size(),
                                               insts[i + 1]->target(1),
                                               true});
                        i++; // skip the condbr
                    }
                    code.push_back(pi);
                    break;
                  }
                  case Opcode::fcmp:
                    pi.pred = static_cast<uint8_t>(inst.floatPred());
                    pi.a = makeOperand(inst.operand(0), body);
                    pi.b = makeOperand(inst.operand(1), body);
                    code.push_back(pi);
                    break;
                  case Opcode::gep:
                    pi.a = makeOperand(inst.operand(0), body);
                    if (inst.numOperands() > 1)
                        pi.b = makeOperand(inst.operand(1), body);
                    pi.gepOff = inst.gepConstOffset();
                    pi.gepScale = inst.gepScale();
                    code.push_back(pi);
                    break;
                  case Opcode::load:
                    pi.a = makeOperand(inst.operand(0), body);
                    code.push_back(pi);
                    break;
                  case Opcode::store: {
                    // arith+store fusion: a directly preceding binop
                    // producing exactly the stored value absorbs the
                    // store (same slot writes, same trap order).
                    const Value *val = canonical(inst.operand(0),
                                                 body.aliases, false);
                    if (!code.empty()) {
                        PInst &last = code.back();
                        if (isFusableProducer(last.op) &&
                            (last.flags & (kPFuseCmpBr | kPFuseStore)) ==
                                0 &&
                            last.dest >= 0 && last.src == val) {
                            last.flags |= kPFuseStore;
                            last.c = makeOperand(inst.operand(1), body);
                            last.srcStore = &inst;
                            break;
                        }
                    }
                    pi.a = makeOperand(inst.operand(0), body);
                    pi.b = makeOperand(inst.operand(1), body);
                    code.push_back(pi);
                    break;
                  }
                  case Opcode::select:
                    pi.a = makeOperand(inst.operand(0), body);
                    pi.b = makeOperand(inst.operand(1), body);
                    pi.c = makeOperand(inst.operand(2), body);
                    code.push_back(pi);
                    break;
                  case Opcode::alloca_:
                  case Opcode::fneg:
                  case Opcode::trunc: case Opcode::sext: case Opcode::zext:
                  case Opcode::fptosi: case Opcode::fptoui:
                  case Opcode::sitofp: case Opcode::uitofp:
                  case Opcode::fpext: case Opcode::fptrunc:
                    if (inst.numOperands() >= 1)
                        pi.a = makeOperand(inst.operand(0), body);
                    code.push_back(pi);
                    break;
                  case Opcode::add: case Opcode::sub: case Opcode::mul:
                  case Opcode::sdiv: case Opcode::udiv: case Opcode::srem:
                  case Opcode::urem: case Opcode::and_: case Opcode::or_:
                  case Opcode::xor_: case Opcode::shl: case Opcode::lshr:
                  case Opcode::ashr:
                  case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
                  case Opcode::fdiv: case Opcode::frem:
                    pi.a = makeOperand(inst.operand(0), body);
                    pi.b = makeOperand(inst.operand(1), body);
                    tryFuseLoad(pi, inst, body);
                    code.push_back(pi);
                    break;
                  case Opcode::call:
                    if (!emitCall(inst, body, stack, budget_start, nested))
                        return false;
                    break;
                  case Opcode::unreachable_:
                    if (nested)
                        return false; // message names the enclosing fn
                    code.push_back(pi);
                    break;
                  default:
                    // ptrtoint/inttoptr: interpreter fallback reads the
                    // original (unrenamed) slots — top level only.
                    if (nested)
                        return false;
                    code.push_back(pi);
                    break;
                }
                if (nested && code.size() - budget_start >
                        engine_.options_.inlineBudget)
                    return false;
            }
        }
        for (const Fixup &fixup : fixups) {
            int32_t target = block_start.at(fixup.target);
            if (fixup.second)
                code[fixup.index].t1 = target;
            else
                code[fixup.index].t0 = target;
        }
        return true;
    }

    /** load+arith fusion: when the directly preceding PInst is a plain
     *  load whose result this instruction consumes, absorb it. The
     *  consuming operand already names the load's slot, which the fused
     *  form still writes first — values and trap order are unchanged. */
    void
    tryFuseLoad(PInst &pi, const Instruction &inst, const BodyCtx &body)
    {
        (void)inst;
        (void)body;
        auto &code = out_->code_;
        if (code.empty())
            return;
        PInst &last = code.back();
        if (last.op != Opcode::load || last.flags != 0 || last.dest < 0)
            return;
        bool consumed =
            (pi.a.isSlot && pi.a.index == last.dest) ||
            (pi.b.isSlot && pi.b.index == last.dest);
        if (!consumed)
            return;
        pi.flags |= kPFuseLoad;
        pi.destLoad = last.dest;
        pi.loadAddr = last.a;
        pi.srcLoad = last.src;
        code.pop_back();
    }

    /**
     * Post-pass enabling the check-elision caches: give every access
     * site a struct-shape cache and flag every slot-addressed access
     * for the per-slot resolution cache. The flags are pure capability
     * bits — validity is decided at runtime, where every cached
     * resolution re-proves itself structurally before use (same live
     * object, same offset, same width, not freed). Aggregate layout is
     * immutable while an object is live and `free` is only reachable
     * through calls, so stores and branches cannot invalidate a
     * resolution; only the call-boundary epoch and the liveness check
     * can retire one. Leaf-level bounds/type/liveness/init checks are
     * never skipped either way.
     */
    void
    markCachesAndElision()
    {
        if (!engine_.options_.enableCheckElision)
            return; // ic indices stay -1, no flags: ablation baseline
        for (PInst &pi : out_->code_) {
            if (pi.op == Opcode::load || (pi.flags & kPFuseLoad) != 0) {
                pi.icLoad = static_cast<int32_t>(out_->accessCaches_.size());
                out_->accessCaches_.emplace_back();
                const POperand &addr =
                    pi.op == Opcode::load ? pi.a : pi.loadAddr;
                if (addr.isSlot)
                    pi.flags |= kPElideLoad;
            }
            if (pi.op == Opcode::store || (pi.flags & kPFuseStore) != 0) {
                pi.icStore =
                    static_cast<int32_t>(out_->accessCaches_.size());
                out_->accessCaches_.emplace_back();
                const POperand &addr =
                    pi.op == Opcode::store ? pi.b : pi.c;
                if (addr.isSlot)
                    pi.flags |= kPElideStore;
            }
        }
        out_->slotRes_.assign(out_->frameSize_, SlotResolution{});
    }

    /** Stamp dispatch opcodes, superblock charges, and alloca-recycling
     *  sites onto the finished stream (see the file comment). */
    void
    stampDispatch()
    {
        std::vector<PInst> &code = out_->code_;
        const size_t n = code.size();
        for (PInst &pi : code) {
            pi.top = topFor(pi);
            // A plain load or store names its access where a fused one
            // does (see PInst), and every access is decoded here, once.
            if (pi.op == Opcode::load) {
                pi.loadAddr = pi.a;
                pi.destLoad = pi.dest;
                pi.srcLoad = pi.src;
            } else if (pi.op == Opcode::store) {
                pi.c = pi.b;
                pi.srcStore = pi.src;
            }
            if (pi.srcLoad != nullptr)
                pi.accLoad = ScalarAccess::of(pi.srcLoad->accessType());
            if (pi.srcStore != nullptr)
                pi.accStore = ScalarAccess::of(pi.srcStore->accessType());
            if (pi.op == Opcode::alloca_ &&
                recyclableAlloca(pi.src->accessType())) {
                pi.allocaSite =
                    static_cast<int32_t>(out_->allocaCache_.size());
                out_->allocaCache_.emplace_back();
            }
        }

        // Superblock heads: entry, block entries, branch targets, and the
        // fall-through successor of every call/interpreter escape.
        std::vector<char> head(n, 0);
        head[0] = 1;
        for (const auto &entry : out_->blockStart_)
            head[static_cast<size_t>(entry.second)] = 1;
        for (size_t i = 0; i < n; i++) {
            const PInst &pi = code[i];
            switch (pi.top) {
              case TOp::tBr:
              case TOp::tInlineRet:
                head[static_cast<size_t>(pi.t0)] = 1;
                break;
              case TOp::tCondBr:
              case TOp::tICmpBr:
              case TOp::tICmpLoadBr:
                head[static_cast<size_t>(pi.t0)] = 1;
                head[static_cast<size_t>(pi.t1)] = 1;
                break;
              default:
                break;
            }
            if (fallsThrough(pi.top) && i + 1 < n)
                head[i + 1] = 1;
        }

        // Stamp each head with its straight-line run's charge. The walk
        // partitions the stream: it stops at superblock enders, at the
        // next head, and at the length cap (forcing a head there so no
        // op is ever executed outside a charged superblock).
        for (size_t h = 0; h < n; h++) {
            if (head[h] == 0)
                continue;
            size_t j = h;
            while (!endsSuperblock(code[j].top) && j + 1 < n &&
                   head[j + 1] == 0 && j + 1 - h < kMaxSuperblockLen)
                j++;
            if (!endsSuperblock(code[j].top) && j + 1 < n)
                head[j + 1] = 1; // length cap hit: next run starts a head
            code[h].charge = static_cast<uint16_t>(j + 1 - h);
        }
    }

    const Function &fn_;
    ManagedEngine &engine_;
    std::unique_ptr<CompiledFunction> out_;
    std::unordered_map<const Value *, int32_t> constantIndex_;
    int32_t nextSlot_ = 0;
    int32_t maxSlot_ = 0;
};

std::unique_ptr<CompiledFunction>
compileTier2(const Function &fn, ManagedEngine &engine)
{
    return Tier2Compiler(fn, engine).compile();
}

/** Walk an aggregate down to the leaf sub-object containing the access,
 *  running exactly the checks the uncached path runs (each resolveStep
 *  is the object's own checked resolve). @return nullptr when the
 *  access spans sub-objects (handled byte-wise, not cacheable). */
ManagedObject *
CompiledFunction::resolveLeaf(ManagedObject *obj, int64_t offset, unsigned size,
            bool is_write, int64_t &leaf_offset)
{
    ManagedObject *cur = obj;
    int64_t off = offset;
    for (;;) {
        int64_t inner = 0;
        ManagedObject *next = cur->resolveStep(off, size, is_write, inner);
        if (next == nullptr)
            return nullptr;
        if (next == cur) {
            leaf_offset = off;
            return cur;
        }
        cur = next;
        off = inner;
    }
}

/** Remember which field of which struct type a successful access went
 *  through (called only after the full checked access succeeded). */
void
CompiledFunction::fillAccessCache(AccessCache &cache, const StructObject *sobj,
                int64_t offset, uint32_t size)
{
    const Type *st = sobj->type();
    int idx = st->fieldAt(static_cast<uint64_t>(offset));
    if (idx < 0)
        return; // padding: never cached (the full path reports it)
    const StructField &f = st->fields()[static_cast<size_t>(idx)];
    int64_t field_off = static_cast<int64_t>(f.offset);
    int64_t field_size = static_cast<int64_t>(f.type->size());
    if (offset - field_off + static_cast<int64_t>(size) > field_size)
        return; // spans beyond the field: byte-wise path, not cacheable
    cache.structType = st;
    cache.fieldIndex = static_cast<uint32_t>(idx);
    cache.fieldOffset = field_off;
    cache.fieldSize = field_size;
}

void
CompiledFunction::loadAt(ManagedEngine &engine, const PInst &pi,
                         const Address &addr, MValue &dest)
{
    ManagedObject *obj = addr.pointee.get();
    if (obj == nullptr)
        engine.raiseNullDeref(false, pi.srcLoad->loc());
    // A leaf root has no aggregate walk for the caches to skip.
    if (obj->exactKind()) {
        ManagedEngine::loadFromObject(obj, addr.offset, pi.accLoad, dest);
        return;
    }
    loadAggregate(engine, pi, addr, dest);
}

void
CompiledFunction::storeAt(ManagedEngine &engine, const PInst &pi,
                          const Address &addr, const MValue &v)
{
    ManagedObject *obj = addr.pointee.get();
    if (obj == nullptr)
        engine.raiseNullDeref(true, pi.srcStore->loc());
    try {
        // Stores mutate leaf contents, never aggregate layout, so they
        // leave cached resolutions valid (no epoch bump).
        if (obj->exactKind())
            ManagedEngine::storeToObject(obj, addr.offset, pi.accStore, v);
        else
            storeAggregate(engine, pi, addr, v);
    } catch (MemoryErrorException &error) {
        // A type error names no access kind (it reads as a read), so
        // the executor's faultSite() would give a fused op's store
        // fault to its fused load: stamp the store's own site here.
        ManagedEngine::noteBugSite(error.report(), *pi.srcStore);
        throw;
    }
}

void
CompiledFunction::loadAggregate(ManagedEngine &engine, const PInst &pi,
                                const Address &addr, MValue &dest)
{
    ManagedObject *obj = addr.pointee.get();
    const ScalarAccess &acc = pi.accLoad;
    SlotResolution *sr = (pi.flags & kPElideLoad) != 0
        ? &slotRes_[static_cast<size_t>(pi.loadAddr.index)] : nullptr;
    // Tier A — per-address-slot resolution: wins when the address is
    // loop invariant. The hit test is structural (same live object,
    // same offset, same width): aggregate layout never changes while
    // an object is live, the ObjRef pins the root (no address reuse),
    // and free — only reachable through a call, where the epoch moves —
    // is caught by the isFreed test. Leaf checks
    // (liveness/bounds/type/init) still run inside loadFromObject.
    if (sr != nullptr && sr->epoch == engine.resolveEpoch_ &&
        sr->obj.get() == obj && sr->offset == addr.offset &&
        sr->size == acc.size && !obj->isFreed()) {
        if (engine.profiling_)
            engine.telem_.elideSlotHits++;
        ManagedEngine::loadFromObject(sr->leaf, sr->leafOffset, acc, dest);
        return;
    }
    // Tier B — struct-shape cache: wins when the address changes every
    // time but keeps naming the same field of the same struct type
    // (pointer chasing). No slot-cache refill on a hit.
    if (pi.icLoad >= 0 && obj->kind() == ObjectKind::structObject) {
        auto *sobj = static_cast<StructObject *>(obj);
        AccessCache &cache = accessCaches_[static_cast<size_t>(pi.icLoad)];
        if (sobj->type() == cache.structType && !sobj->isFreed() &&
            addr.offset >= cache.fieldOffset &&
            addr.offset - cache.fieldOffset +
                    static_cast<int64_t>(acc.size) <= cache.fieldSize) {
            if (engine.profiling_)
                engine.telem_.elideShapeHits++;
            ManagedEngine::loadFromObject(sobj->field(cache.fieldIndex),
                                          addr.offset - cache.fieldOffset,
                                          acc, dest);
            return;
        }
        if (engine.profiling_)
            engine.telem_.elideShapeMisses++;
        ManagedEngine::loadFromObject(obj, addr.offset, acc, dest);
        fillAccessCache(cache, sobj, addr.offset, acc.size);
        return;
    }
    if (sr != nullptr) {
        if (engine.profiling_)
            engine.telem_.elideSlotMisses++;
        int64_t leaf_off = 0;
        ManagedObject *leaf =
            resolveLeaf(obj, addr.offset, acc.size, false, leaf_off);
        if (leaf == nullptr) {
            sr->epoch = 0; // spans sub-objects: byte-wise, not cacheable
            ManagedEngine::loadFromObject(obj, addr.offset, acc, dest);
            return;
        }
        ManagedEngine::loadFromObject(leaf, leaf_off, acc, dest);
        sr->epoch = engine.resolveEpoch_;
        sr->obj = addr.pointee;
        slotResPinned_ = true;
        sr->offset = addr.offset;
        sr->size = acc.size;
        sr->leaf = leaf;
        sr->leafOffset = leaf_off;
        return;
    }
    ManagedEngine::loadFromObject(obj, addr.offset, acc, dest);
}

void
CompiledFunction::storeAggregate(ManagedEngine &engine, const PInst &pi,
                                 const Address &addr, const MValue &v)
{
    ManagedObject *obj = addr.pointee.get();
    const ScalarAccess &acc = pi.accStore;
    SlotResolution *sr = (pi.flags & kPElideStore) != 0
        ? &slotRes_[static_cast<size_t>(pi.c.index)] : nullptr;
    // Same two cache tiers as loadAggregate; see the comments there.
    if (sr != nullptr && sr->epoch == engine.resolveEpoch_ &&
        sr->obj.get() == obj && sr->offset == addr.offset &&
        sr->size == acc.size && !obj->isFreed()) {
        if (engine.profiling_)
            engine.telem_.elideSlotHits++;
        ManagedEngine::storeToObject(sr->leaf, sr->leafOffset, acc, v);
        return;
    }
    if (pi.icStore >= 0 && obj->kind() == ObjectKind::structObject) {
        auto *sobj = static_cast<StructObject *>(obj);
        AccessCache &cache =
            accessCaches_[static_cast<size_t>(pi.icStore)];
        if (sobj->type() == cache.structType && !sobj->isFreed() &&
            addr.offset >= cache.fieldOffset &&
            addr.offset - cache.fieldOffset +
                    static_cast<int64_t>(acc.size) <= cache.fieldSize) {
            if (engine.profiling_)
                engine.telem_.elideShapeHits++;
            ManagedEngine::storeToObject(sobj->field(cache.fieldIndex),
                                         addr.offset - cache.fieldOffset,
                                         acc, v);
            return;
        }
        if (engine.profiling_)
            engine.telem_.elideShapeMisses++;
        ManagedEngine::storeToObject(obj, addr.offset, acc, v);
        fillAccessCache(cache, sobj, addr.offset, acc.size);
        return;
    }
    if (sr != nullptr) {
        if (engine.profiling_)
            engine.telem_.elideSlotMisses++;
        int64_t leaf_off = 0;
        ManagedObject *leaf =
            resolveLeaf(obj, addr.offset, acc.size, true, leaf_off);
        if (leaf == nullptr) {
            sr->epoch = 0;
            ManagedEngine::storeToObject(obj, addr.offset, acc, v);
            return;
        }
        ManagedEngine::storeToObject(leaf, leaf_off, acc, v);
        sr->epoch = engine.resolveEpoch_;
        sr->obj = addr.pointee;
        slotResPinned_ = true;
        sr->offset = addr.offset;
        sr->size = acc.size;
        sr->leaf = leaf;
        sr->leafOffset = leaf_off;
        return;
    }
    ManagedEngine::storeToObject(obj, addr.offset, acc, v);
}

} // namespace sulong
