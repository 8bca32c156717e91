#include "interp/managed_engine.h"

#include <chrono>
#include <cmath>
#include <string_view>

#include "interp/tier2.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sulong
{

namespace
{

/** Engine intrinsics, resolved once per function. */
enum class Intrinsic : uint8_t
{
    none,
    mallocFn, freeFn, callocFn, reallocFn,
    sysExit, sysWrite, sysGetchar, sysAllocSize,
    vaStart, vaArgPtr, vaEnd, vaCount,
    mSqrt, mSin, mCos, mTan, mAtan, mAtan2, mExp, mLog, mPow,
    mFloor, mCeil, mFabs, mFmod,
};

/** Transparent string hashing: lets the intrinsic table answer
 *  string_view queries without materializing a std::string per call. */
struct StringHash
{
    using is_transparent = void;
    size_t
    operator()(std::string_view s) const noexcept
    {
        return std::hash<std::string_view>{}(s);
    }
};

Intrinsic
intrinsicFor(std::string_view name)
{
    static const std::unordered_map<std::string, Intrinsic, StringHash,
                                    std::equal_to<>> table = {
        {"malloc", Intrinsic::mallocFn},
        {"free", Intrinsic::freeFn},
        {"calloc", Intrinsic::callocFn},
        {"realloc", Intrinsic::reallocFn},
        {"__sys_exit", Intrinsic::sysExit},
        {"__sys_write", Intrinsic::sysWrite},
        {"__sys_getchar", Intrinsic::sysGetchar},
        {"__sys_alloc_size", Intrinsic::sysAllocSize},
        {"__va_start", Intrinsic::vaStart},
        {"__va_arg_ptr", Intrinsic::vaArgPtr},
        {"__va_end", Intrinsic::vaEnd},
        {"__va_count", Intrinsic::vaCount},
        {"sqrt", Intrinsic::mSqrt}, {"sin", Intrinsic::mSin},
        {"cos", Intrinsic::mCos}, {"tan", Intrinsic::mTan},
        {"atan", Intrinsic::mAtan}, {"atan2", Intrinsic::mAtan2},
        {"exp", Intrinsic::mExp}, {"log", Intrinsic::mLog},
        {"pow", Intrinsic::mPow}, {"floor", Intrinsic::mFloor},
        {"ceil", Intrinsic::mCeil}, {"fabs", Intrinsic::mFabs},
        {"fmod", Intrinsic::mFmod},
    };
    auto it = table.find(name);
    return it == table.end() ? Intrinsic::none : it->second;
}

/** Box one variadic argument as its own managed object (paper Fig. 9). */
Address
boxVararg(const MValue &v)
{
    Address dummy;
    switch (v.kind) {
      case MValue::Kind::intV: {
        unsigned width = v.bits < 8 ? 8 : v.bits;
        ObjRef obj;
        switch (width) {
          case 8: obj = ObjRef(new I8Array(StorageKind::stack, 1)); break;
          case 16: obj = ObjRef(new I16Array(StorageKind::stack, 1)); break;
          case 32: obj = ObjRef(new I32Array(StorageKind::stack, 1)); break;
          default: obj = ObjRef(new I64Array(StorageKind::stack, 1)); break;
        }
        obj->write(AccessClass::integer, width / 8, 0,
                   static_cast<uint64_t>(v.i), dummy);
        return Address{std::move(obj), 0};
      }
      case MValue::Kind::fpV: {
        if (v.bits == 32) {
            ObjRef obj(new F32Array(StorageKind::stack, 1));
            float f = static_cast<float>(v.f);
            uint64_t raw = 0;
            std::memcpy(&raw, &f, 4);
            obj->write(AccessClass::floating, 4, 0, raw, dummy);
            return Address{std::move(obj), 0};
        }
        ObjRef obj(new F64Array(StorageKind::stack, 1));
        uint64_t raw = 0;
        std::memcpy(&raw, &v.f, 8);
        obj->write(AccessClass::floating, 8, 0, raw, dummy);
        return Address{std::move(obj), 0};
      }
      case MValue::Kind::addrV: {
        ObjRef obj(new AddressArray(StorageKind::stack, 1));
        obj->write(AccessClass::pointer, 8, 0, 0, v.a);
        return Address{std::move(obj), 0};
      }
    }
    return Address{};
}

} // namespace

void
ManagedEngine::raiseDivZero()
{
    throw EngineError("integer division by zero");
}

bool
ManagedEngine::evalPtrCmp(IntPred pred, const MValue &l, const MValue &r)
{
    // Pointer comparison: identity for eq/ne; offsets within the same
    // object, stable object identity otherwise, for relational.
    const ManagedObject *lo = l.a.pointee.get();
    const ManagedObject *ro = r.a.pointee.get();
    switch (pred) {
      case IntPred::eq:
        return lo == ro && l.a.offset == r.a.offset;
      case IntPred::ne:
        return lo != ro || l.a.offset != r.a.offset;
      default: {
        bool less, lesseq;
        if (lo == ro) {
            less = l.a.offset < r.a.offset;
            lesseq = l.a.offset <= r.a.offset;
        } else {
            less = lo < ro;
            lesseq = less;
        }
        switch (pred) {
          case IntPred::ult: case IntPred::slt: return less;
          case IntPred::ule: case IntPred::sle: return lesseq;
          case IntPred::ugt: case IntPred::sgt: return !lesseq;
          default: return !less;
        }
      }
    }
}

ManagedEngine::ManagedEngine(ManagedOptions options)
    : options_(std::move(options))
{}

ManagedEngine::~ManagedEngine() = default;

void
ManagedEngine::step()
{
    guard_.onStep();
}

void
ManagedEngine::reportLeaks(ExecutionResult &result)
{
    if (!options_.detectLeaks || !result.ok())
        return;
    ManagedHeap::LeakInfo leaks = heap_->liveLeaks();
    if (leaks.blocks == 0)
        return;
    result.bug.kind = ErrorKind::memoryLeak;
    result.bug.storage = StorageKind::heap;
    result.bug.detail = std::to_string(leaks.blocks) +
        " heap block(s), " + std::to_string(leaks.bytes) +
        " byte(s) never freed";
}

void
ManagedEngine::raiseNullDeref(bool is_write, const SourceLoc &loc)
{
    BugReport report;
    report.kind = ErrorKind::nullDeref;
    report.access = is_write ? AccessKind::write : AccessKind::read;
    report.detail = "NULL dereference at " + loc.toString();
    throw MemoryErrorException(std::move(report));
}

void
ManagedEngine::noteBugSite(BugReport &report, const Instruction &inst)
{
    if (report.blockIndex.has_value())
        return;
    const BasicBlock *bb = inst.parent();
    const auto &insts = bb->insts();
    size_t idx = 0;
    while (idx < insts.size() && insts[idx].get() != &inst)
        idx++;
    report.function = bb->parent()->name();
    report.blockIndex = bb->index();
    report.instIndex = static_cast<unsigned>(idx);
}

ExecutionResult
ManagedEngine::run(const Module &module, const std::vector<std::string> &args,
                   const std::string &stdin_data)
{
    MS_TRACE_SPAN("managed.run");
    bool resume = options_.persistState && module_ == &module &&
        globals_ != nullptr;
    // Per-run accounting, also when resuming with kept tier state.
    guard_ = ResourceGuard(limits_, cancelToken_);
    // One relaxed load per run; hot paths branch on the cached bool.
    profiling_ = obs::metricsEnabled();
    telem_ = ManagedTelemetry{};
    fnProfiles_.clear();
    if (!resume) {
        module_ = &module;
        globals_ = std::make_unique<GlobalStore>(module);
        heapTypes_ = std::make_unique<TypeContext>();
        heap_ = std::make_unique<ManagedHeap>(*heapTypes_, &guard_);
        heapAllocBytesFlushed_ = 0;
        heapFreedBytesFlushed_ = 0;
        heapAllocsFlushed_ = 0;
        heapFreesFlushed_ = 0;
        mementos_.clear();
        pinned_.clear();
        pinIds_.clear();
        nextPinId_ = 1;
        intrinsicCache_.clear();
        invocationCounts_.clear();
        compiled_.clear();
        callSiteCounts_.clear();
        compileEvents_.clear();
        tier2Count_ = 0;
        inlinedSites_ = 0;
    }
    io_ = GuestIO{};
    io_.input = stdin_data;
    io_.guard = &guard_;

    StrictTypeRulesScope strict_scope(options_.strictTypes);
    UninitTrackingScope uninit_scope(options_.detectUninitReads);

    ExecutionResult result;
    const Function *main_fn = module.findFunction("main");
    if (main_fn == nullptr || main_fn->isDeclaration()) {
        result.bug.kind = ErrorKind::engineError;
        result.bug.detail = "no main() function";
        return result;
    }

    // Build argv/envp in the pre-main region (paper Fig. 10).
    std::vector<std::string> argv_strings;
    argv_strings.push_back("program");
    for (const auto &arg : args)
        argv_strings.push_back(arg);
    static const std::vector<std::string> env_strings = {
        "HOME=/home/user", "PATH=/usr/local/bin:/usr/bin",
        "SECRET_TOKEN=hunter2", "LANG=C",
    };

    std::vector<MValue> main_args;
    if (main_fn->numArgs() >= 1) {
        main_args.push_back(MValue::makeInt(
            static_cast<int64_t>(argv_strings.size()), 32));
    }
    if (main_fn->numArgs() >= 2) {
        main_args.push_back(
            MValue::makeAddr(globals_->makeStringArray(argv_strings)));
    }
    if (main_fn->numArgs() >= 3) {
        main_args.push_back(
            MValue::makeAddr(globals_->makeStringArray(env_strings)));
    }

    try {
        MValue ret = callFunction(main_fn, std::move(main_args), {});
        result.exitCode = ret.kind == MValue::Kind::intV
            ? static_cast<int>(ret.i) : 0;
        reportLeaks(result);
    } catch (const GuestExit &exit) {
        result.exitCode = exit.code();
        reportLeaks(result);
    } catch (MemoryErrorException &error) {
        result.bug = error.report();
    } catch (const ResourceExhausted &limit) {
        result.termination = limit.kind();
        result.terminationDetail = limit.detail();
    } catch (const EngineError &error) {
        result.bug.kind = ErrorKind::engineError;
        result.bug.detail = error.message();
    } catch (const std::exception &e) {
        // Anything else is a host-side failure; never let it escape the
        // engine boundary.
        result.termination = TerminationKind::hostFault;
        result.terminationDetail = std::string("host fault: ") + e.what();
    }
    result.output = std::move(io_.output);
    result.errOutput = std::move(io_.errOutput);
    io_.guard = nullptr;
    if (profiling_)
        flushTelemetry(result);
    return result;
}

ManagedEngine::FnProfile *
ManagedEngine::profileFor(const Function *fn)
{
    return &fnProfiles_[fn];
}

MValue
ManagedEngine::callFunction(const Function *fn, std::vector<MValue> args,
                            std::vector<MValue> varargs)
{
    guard_.enterCall();

    // Tier management: count invocations; compile hot functions.
    CompiledFunction *code = nullptr;
    if (options_.enableTier2) {
        unsigned &count = invocationCounts_[fn];
        count++;
        auto it = compiled_.find(fn);
        if (it != compiled_.end())
            code = it->second.get();
        else if (count >= options_.compileThreshold)
            code = tier2CodeFor(fn, nullptr);
    }

    Frame frame;
    frame.slots.resize(code != nullptr ? code->frameSize()
                                       : fn->numSlots());
    for (size_t i = 0; i < args.size() && i < frame.slots.size(); i++)
        frame.slots[i] = std::move(args[i]);
    frame.varargs = std::move(varargs);

    try {
        MValue result = code != nullptr ? code->execute(*this, frame)
                                        : interpret(fn, frame);
        guard_.leaveCall();
        return result;
    } catch (...) {
        guard_.leaveCall();
        throw;
    }
}

MValue
ManagedEngine::evalOperand(const Value *v, Frame &frame)
{
    switch (v->valueKind()) {
      case ValueKind::constantInt: {
        const auto *c = static_cast<const ConstantInt *>(v);
        return MValue::makeInt(c->value(), c->type()->intBits());
      }
      case ValueKind::constantFP: {
        const auto *c = static_cast<const ConstantFP *>(v);
        return MValue::makeFP(c->value(), c->type()->fpBits());
      }
      case ValueKind::constantNull:
        return MValue::makeAddr(Address{});
      case ValueKind::global:
        return MValue::makeAddr(
            globals_->addressOf(static_cast<const GlobalVariable *>(v)));
      case ValueKind::function:
        return MValue::makeAddr(
            globals_->addressOf(static_cast<const Function *>(v)));
      case ValueKind::argument: {
        const auto *arg = static_cast<const Argument *>(v);
        return frame.slots[arg->index()];
      }
      case ValueKind::instruction: {
        const auto *inst = static_cast<const Instruction *>(v);
        return frame.slots[static_cast<size_t>(inst->slot())];
      }
    }
    throw InternalError("bad operand kind");
}

CompiledFunction *
ManagedEngine::tier2CodeFor(const Function *fn, const char *why)
{
    auto it = compiled_.find(fn);
    if (it != compiled_.end())
        return it->second.get();
    MS_TRACE_SPAN("tier2.compile", fn->name());
    unsigned inlinedBefore = inlinedSites_;
    auto code = compileTier2(*fn, *this);
    if (options_.compileLatencyNsPerInst > 0) {
        // Model Graal's compile time (warm-up experiments).
        auto wait = std::chrono::nanoseconds(
            options_.compileLatencyNsPerInst * code->codeSize());
        auto until = std::chrono::steady_clock::now() + wait;
        while (std::chrono::steady_clock::now() < until) {
        }
    }
    compileEvents_.push_back(CompileEvent{
        why != nullptr ? fn->name() + why : fn->name(), guard_.steps()});
    tier2Count_++;
    if (profiling_) {
        telem_.tier2Compiles++;
        telem_.inlinedSites += inlinedSites_ - inlinedBefore;
        telem_.tier2CodeSizes.push_back(code->codeSize());
    }
    CompiledFunction *raw = code.get();
    compiled_[fn] = std::move(code);
    return raw;
}

ManagedEngine::Frame
ManagedEngine::acquireFrame()
{
    if (framePool_.empty())
        return Frame{};
    Frame frame = std::move(framePool_.back());
    framePool_.pop_back();
    return frame;
}

void
ManagedEngine::releaseFrame(Frame &&frame)
{
    // clear() keeps the slot capacity but destroys the values, so a
    // pooled frame pins no objects and resize() re-value-initializes.
    frame.slots.clear();
    frame.varargs.clear();
    framePool_.push_back(std::move(frame));
}

MValue
ManagedEngine::invokeCompiled(CompiledFunction *code, Frame &frame)
{
    guard_.enterCall();
    try {
        MValue result = code->execute(*this, frame);
        guard_.leaveCall();
        return result;
    } catch (...) {
        guard_.leaveCall();
        throw;
    }
}

MValue
ManagedEngine::interpret(const Function *fn, Frame &frame)
{
    const BasicBlock *bb = fn->entry();
    size_t idx = 0;
    uint64_t backedges = 0;
    bool osr = options_.enableTier2 && options_.enableOsr;
    FnProfile *prof = profiling_ ? profileFor(fn) : nullptr;
    try {
        while (true) {
            const Instruction &inst = *bb->insts()[idx];
            step();
            if (prof != nullptr)
                prof->tier1Steps++;
            switch (inst.op()) {
              case Opcode::br:
              case Opcode::condbr: {
                const BasicBlock *target;
                if (inst.op() == Opcode::br) {
                    target = inst.target(0);
                } else {
                    MValue cond = evalOperand(inst.operand(0), frame);
                    target = cond.i != 0 ? inst.target(0) : inst.target(1);
                }
                // On-stack replacement: once this invocation's loops are hot,
                // continue in tier-2 code at the branch target, reusing the
                // live frame (paper Section 5 future work).
                if (osr && target->index() <= bb->index() &&
                    ++backedges >= options_.osrThreshold) {
                    CompiledFunction *code = tier2CodeFor(fn, " (OSR)");
                    if (code != nullptr)
                        return code->execute(*this, frame,
                                             code->entryFor(target));
                }
                bb = target;
                idx = 0;
                continue;
              }
              case Opcode::ret:
                if (inst.numOperands() == 1)
                    return evalOperand(inst.operand(0), frame);
                return MValue{};
              case Opcode::unreachable_:
                throw EngineError("reached 'unreachable' in " + fn->name());
              default: {
                MValue v = execInstruction(inst, frame);
                if (inst.slot() >= 0)
                    frame.slots[static_cast<size_t>(inst.slot())] =
                        std::move(v);
                idx++;
                continue;
              }
            }
        }
    } catch (MemoryErrorException &error) {
        noteBugSite(error.report(), *bb->insts()[idx]);
        throw;
    }
}

ObjRef
ManagedEngine::allocaObject(const Instruction &inst)
{
    ObjRef obj = createManagedObject(StorageKind::stack, inst.accessType());
    if (!inst.name().empty())
        obj->setName(inst.name());
    return obj;
}

MValue
ManagedEngine::loadFrom(const Address &addr, const Type *type,
                        const SourceLoc &loc)
{
    if (addr.isNull())
        raiseNullDeref(false, loc);
    MValue v;
    loadFromObject(addr.pointee.get(), addr.offset, ScalarAccess::of(type),
                   v);
    return v;
}

void
ManagedEngine::storeTo(const Address &addr, const Type *type,
                       const MValue &v, const SourceLoc &loc)
{
    if (addr.isNull())
        raiseNullDeref(true, loc);
    storeToObject(addr.pointee.get(), addr.offset, ScalarAccess::of(type), v);
}

MValue
ManagedEngine::execInstruction(const Instruction &inst, Frame &frame)
{
    switch (inst.op()) {
      case Opcode::alloca_:
        return MValue::makeAddr(Address{allocaObject(inst), 0});
      case Opcode::load: {
        MValue addr = evalOperand(inst.operand(0), frame);
        return loadFrom(addr.a, inst.accessType(), inst.loc());
      }
      case Opcode::store: {
        MValue value = evalOperand(inst.operand(0), frame);
        MValue addr = evalOperand(inst.operand(1), frame);
        storeTo(addr.a, inst.accessType(), value, inst.loc());
        return MValue{};
      }
      case Opcode::gep: {
        MValue base = evalOperand(inst.operand(0), frame);
        int64_t offset = inst.gepConstOffset();
        if (inst.numOperands() > 1) {
            MValue index = evalOperand(inst.operand(1), frame);
            offset += index.i * static_cast<int64_t>(inst.gepScale());
        }
        return MValue::makeAddr(base.a.withOffset(offset));
      }
      case Opcode::add: case Opcode::sub: case Opcode::mul:
      case Opcode::sdiv: case Opcode::udiv: case Opcode::srem:
      case Opcode::urem: case Opcode::and_: case Opcode::or_:
      case Opcode::xor_: case Opcode::shl: case Opcode::lshr:
      case Opcode::ashr: {
        MValue l = evalOperand(inst.operand(0), frame);
        MValue r = evalOperand(inst.operand(1), frame);
        return MValue::makeInt(
            evalIntBinOp(inst.op(), l, r, inst.type()->intBits()),
            inst.type()->intBits());
      }
      case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
      case Opcode::fdiv: case Opcode::frem: {
        MValue l = evalOperand(inst.operand(0), frame);
        MValue r = evalOperand(inst.operand(1), frame);
        unsigned width = inst.type()->fpBits();
        return MValue::makeFP(sem::floatBinOp(inst.op(), l.f, r.f, width),
                              width);
      }
      case Opcode::fneg: {
        MValue v = evalOperand(inst.operand(0), frame);
        return MValue::makeFP(-v.f, inst.type()->fpBits());
      }
      case Opcode::icmp: {
        MValue l = evalOperand(inst.operand(0), frame);
        MValue r = evalOperand(inst.operand(1), frame);
        return MValue::makeInt(evalICmp(inst.intPred(), l, r) ? 1 : 0, 1);
      }
      case Opcode::fcmp: {
        MValue l = evalOperand(inst.operand(0), frame);
        MValue r = evalOperand(inst.operand(1), frame);
        return MValue::makeInt(
            sem::fcmp(inst.floatPred(), l.f, r.f) ? 1 : 0, 1);
      }
      case Opcode::trunc: case Opcode::zext: case Opcode::sext:
      case Opcode::fptosi: case Opcode::fptoui:
      case Opcode::sitofp: case Opcode::uitofp:
      case Opcode::fpext: case Opcode::fptrunc: {
        const Type *to = inst.type();
        return evalCast(inst.op(), evalOperand(inst.operand(0), frame),
                        to->isInteger() ? to->intBits() : to->fpBits());
      }
      case Opcode::ptrtoint: {
        MValue v = evalOperand(inst.operand(0), frame);
        if (v.a.isNull()) {
            return MValue::makeInt(v.a.offset, inst.type()->intBits());
        }
        // Pin the object so the integer can be converted back (a limited
        // relaxation; full tagged-pointer support is future work in the
        // paper too, Section 5).
        const ManagedObject *obj = v.a.pointee.get();
        uint64_t id;
        auto it = pinIds_.find(obj);
        if (it != pinIds_.end()) {
            id = it->second;
        } else {
            id = nextPinId_++;
            pinIds_[obj] = id;
            pinned_[id] = v.a.pointee;
        }
        constexpr int64_t bias = 1ll << 23;
        int64_t off = v.a.offset;
        if (off < -bias || off >= bias)
            throw EngineError("ptrtoint offset out of range");
        int64_t encoded = static_cast<int64_t>(id << 24) + off + bias;
        return MValue::makeInt(encoded, inst.type()->intBits());
      }
      case Opcode::inttoptr: {
        MValue v = evalOperand(inst.operand(0), frame);
        constexpr int64_t bias = 1ll << 23;
        uint64_t id = static_cast<uint64_t>(v.i) >> 24;
        auto it = pinned_.find(id);
        if (it != pinned_.end()) {
            int64_t off = (v.i & 0xffffff) - bias;
            return MValue::makeAddr(Address{it->second, off});
        }
        // Unknown integer: behaves like an invalid pointer whose deref
        // reports a NULL dereference.
        Address addr;
        addr.offset = v.i;
        return MValue::makeAddr(std::move(addr));
      }
      case Opcode::select: {
        MValue cond = evalOperand(inst.operand(0), frame);
        return evalOperand(inst.operand(cond.i != 0 ? 1 : 2), frame);
      }
      case Opcode::call:
        return execCall(inst, frame);
      default:
        throw InternalError("terminator reached execInstruction");
    }
}

uint8_t
ManagedEngine::intrinsicIdFor(const Function *fn)
{
    auto it = intrinsicCache_.find(fn);
    if (it != intrinsicCache_.end())
        return it->second;
    uint8_t id = static_cast<uint8_t>(intrinsicFor(fn->name()));
    intrinsicCache_[fn] = id;
    return id;
}

MValue
ManagedEngine::execCall(const Instruction &inst, Frame &frame)
{
    // Call-site profile for tier-2 inlining decisions (warm-up only:
    // inlined sites never come back through here).
    if (options_.enableTier2 && options_.enableInlining)
        callSiteCounts_[&inst]++;

    const Function *callee = nullptr;
    const Value *callee_v = inst.operand(0);
    if (callee_v->valueKind() == ValueKind::function) {
        callee = static_cast<const Function *>(callee_v);
    } else {
        MValue target = evalOperand(callee_v, frame);
        if (target.kind != MValue::Kind::addrV || target.a.isNull())
            raiseNullDeref(false, inst.loc());
        const ManagedObject *obj = target.a.pointee.get();
        if (obj->kind() != ObjectKind::functionObject) {
            BugReport report;
            report.kind = ErrorKind::typeError;
            report.detail = "call through a pointer to " + obj->describe();
            throw MemoryErrorException(std::move(report));
        }
        callee = module_->functionById(
            static_cast<const FunctionObject *>(obj)->fnId());
    }

    std::vector<MValue> args;
    args.reserve(inst.numOperands() - 1);
    for (size_t i = 1; i < inst.numOperands(); i++)
        args.push_back(evalOperand(inst.operand(i), frame));

    if (callee->isDeclaration()) {
        if (callee->isIntrinsic()) {
            // Varargs intrinsics need the caller's frame.
            Intrinsic id = static_cast<Intrinsic>(intrinsicIdFor(callee));
            switch (id) {
              case Intrinsic::vaStart: {
                std::vector<Address> boxed;
                boxed.reserve(frame.varargs.size());
                for (const MValue &v : frame.varargs)
                    boxed.push_back(boxVararg(v));
                return MValue::makeAddr(Address{
                    ObjRef(new VarargsObject(std::move(boxed))), 0});
              }
              case Intrinsic::vaCount:
                return MValue::makeInt(
                    static_cast<int64_t>(frame.varargs.size()), 32);
              default:
                return callIntrinsic(callee, &inst, args);
            }
        }
        throw EngineError("call to undefined function '" + callee->name() +
                          "'");
    }

    size_t fixed = callee->numArgs();
    std::vector<MValue> varargs;
    if (args.size() > fixed) {
        varargs.assign(std::make_move_iterator(args.begin() +
                                               static_cast<long>(fixed)),
                       std::make_move_iterator(args.end()));
        args.resize(fixed);
    }
    return callFunction(callee, std::move(args), std::move(varargs));
}

MValue
ManagedEngine::callIntrinsic(const Function *fn, const Instruction *site,
                             std::vector<MValue> &args)
{
    switch (static_cast<Intrinsic>(intrinsicIdFor(fn))) {
      case Intrinsic::mallocFn:
      case Intrinsic::callocFn: {
        bool is_calloc =
            static_cast<Intrinsic>(intrinsicIdFor(fn)) ==
            Intrinsic::callocFn;
        int64_t size = is_calloc ? args[0].i * args[1].i : args[0].i;
        // Static hint from the allocation site, else a prior memento.
        const Type *hint = site != nullptr ? site->accessType() : nullptr;
        const Type **slot = nullptr;
        if (site != nullptr) {
            auto [it, inserted] = mementos_.try_emplace(site, nullptr);
            (void)inserted;
            if (hint == nullptr)
                hint = it->second;
            slot = &it->second;
        }
        Address addr = is_calloc
            ? heap_->allocateZeroed(size, hint, slot)
            : heap_->allocate(size, hint, slot);
        return MValue::makeAddr(std::move(addr));
      }
      case Intrinsic::reallocFn: {
        const Type **slot = nullptr;
        if (site != nullptr)
            slot = &mementos_.try_emplace(site, nullptr).first->second;
        return MValue::makeAddr(
            heap_->reallocate(args[0].a, args[1].i, slot));
      }
      case Intrinsic::freeFn:
        heap_->deallocate(args[0].a);
        return MValue{};
      case Intrinsic::sysExit:
        throw GuestExit(static_cast<int>(args[0].i));
      case Intrinsic::sysWrite: {
        int fd = static_cast<int>(args[0].i);
        const Address &buf = args[1].a;
        int64_t len = args[2].i;
        if (len > 0 && buf.isNull())
            raiseNullDeref(false, site != nullptr ? site->loc()
                                                  : SourceLoc{});
        std::string data;
        data.reserve(static_cast<size_t>(len));
        for (int64_t i = 0; i < len; i++) {
            uint64_t byte = 0;
            Address dummy;
            buf.pointee->read(AccessClass::integer, 1, buf.offset + i,
                              byte, dummy);
            data.push_back(static_cast<char>(byte));
        }
        io_.write(fd, data.data(), data.size());
        return MValue::makeInt(len, 64);
      }
      case Intrinsic::sysGetchar:
        return MValue::makeInt(io_.getChar(), 32);
      case Intrinsic::sysAllocSize: {
        if (args[0].a.isNull())
            return MValue::makeInt(0, 64);
        return MValue::makeInt(args[0].a.pointee->byteSize(), 64);
      }
      case Intrinsic::vaArgPtr: {
        const Address &ap = args[0].a;
        if (ap.isNull())
            raiseNullDeref(false, site != nullptr ? site->loc()
                                                  : SourceLoc{});
        ManagedObject *obj = ap.pointee.get();
        if (obj->kind() != ObjectKind::varargsObject) {
            BugReport report;
            report.kind = ErrorKind::varargs;
            report.detail = "va_arg on a non-va_list value";
            throw MemoryErrorException(std::move(report));
        }
        return MValue::makeAddr(static_cast<VarargsObject *>(obj)->next());
      }
      case Intrinsic::vaEnd:
        return MValue{};
      case Intrinsic::mSqrt: return MValue::makeFP(std::sqrt(args[0].f), 64);
      case Intrinsic::mSin: return MValue::makeFP(std::sin(args[0].f), 64);
      case Intrinsic::mCos: return MValue::makeFP(std::cos(args[0].f), 64);
      case Intrinsic::mTan: return MValue::makeFP(std::tan(args[0].f), 64);
      case Intrinsic::mAtan: return MValue::makeFP(std::atan(args[0].f), 64);
      case Intrinsic::mAtan2:
        return MValue::makeFP(std::atan2(args[0].f, args[1].f), 64);
      case Intrinsic::mExp: return MValue::makeFP(std::exp(args[0].f), 64);
      case Intrinsic::mLog: return MValue::makeFP(std::log(args[0].f), 64);
      case Intrinsic::mPow:
        return MValue::makeFP(std::pow(args[0].f, args[1].f), 64);
      case Intrinsic::mFloor:
        return MValue::makeFP(std::floor(args[0].f), 64);
      case Intrinsic::mCeil: return MValue::makeFP(std::ceil(args[0].f), 64);
      case Intrinsic::mFabs: return MValue::makeFP(std::fabs(args[0].f), 64);
      case Intrinsic::mFmod:
        return MValue::makeFP(std::fmod(args[0].f, args[1].f), 64);
      case Intrinsic::vaStart:
      case Intrinsic::vaCount:
        throw InternalError("varargs intrinsic outside execCall");
      case Intrinsic::none:
        break;
    }
    throw EngineError("unknown intrinsic '" + fn->name() + "'");
}

} // namespace sulong
