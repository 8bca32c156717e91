#include "native/native_engine.h"

#include <cmath>
#include <cstring>

namespace sulong
{

namespace
{

int64_t
safeFptosi(double v)
{
    if (std::isnan(v))
        return 0;
    if (v >= 9223372036854775807.0)
        return INT64_MAX;
    if (v <= -9223372036854775808.0)
        return INT64_MIN;
    return static_cast<int64_t>(v);
}

uint64_t
safeFptoui(double v)
{
    if (std::isnan(v) || v <= -1.0)
        return 0;
    if (v >= 18446744073709551615.0)
        return UINT64_MAX;
    return static_cast<uint64_t>(v);
}

/** Sign-extend @p bits-wide @p value. */
int64_t
sext(uint64_t value, unsigned bits)
{
    if (bits >= 64)
        return static_cast<int64_t>(value);
    uint64_t mask = (1ull << bits) - 1;
    value &= mask;
    if (value & (1ull << (bits - 1)))
        value |= ~mask;
    return static_cast<int64_t>(value);
}

uint64_t
zext(int64_t value, unsigned bits)
{
    if (bits >= 64)
        return static_cast<uint64_t>(value);
    return static_cast<uint64_t>(value) & ((1ull << bits) - 1);
}

} // namespace

NativeEngine::NativeEngine(std::string name,
                           std::shared_ptr<NativeHooks> hooks)
    : name_(std::move(name)), hooks_(std::move(hooks))
{}

NativeEngine::~NativeEngine() = default;

void
NativeEngine::step()
{
    guard_.onStep();
}

ExecutionResult
NativeEngine::run(const Module &module, const std::vector<std::string> &args,
                  const std::string &stdin_data)
{
    module_ = &module;
    guard_ = ResourceGuard(limits_, cancelToken_);
    mem_ = std::make_unique<NativeMemory>();
    mem_->setGuard(&guard_);
    io_ = GuestIO{};
    io_.input = stdin_data;
    io_.guard = &guard_;
    chargeChecks_ = hooks_ != nullptr && hooks_->chargesAccessChecks();
    trackDefined_ = hooks_ != nullptr && hooks_->tracksDefinedness();

    ExecutionResult result;
    const Function *main_fn = module.findFunction("main");
    if (main_fn == nullptr || main_fn->isDeclaration()) {
        result.bug.kind = ErrorKind::engineError;
        result.bug.detail = "no main() function";
        return result;
    }

    try {
        if (hooks_ != nullptr)
            hooks_->onRunStart();
        uint64_t gap = hooks_ != nullptr ? hooks_->globalGap() : 0;
        std::vector<uint64_t> global_addrs = mem_->layoutGlobals(module, gap);

        std::vector<std::string> argv_strings;
        argv_strings.push_back("program");
        for (const auto &arg : args)
            argv_strings.push_back(arg);
        static const std::vector<std::string> env_strings = {
            "HOME=/home/user", "PATH=/usr/local/bin:/usr/bin",
            "SECRET_TOKEN=hunter2", "LANG=C",
        };
        auto [argv_addr, envp_addr] =
            mem_->buildMainArgs(argv_strings, env_strings);

        if (hooks_ != nullptr)
            hooks_->onStartup(*mem_, module, global_addrs);

        std::vector<NValue> main_args;
        if (main_fn->numArgs() >= 1) {
            main_args.push_back(NValue::makeInt(
                static_cast<int64_t>(argv_strings.size())));
        }
        if (main_fn->numArgs() >= 2)
            main_args.push_back(NValue::makeInt(
                static_cast<int64_t>(argv_addr)));
        if (main_fn->numArgs() >= 3)
            main_args.push_back(NValue::makeInt(
                static_cast<int64_t>(envp_addr)));

        NValue ret = callFunction(main_fn, std::move(main_args), {});
        result.exitCode = static_cast<int>(ret.i);
        if (hooks_ != nullptr)
            hooks_->reportLeaks(result.bug);
    } catch (const GuestExit &exit) {
        result.exitCode = exit.code();
        if (hooks_ != nullptr)
            hooks_->reportLeaks(result.bug);
    } catch (MemoryErrorException &error) {
        result.bug = error.report();
    } catch (const ResourceExhausted &limit) {
        result.termination = limit.kind();
        result.terminationDetail = limit.detail();
    } catch (const NativeTrap &trap) {
        result.bug.kind = trap.addr() < 4096 ? ErrorKind::nullDeref
                                             : ErrorKind::segfault;
        result.bug.access = trap.isWrite() ? AccessKind::write
                                           : AccessKind::read;
        result.bug.detail = "invalid access to address " +
            std::to_string(trap.addr());
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
    return result;
}

NValue
NativeEngine::callFunction(const Function *fn, std::vector<NValue> args,
                           const std::vector<NValue> &varargs)
{
    guard_.enterCall();

    Frame frame;
    frame.checked = hooks_ != nullptr && hooks_->checksAccessesIn(*fn);
    frame.savedSp = mem_->stackPointer();
    frame.slots.resize(fn->numSlots());
    for (size_t i = 0; i < args.size() && i < frame.slots.size(); i++)
        frame.slots[i] = args[i];

    // Spill variadic arguments to the register-save-area analogue: AMD64
    // varargs prologues dump all argument registers, so the whole area
    // reads as initialized even past the real arguments (which is why
    // run-time tools cannot flag missing printf arguments).
    if (fn->isVarArg()) {
        uint64_t spill_size = std::max<uint64_t>(176, varargs.size() * 8);
        frame.vaSpill = mem_->stackAlloc(spill_size);
        frame.vaCount = varargs.size();
        // The register save area counts as written by the prologue (so
        // reading past the real arguments is never flagged)...
        if (trackDefined_)
            hooks_->storeDefined(*mem_, frame.vaSpill, spill_size, true);
        for (size_t i = 0; i < varargs.size(); i++) {
            // ...but each actual argument carries its own definedness.
            mem_->writeInt(frame.vaSpill + i * 8, 8,
                           static_cast<uint64_t>(varargs[i].i));
            if (trackDefined_) {
                hooks_->storeDefined(*mem_, frame.vaSpill + i * 8, 8,
                                     varargs[i].defined);
            }
        }
    }

    try {
        NValue result = interpret(fn, frame);
        if (hooks_ != nullptr && mem_->stackPointer() != frame.savedSp) {
            hooks_->onFrameExit(*mem_, mem_->stackPointer(),
                                frame.savedSp);
        }
        mem_->setStackPointer(frame.savedSp);
        guard_.leaveCall();
        return result;
    } catch (MemoryErrorException &error) {
        guard_.leaveCall();
        if (error.report().function.empty())
            error.report().function = fn->name();
        throw;
    } catch (...) {
        guard_.leaveCall();
        throw;
    }
}

NValue
NativeEngine::evalOperand(const Value *v, Frame &frame)
{
    switch (v->valueKind()) {
      case ValueKind::constantInt:
        return NValue::makeInt(
            static_cast<const ConstantInt *>(v)->value());
      case ValueKind::constantFP:
        return NValue::makeFP(static_cast<const ConstantFP *>(v)->value());
      case ValueKind::constantNull:
        return NValue::makeInt(0);
      case ValueKind::global:
        return NValue::makeInt(static_cast<int64_t>(mem_->globalAddress(
            static_cast<const GlobalVariable *>(v))));
      case ValueKind::function:
        return NValue::makeInt(
            static_cast<int64_t>(NativeMemory::functionAddress(
                static_cast<const Function *>(v)->id())));
      case ValueKind::argument:
        return frame.slots[static_cast<const Argument *>(v)->index()];
      case ValueKind::instruction:
        return frame.slots[static_cast<size_t>(
            static_cast<const Instruction *>(v)->slot())];
    }
    throw InternalError("bad operand kind");
}

NValue
NativeEngine::interpret(const Function *fn, Frame &frame)
{
    const BasicBlock *bb = fn->entry();
    size_t idx = 0;
    while (true) {
        const Instruction &inst = *bb->insts()[idx];
        step();
        switch (inst.op()) {
          case Opcode::br:
            bb = inst.target(0);
            idx = 0;
            continue;
          case Opcode::condbr: {
            NValue cond = evalOperand(inst.operand(0), frame);
            if (trackDefined_ && !cond.defined)
                hooks_->onUndefinedUse(inst.loc());
            bb = (cond.i & 1) != 0 ? inst.target(0) : inst.target(1);
            idx = 0;
            continue;
          }
          case Opcode::ret:
            if (inst.numOperands() == 1)
                return evalOperand(inst.operand(0), frame);
            return NValue{};
          case Opcode::unreachable_:
            throw EngineError("reached 'unreachable' in " + fn->name());
          default: {
            NValue v = execInstruction(inst, frame);
            if (inst.slot() >= 0)
                frame.slots[static_cast<size_t>(inst.slot())] = v;
            idx++;
            continue;
          }
        }
    }
}

NValue
NativeEngine::loadFrom(uint64_t addr, const Type *type,
                       const SourceLoc &loc, bool checked)
{
    unsigned size = static_cast<unsigned>(type->size());
    if (checked) {
        hooks_->onLoad(*mem_, addr, size, loc);
        if (chargeChecks_)
            step();
    }
    uint64_t bits = mem_->readInt(addr, size);
    NValue out;
    if (type->kind() == TypeKind::f32) {
        float f = 0;
        std::memcpy(&f, &bits, 4);
        out.f = f;
    } else if (type->kind() == TypeKind::f64) {
        std::memcpy(&out.f, &bits, 8);
    } else if (type->isInteger()) {
        out.i = sext(bits, type->intBits());
    } else {
        out.i = static_cast<int64_t>(bits);
    }
    if (trackDefined_)
        out.defined = hooks_->loadDefined(*mem_, addr, size);
    return out;
}

void
NativeEngine::storeTo(uint64_t addr, const Type *type, const NValue &v,
                      const SourceLoc &loc, bool checked)
{
    unsigned size = static_cast<unsigned>(type->size());
    if (checked) {
        hooks_->onStore(*mem_, addr, size, loc);
        if (chargeChecks_)
            step();
    }
    uint64_t bits;
    if (type->kind() == TypeKind::f32) {
        float f = static_cast<float>(v.f);
        uint32_t fb = 0;
        std::memcpy(&fb, &f, 4);
        bits = fb;
    } else if (type->kind() == TypeKind::f64) {
        std::memcpy(&bits, &v.f, 8);
    } else {
        bits = static_cast<uint64_t>(v.i);
    }
    mem_->writeInt(addr, size, bits);
    if (trackDefined_)
        hooks_->storeDefined(*mem_, addr, size, v.defined);
}

NValue
NativeEngine::execInstruction(const Instruction &inst, Frame &frame)
{
    switch (inst.op()) {
      case Opcode::alloca_: {
        uint64_t size = inst.accessType()->size();
        uint64_t rz = frame.checked ? hooks_->allocaRedzone() : 0;
        // Real frames are not tightly packed: keep 8 slack bytes above
        // each object (spill/padding space a compiler would leave).
        uint64_t total = size + 2 * rz + 8;
        uint64_t base = mem_->stackAlloc(total);
        uint64_t var = base + rz;
        if (hooks_ != nullptr) {
            if (rz > 0)
                hooks_->onAlloca(*mem_, base, var, size, total);
            hooks_->onStackAlloc(*mem_, base, total);
        }
        return NValue::makeInt(static_cast<int64_t>(var));
      }
      case Opcode::load: {
        NValue addr = evalOperand(inst.operand(0), frame);
        return loadFrom(static_cast<uint64_t>(addr.i), inst.accessType(),
                        inst.loc(), frame.checked);
      }
      case Opcode::store: {
        NValue value = evalOperand(inst.operand(0), frame);
        NValue addr = evalOperand(inst.operand(1), frame);
        storeTo(static_cast<uint64_t>(addr.i), inst.accessType(), value,
                inst.loc(), frame.checked);
        return NValue{};
      }
      case Opcode::gep: {
        NValue base = evalOperand(inst.operand(0), frame);
        int64_t offset = inst.gepConstOffset();
        NValue out = base;
        if (inst.numOperands() > 1) {
            NValue index = evalOperand(inst.operand(1), frame);
            offset += index.i * static_cast<int64_t>(inst.gepScale());
            out.defined = base.defined && index.defined;
        }
        out.i = base.i + offset;
        return out;
      }
      case Opcode::add: case Opcode::sub: case Opcode::mul:
      case Opcode::sdiv: case Opcode::udiv: case Opcode::srem:
      case Opcode::urem: case Opcode::and_: case Opcode::or_:
      case Opcode::xor_: case Opcode::shl: case Opcode::lshr:
      case Opcode::ashr: {
        NValue l = evalOperand(inst.operand(0), frame);
        NValue r = evalOperand(inst.operand(1), frame);
        unsigned width = inst.type()->intBits();
        uint64_t lz = zext(l.i, width);
        uint64_t rz2 = zext(r.i, width);
        int64_t out = 0;
        switch (inst.op()) {
          case Opcode::add: out = l.i + r.i; break;
          case Opcode::sub: out = l.i - r.i; break;
          case Opcode::mul:
            out = static_cast<int64_t>(
                static_cast<uint64_t>(l.i) * static_cast<uint64_t>(r.i));
            break;
          case Opcode::sdiv:
            if (r.i == 0)
                throw EngineError("integer division by zero");
            out = (l.i == INT64_MIN && r.i == -1) ? INT64_MIN : l.i / r.i;
            break;
          case Opcode::udiv:
            if (rz2 == 0)
                throw EngineError("integer division by zero");
            out = static_cast<int64_t>(lz / rz2);
            break;
          case Opcode::srem:
            if (r.i == 0)
                throw EngineError("integer division by zero");
            out = (l.i == INT64_MIN && r.i == -1) ? 0 : l.i % r.i;
            break;
          case Opcode::urem:
            if (rz2 == 0)
                throw EngineError("integer division by zero");
            out = static_cast<int64_t>(lz % rz2);
            break;
          case Opcode::and_: out = l.i & r.i; break;
          case Opcode::or_: out = l.i | r.i; break;
          case Opcode::xor_: out = l.i ^ r.i; break;
          case Opcode::shl:
            out = static_cast<int64_t>(lz << (rz2 & (width - 1)));
            break;
          case Opcode::lshr:
            out = static_cast<int64_t>(lz >> (rz2 & (width - 1)));
            break;
          case Opcode::ashr:
            out = sext(lz, width) >> (rz2 & (width - 1));
            break;
          default:
            break;
        }
        NValue v = NValue::makeInt(sext(static_cast<uint64_t>(out), width));
        v.defined = trackDefined_ ? hooks_->combineDefined(l, r)
                                  : (l.defined && r.defined);
        return v;
      }
      case Opcode::fadd: case Opcode::fsub: case Opcode::fmul:
      case Opcode::fdiv: case Opcode::frem: {
        NValue l = evalOperand(inst.operand(0), frame);
        NValue r = evalOperand(inst.operand(1), frame);
        bool single = inst.type()->kind() == TypeKind::f32;
        double out;
        if (single) {
            float lf = static_cast<float>(l.f);
            float rf = static_cast<float>(r.f);
            switch (inst.op()) {
              case Opcode::fadd: out = lf + rf; break;
              case Opcode::fsub: out = lf - rf; break;
              case Opcode::fmul: out = lf * rf; break;
              case Opcode::fdiv: out = lf / rf; break;
              default: out = std::fmod(lf, rf); break;
            }
        } else {
            switch (inst.op()) {
              case Opcode::fadd: out = l.f + r.f; break;
              case Opcode::fsub: out = l.f - r.f; break;
              case Opcode::fmul: out = l.f * r.f; break;
              case Opcode::fdiv: out = l.f / r.f; break;
              default: out = std::fmod(l.f, r.f); break;
            }
        }
        NValue v = NValue::makeFP(out);
        v.defined = trackDefined_ ? hooks_->combineDefined(l, r)
                                  : (l.defined && r.defined);
        return v;
      }
      case Opcode::fneg: {
        NValue v = evalOperand(inst.operand(0), frame);
        NValue out = NValue::makeFP(-v.f);
        out.defined = v.defined;
        return out;
      }
      case Opcode::icmp: {
        NValue l = evalOperand(inst.operand(0), frame);
        NValue r = evalOperand(inst.operand(1), frame);
        unsigned width = inst.operand(0)->type()->isPointer()
            ? 64 : inst.operand(0)->type()->intBits();
        int64_t ls = sext(static_cast<uint64_t>(l.i), width);
        int64_t rs = sext(static_cast<uint64_t>(r.i), width);
        uint64_t lu = zext(l.i, width);
        uint64_t ru = zext(r.i, width);
        bool out = false;
        switch (inst.intPred()) {
          case IntPred::eq: out = lu == ru; break;
          case IntPred::ne: out = lu != ru; break;
          case IntPred::slt: out = ls < rs; break;
          case IntPred::sle: out = ls <= rs; break;
          case IntPred::sgt: out = ls > rs; break;
          case IntPred::sge: out = ls >= rs; break;
          case IntPred::ult: out = lu < ru; break;
          case IntPred::ule: out = lu <= ru; break;
          case IntPred::ugt: out = lu > ru; break;
          case IntPred::uge: out = lu >= ru; break;
        }
        NValue v = NValue::makeInt(out ? 1 : 0);
        v.defined = trackDefined_ ? hooks_->combineDefined(l, r)
                                  : (l.defined && r.defined);
        return v;
      }
      case Opcode::fcmp: {
        NValue l = evalOperand(inst.operand(0), frame);
        NValue r = evalOperand(inst.operand(1), frame);
        bool ordered = !std::isnan(l.f) && !std::isnan(r.f);
        bool out = false;
        if (ordered) {
            switch (inst.floatPred()) {
              case FloatPred::oeq: out = l.f == r.f; break;
              case FloatPred::one: out = l.f != r.f; break;
              case FloatPred::olt: out = l.f < r.f; break;
              case FloatPred::ole: out = l.f <= r.f; break;
              case FloatPred::ogt: out = l.f > r.f; break;
              case FloatPred::oge: out = l.f >= r.f; break;
            }
        }
        NValue v = NValue::makeInt(out ? 1 : 0);
        v.defined = trackDefined_ ? hooks_->combineDefined(l, r)
                                  : (l.defined && r.defined);
        return v;
      }
      case Opcode::trunc: case Opcode::sext: {
        NValue v = evalOperand(inst.operand(0), frame);
        NValue out = NValue::makeInt(
            sext(static_cast<uint64_t>(v.i), inst.type()->intBits()));
        out.defined = v.defined;
        return out;
      }
      case Opcode::zext: {
        NValue v = evalOperand(inst.operand(0), frame);
        unsigned from = inst.operand(0)->type()->intBits();
        NValue out = NValue::makeInt(
            static_cast<int64_t>(zext(v.i, from)));
        out.defined = v.defined;
        return out;
      }
      case Opcode::fptosi: {
        NValue v = evalOperand(inst.operand(0), frame);
        NValue out = NValue::makeInt(
            sext(static_cast<uint64_t>(safeFptosi(v.f)),
                 inst.type()->intBits()));
        out.defined = v.defined;
        return out;
      }
      case Opcode::fptoui: {
        NValue v = evalOperand(inst.operand(0), frame);
        NValue out = NValue::makeInt(
            static_cast<int64_t>(safeFptoui(v.f)));
        out.defined = v.defined;
        return out;
      }
      case Opcode::sitofp: {
        NValue v = evalOperand(inst.operand(0), frame);
        unsigned from = inst.operand(0)->type()->intBits();
        NValue out = NValue::makeFP(
            static_cast<double>(sext(static_cast<uint64_t>(v.i), from)));
        out.defined = v.defined;
        return out;
      }
      case Opcode::uitofp: {
        NValue v = evalOperand(inst.operand(0), frame);
        unsigned from = inst.operand(0)->type()->intBits();
        NValue out = NValue::makeFP(static_cast<double>(zext(v.i, from)));
        out.defined = v.defined;
        return out;
      }
      case Opcode::fpext: case Opcode::fptrunc: {
        NValue v = evalOperand(inst.operand(0), frame);
        NValue out = NValue::makeFP(
            inst.op() == Opcode::fptrunc
                ? static_cast<double>(static_cast<float>(v.f)) : v.f);
        out.defined = v.defined;
        return out;
      }
      case Opcode::ptrtoint: case Opcode::inttoptr: {
        // Pointers already are integers in this model.
        return evalOperand(inst.operand(0), frame);
      }
      case Opcode::select: {
        NValue cond = evalOperand(inst.operand(0), frame);
        if (trackDefined_ && !cond.defined)
            hooks_->onUndefinedUse(inst.loc());
        return evalOperand(inst.operand((cond.i & 1) != 0 ? 1 : 2), frame);
      }
      case Opcode::call:
        return execCall(inst, frame);
      default:
        throw InternalError("terminator reached execInstruction");
    }
}

NValue
NativeEngine::execCall(const Instruction &inst, Frame &frame)
{
    const Function *callee = nullptr;
    const Value *callee_v = inst.operand(0);
    if (callee_v->valueKind() == ValueKind::function) {
        callee = static_cast<const Function *>(callee_v);
    } else {
        NValue target = evalOperand(callee_v, frame);
        uint64_t addr = static_cast<uint64_t>(target.i);
        if (!NativeMemory::isFunctionAddress(addr))
            throw NativeTrap(addr, false);
        unsigned id = NativeMemory::functionId(addr);
        if (id >= module_->functions().size())
            throw NativeTrap(addr, false);
        callee = module_->functionById(id);
    }

    std::vector<NValue> args;
    args.reserve(inst.numOperands() - 1);
    for (size_t i = 1; i < inst.numOperands(); i++)
        args.push_back(evalOperand(inst.operand(i), frame));

    if (callee->isDeclaration()) {
        if (callee->isIntrinsic())
            return callIntrinsic(callee, &inst, args, frame);
        throw EngineError("call to undefined function '" + callee->name() +
                          "'");
    }

    // libc interceptors (compile-time instrumentation tools wrap known
    // library calls with argument checks).
    if (hooks_ != nullptr && hooks_->interceptsLibc())
        hooks_->onLibcCall(*mem_, callee->name(), args, inst.loc());

    size_t fixed = callee->numArgs();
    std::vector<NValue> varargs;
    if (args.size() > fixed) {
        varargs.assign(args.begin() + static_cast<long>(fixed), args.end());
        args.resize(fixed);
        // Encode float varargs as raw bits for the stack spill.
        for (size_t j = 0; j < varargs.size(); j++) {
            const Type *arg_type = inst.operand(1 + fixed + j)->type();
            if (arg_type->isFloat()) {
                double d = varargs[j].f;
                if (arg_type->kind() == TypeKind::f32) {
                    float f = static_cast<float>(d);
                    uint32_t fb = 0;
                    std::memcpy(&fb, &f, 4);
                    varargs[j].i = fb;
                } else {
                    std::memcpy(&varargs[j].i, &d, 8);
                }
            }
        }
    }
    return callFunction(callee, std::move(args), varargs);
}

NativeEngine::Intr
NativeEngine::intrinsicId(const Function *fn)
{
    auto it = intrCache_.find(fn);
    if (it != intrCache_.end())
        return it->second;
    static const std::map<std::string, Intr> table = {
        {"malloc", Intr::mallocFn}, {"free", Intr::freeFn},
        {"calloc", Intr::callocFn}, {"realloc", Intr::reallocFn},
        {"__sys_exit", Intr::sysExit}, {"__sys_write", Intr::sysWrite},
        {"__sys_getchar", Intr::sysGetchar},
        {"__sys_alloc_size", Intr::sysAllocSize},
        {"__va_start", Intr::vaStart}, {"__va_arg_ptr", Intr::vaArgPtr},
        {"__va_end", Intr::vaEnd}, {"__va_count", Intr::vaCount},
        {"sqrt", Intr::mSqrt}, {"sin", Intr::mSin}, {"cos", Intr::mCos},
        {"tan", Intr::mTan}, {"atan", Intr::mAtan},
        {"atan2", Intr::mAtan2}, {"exp", Intr::mExp}, {"log", Intr::mLog},
        {"pow", Intr::mPow}, {"floor", Intr::mFloor},
        {"ceil", Intr::mCeil}, {"fabs", Intr::mFabs},
        {"fmod", Intr::mFmod},
    };
    auto found = table.find(fn->name());
    Intr id = found == table.end() ? Intr::unknown : found->second;
    intrCache_[fn] = id;
    return id;
}

NValue
NativeEngine::callIntrinsic(const Function *fn, const Instruction *site,
                            std::vector<NValue> &args, Frame &frame)
{
    switch (intrinsicId(fn)) {
      case Intr::mallocFn:
        return NValue::makeInt(static_cast<int64_t>(
            hooks_ != nullptr
                ? hooks_->onMalloc(*mem_, static_cast<uint64_t>(args[0].i))
                : mem_->heapAlloc(static_cast<uint64_t>(args[0].i))));
      case Intr::callocFn: {
        uint64_t size = static_cast<uint64_t>(args[0].i) *
            static_cast<uint64_t>(args[1].i);
        uint64_t addr = hooks_ != nullptr ? hooks_->onMalloc(*mem_, size)
                                          : mem_->heapAlloc(size);
        std::vector<uint8_t> zeros(size, 0);
        mem_->writeBytes(addr, zeros.data(), size);
        if (trackDefined_)
            hooks_->storeDefined(*mem_, addr, static_cast<unsigned>(size),
                                 true);
        return NValue::makeInt(static_cast<int64_t>(addr));
      }
      case Intr::reallocFn: {
        uint64_t addr = static_cast<uint64_t>(args[0].i);
        uint64_t size = static_cast<uint64_t>(args[1].i);
        return NValue::makeInt(static_cast<int64_t>(
            hooks_ != nullptr ? hooks_->onRealloc(*mem_, addr, size)
                              : mem_->heapRealloc(addr, size)));
      }
      case Intr::freeFn: {
        uint64_t addr = static_cast<uint64_t>(args[0].i);
        if (hooks_ != nullptr)
            hooks_->onFree(*mem_, addr,
                           site != nullptr ? site->loc() : SourceLoc{});
        else if (addr != 0)
            mem_->heapFree(addr);
        return NValue{};
      }
      case Intr::sysExit:
        throw GuestExit(static_cast<int>(args[0].i));
      case Intr::sysWrite: {
        int fd = static_cast<int>(args[0].i);
        uint64_t buf = static_cast<uint64_t>(args[1].i);
        uint64_t len = static_cast<uint64_t>(args[2].i);
        if (frame.checked && len > 0) {
            hooks_->onLoad(*mem_, buf, static_cast<unsigned>(len),
                           site != nullptr ? site->loc() : SourceLoc{});
        }
        std::string data(len, '\0');
        mem_->readBytes(buf, data.data(), len);
        io_.write(fd, data.data(), data.size());
        return NValue::makeInt(static_cast<int64_t>(len));
      }
      case Intr::sysGetchar:
        return NValue::makeInt(io_.getChar());
      case Intr::sysAllocSize:
        return NValue::makeInt(static_cast<int64_t>(
            mem_->blockSize(static_cast<uint64_t>(args[0].i))));
      case Intr::vaStart: {
        uint64_t desc = mem_->stackAlloc(16);
        mem_->writeInt(desc, 8, frame.vaSpill);
        mem_->writeInt(desc + 8, 8, 0);
        if (trackDefined_)
            hooks_->storeDefined(*mem_, desc, 16, true);
        return NValue::makeInt(static_cast<int64_t>(desc));
      }
      case Intr::vaArgPtr: {
        uint64_t desc = static_cast<uint64_t>(args[0].i);
        uint64_t base = mem_->readInt(desc, 8);
        uint64_t index = mem_->readInt(desc + 8, 8);
        mem_->writeInt(desc + 8, 8, index + 1);
        // No bounds check: reading past the register save area silently
        // yields stack garbage, exactly like the real machine.
        return NValue::makeInt(static_cast<int64_t>(base + index * 8));
      }
      case Intr::vaEnd:
        return NValue{};
      case Intr::vaCount:
        return NValue::makeInt(static_cast<int64_t>(frame.vaCount));
      case Intr::mSqrt: return NValue::makeFP(std::sqrt(args[0].f));
      case Intr::mSin: return NValue::makeFP(std::sin(args[0].f));
      case Intr::mCos: return NValue::makeFP(std::cos(args[0].f));
      case Intr::mTan: return NValue::makeFP(std::tan(args[0].f));
      case Intr::mAtan: return NValue::makeFP(std::atan(args[0].f));
      case Intr::mAtan2:
        return NValue::makeFP(std::atan2(args[0].f, args[1].f));
      case Intr::mExp: return NValue::makeFP(std::exp(args[0].f));
      case Intr::mLog: return NValue::makeFP(std::log(args[0].f));
      case Intr::mPow:
        return NValue::makeFP(std::pow(args[0].f, args[1].f));
      case Intr::mFloor: return NValue::makeFP(std::floor(args[0].f));
      case Intr::mCeil: return NValue::makeFP(std::ceil(args[0].f));
      case Intr::mFabs: return NValue::makeFP(std::fabs(args[0].f));
      case Intr::mFmod:
        return NValue::makeFP(std::fmod(args[0].f, args[1].f));
      case Intr::unknown:
        break;
    }
    throw EngineError("unknown intrinsic '" + fn->name() + "'");
}

} // namespace sulong
