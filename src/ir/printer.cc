#include "ir/printer.h"

#include <sstream>

namespace sulong
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::alloca_: return "alloca";
      case Opcode::load: return "load";
      case Opcode::store: return "store";
      case Opcode::gep: return "gep";
      case Opcode::add: return "add";
      case Opcode::sub: return "sub";
      case Opcode::mul: return "mul";
      case Opcode::sdiv: return "sdiv";
      case Opcode::udiv: return "udiv";
      case Opcode::srem: return "srem";
      case Opcode::urem: return "urem";
      case Opcode::and_: return "and";
      case Opcode::or_: return "or";
      case Opcode::xor_: return "xor";
      case Opcode::shl: return "shl";
      case Opcode::lshr: return "lshr";
      case Opcode::ashr: return "ashr";
      case Opcode::fadd: return "fadd";
      case Opcode::fsub: return "fsub";
      case Opcode::fmul: return "fmul";
      case Opcode::fdiv: return "fdiv";
      case Opcode::frem: return "frem";
      case Opcode::fneg: return "fneg";
      case Opcode::icmp: return "icmp";
      case Opcode::fcmp: return "fcmp";
      case Opcode::trunc: return "trunc";
      case Opcode::zext: return "zext";
      case Opcode::sext: return "sext";
      case Opcode::fptosi: return "fptosi";
      case Opcode::fptoui: return "fptoui";
      case Opcode::sitofp: return "sitofp";
      case Opcode::uitofp: return "uitofp";
      case Opcode::fpext: return "fpext";
      case Opcode::fptrunc: return "fptrunc";
      case Opcode::ptrtoint: return "ptrtoint";
      case Opcode::inttoptr: return "inttoptr";
      case Opcode::select: return "select";
      case Opcode::call: return "call";
      case Opcode::br: return "br";
      case Opcode::condbr: return "condbr";
      case Opcode::ret: return "ret";
      case Opcode::unreachable_: return "unreachable";
      case Opcode::p2Move: return "p2.move";
      case Opcode::p2Ret: return "p2.ret";
      case Opcode::p2CallDirect: return "p2.call.direct";
      case Opcode::p2CallIndirect: return "p2.call.indirect";
    }
    return "<bad-op>";
}

const char *
intPredName(IntPred pred)
{
    switch (pred) {
      case IntPred::eq: return "eq";
      case IntPred::ne: return "ne";
      case IntPred::slt: return "slt";
      case IntPred::sle: return "sle";
      case IntPred::sgt: return "sgt";
      case IntPred::sge: return "sge";
      case IntPred::ult: return "ult";
      case IntPred::ule: return "ule";
      case IntPred::ugt: return "ugt";
      case IntPred::uge: return "uge";
    }
    return "<bad-pred>";
}

const char *
floatPredName(FloatPred pred)
{
    switch (pred) {
      case FloatPred::oeq: return "oeq";
      case FloatPred::one: return "one";
      case FloatPred::olt: return "olt";
      case FloatPred::ole: return "ole";
      case FloatPred::ogt: return "ogt";
      case FloatPred::oge: return "oge";
      case FloatPred::une: return "une";
    }
    return "<bad-pred>";
}

namespace
{

std::string
valueRef(const Value *v)
{
    if (v == nullptr)
        return "<null>";
    switch (v->valueKind()) {
      case ValueKind::constantInt: {
        auto *c = static_cast<const ConstantInt *>(v);
        return std::to_string(c->value());
      }
      case ValueKind::constantFP: {
        auto *c = static_cast<const ConstantFP *>(v);
        std::ostringstream os;
        os << c->value();
        std::string text = os.str();
        // Keep the text unambiguously floating-point for the parser.
        if (text.find('.') == std::string::npos &&
            text.find('e') == std::string::npos &&
            text.find("inf") == std::string::npos &&
            text.find("nan") == std::string::npos) {
            text += ".0";
        }
        return text;
      }
      case ValueKind::constantNull:
        return "null";
      case ValueKind::global:
        return "@" + v->name();
      case ValueKind::function:
        return "@" + v->name();
      case ValueKind::argument: {
        auto *arg = static_cast<const Argument *>(v);
        std::string text = "%a";
        text += std::to_string(arg->index());
        return text;
      }
      case ValueKind::instruction: {
        auto *inst = static_cast<const Instruction *>(v);
        std::string text = "%";
        text += std::to_string(inst->slot());
        return text;
      }
    }
    return "<bad-value>";
}

void
printInit(std::ostringstream &os, const Initializer &init)
{
    switch (init.kind) {
      case Initializer::Kind::zero:
        os << "zeroinitializer";
        break;
      case Initializer::Kind::intVal:
        os << init.intValue;
        break;
      case Initializer::Kind::fpVal: {
        std::ostringstream tmp;
        tmp << init.fpValue;
        std::string text = tmp.str();
        if (text.find('.') == std::string::npos &&
            text.find('e') == std::string::npos) {
            text += ".0";
        }
        os << text;
        break;
      }
      case Initializer::Kind::bytes:
        os << "c\"";
        for (char c : init.bytes) {
            if (c >= 32 && c < 127 && c != '"' && c != '\\')
                os << c;
            else {
                static const char *hex = "0123456789ABCDEF";
                os << "\\" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            }
        }
        os << "\"";
        break;
      case Initializer::Kind::array:
      case Initializer::Kind::structVal:
        os << (init.kind == Initializer::Kind::array ? "[" : "{");
        for (size_t i = 0; i < init.elems.size(); i++) {
            if (i)
                os << ", ";
            printInit(os, init.elems[i]);
        }
        os << (init.kind == Initializer::Kind::array ? "]" : "}");
        break;
      case Initializer::Kind::globalRef:
        os << "@" << init.global->name();
        if (init.addend != 0)
            os << "+" << init.addend;
        break;
      case Initializer::Kind::functionRef:
        os << "@" << init.function->name();
        break;
    }
}

} // namespace

std::string
printInstruction(const Instruction &inst)
{
    std::ostringstream os;
    if (inst.producesValue())
        os << "%" << inst.slot() << " = ";
    os << opcodeName(inst.op());
    switch (inst.op()) {
      case Opcode::alloca_:
        os << " " << inst.accessType()->toString();
        break;
      case Opcode::load:
        os << " " << inst.accessType()->toString() << ", "
           << valueRef(inst.operand(0));
        break;
      case Opcode::store:
        os << " " << inst.accessType()->toString() << " "
           << valueRef(inst.operand(0)) << ", " << valueRef(inst.operand(1));
        break;
      case Opcode::gep:
        os << " " << valueRef(inst.operand(0)) << " + "
           << inst.gepConstOffset();
        if (inst.numOperands() > 1) {
            os << " + " << valueRef(inst.operand(1)) << " * "
               << inst.gepScale();
        }
        break;
      case Opcode::icmp:
        os << " " << intPredName(inst.intPred()) << " "
           << valueRef(inst.operand(0)) << ", " << valueRef(inst.operand(1));
        break;
      case Opcode::fcmp:
        os << " " << floatPredName(inst.floatPred()) << " "
           << valueRef(inst.operand(0)) << ", " << valueRef(inst.operand(1));
        break;
      case Opcode::br:
        os << " ^" << inst.target(0)->name();
        break;
      case Opcode::condbr:
        os << " " << valueRef(inst.operand(0)) << ", ^"
           << inst.target(0)->name() << ", ^" << inst.target(1)->name();
        break;
      case Opcode::call:
        os << " " << inst.type()->toString() << " "
           << valueRef(inst.operand(0)) << "(";
        for (size_t i = 1; i < inst.numOperands(); i++) {
            if (i > 1)
                os << ", ";
            os << valueRef(inst.operand(i));
        }
        os << ")";
        break;
      default: {
        bool first = true;
        for (Value *operand : inst.operands()) {
            os << (first ? " " : ", ") << valueRef(operand);
            first = false;
        }
        if (inst.op() == Opcode::trunc || inst.op() == Opcode::zext ||
            inst.op() == Opcode::sext || inst.op() == Opcode::fptosi ||
            inst.op() == Opcode::fptoui || inst.op() == Opcode::sitofp ||
            inst.op() == Opcode::uitofp || inst.op() == Opcode::fpext ||
            inst.op() == Opcode::fptrunc || inst.op() == Opcode::ptrtoint ||
            inst.op() == Opcode::inttoptr) {
            os << " to " << inst.type()->toString();
        }
        break;
      }
    }
    return os.str();
}

std::string
printFunction(const Function &fn)
{
    std::ostringstream os;
    os << (fn.isDeclaration() ? "declare " : "define ")
       << fn.returnType()->toString() << " @" << fn.name() << "(";
    for (unsigned i = 0; i < fn.numArgs(); i++) {
        if (i)
            os << ", ";
        os << fn.arg(i)->type()->toString() << " %a" << i;
    }
    if (fn.isVarArg())
        os << (fn.numArgs() ? ", ..." : "...");
    os << ")";
    if (fn.isDeclaration()) {
        os << (fn.isIntrinsic() ? " ; intrinsic" : "") << "\n";
        return os.str();
    }
    os << " {\n";
    for (const auto &bb : fn.blocks()) {
        os << bb->name() << ":\n";
        for (const auto &inst : bb->insts())
            os << "    " << printInstruction(*inst) << "\n";
    }
    os << "}\n";
    return os.str();
}

std::string
printModule(const Module &module)
{
    std::ostringstream os;
    for (const auto &g : module.globals()) {
        os << "@" << g->name() << " = "
           << (g->isConst() ? "constant " : "global ")
           << g->valueType()->toString() << " ";
        printInit(os, g->init());
        os << "\n";
    }
    if (!module.globals().empty())
        os << "\n";
    for (const auto &fn : module.functions())
        os << printFunction(*fn) << "\n";
    return os.str();
}

} // namespace sulong
