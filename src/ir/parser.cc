#include "ir/parser.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "support/string_utils.h"

namespace sulong
{

namespace
{

/** Thrown internally; converted to IRParseResult.error. */
struct IRParseError
{
    int line;
    std::string message;
};

/**
 * Line-oriented recursive-descent parser over the printer's format.
 */
class IRParser
{
  public:
    explicit IRParser(const std::string &text)
        : lines_(split(text, '\n')), module_(std::make_unique<Module>())
    {}

    std::unique_ptr<Module>
    run()
    {
        // Pass 1: register all globals (zero-init) and function
        // signatures so cross references resolve in any order.
        for (lineNo_ = 0; lineNo_ < lines_.size(); lineNo_++) {
            std::string_view line = trim(lines_[lineNo_]);
            if (line.empty())
                continue;
            if (line[0] == '@')
                registerGlobal(line);
            else if (line.rfind("define ", 0) == 0 ||
                     line.rfind("declare ", 0) == 0)
                registerFunction(line);
        }
        // Pass 2: global initializers and function bodies.
        for (lineNo_ = 0; lineNo_ < lines_.size(); lineNo_++) {
            std::string_view line = trim(lines_[lineNo_]);
            if (line.empty())
                continue;
            if (line[0] == '@')
                parseGlobalInit(line);
            else if (line.rfind("define ", 0) == 0)
                parseFunctionBody(line);
        }
        module_->finalize();
        return std::move(module_);
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw IRParseError{static_cast<int>(lineNo_) + 1, message};
    }

    // --- Token scanning over one line ----------------------------------

    std::string_view cur_;
    size_t pos_ = 0;

    void
    beginLine(std::string_view line)
    {
        cur_ = line;
        pos_ = 0;
    }

    void
    skipSpace()
    {
        while (pos_ < cur_.size() && cur_[pos_] == ' ')
            pos_++;
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= cur_.size() || cur_[pos_] == ';';
    }

    char
    peek()
    {
        skipSpace();
        return pos_ < cur_.size() ? cur_[pos_] : '\0';
    }

    bool
    accept(char c)
    {
        if (peek() != c)
            return false;
        pos_++;
        return true;
    }

    void
    expect(char c)
    {
        if (!accept(c))
            fail(std::string("expected '") + c + "'");
    }

    bool
    acceptWord(std::string_view word)
    {
        skipSpace();
        if (cur_.compare(pos_, word.size(), word) != 0)
            return false;
        size_t end = pos_ + word.size();
        if (end < cur_.size() &&
            (std::isalnum(static_cast<unsigned char>(cur_[end])) ||
             cur_[end] == '_' || cur_[end] == '.')) {
            return false;
        }
        pos_ = end;
        return true;
    }

    std::string
    word()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < cur_.size() &&
               (std::isalnum(static_cast<unsigned char>(cur_[pos_])) ||
                cur_[pos_] == '_' || cur_[pos_] == '.')) {
            pos_++;
        }
        if (pos_ == start)
            fail("expected an identifier");
        return std::string(cur_.substr(start, pos_ - start));
    }

    int64_t
    integer()
    {
        skipSpace();
        size_t start = pos_;
        if (pos_ < cur_.size() && (cur_[pos_] == '-' || cur_[pos_] == '+'))
            pos_++;
        while (pos_ < cur_.size() &&
               std::isdigit(static_cast<unsigned char>(cur_[pos_]))) {
            pos_++;
        }
        if (pos_ == start)
            fail("expected an integer");
        return std::strtoll(std::string(cur_.substr(start, pos_ - start))
                                .c_str(), nullptr, 10);
    }

    /** Number token; true when it contained '.', 'e', or "inf"/"nan". */
    bool
    number(int64_t &int_out, double &fp_out)
    {
        skipSpace();
        size_t start = pos_;
        bool fp = false;
        if (pos_ < cur_.size() && (cur_[pos_] == '-' || cur_[pos_] == '+'))
            pos_++;
        while (pos_ < cur_.size() &&
               (std::isdigit(static_cast<unsigned char>(cur_[pos_])) ||
                cur_[pos_] == '.' || cur_[pos_] == 'e' ||
                cur_[pos_] == 'E' ||
                ((cur_[pos_] == '-' || cur_[pos_] == '+') && pos_ > start &&
                 (cur_[pos_ - 1] == 'e' || cur_[pos_ - 1] == 'E')))) {
            if (!std::isdigit(static_cast<unsigned char>(cur_[pos_])))
                fp = true;
            pos_++;
        }
        std::string text(cur_.substr(start, pos_ - start));
        if (text.empty() || text == "-" || text == "+")
            fail("expected a number");
        if (fp) {
            fp_out = std::strtod(text.c_str(), nullptr);
        } else {
            int_out = std::strtoll(text.c_str(), nullptr, 10);
        }
        return fp;
    }

    // --- Types ------------------------------------------------------------

    const Type *
    parseType()
    {
        if (accept('[')) {
            int64_t count = integer();
            if (!acceptWord("x"))
                fail("expected 'x' in array type");
            const Type *elem = parseType();
            expect(']');
            return module_->types().arrayType(
                elem, static_cast<uint64_t>(count));
        }
        if (acceptWord("void")) return module_->types().voidTy();
        if (acceptWord("i1")) return module_->types().i1();
        if (acceptWord("i8")) return module_->types().i8();
        if (acceptWord("i16")) return module_->types().i16();
        if (acceptWord("i32")) return module_->types().i32();
        if (acceptWord("i64")) return module_->types().i64();
        if (acceptWord("float")) return module_->types().f32();
        if (acceptWord("double")) return module_->types().f64();
        if (acceptWord("ptr")) return module_->types().ptr();
        if (peek() == '%')
            fail("struct types cannot be reconstructed from text");
        fail("expected a type");
    }

    // --- Pass 1: symbols ---------------------------------------------------

    void
    registerGlobal(std::string_view line)
    {
        beginLine(line);
        expect('@');
        std::string name = word();
        expect('=');
        bool is_const = acceptWord("constant");
        if (!is_const && !acceptWord("global"))
            fail("expected 'global' or 'constant'");
        const Type *type = parseType();
        module_->addGlobal(type, name, Initializer::makeZero(), is_const);
        // Initializer text parsed in pass 2.
    }

    void
    registerFunction(std::string_view line)
    {
        beginLine(line);
        bool is_decl = acceptWord("declare");
        if (!is_decl && !acceptWord("define"))
            fail("expected 'define' or 'declare'");
        const Type *ret = parseType();
        expect('@');
        std::string name = word();
        expect('(');
        std::vector<const Type *> params;
        bool var_arg = false;
        if (!accept(')')) {
            while (true) {
                if (accept('.')) {
                    expect('.');
                    expect('.');
                    var_arg = true;
                    break;
                }
                params.push_back(parseType());
                // Optional parameter name "%aN".
                if (accept('%'))
                    word();
                if (!accept(','))
                    break;
            }
            if (peek() == ')')
                pos_++;
        }
        Function *fn = module_->addFunction(
            module_->types().functionType(ret, params, var_arg), name);
        // "; intrinsic" marker on declarations.
        skipSpace();
        if (cur_.find("intrinsic", pos_) != std::string_view::npos)
            fn->setIntrinsic(true);
    }

    // --- Pass 2: globals -----------------------------------------------------

    Initializer
    parseInit(const Type *type)
    {
        if (acceptWord("zeroinitializer"))
            return Initializer::makeZero();
        if (peek() == 'c' && pos_ + 1 < cur_.size() &&
            cur_[pos_ + 1] == '"') {
            pos_ += 2;
            std::string bytes;
            while (pos_ < cur_.size() && cur_[pos_] != '"') {
                if (cur_[pos_] == '\\' && pos_ + 2 < cur_.size()) {
                    auto hex = [](char c) {
                        return std::isdigit(static_cast<unsigned char>(c))
                            ? c - '0' : (std::toupper(c) - 'A' + 10);
                    };
                    bytes.push_back(static_cast<char>(
                        hex(cur_[pos_ + 1]) * 16 + hex(cur_[pos_ + 2])));
                    pos_ += 3;
                } else {
                    bytes.push_back(cur_[pos_]);
                    pos_++;
                }
            }
            expect('"');
            return Initializer::makeBytes(std::move(bytes));
        }
        if (accept('[')) {
            Initializer init;
            init.kind = Initializer::Kind::array;
            const Type *elem = type->isArray() ? type->elemType() : type;
            if (!accept(']')) {
                do {
                    init.elems.push_back(parseInit(elem));
                } while (accept(','));
                expect(']');
            }
            return init;
        }
        if (accept('@')) {
            std::string name = word();
            int64_t addend = 0;
            if (accept('+'))
                addend = integer();
            if (GlobalVariable *g = module_->findGlobal(name))
                return Initializer::makeGlobalRef(g, addend);
            if (Function *fn = module_->findFunction(name))
                return Initializer::makeFunctionRef(fn);
            fail("unknown symbol @" + name);
        }
        int64_t int_value = 0;
        double fp_value = 0;
        if (number(int_value, fp_value) || (type != nullptr &&
                                            type->isFloat())) {
            if (type != nullptr && type->isFloat()) {
                return Initializer::makeFP(
                    fp_value != 0 ? fp_value
                                  : static_cast<double>(int_value));
            }
            return Initializer::makeFP(fp_value);
        }
        return Initializer::makeInt(int_value);
    }

    void
    parseGlobalInit(std::string_view line)
    {
        beginLine(line);
        expect('@');
        std::string name = word();
        expect('=');
        acceptWord("constant") || acceptWord("global");
        const Type *type = parseType();
        GlobalVariable *g = module_->findGlobal(name);
        if (!atEnd())
            g->setInit(parseInit(type));
    }

    // --- Pass 2: function bodies -----------------------------------------------

    struct OperandRef
    {
        Instruction *inst;
        size_t index;
        int slot;
        /// Constant spelled inline; typed after slot resolution.
        bool isConstant = false;
        bool isFP = false;
        int64_t intValue = 0;
        double fpValue = 0;
        bool isNull = false;
        std::string symbol; ///< @name reference
        /// Expected type when the context dictates one (may be null).
        const Type *expected = nullptr;
    };

    Function *fn_ = nullptr;
    std::map<int, Instruction *> slotDefs_;
    std::map<std::string, BasicBlock *> blocks_;
    std::vector<OperandRef> fixups_;

    /** Scan one operand token into a fixup record. */
    OperandRef
    scanOperand(const Type *expected)
    {
        OperandRef ref;
        ref.expected = expected;
        skipSpace();
        if (accept('%')) {
            if (peek() == 'a') {
                pos_++;
                ref.slot = static_cast<int>(integer());
                ref.isConstant = false;
                // Arguments occupy the first slots.
                return ref;
            }
            ref.slot = static_cast<int>(integer());
            return ref;
        }
        if (accept('@')) {
            ref.symbol = word();
            ref.isConstant = true;
            return ref;
        }
        if (acceptWord("null")) {
            ref.isConstant = true;
            ref.isNull = true;
            return ref;
        }
        ref.isConstant = true;
        ref.isFP = number(ref.intValue, ref.fpValue);
        return ref;
    }

    void
    addOperand(Instruction *inst, const Type *expected)
    {
        OperandRef ref = scanOperand(expected);
        ref.inst = inst;
        ref.index = inst->numOperands();
        inst->addOperand(nullptr); // placeholder
        fixups_.push_back(std::move(ref));
    }

    Value *
    resolve(const OperandRef &ref)
    {
        if (!ref.isConstant) {
            if (ref.slot < static_cast<int>(fn_->numArgs()))
                return fn_->arg(static_cast<unsigned>(ref.slot));
            auto it = slotDefs_.find(ref.slot);
            if (it == slotDefs_.end()) {
                throw IRParseError{0, "undefined slot %" +
                                          std::to_string(ref.slot)};
            }
            return it->second;
        }
        if (!ref.symbol.empty()) {
            if (GlobalVariable *g = module_->findGlobal(ref.symbol))
                return g;
            if (Function *fn = module_->findFunction(ref.symbol))
                return fn;
            throw IRParseError{0, "unknown symbol @" + ref.symbol};
        }
        if (ref.isNull)
            return module_->constNull();
        const Type *type = ref.expected;
        if (type == nullptr)
            type = ref.isFP ? module_->types().f64()
                            : module_->types().i32();
        if (type->isFloat()) {
            return module_->constFP(type, ref.isFP
                                              ? ref.fpValue
                                              : static_cast<double>(
                                                    ref.intValue));
        }
        if (type->isPointer()) {
            if (ref.intValue == 0)
                return module_->constNull();
            throw IRParseError{0, "non-null pointer literal"};
        }
        return module_->constInt(type, ref.intValue);
    }

    BasicBlock *
    blockNamed(const std::string &name)
    {
        auto it = blocks_.find(name);
        if (it == blocks_.end())
            fail("unknown block ^" + name);
        return it->second;
    }

    void
    parseFunctionBody(std::string_view header)
    {
        beginLine(header);
        acceptWord("define");
        parseType();
        expect('@');
        std::string name = word();
        fn_ = module_->findFunction(name);
        slotDefs_.clear();
        blocks_.clear();
        fixups_.clear();

        // Pre-scan labels to allow forward branch targets.
        size_t body_start = lineNo_ + 1;
        for (size_t i = body_start; i < lines_.size(); i++) {
            std::string_view line = trim(lines_[i]);
            if (line == "}")
                break;
            if (!line.empty() && line.back() == ':' &&
                line.find(' ') == std::string_view::npos) {
                blocks_[std::string(line.substr(0, line.size() - 1))] =
                    fn_->addBlock(
                        std::string(line.substr(0, line.size() - 1)));
            }
        }

        BasicBlock *current = nullptr;
        for (lineNo_ = body_start; lineNo_ < lines_.size(); lineNo_++) {
            std::string_view line = trim(lines_[lineNo_]);
            if (line == "}")
                break;
            if (line.empty())
                continue;
            if (line.back() == ':' &&
                line.find(' ') == std::string_view::npos) {
                current = blockNamed(
                    std::string(line.substr(0, line.size() - 1)));
                continue;
            }
            if (current == nullptr)
                fail("instruction before the first label");
            parseInstruction(line, current);
        }

        // Number result slots in textual order, then resolve operands.
        fn_->numberSlots();
        for (const OperandRef &ref : fixups_) {
            try {
                ref.inst->setOperand(ref.index, resolve(ref));
            } catch (IRParseError &e) {
                e.line = static_cast<int>(lineNo_) + 1;
                throw;
            }
        }
        // Infer untyped binop constant operands from their siblings.
        retypeConstants();
    }

    /**
     * Binops, fneg, and select carry no explicit result type in the
     * textual syntax: infer it from the first non-constant operand, then
     * retype inline integer constants to match (two passes so chains of
     * inferred results converge).
     */
    void
    retypeConstants()
    {
        for (int round = 0; round < 2; round++) {
            for (const auto &bb : fn_->blocks()) {
                for (const auto &inst : bb->insts()) {
                    bool infer_result = false;
                    switch (inst->op()) {
                      case Opcode::add: case Opcode::sub: case Opcode::mul:
                      case Opcode::sdiv: case Opcode::udiv:
                      case Opcode::srem: case Opcode::urem:
                      case Opcode::and_: case Opcode::or_:
                      case Opcode::xor_: case Opcode::shl:
                      case Opcode::lshr: case Opcode::ashr:
                      case Opcode::fadd: case Opcode::fsub:
                      case Opcode::fmul: case Opcode::fdiv:
                      case Opcode::frem: case Opcode::fneg:
                        infer_result = true;
                        break;
                      case Opcode::icmp:
                        break;
                      case Opcode::select: {
                        for (size_t i = 1; i < inst->numOperands(); i++) {
                            Value *v = inst->operand(i);
                            if (!v->isConstant())
                                inst->setResultType(v->type());
                        }
                        continue;
                      }
                      default:
                        continue;
                    }
                    const Type *want = nullptr;
                    for (Value *v : inst->operands()) {
                        if (!v->isConstant()) {
                            want = v->type();
                            break;
                        }
                    }
                    if (want == nullptr) {
                        // All-constant: keep the guess — except for icmp,
                        // whose result type (i1) says nothing about its
                        // operands; retyping `icmp eq 3, 16` to i1 would
                        // truncate the constants. Keep their parsed type.
                        want = inst->op() == Opcode::icmp
                            ? inst->operand(0)->type()
                            : inst->type();
                    }
                    if (infer_result)
                        inst->setResultType(want);
                    for (size_t i = 0; i < inst->numOperands(); i++) {
                        Value *v = inst->operand(i);
                        if (want->isInteger() &&
                            v->valueKind() == ValueKind::constantInt &&
                            v->type() != want) {
                            inst->setOperand(i, module_->constInt(
                                want,
                                static_cast<ConstantInt *>(v)->value()));
                        } else if (want->isFloat() &&
                                   v->isConstant() &&
                                   v->type() != want) {
                            double d =
                                v->valueKind() == ValueKind::constantFP
                                    ? static_cast<ConstantFP *>(v)->value()
                                    : static_cast<double>(
                                          static_cast<ConstantInt *>(v)
                                              ->value());
                            inst->setOperand(i,
                                             module_->constFP(want, d));
                        }
                    }
                }
            }
        }
    }

    void
    parseInstruction(std::string_view line, BasicBlock *bb)
    {
        beginLine(line);
        int result_slot = -1;
        if (accept('%')) {
            result_slot = static_cast<int>(integer());
            expect('=');
        }
        std::string op = word();
        Instruction *inst = nullptr;

        auto make = [&](Opcode opcode, const Type *result) {
            auto owned = std::make_unique<Instruction>(opcode, result);
            inst = bb->append(std::move(owned));
            return inst;
        };

        static const std::map<std::string, Opcode> binops = {
            {"add", Opcode::add}, {"sub", Opcode::sub},
            {"mul", Opcode::mul}, {"sdiv", Opcode::sdiv},
            {"udiv", Opcode::udiv}, {"srem", Opcode::srem},
            {"urem", Opcode::urem}, {"and", Opcode::and_},
            {"or", Opcode::or_}, {"xor", Opcode::xor_},
            {"shl", Opcode::shl}, {"lshr", Opcode::lshr},
            {"ashr", Opcode::ashr}, {"fadd", Opcode::fadd},
            {"fsub", Opcode::fsub}, {"fmul", Opcode::fmul},
            {"fdiv", Opcode::fdiv}, {"frem", Opcode::frem},
        };
        static const std::map<std::string, Opcode> casts = {
            {"trunc", Opcode::trunc}, {"zext", Opcode::zext},
            {"sext", Opcode::sext}, {"fptosi", Opcode::fptosi},
            {"fptoui", Opcode::fptoui}, {"sitofp", Opcode::sitofp},
            {"uitofp", Opcode::uitofp}, {"fpext", Opcode::fpext},
            {"fptrunc", Opcode::fptrunc},
            {"ptrtoint", Opcode::ptrtoint},
            {"inttoptr", Opcode::inttoptr},
        };
        static const std::map<std::string, IntPred> ipreds = {
            {"eq", IntPred::eq}, {"ne", IntPred::ne},
            {"slt", IntPred::slt}, {"sle", IntPred::sle},
            {"sgt", IntPred::sgt}, {"sge", IntPred::sge},
            {"ult", IntPred::ult}, {"ule", IntPred::ule},
            {"ugt", IntPred::ugt}, {"uge", IntPred::uge},
        };
        static const std::map<std::string, FloatPred> fpreds = {
            {"oeq", FloatPred::oeq}, {"one", FloatPred::one},
            {"olt", FloatPred::olt}, {"ole", FloatPred::ole},
            {"ogt", FloatPred::ogt}, {"oge", FloatPred::oge},
            {"une", FloatPred::une},
        };

        if (op == "alloca") {
            const Type *allocated = parseType();
            make(Opcode::alloca_, module_->types().ptr());
            inst->setAccessType(allocated);
        } else if (op == "load") {
            const Type *type = parseType();
            expect(',');
            make(Opcode::load, type);
            inst->setAccessType(type);
            addOperand(inst, nullptr);
        } else if (op == "store") {
            const Type *type = parseType();
            make(Opcode::store, module_->types().voidTy());
            inst->setAccessType(type);
            addOperand(inst, type);
            expect(',');
            addOperand(inst, nullptr);
        } else if (op == "gep") {
            make(Opcode::gep, module_->types().ptr());
            addOperand(inst, nullptr); // base
            expect('+');
            int64_t const_off = integer();
            uint64_t scale = 0;
            if (accept('+')) {
                addOperand(inst, module_->types().i64());
                expect('*');
                scale = static_cast<uint64_t>(integer());
            }
            inst->setGep(const_off, scale);
        } else if (binops.count(op)) {
            Opcode opcode = binops.at(op);
            bool is_float = op[0] == 'f';
            // Result type resolved after operands; start with a guess
            // refined by retypeConstants()/sibling inference.
            const Type *guess = is_float ? module_->types().f64()
                                         : module_->types().i32();
            make(opcode, guess);
            addOperand(inst, nullptr);
            expect(',');
            addOperand(inst, nullptr);
        } else if (op == "fneg") {
            make(Opcode::fneg, module_->types().f64());
            addOperand(inst, nullptr);
        } else if (op == "icmp") {
            std::string pred = word();
            if (!ipreds.count(pred))
                fail("unknown icmp predicate " + pred);
            make(Opcode::icmp, module_->types().i1());
            inst->setIntPred(ipreds.at(pred));
            addOperand(inst, nullptr);
            expect(',');
            addOperand(inst, nullptr);
        } else if (op == "fcmp") {
            std::string pred = word();
            if (!fpreds.count(pred))
                fail("unknown fcmp predicate " + pred);
            make(Opcode::fcmp, module_->types().i1());
            inst->setFloatPred(fpreds.at(pred));
            addOperand(inst, nullptr);
            expect(',');
            addOperand(inst, nullptr);
        } else if (casts.count(op)) {
            make(casts.at(op), module_->types().i32());
            addOperand(inst, nullptr);
            if (!acceptWord("to"))
                fail("expected 'to' in cast");
            inst->setResultType(parseType());
        } else if (op == "select") {
            make(Opcode::select, module_->types().i32());
            addOperand(inst, nullptr);
            expect(',');
            addOperand(inst, nullptr);
            expect(',');
            addOperand(inst, nullptr);
        } else if (op == "call") {
            const Type *ret = parseType();
            make(Opcode::call, ret);
            // Direct calls type their constant arguments from the callee
            // signature (registered in pass 1).
            const Type *fn_type = nullptr;
            skipSpace();
            if (peek() == '@') {
                size_t save = pos_;
                pos_++;
                std::string callee = word();
                pos_ = save;
                if (const Function *callee_fn =
                        module_->findFunction(callee)) {
                    fn_type = callee_fn->fnType();
                }
            }
            addOperand(inst, nullptr); // callee
            expect('(');
            if (!accept(')')) {
                size_t arg_index = 0;
                do {
                    const Type *expected = nullptr;
                    if (fn_type != nullptr &&
                        arg_index < fn_type->paramTypes().size()) {
                        expected = fn_type->paramTypes()[arg_index];
                    }
                    addOperand(inst, expected);
                    arg_index++;
                } while (accept(','));
                expect(')');
            }
        } else if (op == "br") {
            make(Opcode::br, module_->types().voidTy());
            expect('^');
            inst->setTargets(blockNamed(word()));
        } else if (op == "condbr") {
            make(Opcode::condbr, module_->types().voidTy());
            addOperand(inst, module_->types().i1());
            expect(',');
            expect('^');
            BasicBlock *t0 = blockNamed(word());
            expect(',');
            expect('^');
            inst->setTargets(t0, blockNamed(word()));
        } else if (op == "ret") {
            make(Opcode::ret, module_->types().voidTy());
            if (!atEnd())
                addOperand(inst, fn_->returnType());
        } else if (op == "unreachable") {
            make(Opcode::unreachable_, module_->types().voidTy());
        } else {
            fail("unknown opcode '" + op + "'");
        }

        if (result_slot >= 0)
            slotDefs_[result_slot] = inst;
    }

    std::vector<std::string> lines_;
    size_t lineNo_ = 0;
    std::unique_ptr<Module> module_;
};

} // namespace

IRParseResult
parseIRModule(const std::string &text)
{
    IRParseResult result;
    try {
        IRParser parser(text);
        result.module = parser.run();
    } catch (const IRParseError &error) {
        result.error = "line " + std::to_string(error.line) + ": " +
            error.message;
    } catch (const InternalError &error) {
        result.error = error.what();
    }
    return result;
}

} // namespace sulong
