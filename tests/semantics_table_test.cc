/**
 * @file
 * Table-driven agreement of every scalar evaluator with ir/semantics.h.
 *
 * Each row is one operation (opcode, predicate, operand and result
 * type) over every pair of its edge operands: 0, ±1, each width's
 * minimum and maximum, shift amounts at the width, 2^24+1, 2^53+1, and
 * for floats ±0, NaN, ±inf and values out of every integer range. The
 * value the header defines must be the value
 * - the constant folder (opt/fold.cc) folds the operation to, when it
 *   folds that opcode;
 * - tier-1, tier-2 (compile threshold 0) and the native engine compute.
 *   The engines run a main() that calls a function receiving the
 *   operands as arguments, so they compute the result instead of
 *   reading a constant; main() stores every result into one buffer and
 *   writes it to stdout, so one run checks a whole row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>

#include "interp/managed_engine.h"
#include "ir/builder.h"
#include "ir/semantics.h"
#include "ir/verifier.h"
#include "native/native_engine.h"
#include "opt/passes.h"

namespace sulong
{
namespace
{

/** A scalar IR type: an integer or float of some width. */
struct Ty
{
    bool fp = false;
    unsigned bits = 32;
};

const Type *
lower(Module &module, Ty ty)
{
    TypeContext &types = module.types();
    if (ty.fp)
        return ty.bits == 32 ? types.f32() : types.f64();
    return types.intType(ty.bits);
}

/** One operation under test. */
struct Op
{
    Opcode op;
    Ty operand;
    Ty result;
    uint8_t pred = 0; ///< IntPred or FloatPred for icmp/fcmp

    bool
    binary() const
    {
        return !(op >= Opcode::trunc && op <= Opcode::fptrunc);
    }

    std::string
    name() const
    {
        std::ostringstream os;
        os << opcodeName(op);
        if (op == Opcode::icmp)
            os << ' ' << intPredName(static_cast<IntPred>(pred));
        if (op == Opcode::fcmp)
            os << ' ' << floatPredName(static_cast<FloatPred>(pred));
        os << ' ' << (operand.fp ? 'f' : 'i') << operand.bits << " -> "
           << (result.fp ? 'f' : 'i') << result.bits;
        return os.str();
    }
};

/** An operand or result: canonical integer bits, or a double. */
struct Scalar
{
    int64_t i = 0;
    double f = 0;
};

struct Operands
{
    Scalar a;
    Scalar b;
};

/** What ir/semantics.h says @p op computes; nullopt: division by zero. */
std::optional<Scalar>
expected(const Op &op, const Operands &x)
{
    Scalar out;
    switch (op.op) {
      case Opcode::icmp:
        out.i = sem::normInt(
            sem::icmp(static_cast<IntPred>(op.pred), x.a.i, x.b.i), 1);
        return out;
      case Opcode::fcmp:
        out.i = sem::normInt(
            sem::fcmp(static_cast<FloatPred>(op.pred), x.a.f, x.b.f), 1);
        return out;
      case Opcode::trunc: case Opcode::zext: case Opcode::sext:
        out.i = sem::intCast(op.op, x.a.i, op.operand.bits, op.result.bits);
        return out;
      case Opcode::fptosi: case Opcode::fptoui:
        out.i = sem::fpToInt(op.op, x.a.f, op.result.bits);
        return out;
      case Opcode::sitofp: case Opcode::uitofp:
        out.f = sem::intToFP(op.op, x.a.i, op.operand.bits, op.result.bits);
        return out;
      case Opcode::fpext: case Opcode::fptrunc:
        out.f = sem::roundFP(x.a.f, op.result.bits);
        return out;
      default:
        break;
    }
    if (op.result.fp) {
        out.f = sem::floatBinOp(op.op, x.a.f, x.b.f, op.result.bits);
        return out;
    }
    std::optional<int64_t> v =
        sem::intBinOp(op.op, x.a.i, x.b.i, op.result.bits);
    if (!v)
        return std::nullopt;
    out.i = *v;
    return out;
}

/** The bytes a store of @p s as @p ty leaves in a zeroed 8-byte slot. */
uint64_t
storedBits(Ty ty, const Scalar &s)
{
    if (ty.fp && ty.bits == 32)
        return std::bit_cast<uint32_t>(static_cast<float>(s.f));
    if (ty.fp)
        return std::bit_cast<uint64_t>(s.f);
    unsigned bytes = ty.bits == 1 ? 1 : ty.bits / 8;
    return sem::zextInt(s.i, bytes * 8);
}

std::string
describe(Ty ty, const Scalar &s)
{
    std::ostringstream os;
    if (ty.fp)
        os << s.f;
    else
        os << s.i;
    return os.str();
}

/** "op iN -> iM (a, b)", naming one row in a message. */
std::string
rowName(const Op &op, const Operands &x)
{
    std::ostringstream os;
    os << op.name() << " (" << describe(op.operand, x.a) << ", "
       << describe(op.operand, x.b) << ")";
    return os.str();
}

/** Record one disagreement, built from @p parts. */
template <typename... Parts>
void
fail(std::vector<std::string> &errors, const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    errors.push_back(os.str());
}

Value *
constant(Module &module, Ty ty, const Scalar &s)
{
    const Type *type = lower(module, ty);
    return ty.fp ? static_cast<Value *>(module.constFP(type, s.f))
                 : static_cast<Value *>(module.constInt(type, s.i));
}

Value *
emit(IRBuilder &b, const Op &op, Value *x, Value *y, const Type *result)
{
    switch (op.op) {
      case Opcode::icmp:
        return b.createICmp(static_cast<IntPred>(op.pred), x, y);
      case Opcode::fcmp:
        return b.createFCmp(static_cast<FloatPred>(op.pred), x, y);
      default:
        return op.binary() ? b.createBinOp(op.op, x, y)
                           : b.createCast(op.op, x, result);
    }
}

/**
 * `R f(A a[, A b]) { return a op b; }` plus a main() that calls f on
 * every row of @p rows, stores each result into a slot of one buffer
 * and writes the buffer to stdout.
 */
std::unique_ptr<Module>
engineModule(const Op &op, const std::vector<Operands> &rows)
{
    auto module = std::make_unique<Module>();
    Module &m = *module;
    TypeContext &types = m.types();
    const Type *a_ty = lower(m, op.operand);
    const Type *r_ty = lower(m, op.result);
    IRBuilder b(m);

    Function *write = m.addFunction(
        types.functionType(types.i64(), {types.i32(), types.ptr(),
                                         types.i64()}, false),
        "__sys_write");
    write->setIntrinsic(true);

    std::vector<const Type *> params{a_ty};
    if (op.binary())
        params.push_back(a_ty);
    Function *f = m.addFunction(types.functionType(r_ty, params, false), "f");
    b.setInsertPoint(f->addBlock("entry"));
    b.createRet(emit(b, op, f->arg(0), op.binary() ? f->arg(1) : nullptr,
                     r_ty));

    Function *main_fn =
        m.addFunction(types.functionType(types.i32(), {}, false), "main");
    b.setInsertPoint(main_fn->addBlock("entry"));
    Instruction *buf =
        b.createAlloca(types.arrayType(types.i64(), rows.size()), "buf");
    for (size_t k = 0; k < rows.size(); k++) {
        Instruction *slot = b.createGep(buf, static_cast<int64_t>(8 * k));
        b.createStore(m.constI64(0), slot);
        std::vector<Value *> args{constant(m, op.operand, rows[k].a)};
        if (op.binary())
            args.push_back(constant(m, op.operand, rows[k].b));
        b.createStore(b.createCall(f, r_ty, args), slot);
    }
    b.createCall(write, types.i64(),
                 {m.constI32(1), buf,
                  m.constI64(static_cast<int64_t>(8 * rows.size()))});
    b.createRet(m.constI32(0));
    m.finalize();
    return module;
}

struct EngineRun
{
    const char *name;
    ExecutionResult result;
};

/** Run @p module on tier-1, tier-2 at threshold 0 and the native engine. */
std::vector<EngineRun>
runEverywhere(const Module &module)
{
    std::vector<EngineRun> runs;
    ManagedOptions tier1;
    tier1.enableTier2 = false;
    runs.push_back({"tier-1", ManagedEngine(tier1).run(module, {}, "")});

    ManagedOptions eager;
    eager.compileThreshold = 0;
    ManagedEngine tier2(eager);
    runs.push_back({"tier-2", tier2.run(module, {}, "")});
    EXPECT_GT(tier2.tier2Functions(), 0u) << "tier-2 compiled nothing";

    runs.push_back({"native", NativeEngine().run(module, {}, "")});
    return runs;
}

/** The engines' results of @p op over @p rows against the header's. */
void
checkEngines(const Op &op, const std::vector<Operands> &rows,
             std::vector<std::string> &errors)
{
    std::unique_ptr<Module> module = engineModule(op, rows);
    ASSERT_TRUE(moduleIsValid(*module)) << op.name();
    for (const EngineRun &run : runEverywhere(*module)) {
        if (!run.result.ok() || run.result.output.size() != 8 * rows.size()) {
            fail(errors, op.name(), " on ", run.name, ": ",
                 run.result.bug.toString());
            continue;
        }
        for (size_t k = 0; k < rows.size(); k++) {
            uint64_t got = 0;
            std::memcpy(&got, run.result.output.data() + 8 * k, 8);
            Scalar want = *expected(op, rows[k]);
            if (got != storedBits(op.result, want)) {
                fail(errors, rowName(op, rows[k]), " on ", run.name,
                     ": want ", describe(op.result, want));
            }
        }
    }
}

/** The opcodes foldInstruction folds. */
bool
folderFolds(Opcode op)
{
    switch (op) {
      case Opcode::frem: case Opcode::fcmp:
      case Opcode::fptosi: case Opcode::fptoui:
        return false;
      default:
        return true;
    }
}

/**
 * The folder's results of @p op over @p rows, one function per row
 * returning the operation on constant operands, against the header's.
 * Division by zero must stay unfolded.
 */
void
checkFolder(const Op &op, const std::vector<Operands> &rows,
            std::vector<std::string> &errors)
{
    if (!folderFolds(op.op))
        return;
    Module m;
    IRBuilder b(m);
    const Type *r_ty = lower(m, op.result);
    std::vector<Function *> fns;
    for (size_t k = 0; k < rows.size(); k++) {
        Function *fn = m.addFunction(m.types().functionType(r_ty, {}, false),
                                     std::to_string(k));
        b.setInsertPoint(fn->addBlock("entry"));
        b.createRet(emit(b, op, constant(m, op.operand, rows[k].a),
                         op.binary() ? constant(m, op.operand, rows[k].b)
                                     : nullptr,
                         r_ty));
        fns.push_back(fn);
    }
    m.finalize();
    foldConstants(m);
    for (size_t k = 0; k < rows.size(); k++) {
        const Value *ret = fns[k]->entry()->terminator()->operand(0);
        std::optional<Scalar> want = expected(op, rows[k]);
        std::string row = rowName(op, rows[k]);
        Scalar got;
        if (ret->valueKind() == ValueKind::constantInt) {
            got.i = static_cast<const ConstantInt *>(ret)->value();
        } else if (ret->valueKind() == ValueKind::constantFP) {
            got.f = static_cast<const ConstantFP *>(ret)->value();
        } else {
            if (want)
                fail(errors, row, " in the folder: not folded");
            continue;
        }
        if (!want) {
            fail(errors, row, " in the folder: folded a division by zero");
            continue;
        }
        if (storedBits(op.result, got) != storedBits(op.result, *want)) {
            fail(errors, row, " in the folder: got ", describe(op.result, got),
                 ", want ", describe(op.result, *want));
        }
    }
}

// --- Operand tables ---------------------------------------------------------

const unsigned kIntWidths[] = {1, 8, 16, 32, 64};

/** Edge integers at @p width, canonical and without repeats. */
std::vector<int64_t>
intEdges(unsigned width)
{
    int64_t min = width == 64 ? INT64_MIN : -(int64_t{1} << (width - 1));
    int64_t max = width == 64 ? INT64_MAX : (int64_t{1} << (width - 1)) - 1;
    const int64_t raw[] = {
        0, 1, -1, 2, -7, width - 1, width, min, max, min + 1,
        (int64_t{1} << 24) + 1, (int64_t{1} << 53) + 1,
        // Rounds differently to float directly than through double.
        (int64_t{1} << 60) + (int64_t{1} << 36) + 1,
    };
    std::vector<int64_t> out;
    for (int64_t v : raw) {
        int64_t c = sem::normInt(static_cast<uint64_t>(v), width);
        if (std::find(out.begin(), out.end(), c) == out.end())
            out.push_back(c);
    }
    return out;
}

/** Edge floats at @p width, rounded to it and without repeats. */
std::vector<double>
floatEdges(unsigned width)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double raw[] = {
        0.0, -0.0, 1.0, -1.0, 1.5, -2.5, 0.1,
        std::numeric_limits<double>::quiet_NaN(), inf, -inf,
        16777217.0, 9007199254740993.0, 3e9, -3e9, 2147483648.0,
        -2147483649.0, 4294967296.0, 9.3e18, -9.3e18, 1.9e19, 1e300,
    };
    std::vector<double> out;
    for (double v : raw) {
        double c = sem::roundFP(v, width);
        bool seen = false;
        for (double o : out)
            seen = seen || std::bit_cast<uint64_t>(o) ==
                std::bit_cast<uint64_t>(c);
        if (!seen)
            out.push_back(c);
    }
    return out;
}

std::vector<Operands>
intPairs(unsigned width)
{
    std::vector<Operands> rows;
    for (int64_t a : intEdges(width)) {
        for (int64_t b : intEdges(width))
            rows.push_back({Scalar{a, 0}, Scalar{b, 0}});
    }
    return rows;
}

std::vector<Operands>
floatPairs(unsigned width)
{
    // The first dozen edges hold every class; the rest matter to casts.
    const std::vector<double> all = floatEdges(width);
    std::vector<double> some(all.begin(), all.begin() + 12);
    std::vector<Operands> rows;
    for (double a : some) {
        for (double b : some)
            rows.push_back({Scalar{0, a}, Scalar{0, b}});
    }
    return rows;
}

/** Run @p op over @p rows, dropping divisions by zero for the engines. */
void
check(const Op &op, const std::vector<Operands> &rows,
      std::vector<std::string> &errors)
{
    checkFolder(op, rows, errors);
    std::vector<Operands> defined;
    for (const Operands &row : rows) {
        if (expected(op, row))
            defined.push_back(row);
    }
    checkEngines(op, defined, errors);
}

std::string
firstErrors(const std::vector<std::string> &errors)
{
    std::string out;
    for (size_t i = 0; i < errors.size() && i < 25; i++)
        out += errors[i] + "\n";
    return out;
}

// --- Tests ------------------------------------------------------------------

TEST(SemanticsTable, IntegerBinopsAgree)
{
    std::vector<std::string> errors;
    for (unsigned w : kIntWidths) {
        for (Opcode op = Opcode::add; op <= Opcode::ashr;
             op = static_cast<Opcode>(static_cast<int>(op) + 1)) {
            check(Op{op, Ty{false, w}, Ty{false, w}}, intPairs(w), errors);
        }
    }
    EXPECT_TRUE(errors.empty())
        << errors.size() << " disagreements:\n" << firstErrors(errors);
}

TEST(SemanticsTable, IntegerComparesAgree)
{
    std::vector<std::string> errors;
    for (unsigned w : kIntWidths) {
        for (int p = 0; p <= static_cast<int>(IntPred::uge); p++) {
            check(Op{Opcode::icmp, Ty{false, w}, Ty{false, 1},
                     static_cast<uint8_t>(p)},
                  intPairs(w), errors);
        }
    }
    EXPECT_TRUE(errors.empty())
        << errors.size() << " disagreements:\n" << firstErrors(errors);
}

TEST(SemanticsTable, FloatBinopsAndComparesAgree)
{
    std::vector<std::string> errors;
    for (unsigned w : {32u, 64u}) {
        for (Opcode op = Opcode::fadd; op <= Opcode::frem;
             op = static_cast<Opcode>(static_cast<int>(op) + 1)) {
            check(Op{op, Ty{true, w}, Ty{true, w}}, floatPairs(w), errors);
        }
        for (int p = 0; p <= static_cast<int>(FloatPred::une); p++) {
            check(Op{Opcode::fcmp, Ty{true, w}, Ty{false, 1},
                     static_cast<uint8_t>(p)},
                  floatPairs(w), errors);
        }
    }
    EXPECT_TRUE(errors.empty())
        << errors.size() << " disagreements:\n" << firstErrors(errors);
}

TEST(SemanticsTable, EveryCastAgrees)
{
    std::vector<std::string> errors;
    auto ints = [](unsigned w) {
        std::vector<Operands> rows;
        for (int64_t v : intEdges(w))
            rows.push_back({Scalar{v, 0}, Scalar{}});
        return rows;
    };
    auto floats = [](unsigned w) {
        std::vector<Operands> rows;
        for (double v : floatEdges(w))
            rows.push_back({Scalar{0, v}, Scalar{}});
        return rows;
    };
    for (unsigned from : kIntWidths) {
        for (unsigned to : kIntWidths) {
            if (to < from)
                check(Op{Opcode::trunc, Ty{false, from}, Ty{false, to}},
                      ints(from), errors);
            if (to > from) {
                for (Opcode op : {Opcode::zext, Opcode::sext}) {
                    check(Op{op, Ty{false, from}, Ty{false, to}},
                          ints(from), errors);
                }
            }
        }
        for (unsigned fp : {32u, 64u}) {
            for (Opcode op : {Opcode::sitofp, Opcode::uitofp})
                check(Op{op, Ty{false, from}, Ty{true, fp}}, ints(from),
                      errors);
            for (Opcode op : {Opcode::fptosi, Opcode::fptoui})
                check(Op{op, Ty{true, fp}, Ty{false, from}}, floats(fp),
                      errors);
        }
    }
    check(Op{Opcode::fpext, Ty{true, 32}, Ty{true, 64}}, floats(32), errors);
    check(Op{Opcode::fptrunc, Ty{true, 64}, Ty{true, 32}}, floats(64),
          errors);
    EXPECT_TRUE(errors.empty())
        << errors.size() << " disagreements:\n" << firstErrors(errors);
}

TEST(SemanticsTable, DivisionByZeroRaisesOnEveryEngine)
{
    for (unsigned w : kIntWidths) {
        for (Opcode op : {Opcode::sdiv, Opcode::udiv, Opcode::srem,
                          Opcode::urem}) {
            Op row{op, Ty{false, w}, Ty{false, w}};
            std::unique_ptr<Module> module =
                engineModule(row, {{Scalar{7, 0}, Scalar{0, 0}}});
            for (const EngineRun &run : runEverywhere(*module)) {
                EXPECT_EQ(run.result.bug.kind, ErrorKind::engineError)
                    << row.name() << " on " << run.name;
                EXPECT_NE(run.result.bug.detail.find(
                              "integer division by zero"),
                          std::string::npos)
                    << row.name() << " on " << run.name << ": "
                    << run.result.bug.toString();
            }
        }
    }
}

/** The header's own definition at the edges the engines used to differ on. */
TEST(SemanticsTable, HeaderPinsTheEdgeCases)
{
    EXPECT_EQ(sem::intBinOp(Opcode::sdiv, INT64_MIN, -1, 64), INT64_MIN);
    EXPECT_EQ(sem::intBinOp(Opcode::srem, INT64_MIN, -1, 64), 0);
    EXPECT_EQ(sem::intBinOp(Opcode::sdiv, INT32_MIN, -1, 32), INT32_MIN);
    EXPECT_EQ(sem::intBinOp(Opcode::udiv, 1, 0, 32), std::nullopt);
    EXPECT_EQ(sem::intBinOp(Opcode::add, INT64_MAX, 1, 64), INT64_MIN);
    EXPECT_EQ(sem::intBinOp(Opcode::shl, 1, 33, 32), 2);
    EXPECT_EQ(sem::intBinOp(Opcode::lshr, -1, 28, 32), 15);
    EXPECT_EQ(sem::intBinOp(Opcode::ashr, -16, 2, 8), -4);
    EXPECT_TRUE(sem::icmp(IntPred::ult, 1, -1));
    EXPECT_FALSE(sem::icmp(IntPred::slt, 1, -1));
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(sem::fcmp(FloatPred::oeq, nan, nan));
    EXPECT_FALSE(sem::fcmp(FloatPred::one, nan, 1.0));
    EXPECT_TRUE(sem::fcmp(FloatPred::une, nan, 1.0));
    EXPECT_TRUE(sem::fcmp(FloatPred::une, nan, nan));
    EXPECT_FALSE(sem::fcmp(FloatPred::une, 1.0, 1.0));
    EXPECT_EQ(sem::floatBinOp(Opcode::fadd, 16777216.0, 1.0, 32),
              16777216.0);
    EXPECT_EQ(sem::fpToInt(Opcode::fptosi, nan, 32), 0);
    EXPECT_EQ(sem::fpToInt(Opcode::fptosi, 1e30, 64), INT64_MAX);
    EXPECT_EQ(sem::fpToInt(Opcode::fptoui, -5.0, 32), 0);
    EXPECT_EQ(sem::fpToInt(Opcode::fptoui, 3e9, 32), -1294967296);
    EXPECT_EQ(sem::intToFP(Opcode::sitofp, 16777217, 32, 32), 16777216.0);
    EXPECT_EQ(sem::intToFP(Opcode::uitofp, -1, 32, 32), 4294967296.0);
    EXPECT_EQ(sem::intToFP(Opcode::uitofp, -1, 32, 64), 4294967295.0);
    // One rounding, not two: through double this would give 2^60.
    EXPECT_EQ(sem::intToFP(Opcode::sitofp,
                           (int64_t{1} << 60) + (int64_t{1} << 36) + 1, 64,
                           32),
              std::ldexp(1.0, 60) + std::ldexp(1.0, 37));
    EXPECT_EQ(sem::intCast(Opcode::zext, -1, 1, 32), 1);
    EXPECT_EQ(sem::intCast(Opcode::sext, -1, 1, 32), -1);
    EXPECT_EQ(sem::normInt(0x80, 8), -128);
    EXPECT_EQ(sem::zextInt(-1, 16), 0xffffu);
}

} // namespace
} // namespace sulong
