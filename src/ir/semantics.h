/**
 * @file
 * The IR's scalar semantics: integer and floating-point arithmetic,
 * comparisons and casts, as pure functions over raw bits.
 *
 * This is the one definition of what a scalar instruction computes.
 * The native engine, both managed tiers, the constant folder, the
 * analyzer's exact-constant transfer and the front end's constant
 * evaluators all call it, so no tier or optimization can compute a
 * defined program differently from another.
 *
 * Representation:
 * - An integer of `width` bits (1..64) is an int64_t in canonical
 *   form: its low `width` bits, sign-extended. Operands must be
 *   canonical; every integer result is.
 * - A float is a double. An `f32` value (width 32) holds a value a
 *   float represents exactly; every `f32` result is rounded to float
 *   once, from the exact result, as the hardware does.
 *
 * Division by zero has no value here: intBinOp returns nullopt and
 * each caller maps that to its own behaviour (the engines raise, the
 * folder and the analyzer decline to fold, the front end reports).
 *
 * Everything is inline on purpose: these functions sit on the
 * per-instruction path of tier-1, tier-2 and the native engine.
 */

#ifndef MS_IR_SEMANTICS_H
#define MS_IR_SEMANTICS_H

#include <cmath>
#include <cstdint>
#include <optional>

#include "ir/instruction.h"

namespace sulong::sem
{

/** Canonical form of the low @p width bits of @p raw. */
inline int64_t
normInt(uint64_t raw, unsigned width)
{
    unsigned pad = 64 - width;
    return static_cast<int64_t>(raw << pad) >> pad;
}

/** The @p width-bit integer @p v read as unsigned. */
inline uint64_t
zextInt(int64_t v, unsigned width)
{
    return static_cast<uint64_t>(v) & (~uint64_t{0} >> (64 - width));
}

/** @p v rounded to the float type of @p width (32 or 64). */
inline double
roundFP(double v, unsigned width)
{
    return width == 32 ? static_cast<double>(static_cast<float>(v)) : v;
}

/**
 * Integer binop @p op (add .. ashr) at @p width. add, sub and mul
 * wrap; shift amounts are taken modulo the width; sdiv and srem of the
 * width's minimum by -1 give the minimum and 0. nullopt: the divisor
 * of sdiv, udiv, srem or urem is zero.
 */
inline std::optional<int64_t>
intBinOp(Opcode op, int64_t l, int64_t r, unsigned width)
{
    uint64_t lu = static_cast<uint64_t>(l);
    uint64_t ru = static_cast<uint64_t>(r);
    unsigned shift = static_cast<unsigned>(ru & (width - 1));
    uint64_t out;
    switch (op) {
      case Opcode::add: out = lu + ru; break;
      case Opcode::sub: out = lu - ru; break;
      case Opcode::mul: out = lu * ru; break;
      case Opcode::sdiv:
        if (r == 0)
            return std::nullopt;
        out = r == -1 ? 0 - lu : static_cast<uint64_t>(l / r);
        break;
      case Opcode::srem:
        if (r == 0)
            return std::nullopt;
        out = r == -1 ? 0 : static_cast<uint64_t>(l % r);
        break;
      case Opcode::udiv:
        if (zextInt(r, width) == 0)
            return std::nullopt;
        out = zextInt(l, width) / zextInt(r, width);
        break;
      case Opcode::urem:
        if (zextInt(r, width) == 0)
            return std::nullopt;
        out = zextInt(l, width) % zextInt(r, width);
        break;
      case Opcode::and_: out = lu & ru; break;
      case Opcode::or_: out = lu | ru; break;
      case Opcode::xor_: out = lu ^ ru; break;
      case Opcode::shl: out = lu << shift; break;
      case Opcode::lshr: out = zextInt(l, width) >> shift; break;
      default: out = static_cast<uint64_t>(l >> shift); break; // ashr
    }
    return normInt(out, width);
}

/**
 * icmp @p pred of two integers of one width. Sign extension keeps the
 * unsigned order of the width, so unsigned predicates compare the
 * canonical values as uint64_t and no width is needed.
 */
inline bool
icmp(IntPred pred, int64_t l, int64_t r)
{
    uint64_t lu = static_cast<uint64_t>(l);
    uint64_t ru = static_cast<uint64_t>(r);
    switch (pred) {
      case IntPred::eq: return l == r;
      case IntPred::ne: return l != r;
      case IntPred::slt: return l < r;
      case IntPred::sle: return l <= r;
      case IntPred::sgt: return l > r;
      case IntPred::sge: return l >= r;
      case IntPred::ult: return lu < ru;
      case IntPred::ule: return lu <= ru;
      case IntPred::ugt: return lu > ru;
      case IntPred::uge: return lu >= ru;
    }
    return false;
}

/** fcmp @p pred: a NaN operand makes every ordered predicate false and
 *  `une` true. */
inline bool
fcmp(FloatPred pred, double l, double r)
{
    if (std::isnan(l) || std::isnan(r))
        return pred == FloatPred::une;
    switch (pred) {
      case FloatPred::oeq: return l == r;
      case FloatPred::one: return l != r;
      case FloatPred::olt: return l < r;
      case FloatPred::ole: return l <= r;
      case FloatPred::ogt: return l > r;
      case FloatPred::oge: return l >= r;
      case FloatPred::une: return l != r;
    }
    return false;
}

/** Float binop @p op (fadd .. frem) at @p width (32 or 64). */
inline double
floatBinOp(Opcode op, double l, double r, unsigned width)
{
    if (width == 32) {
        float lf = static_cast<float>(l);
        float rf = static_cast<float>(r);
        switch (op) {
          case Opcode::fadd: return lf + rf;
          case Opcode::fsub: return lf - rf;
          case Opcode::fmul: return lf * rf;
          case Opcode::fdiv: return lf / rf;
          default: return std::fmod(lf, rf); // frem
        }
    }
    switch (op) {
      case Opcode::fadd: return l + r;
      case Opcode::fsub: return l - r;
      case Opcode::fmul: return l * r;
      case Opcode::fdiv: return l / r;
      default: return std::fmod(l, r); // frem
    }
}

/** trunc, zext or sext (@p op) of @p v from @p from to @p to bits. */
inline int64_t
intCast(Opcode op, int64_t v, unsigned from, unsigned to)
{
    return normInt(op == Opcode::zext ? zextInt(v, from)
                                      : static_cast<uint64_t>(v),
                   to);
}

/**
 * fptosi or fptoui (@p op) of @p v to @p to bits. The conversion
 * saturates at the 64-bit range, then keeps the low @p to bits; NaN
 * gives 0.
 */
inline int64_t
fpToInt(Opcode op, double v, unsigned to)
{
    uint64_t raw;
    if (std::isnan(v))
        raw = 0;
    else if (op == Opcode::fptosi)
        raw = v >= 9223372036854775807.0 ? INT64_MAX
            : v <= -9223372036854775808.0 ? static_cast<uint64_t>(INT64_MIN)
            : static_cast<uint64_t>(static_cast<int64_t>(v));
    else
        raw = v <= -1.0 ? 0
            : v >= 18446744073709551615.0 ? UINT64_MAX
            : static_cast<uint64_t>(v);
    return normInt(raw, to);
}

/**
 * sitofp or uitofp (@p op) of the @p from-bit integer @p v to a float
 * of @p to bits, rounded once.
 */
inline double
intToFP(Opcode op, int64_t v, unsigned from, unsigned to)
{
    if (op == Opcode::uitofp) {
        uint64_t u = zextInt(v, from);
        return to == 32 ? static_cast<float>(u) : static_cast<double>(u);
    }
    return to == 32 ? static_cast<float>(v) : static_cast<double>(v);
}

} // namespace sulong::sem

#endif // MS_IR_SEMANTICS_H
