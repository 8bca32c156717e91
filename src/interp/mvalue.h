/**
 * @file
 * Runtime values of the managed interpreter.
 */

#ifndef MS_INTERP_MVALUE_H
#define MS_INTERP_MVALUE_H

#include "ir/semantics.h"
#include "managed/object.h"

namespace sulong
{

/**
 * One managed runtime value: a width-tagged integer, a float/double, or
 * an Address. Integers and floats are kept in the canonical form of
 * ir/semantics.h (sign-extended to 64 bits; an f32 rounded to float);
 * the width tag preserves the C-level size for varargs boxing (so that
 * printf("%ld", int) is detectably wrong, paper Fig. 12).
 */
struct MValue
{
    enum class Kind : uint8_t
    {
        intV,
        fpV,
        addrV,
    };

    Kind kind = Kind::intV;
    /// For intV: width in bits (1, 8, 16, 32, 64). For fpV: 32 or 64.
    uint8_t bits = 32;
    int64_t i = 0;
    double f = 0;
    Address a;

    /*
     * In-place writes: each leaves exactly the value the matching make*
     * builds, without a temporary. The old value's pointee is released
     * only when it had one.
     */
    void
    setInt(int64_t value, unsigned width)
    {
        kind = Kind::intV;
        bits = static_cast<uint8_t>(width);
        i = sem::normInt(static_cast<uint64_t>(value), width);
        f = 0;
        clearAddr();
    }

    void
    setFP(double value, unsigned width)
    {
        kind = Kind::fpV;
        bits = static_cast<uint8_t>(width);
        i = 0;
        f = sem::roundFP(value, width);
        clearAddr();
    }

    /** Becomes the address @p pointee + @p offset. */
    void
    setAddr(const ObjRef &pointee, int64_t offset)
    {
        markAddr();
        if (a.pointee.get() != pointee.get())
            a.pointee = pointee;
        a.offset = offset;
    }

    /** Tags an address already written into @c a as this value. */
    void
    markAddr()
    {
        kind = Kind::addrV;
        bits = 64;
        i = 0;
        f = 0;
    }

    static MValue
    makeInt(int64_t value, unsigned width)
    {
        MValue v;
        v.setInt(value, width);
        return v;
    }

    static MValue
    makeFP(double value, unsigned width)
    {
        MValue v;
        v.setFP(value, width);
        return v;
    }

    static MValue
    makeAddr(Address addr)
    {
        MValue v;
        v.kind = Kind::addrV;
        v.bits = 64;
        v.a = std::move(addr);
        return v;
    }

  private:
    void
    clearAddr()
    {
        if (a.pointee)
            a.pointee = ObjRef();
        a.offset = 0;
    }
};

} // namespace sulong

#endif // MS_INTERP_MVALUE_H
