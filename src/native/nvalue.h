/**
 * @file
 * Runtime values of the native execution model: plain 64-bit machine
 * words. Pointers are just integers; no provenance, no checks — exactly
 * the abstraction level the paper argues loses too much information.
 */

#ifndef MS_NATIVE_NVALUE_H
#define MS_NATIVE_NVALUE_H

#include <cstdint>

namespace sulong
{

/**
 * A register value of the simulated machine. Integers are in the
 * canonical form of ir/semantics.h (sign-extended from their width); an
 * f32 value holds a float, rounded by whatever produced it.
 */
struct NValue
{
    int64_t i = 0;
    double f = 0;
    /// Definedness shadow bit (V-bit analogue) used by the Memcheck-style
    /// runtime; plain execution ignores it.
    bool defined = true;

    static NValue
    makeInt(int64_t value)
    {
        NValue v;
        v.i = value;
        return v;
    }

    static NValue
    makeFP(double value)
    {
        NValue v;
        v.f = value;
        return v;
    }
};

} // namespace sulong

#endif // MS_NATIVE_NVALUE_H
