/**
 * @file
 * The abstract domain of the static analyzer (DESIGN.md "Static analysis
 * layer"): signed-64-bit intervals for integers, and pointer values as a
 * may-set of (abstract object, offset interval) targets plus null/unknown
 * flags. Abstract memory is a per-object map from constant byte offsets
 * to typed scalar entries, which is what makes the unoptimized codegen
 * analyzable at all: every C local is an alloca, so loop counters and
 * lengths only exist as memory contents.
 */

#ifndef MS_ANALYSIS_LATTICE_H
#define MS_ANALYSIS_LATTICE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/error.h"

namespace sulong
{

/**
 * A signed 64-bit interval [lo, hi]; lo > hi encodes the empty interval
 * (an infeasible refinement). Arithmetic saturates at the rails, which
 * over-approximates (sound for a may-analysis).
 */
struct Interval
{
    int64_t lo = INT64_MIN;
    int64_t hi = INT64_MAX;

    static Interval top() { return {}; }
    static Interval of(int64_t v) { return {v, v}; }
    static Interval range(int64_t lo, int64_t hi) { return {lo, hi}; }
    static Interval empty() { return {1, 0}; }

    bool isTop() const { return lo == INT64_MIN && hi == INT64_MAX; }
    bool isEmpty() const { return lo > hi; }
    bool isSingleton() const { return lo == hi; }
    bool contains(int64_t v) const { return lo <= v && v <= hi; }

    bool operator==(const Interval &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
    bool operator!=(const Interval &o) const { return !(*this == o); }

    Interval join(const Interval &o) const
    {
        if (isEmpty())
            return o;
        if (o.isEmpty())
            return *this;
        return {std::min(lo, o.lo), std::max(hi, o.hi)};
    }

    Interval meet(const Interval &o) const
    {
        return {std::max(lo, o.lo), std::min(hi, o.hi)};
    }

    /**
     * Widening with thresholds: a bound that grew jumps to the nearest
     * of @p thresholds (sorted ascending) that still covers it, and to
     * the rail only past the last one. With no thresholds this is
     * classic widening. The set is finite, so every widening chain is.
     */
    Interval widen(const Interval &next,
                   const std::vector<int64_t> &thresholds = {}) const
    {
        if (isEmpty())
            return next;
        if (next.isEmpty())
            return *this;
        Interval w = *this;
        if (next.lo < lo) {
            auto it = std::upper_bound(thresholds.begin(), thresholds.end(),
                                       next.lo);
            w.lo = it == thresholds.begin() ? INT64_MIN : *(it - 1);
        }
        if (next.hi > hi) {
            auto it = std::lower_bound(thresholds.begin(), thresholds.end(),
                                       next.hi);
            w.hi = it == thresholds.end() ? INT64_MAX : *it;
        }
        return w;
    }

    std::string toString() const;
};

/// Saturating interval arithmetic.
Interval intervalAdd(const Interval &a, const Interval &b);
Interval intervalSub(const Interval &a, const Interval &b);
Interval intervalMul(const Interval &a, const Interval &b);
Interval intervalNeg(const Interval &a);

/**
 * Clamp an interval to the value range of an @p bits wide signed
 * integer, modelling two's-complement wraparound: singletons wrap
 * exactly, in-range intervals pass through, everything else goes to the
 * full range of the width.
 */
Interval intervalWrap(const Interval &a, unsigned bits);

/// The full signed range of a width, e.g. [-128,127] for 8.
Interval intervalOfWidth(unsigned bits);

/** One may-point-to target of a pointer value. */
struct PointerTarget
{
    unsigned obj = 0;
    Interval offset;

    bool operator==(const PointerTarget &o) const
    {
        return obj == o.obj && offset == o.offset;
    }
};

/**
 * One abstract value: an integer interval, an (untracked) float, or a
 * pointer as {maybe-null, maybe-unknown-provenance, may-target set}.
 * `any` is the top of the whole value lattice (merges of mismatched
 * kinds, results of unmodelled operations).
 */
struct AbstractValue
{
    enum class Kind : uint8_t
    {
        any,
        intVal,
        fpVal,
        pointer,
    };

    Kind kind = Kind::any;
    Interval ival;
    bool canBeNull = false;
    bool canBeUnknown = false;
    std::vector<PointerTarget> targets;

    static AbstractValue top() { return {}; }
    static AbstractValue anyInt()
    {
        AbstractValue v;
        v.kind = Kind::intVal;
        return v;
    }
    static AbstractValue ofInterval(const Interval &i)
    {
        AbstractValue v;
        v.kind = Kind::intVal;
        v.ival = i;
        return v;
    }
    static AbstractValue ofInt(int64_t value)
    {
        return ofInterval(Interval::of(value));
    }
    static AbstractValue anyFloat()
    {
        AbstractValue v;
        v.kind = Kind::fpVal;
        return v;
    }
    static AbstractValue nullPointer()
    {
        AbstractValue v;
        v.kind = Kind::pointer;
        v.canBeNull = true;
        return v;
    }
    static AbstractValue unknownPointer()
    {
        AbstractValue v;
        v.kind = Kind::pointer;
        v.canBeNull = true;
        v.canBeUnknown = true;
        return v;
    }
    static AbstractValue pointerTo(unsigned obj,
                                   const Interval &offset = Interval::of(0))
    {
        AbstractValue v;
        v.kind = Kind::pointer;
        v.targets.push_back({obj, offset});
        return v;
    }

    bool isPointer() const { return kind == Kind::pointer; }
    bool isInt() const { return kind == Kind::intVal; }
    /// A pointer that is null on every path.
    bool isMustNull() const
    {
        return isPointer() && canBeNull && !canBeUnknown && targets.empty();
    }
    /// Singleton integer accessor.
    bool isConstInt(int64_t &out) const
    {
        if (!isInt() || !ival.isSingleton())
            return false;
        out = ival.lo;
        return true;
    }

    bool operator==(const AbstractValue &o) const
    {
        return kind == o.kind && ival == o.ival && canBeNull == o.canBeNull &&
            canBeUnknown == o.canBeUnknown && targets == o.targets;
    }
    bool operator!=(const AbstractValue &o) const { return !(*this == o); }

    std::string toString() const;
};

AbstractValue joinValues(const AbstractValue &a, const AbstractValue &b);
/// Joins @p b into @p a, widening growing intervals (integers and
/// pointer offsets) with @p thresholds (see Interval::widen).
AbstractValue widenValues(const AbstractValue &a, const AbstractValue &b,
                          const std::vector<int64_t> &thresholds);

/**
 * A known scalar at a constant offset inside an abstract object.
 * `version` increments on every write so that branch refinement can
 * prove "this location still holds the value the compare tested"
 * before narrowing the stored interval (sound write-back). Versions are
 * compared only within one block transfer, never across a join, so
 * ObjState equality ignores them.
 */
struct MemEntry
{
    uint8_t width = 0;
    AbstractValue val;
    /// True when some joined-in path leaves these bytes unwritten.
    bool mayBeUninit = false;
    uint32_t version = 0;
};

/** What a read of bytes with no MemEntry yields. */
enum class ContentsDefault : uint8_t
{
    /// Never written on any path (fresh alloca / malloc).
    uninit,
    /// Guaranteed zero (calloc, static storage).
    zero,
    /// Written with unknown bytes, or one path left them unwritten.
    maybeUninit,
    /// Initialized but unknown (post-havoc, realloc tail).
    unknown,
};

/**
 * Flow-sensitive state of one abstract object. The analyzer shares one
 * ObjState between the states of every program point that has not
 * written the object (copy-on-write).
 */
struct ObjState
{
    enum class Liveness : uint8_t
    {
        live,
        maybeFreed,
        freed,
    };

    Liveness live = Liveness::live;
    ContentsDefault dflt = ContentsDefault::uninit;
    /// Bytes not described by `contents` may have been written (weak
    /// updates at non-constant offsets): uninit reads are at most maybe.
    bool weaklyWritten = false;
    /// Address has been passed to (or stored reachable from) an
    /// unmodelled call: contents are clobbered at every such call.
    bool escaped = false;
    std::map<int64_t, MemEntry> contents;

    bool operator==(const ObjState &o) const;
};

/** Immutable description of one abstract object (per analyzed function). */
struct ObjectInfo
{
    StorageKind storage = StorageKind::unknown;
    /// Byte size as an interval; top when unknown (malloc of a
    /// non-constant size). alloca/global sizes are singletons.
    Interval size;
    std::string name;
    /// True when the allocation site sits inside a CFG cycle: the object
    /// summarizes many run-time instances, so strong updates (freeing,
    /// definite-uninit) are disabled.
    bool multiInstance = false;
    /// Const global: contents are immutable, never havocked.
    bool isConst = false;
    /// Suppress findings against this object. Used for the pseudo
    /// objects that stand in for a summarized function's pointer
    /// parameters: accesses through them are judged at the call sites
    /// (where the real object is known), not inside the callee.
    bool silent = false;
    /// Pointer-parameter pseudo object: index of the formal parameter
    /// it models, -1 otherwise.
    int paramIndex = -1;
};

} // namespace sulong

#endif // MS_ANALYSIS_LATTICE_H
