#include "analysis/lattice.h"

#include <sstream>

#include "ir/semantics.h"

namespace sulong
{

namespace
{

int64_t
saturate(__int128 v)
{
    if (v > INT64_MAX)
        return INT64_MAX;
    if (v < INT64_MIN)
        return INT64_MIN;
    return static_cast<int64_t>(v);
}

} // namespace

std::string
Interval::toString() const
{
    if (isEmpty())
        return "[]";
    if (isTop())
        return "[-inf,+inf]";
    std::ostringstream os;
    os << "[";
    if (lo == INT64_MIN)
        os << "-inf";
    else
        os << lo;
    os << ",";
    if (hi == INT64_MAX)
        os << "+inf";
    else
        os << hi;
    os << "]";
    return os.str();
}

Interval
intervalAdd(const Interval &a, const Interval &b)
{
    if (a.isEmpty() || b.isEmpty())
        return Interval::empty();
    return {saturate(static_cast<__int128>(a.lo) + b.lo),
            saturate(static_cast<__int128>(a.hi) + b.hi)};
}

Interval
intervalSub(const Interval &a, const Interval &b)
{
    if (a.isEmpty() || b.isEmpty())
        return Interval::empty();
    return {saturate(static_cast<__int128>(a.lo) - b.hi),
            saturate(static_cast<__int128>(a.hi) - b.lo)};
}

Interval
intervalMul(const Interval &a, const Interval &b)
{
    if (a.isEmpty() || b.isEmpty())
        return Interval::empty();
    // The rails are not meaningful factors: a product with an unbounded
    // side is unbounded (except by zero, handled by the corner scan).
    if (a.isTop() || b.isTop() || a.lo == INT64_MIN || a.hi == INT64_MAX ||
        b.lo == INT64_MIN || b.hi == INT64_MAX) {
        if (a.isSingleton() && a.lo == 0)
            return Interval::of(0);
        if (b.isSingleton() && b.lo == 0)
            return Interval::of(0);
        return Interval::top();
    }
    __int128 corners[4] = {
        static_cast<__int128>(a.lo) * b.lo,
        static_cast<__int128>(a.lo) * b.hi,
        static_cast<__int128>(a.hi) * b.lo,
        static_cast<__int128>(a.hi) * b.hi,
    };
    __int128 lo = corners[0], hi = corners[0];
    for (__int128 c : corners) {
        lo = c < lo ? c : lo;
        hi = c > hi ? c : hi;
    }
    return {saturate(lo), saturate(hi)};
}

Interval
intervalNeg(const Interval &a)
{
    return intervalSub(Interval::of(0), a);
}

Interval
intervalOfWidth(unsigned bits)
{
    if (bits >= 64)
        return Interval::top();
    int64_t half = int64_t{1} << (bits - 1);
    return {-half, half - 1};
}

Interval
intervalWrap(const Interval &a, unsigned bits)
{
    if (a.isEmpty() || bits >= 64)
        return a;
    Interval full = intervalOfWidth(bits);
    if (a.lo >= full.lo && a.hi <= full.hi)
        return a;
    if (a.isSingleton())
        return Interval::of(sem::normInt(static_cast<uint64_t>(a.lo), bits));
    return full;
}

std::string
AbstractValue::toString() const
{
    switch (kind) {
      case Kind::any:
        return "any";
      case Kind::intVal:
        return "int" + ival.toString();
      case Kind::fpVal:
        return "fp";
      case Kind::pointer: {
        std::ostringstream os;
        os << "ptr{";
        bool first = true;
        if (canBeNull) {
            os << "null";
            first = false;
        }
        if (canBeUnknown) {
            os << (first ? "" : "|") << "?";
            first = false;
        }
        for (const PointerTarget &t : targets) {
            os << (first ? "" : "|") << "obj" << t.obj
               << "+" << t.offset.toString();
            first = false;
        }
        os << "}";
        return os.str();
      }
    }
    return "invalid";
}

namespace
{

/// Joins @p a and @p b; with @p widen set, growing intervals are
/// widened with @p widen's thresholds.
AbstractValue
mergeValues(const AbstractValue &a, const AbstractValue &b,
            const std::vector<int64_t> *widen)
{
    if (a.kind != b.kind)
        return AbstractValue::top();
    AbstractValue out;
    out.kind = a.kind;
    switch (a.kind) {
      case AbstractValue::Kind::any:
      case AbstractValue::Kind::fpVal:
        break;
      case AbstractValue::Kind::intVal:
        out.ival = widen ? a.ival.widen(a.ival.join(b.ival), *widen)
                         : a.ival.join(b.ival);
        break;
      case AbstractValue::Kind::pointer: {
        out.canBeNull = a.canBeNull || b.canBeNull;
        out.canBeUnknown = a.canBeUnknown || b.canBeUnknown;
        out.targets = a.targets;
        for (const PointerTarget &t : b.targets) {
            bool merged = false;
            for (PointerTarget &have : out.targets) {
                if (have.obj == t.obj) {
                    have.offset = widen
                        ? have.offset.widen(have.offset.join(t.offset),
                                            *widen)
                        : have.offset.join(t.offset);
                    merged = true;
                    break;
                }
            }
            if (!merged)
                out.targets.push_back(t);
        }
        // A degenerate may-set: cap the target fan-out so pathological
        // merges cannot make states quadratic.
        if (out.targets.size() > 8) {
            out.targets.clear();
            out.canBeUnknown = true;
        }
        break;
      }
    }
    return out;
}

} // namespace

AbstractValue
joinValues(const AbstractValue &a, const AbstractValue &b)
{
    return mergeValues(a, b, nullptr);
}

AbstractValue
widenValues(const AbstractValue &a, const AbstractValue &b,
            const std::vector<int64_t> &thresholds)
{
    return mergeValues(a, b, &thresholds);
}

bool
ObjState::operator==(const ObjState &o) const
{
    if (live != o.live || dflt != o.dflt ||
        weaklyWritten != o.weaklyWritten || escaped != o.escaped)
        return false;
    if (contents.size() != o.contents.size())
        return false;
    auto it = o.contents.begin();
    for (const auto &[off, entry] : contents) {
        if (it->first != off || it->second.width != entry.width ||
            it->second.mayBeUninit != entry.mayBeUninit ||
            it->second.val != entry.val)
            return false;
        ++it;
    }
    return true;
}

} // namespace sulong
