/**
 * @file
 * The managed object model — the paper's core contribution (Section 3.2).
 *
 * C objects are represented as typed managed objects instead of raw
 * memory. Pointers are Address values holding a reference to their
 * pointee plus a byte offset (Fig. 5/6). Every load, store, and free goes
 * through checked accessors that raise MemoryErrorException for
 * out-of-bounds accesses, use-after-free, double free, invalid free and
 * NULL dereferences — the execution environment cannot forget a check.
 *
 * Type safety is relaxed as in the paper: same-size reinterpreting
 * accesses (double bits in a long array) and byte-granular accesses into
 * wider primitive arrays are permitted; anything that would conjure or
 * corrupt a pointer out of raw bits is a type error.
 *
 * Lifetimes use non-atomic intrusive reference counting, standing in for
 * the JVM's garbage collector: a dangling pointer to a returned-from
 * frame keeps its object alive (and readable) exactly like in Java.
 */

#ifndef MS_MANAGED_OBJECT_H
#define MS_MANAGED_OBJECT_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ir/type.h"
#include "managed/errors.h"
#include "support/error.h"

namespace sulong
{

class ManagedObject;

/**
 * Non-atomic intrusive reference-counted handle to a ManagedObject.
 */
class ObjRef
{
  public:
    ObjRef() = default;
    ObjRef(ManagedObject *obj); // NOLINT: implicit by design
    ObjRef(const ObjRef &other);
    ObjRef(ObjRef &&other) noexcept : obj_(other.obj_)
    {
        other.obj_ = nullptr;
    }
    ObjRef &operator=(const ObjRef &other);
    ObjRef &operator=(ObjRef &&other) noexcept;
    ~ObjRef();

    ManagedObject *get() const { return obj_; }
    ManagedObject *operator->() const { return obj_; }
    ManagedObject &operator*() const { return *obj_; }
    explicit operator bool() const { return obj_ != nullptr; }
    bool operator==(const ObjRef &other) const { return obj_ == other.obj_; }

  private:
    ManagedObject *obj_ = nullptr;
};

/**
 * A C pointer: managed pointee + byte offset (paper Fig. 5).
 */
struct Address
{
    ObjRef pointee;
    int64_t offset = 0;

    Address() = default;
    Address(ObjRef obj, int64_t off) : pointee(std::move(obj)), offset(off) {}

    bool isNull() const { return !pointee; }

    Address
    withOffset(int64_t delta) const
    {
        return Address{pointee, offset + delta};
    }

    bool
    operator==(const Address &other) const
    {
        return pointee == other.pointee && offset == other.offset;
    }
};

/** Discriminator for ManagedObject. */
enum class ObjectKind : uint8_t
{
    i8Array,
    i16Array,
    i32Array,
    i64Array,
    f32Array,
    f64Array,
    addressArray,
    structObject,
    arrayOfAggregates,
    functionObject,
    varargsObject,
};

/** The scalar classes a checked access can move. */
enum class AccessClass : uint8_t
{
    integer,
    floating,
    pointer,
};

/**
 * One load's or store's access, decoded from its IR type: what every
 * check and copy needs, so a hot path never reads the Type again.
 */
struct ScalarAccess
{
    AccessClass cls = AccessClass::integer;
    /// Bytes moved: 1, 2, 4 or 8 for every verified scalar type.
    uint8_t size = 0;
    /// Width of the value: intBits() (i1 -> 1), 32/64 for a float,
    /// 64 for a pointer.
    uint8_t bits = 0;

    static ScalarAccess
    of(const Type *type)
    {
        ScalarAccess acc;
        acc.size = static_cast<uint8_t>(type->size());
        if (type->isPointer()) {
            acc.cls = AccessClass::pointer;
            acc.bits = 64;
        } else if (type->isFloat()) {
            acc.cls = AccessClass::floating;
            acc.bits = static_cast<uint8_t>(type->fpBits());
        } else {
            acc.bits = static_cast<uint8_t>(
                type->isInteger() ? type->intBits() : 64);
        }
        return acc;
    }
};

/// Fixed-width copies of a 1-, 2-, 4- or 8-byte scalar (zero-extended
/// on load): the leaves' fast paths use these instead of a memcpy call
/// whose size is only known at run time.
inline bool
fixedScalarSize(unsigned size)
{
    return size == 1 || size == 2 || size == 4 || size == 8;
}

template <typename U>
inline uint64_t
loadAs(const char *p)
{
    U v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename U>
inline void
storeAs(char *p, uint64_t bits)
{
    const auto v = static_cast<U>(bits);
    std::memcpy(p, &v, sizeof v);
}

inline uint64_t
loadScalarBits(const char *p, unsigned size)
{
    switch (size) {
      case 1: return loadAs<uint8_t>(p);
      case 2: return loadAs<uint16_t>(p);
      case 4: return loadAs<uint32_t>(p);
      default: return loadAs<uint64_t>(p);
    }
}

inline void
storeScalarBits(char *p, unsigned size, uint64_t bits)
{
    switch (size) {
      case 1: return storeAs<uint8_t>(p, bits);
      case 2: return storeAs<uint16_t>(p, bits);
      case 4: return storeAs<uint32_t>(p, bits);
      default: return storeAs<uint64_t>(p, bits);
    }
}

/**
 * Ablation switch for the relaxed type rules of Section 3.2: with strict
 * rules, every access must match the element type exactly (class, size,
 * alignment), which breaks many real-world programs but models the
 * "strict type safety" end of the paper's trade-off discussion.
 */
/// Implementation detail of strictTypeRules(): thread-local so that
/// concurrent engine runs (one batch-runner job per worker thread)
/// cannot leak their check configuration into each other. Inline here
/// because the accessor sits on the per-access check path.
inline thread_local bool g_strict_type_rules = false;

inline bool
strictTypeRules()
{
    return g_strict_type_rules;
}

inline void
setStrictTypeRules(bool strict)
{
    g_strict_type_rules = strict;
}

/**
 * Opt-in exact uninitialized-read detection (the paper's Section 6 /
 * footnote 3 future work): stack and heap objects track per-byte
 * initialization and report the first read of a never-written byte —
 * exactly, at the faulting load, unlike Memcheck's use-site heuristics.
 */
/// See g_strict_type_rules for the storage rationale.
inline thread_local bool g_uninit_tracking = false;

inline bool
uninitTracking()
{
    return g_uninit_tracking;
}

inline void
setUninitTracking(bool enabled)
{
    g_uninit_tracking = enabled;
}

/** RAII guard for uninitialized-read tracking. */
class UninitTrackingScope
{
  public:
    explicit UninitTrackingScope(bool enabled)
        : previous_(uninitTracking())
    {
        setUninitTracking(enabled);
    }
    ~UninitTrackingScope() { setUninitTracking(previous_); }
    UninitTrackingScope(const UninitTrackingScope &) = delete;
    UninitTrackingScope &operator=(const UninitTrackingScope &) = delete;

  private:
    bool previous_;
};

/** RAII guard for strict mode. */
class StrictTypeRulesScope
{
  public:
    explicit StrictTypeRulesScope(bool strict)
        : previous_(strictTypeRules())
    {
        setStrictTypeRules(strict);
    }
    ~StrictTypeRulesScope() { setStrictTypeRules(previous_); }
    StrictTypeRulesScope(const StrictTypeRulesScope &) = delete;
    StrictTypeRulesScope &operator=(const StrictTypeRulesScope &) = delete;

  private:
    bool previous_;
};

/**
 * Base class of all managed objects.
 */
class ManagedObject
{
  public:
    virtual ~ManagedObject() = default;

    ObjectKind kind() const { return kind_; }
    StorageKind storage() const { return storage_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Object size in bytes (0 after free). */
    virtual int64_t byteSize() const = 0;

    /**
     * Checked scalar read of @p size bytes at @p offset.
     * @param cls      whether an integer, float, or pointer is read
     * @param size     access size in bytes (1, 2, 4, or 8)
     * @param offset   byte offset within this object
     * @param out_int  receives integer/float bits
     * @param out_addr receives the pointer for pointer reads
     */
    virtual void read(AccessClass cls, unsigned size, int64_t offset,
                      uint64_t &out_int, Address &out_addr) = 0;

    /** Checked scalar write; mirror of read(). */
    virtual void write(AccessClass cls, unsigned size, int64_t offset,
                       uint64_t bits, const Address &addr) = 0;

    /** True for heap objects that free() may release. */
    virtual bool isHeap() const { return storage_ == StorageKind::heap; }
    /** True once free() released this object. Not virtual: the
     *  compiled tier's cache hit tests ask it on every access. */
    bool isFreed() const { return freed_; }
    /** Release a heap object's payload (paper Fig. 7). */
    virtual void free();

    /** Mark every byte written (calloc, realloc'd copies, globals). */
    virtual void markAllInitialized() {}

    /** Human-readable type for error messages, e.g. "I32Array[10]". */
    virtual std::string describe() const = 0;

    /** Number of live references (intrusive count). */
    long refCount() const { return refs_; }

    /**
     * Restore the object to its just-allocated state so a compiled
     * alloca site can recycle it instead of allocating afresh. Only legal when
     * the caller holds the sole reference (refCount() == 1), so no live
     * pointer can observe the recycled identity. Returns false when the
     * object cannot be reset (freed, or a kind without support); the
     * caller must then allocate normally. A reset object is
     * indistinguishable from a fresh one: zeroed payload, uninit
     * tracking rearmed, same checks on every later access.
     */
    virtual bool resetForReuse() { return false; }

    /**
     * True for the leaves with an inline check, whose kind() names their
     * exact dynamic type: a PrimitiveLeaf (the six primitive kinds) or
     * an AddressArray. Wrapper objects (LazyHeapObject) masquerade under
     * a leaf kind for cache purposes; they leave this false so the
     * devirtualizing dispatch falls back to the virtual call.
     */
    bool exactKind() const { return exactKind_; }

    // Intrusive refcount plumbing.
    void retain() { refs_++; }
    void
    release()
    {
        if (--refs_ == 0)
            delete this;
    }

  protected:
    ManagedObject(ObjectKind kind, StorageKind storage)
        : kind_(kind), storage_(storage)
    {}

    [[noreturn, gnu::cold]] void raiseBounds(AccessClass cls,
                                             int64_t offset, unsigned size,
                                             bool is_write) const;
    [[noreturn, gnu::cold]] void raiseUseAfterFree(bool is_write) const;
    [[noreturn, gnu::cold]] void
    raiseTypeError(AccessKind access, const std::string &what) const;

    /// Inline: one compare on the per-access path; the raise is cold.
    void
    checkBounds(int64_t offset, unsigned size, bool is_write) const
    {
        if (offset < 0 || offset + static_cast<int64_t>(size) > byteSize())
            raiseBounds(AccessClass::integer, offset, size, is_write);
    }

    ObjectKind kind_;
    StorageKind storage_;
    bool exactKind_ = false;
    /// Set by free(); a wrapper's payload is only ever freed through
    /// its wrapper, so the wrapper's own flag is the whole answer.
    bool freed_ = false;
    std::string name_;
    long refs_ = 0;
};

inline
ObjRef::ObjRef(ManagedObject *obj) : obj_(obj)
{
    if (obj_ != nullptr)
        obj_->retain();
}

inline
ObjRef::ObjRef(const ObjRef &other) : obj_(other.obj_)
{
    if (obj_ != nullptr)
        obj_->retain();
}

inline ObjRef &
ObjRef::operator=(const ObjRef &other)
{
    if (other.obj_ != nullptr)
        other.obj_->retain();
    if (obj_ != nullptr)
        obj_->release();
    obj_ = other.obj_;
    return *this;
}

inline ObjRef &
ObjRef::operator=(ObjRef &&other) noexcept
{
    if (this != &other) {
        if (obj_ != nullptr)
            obj_->release();
        obj_ = other.obj_;
        other.obj_ = nullptr;
    }
    return *this;
}

inline
ObjRef::~ObjRef()
{
    if (obj_ != nullptr)
        obj_->release();
}

/**
 * The element-type-independent half of every PrimitiveArray: its payload
 * as bytes, and the inline leaf check of every tier. One test covers the
 * common access (live, relaxed rules, 1/2/4/8 bytes, in bounds against
 * the array's own length, every byte written when initialization is
 * tracked), then a fixed-width copy; none of it depends on the element
 * type, so one copy of the check serves every primitive kind without a
 * dispatch on it. Any other access takes the array's out-of-line
 * checked path, which runs every check in order and raises the report.
 */
class PrimitiveLeaf : public ManagedObject
{
  public:
    /** The inline checked read; false (nothing read) when the access
     *  needs the full check. */
    bool
    tryRead(unsigned size, int64_t offset, uint64_t &bits) const
    {
        if (!plainAccess(size, offset) || !initialized(offset, size))
            return false;
        bits = loadScalarBits(bytes_.data() + offset, size);
        return true;
    }

    /** The inline checked write; the mirror of tryRead(). Pointer-class
     *  writes always take the full check. */
    bool
    tryWrite(AccessClass cls, unsigned size, int64_t offset, uint64_t bits)
    {
        if (cls == AccessClass::pointer || !plainAccess(size, offset))
            return false;
        for (unsigned i = 0; !inited_.empty() && i < size; i++)
            inited_[static_cast<size_t>(offset) + i] = true;
        storeScalarBits(bytes_.data() + offset, size, bits);
        return true;
    }

  protected:
    PrimitiveLeaf(ObjectKind kind, StorageKind storage, size_t bytes)
        : ManagedObject(kind, storage), bytes_(bytes, 0)
    {
        exactKind_ = true;
    }

    bool
    plainAccess(unsigned size, int64_t offset) const
    {
        return !freed_ && !strictTypeRules() && fixedScalarSize(size) &&
            offset >= 0 &&
            static_cast<uint64_t>(offset) + size <= bytes_.size();
    }

    /** The uninit fast test: nothing tracked, or every byte written. */
    bool
    initialized(int64_t offset, unsigned size) const
    {
        if (inited_.empty() || !uninitTracking())
            return true;
        for (unsigned i = 0; i < size; i++) {
            if (!inited_[static_cast<size_t>(offset) + i])
                return false;
        }
        return true;
    }

    /// The payload, zero-initialized (the all-zero bytes of T{} for
    /// every primitive T); the derived array reads it as Ts.
    std::vector<char> bytes_;
    /// Per-byte initialization bits; empty when tracking is off or the
    /// storage class starts initialized.
    std::vector<bool> inited_;
};

/**
 * Flat array of one primitive element type; also used for single scalars
 * (an `int` local is an I32 array of length 1).
 *
 * Supports the relaxed access rules: an access of a different size or
 * class than the element type is served by (little-endian) byte
 * reinterpretation, but pointer bits can never be read out of or written
 * into a primitive array.
 */
template <typename T, ObjectKind K>
class PrimitiveArray final : public PrimitiveLeaf
{
  public:
    PrimitiveArray(StorageKind storage, size_t count)
        : PrimitiveLeaf(K, storage, count * sizeof(T))
    {
        // Only automatic and dynamic storage can be read before being
        // written; static storage is initialized by the loader.
        if (uninitTracking() &&
            (storage == StorageKind::stack || storage == StorageKind::heap)) {
            inited_.assign(count * sizeof(T), false);
        }
    }

    int64_t
    byteSize() const override
    {
        return static_cast<int64_t>(bytes_.size());
    }

    size_t length() const { return bytes_.size() / sizeof(T); }
    T *data() { return reinterpret_cast<T *>(bytes_.data()); }

    void
    read(AccessClass cls, unsigned size, int64_t offset, uint64_t &out_int,
         Address &out_addr) override
    {
        uint64_t bits = 0;
        if (!tryRead(size, offset, bits))
            bits = readChecked(cls, size, offset);
        if (cls == AccessClass::pointer) {
            // Relaxation for memcpy/qsort-style generic code: raw bits
            // read as a pointer become a provenance-free Address (null
            // pointee + the bits as offset). It can be copied around but
            // dereferencing it reports a NULL dereference — a pointer can
            // never be conjured out of integers (Section 3.2).
            out_addr = Address{};
            out_addr.offset = static_cast<int64_t>(bits);
            return;
        }
        out_int = bits;
    }

    void
    write(AccessClass cls, unsigned size, int64_t offset, uint64_t bits,
          const Address &addr) override
    {
        if (!tryWrite(cls, size, offset, bits))
            writeChecked(cls, size, offset, bits, addr);
    }

    void
    markAllInitialized() override
    {
        inited_.assign(inited_.size(), true);
    }

    bool
    resetForReuse() override
    {
        if (freed_)
            return false;
        std::fill(bytes_.begin(), bytes_.end(), 0);
        if (!inited_.empty())
            inited_.assign(inited_.size(), false);
        return true;
    }

    void
    free() override
    {
        // Paper Fig. 7: drop the payload so the collector can reclaim it;
        // the header survives so later accesses are detected.
        freedSize_ = byteSize();
        bytes_.clear();
        bytes_.shrink_to_fit();
        freed_ = true;
    }

    std::string
    describe() const override
    {
        size_t len = freed_
            ? static_cast<size_t>(freedSize_ / static_cast<int64_t>(sizeof(T)))
            : length();
        return std::string(elemName()) + "Array[" + std::to_string(len) + "]";
    }

  private:
    /** Every check of a read, in report order; returns the bits. */
    [[gnu::noinline]] uint64_t
    readChecked(AccessClass cls, unsigned size, int64_t offset)
    {
        if (freed_)
            raiseUseAfterFree(false);
        checkStrict(cls, size, offset, false);
        checkBounds(offset, size, false);
        checkInitialized(offset, size);
        uint64_t bits = 0;
        std::memcpy(&bits, bytes_.data() + offset, size);
        return bits;
    }

    /** Every check of a write, in report order, then the write. */
    [[gnu::noinline]] void
    writeChecked(AccessClass cls, unsigned size, int64_t offset,
                 uint64_t bits, const Address &addr)
    {
        if (freed_)
            raiseUseAfterFree(true);
        if (cls == AccessClass::pointer) {
            // Only provenance-free pointer bits (see read()) may be
            // stored into a primitive array; a real Address would lose
            // its pointee and defeat the safety guarantees.
            if (!addr.isNull())
                raiseTypeError(AccessKind::write,
                               "storing a pointer into " + describe());
            bits = static_cast<uint64_t>(addr.offset);
        }
        checkStrict(cls, size, offset, true);
        checkBounds(offset, size, true);
        if (!inited_.empty()) {
            for (unsigned i = 0; i < size; i++)
                inited_[static_cast<size_t>(offset) + i] = true;
        }
        std::memcpy(bytes_.data() + offset, &bits, size);
    }

    void
    checkInitialized(int64_t offset, unsigned size) const
    {
        if (inited_.empty() || !uninitTracking())
            return;
        for (unsigned i = 0; i < size; i++) {
            if (!inited_[static_cast<size_t>(offset) + i]) {
                BugReport report;
                report.kind = ErrorKind::uninitRead;
                report.access = AccessKind::read;
                report.storage = storage_;
                report.offset = offset + i;
                report.detail = "read of uninitialized byte at offset " +
                    std::to_string(offset + i) + " of " + describe() +
                    (name_.empty() ? "" : " '" + name_ + "'");
                throw MemoryErrorException(std::move(report));
            }
        }
    }

    void
    checkStrict(AccessClass cls, unsigned size, int64_t offset,
                bool is_write) const
    {
        if (!strictTypeRules())
            return;
        bool want_float = std::is_floating_point_v<T>;
        bool is_float = cls == AccessClass::floating;
        if (want_float != is_float || size != sizeof(T) ||
            offset % static_cast<int64_t>(sizeof(T)) != 0) {
            raiseTypeError(is_write ? AccessKind::write : AccessKind::read,
                           "strict type rules: " + std::to_string(size) +
                               "-byte access into " + describe());
        }
    }

    static const char *
    elemName()
    {
        if constexpr (std::is_same_v<T, int8_t>) return "I8";
        else if constexpr (std::is_same_v<T, int16_t>) return "I16";
        else if constexpr (std::is_same_v<T, int32_t>) return "I32";
        else if constexpr (std::is_same_v<T, int64_t>) return "I64";
        else if constexpr (std::is_same_v<T, float>) return "F32";
        else return "F64";
    }

    int64_t freedSize_ = 0;
};

using I8Array = PrimitiveArray<int8_t, ObjectKind::i8Array>;
using I16Array = PrimitiveArray<int16_t, ObjectKind::i16Array>;
using I32Array = PrimitiveArray<int32_t, ObjectKind::i32Array>;
using I64Array = PrimitiveArray<int64_t, ObjectKind::i64Array>;
using F32Array = PrimitiveArray<float, ObjectKind::f32Array>;
using F64Array = PrimitiveArray<double, ObjectKind::f64Array>;

/**
 * Array of pointers. Only pointer-class accesses of pointer size are
 * legal; everything else violates even the relaxed type rules.
 */
class AddressArray final : public ManagedObject
{
  public:
    AddressArray(StorageKind storage, size_t count)
        : ManagedObject(ObjectKind::addressArray, storage), data_(count)
    {
        exactKind_ = true;
    }

    int64_t
    byteSize() const override
    {
        return static_cast<int64_t>(data_.size() * 8);
    }

    size_t length() const { return data_.size(); }
    Address &at(size_t i) { return data_[i]; }

    /** Inline leaf check: an aligned, in-bounds 8-byte pointer access
     *  of a live array copies the slot; anything else (the relaxed
     *  integer cases included) takes the out-of-line checked path. */
    void
    read(AccessClass cls, unsigned size, int64_t offset, uint64_t &out_int,
         Address &out_addr) override
    {
        if (plainAccess(cls, size, offset)) {
            out_addr = data_[static_cast<size_t>(offset) / 8];
            return;
        }
        readChecked(cls, size, offset, out_int, out_addr);
    }

    void
    write(AccessClass cls, unsigned size, int64_t offset, uint64_t bits,
          const Address &addr) override
    {
        if (plainAccess(cls, size, offset)) {
            data_[static_cast<size_t>(offset) / 8] = addr;
            return;
        }
        writeChecked(cls, size, offset, bits, addr);
    }

    void free() override;

    bool
    resetForReuse() override
    {
        if (freed_)
            return false;
        // Dropping the held Addresses also releases their referents,
        // exactly as destruction would.
        std::fill(data_.begin(), data_.end(), Address{});
        return true;
    }

    std::string
    describe() const override
    {
        size_t len = freed_ ? freedLen_ : data_.size();
        return "AddressArray[" + std::to_string(len) + "]";
    }

  private:
    bool
    plainAccess(AccessClass cls, unsigned size, int64_t offset) const
    {
        return cls == AccessClass::pointer && size == 8 && !freed_ &&
            (offset & 7) == 0 &&
            static_cast<uint64_t>(offset) < data_.size() * 8;
    }

    void readChecked(AccessClass cls, unsigned size, int64_t offset,
                     uint64_t &out_int, Address &out_addr);
    void writeChecked(AccessClass cls, unsigned size, int64_t offset,
                      uint64_t bits, const Address &addr);

    std::vector<Address> data_;
    size_t freedLen_ = 0;
};

/**
 * A struct instance: one sub-object per field, resolved by byte offset
 * against the IR struct layout (the paper's Truffle object-model map).
 */
class StructObject final : public ManagedObject
{
  public:
    StructObject(StorageKind storage, const Type *type);

    int64_t byteSize() const override
    {
        return static_cast<int64_t>(type_->size());
    }
    const Type *type() const { return type_; }
    ManagedObject *field(size_t i) { return fields_[i].get(); }

    void read(AccessClass cls, unsigned size, int64_t offset,
              uint64_t &out_int, Address &out_addr) override;
    void write(AccessClass cls, unsigned size, int64_t offset,
               uint64_t bits, const Address &addr) override;

    void free() override;

    void
    markAllInitialized() override
    {
        for (auto &field : fields_)
            field->markAllInitialized();
    }

    std::string
    describe() const override
    {
        return "Struct " + type_->structName();
    }

  private:
    /** Map a byte offset to (field object, offset within field). */
    ManagedObject *resolve(int64_t offset, unsigned size,
                           int64_t &inner_offset, bool is_write);

    const Type *type_;
    std::vector<ObjRef> fields_;
};

/**
 * Array whose elements are aggregates (structs or nested arrays).
 */
class AggregateArray final : public ManagedObject
{
  public:
    AggregateArray(StorageKind storage, const Type *array_type);

    int64_t byteSize() const override
    {
        return static_cast<int64_t>(type_->size());
    }
    size_t length() const { return elems_.size(); }
    ManagedObject *element(size_t i) { return elems_[i].get(); }

    void read(AccessClass cls, unsigned size, int64_t offset,
              uint64_t &out_int, Address &out_addr) override;
    void write(AccessClass cls, unsigned size, int64_t offset,
               uint64_t bits, const Address &addr) override;

    void free() override;

    void
    markAllInitialized() override
    {
        for (auto &elem : elems_)
            elem->markAllInitialized();
    }

    std::string
    describe() const override
    {
        return type_->toString();
    }

  private:
    ManagedObject *resolve(int64_t offset, unsigned size,
                           int64_t &inner_offset, bool is_write);

    const Type *type_;
    uint64_t elemSize_;
    std::vector<ObjRef> elems_;
};

/**
 * A function designator; function pointers are Addresses whose pointee is
 * a FunctionObject (paper: FunctionAddress with an id for inline caches).
 */
class FunctionObject final : public ManagedObject
{
  public:
    explicit FunctionObject(unsigned fn_id)
        : ManagedObject(ObjectKind::functionObject, StorageKind::global),
          fnId_(fn_id)
    {}

    unsigned fnId() const { return fnId_; }

    int64_t byteSize() const override { return 0; }

    void
    read(AccessClass, unsigned, int64_t, uint64_t &, Address &) override
    {
        raiseTypeError(AccessKind::read, "reading from a function");
    }

    void
    write(AccessClass, unsigned, int64_t, uint64_t, const Address &) override
    {
        raiseTypeError(AccessKind::write, "writing to a function");
    }

    std::string describe() const override { return "Function"; }

  private:
    unsigned fnId_;
};

/**
 * The varargs descriptor created by va_start (paper Fig. 9): boxed copies
 * of the variadic arguments plus a cursor. An access past the end of the
 * argument array is exactly the paper's "access to a non-existent
 * variadic argument" error.
 */
class VarargsObject final : public ManagedObject
{
  public:
    explicit VarargsObject(std::vector<Address> args)
        : ManagedObject(ObjectKind::varargsObject, StorageKind::stack),
          args_(std::move(args))
    {}

    int64_t byteSize() const override
    {
        return static_cast<int64_t>(args_.size() * 8);
    }

    size_t count() const { return args_.size(); }

    /** Fetch the next argument pointer, advancing the cursor. */
    Address
    next()
    {
        if (cursor_ >= args_.size()) {
            BugReport report;
            report.kind = ErrorKind::varargs;
            report.access = AccessKind::read;
            report.storage = StorageKind::stack;
            report.detail = "access to variadic argument " +
                std::to_string(cursor_) + " but only " +
                std::to_string(args_.size()) + " were passed";
            throw MemoryErrorException(std::move(report));
        }
        return args_[cursor_++];
    }

    void
    read(AccessClass, unsigned, int64_t, uint64_t &, Address &) override
    {
        raiseTypeError(AccessKind::read, "raw read of a va_list");
    }

    void
    write(AccessClass, unsigned, int64_t, uint64_t, const Address &) override
    {
        raiseTypeError(AccessKind::write, "raw write of a va_list");
    }

    std::string describe() const override { return "VarArgs"; }

  private:
    std::vector<Address> args_;
    size_t cursor_ = 0;
};

} // namespace sulong

#endif // MS_MANAGED_OBJECT_H
