#include "managed/object.h"

#include "support/diagnostics.h"

namespace sulong
{

void
ManagedObject::free()
{
    raiseTypeError("free() of a non-heap object");
}

void
ManagedObject::raiseBounds(AccessClass cls, int64_t offset, unsigned size,
                           bool is_write) const
{
    (void)cls;
    BugReport report;
    report.kind = ErrorKind::outOfBounds;
    report.access = is_write ? AccessKind::write : AccessKind::read;
    report.storage = storage_;
    report.direction = offset < 0 ? BoundsDirection::underflow
                                  : BoundsDirection::overflow;
    report.offset = offset;
    report.objectSize = byteSize();
    report.detail = std::to_string(size) + "-byte access at offset " +
        std::to_string(offset) + " of " + describe() +
        (name_.empty() ? "" : " '" + name_ + "'");
    throw MemoryErrorException(std::move(report));
}

void
ManagedObject::raiseUseAfterFree(bool is_write) const
{
    BugReport report;
    report.kind = ErrorKind::useAfterFree;
    report.access = is_write ? AccessKind::write : AccessKind::read;
    report.storage = storage_;
    report.detail = "access to freed " + describe() +
        (name_.empty() ? "" : " '" + name_ + "'");
    throw MemoryErrorException(std::move(report));
}

void
ManagedObject::raiseTypeError(const std::string &what) const
{
    BugReport report;
    report.kind = ErrorKind::typeError;
    report.storage = storage_;
    report.detail = what;
    throw MemoryErrorException(std::move(report));
}

// -----------------------------------------------------------------------
// AddressArray
// -----------------------------------------------------------------------

void
AddressArray::readChecked(AccessClass cls, unsigned size, int64_t offset,
                          uint64_t &out_int, Address &out_addr)
{
    if (freed_)
        raiseUseAfterFree(false);
    if (offset < 0 || offset + static_cast<int64_t>(size) > byteSize())
        raiseBounds(cls, offset, size, false);
    if (cls != AccessClass::pointer || size != 8) {
        // Relaxation: integer reads of a slot holding provenance-free
        // bits (or null) succeed; reading the bits of a real pointer
        // would leak provenance and is a type error.
        if (cls == AccessClass::integer && size == 8 && offset % 8 == 0) {
            const Address &slot = data_[static_cast<size_t>(offset / 8)];
            if (slot.isNull()) {
                out_int = static_cast<uint64_t>(slot.offset);
                return;
            }
        }
        raiseTypeError("non-pointer read from " + describe());
    }
    if (offset % 8 != 0)
        raiseTypeError("misaligned pointer read from " + describe());
    out_addr = data_[static_cast<size_t>(offset / 8)];
}

void
AddressArray::writeChecked(AccessClass cls, unsigned size, int64_t offset,
                           uint64_t bits, const Address &addr)
{
    if (freed_)
        raiseUseAfterFree(true);
    if (offset < 0 || offset + static_cast<int64_t>(size) > byteSize())
        raiseBounds(cls, offset, size, true);
    if (cls != AccessClass::pointer) {
        // Relaxation: storing integer 0 clears a pointer slot (common in
        // memset-style initialization); anything else is a type error.
        if (cls == AccessClass::integer && bits == 0 && size == 8 &&
            offset % 8 == 0) {
            data_[static_cast<size_t>(offset / 8)] = Address{};
            return;
        }
        raiseTypeError("non-pointer write into " + describe());
    }
    if (offset % 8 != 0)
        raiseTypeError("misaligned pointer write into " + describe());
    data_[static_cast<size_t>(offset / 8)] = addr;
}

void
AddressArray::free()
{
    freedLen_ = data_.size();
    data_.clear();
    data_.shrink_to_fit();
    freed_ = true;
}

// -----------------------------------------------------------------------
// StructObject
// -----------------------------------------------------------------------

namespace
{

/** Create the managed object representing one value of @p type. */
ObjRef
createFieldObject(StorageKind storage, const Type *type)
{
    switch (type->kind()) {
      case TypeKind::i1:
      case TypeKind::i8:
        return ObjRef(new I8Array(storage, 1));
      case TypeKind::i16:
        return ObjRef(new I16Array(storage, 1));
      case TypeKind::i32:
        return ObjRef(new I32Array(storage, 1));
      case TypeKind::i64:
        return ObjRef(new I64Array(storage, 1));
      case TypeKind::f32:
        return ObjRef(new F32Array(storage, 1));
      case TypeKind::f64:
        return ObjRef(new F64Array(storage, 1));
      case TypeKind::ptr:
        return ObjRef(new AddressArray(storage, 1));
      case TypeKind::structTy:
        return ObjRef(new StructObject(storage, type));
      case TypeKind::array: {
        const Type *elem = type->elemType();
        size_t count = type->arrayLength();
        switch (elem->kind()) {
          case TypeKind::i1:
          case TypeKind::i8:
            return ObjRef(new I8Array(storage, count));
          case TypeKind::i16:
            return ObjRef(new I16Array(storage, count));
          case TypeKind::i32:
            return ObjRef(new I32Array(storage, count));
          case TypeKind::i64:
            return ObjRef(new I64Array(storage, count));
          case TypeKind::f32:
            return ObjRef(new F32Array(storage, count));
          case TypeKind::f64:
            return ObjRef(new F64Array(storage, count));
          case TypeKind::ptr:
            return ObjRef(new AddressArray(storage, count));
          default:
            return ObjRef(new AggregateArray(storage, type));
        }
      }
      default:
        throw InternalError("cannot create managed object for " +
                            type->toString());
    }
}

} // namespace

/** Factory shared with the heap allocator (see managed/factory.h). */
ObjRef
createManagedObject(StorageKind storage, const Type *type)
{
    return createFieldObject(storage, type);
}

StructObject::StructObject(StorageKind storage, const Type *type)
    : ManagedObject(ObjectKind::structObject, storage), type_(type)
{
    fields_.reserve(type->fields().size());
    for (const StructField &field : type->fields())
        fields_.push_back(createFieldObject(storage, field.type));
}

ManagedObject *
StructObject::resolve(int64_t offset, unsigned size, int64_t &inner_offset,
                      bool is_write)
{
    if (freed_)
        raiseUseAfterFree(is_write);
    if (offset < 0 || offset + static_cast<int64_t>(size) > byteSize())
        raiseBounds(AccessClass::integer, offset, size, is_write);
    int idx = type_->fieldAt(static_cast<uint64_t>(offset));
    if (idx < 0) {
        // Access into padding.
        raiseTypeError("access to struct padding in " + describe());
    }
    const StructField &field = type_->fields()[static_cast<size_t>(idx)];
    inner_offset = offset - static_cast<int64_t>(field.offset);
    // Accesses spanning several fields (memcpy/qsort word chunks) are
    // signalled to the caller with nullptr and handled byte-wise.
    if (inner_offset + static_cast<int64_t>(size) >
        static_cast<int64_t>(field.type->size())) {
        return nullptr;
    }
    return fields_[static_cast<size_t>(idx)].get();
}

namespace
{

/**
 * Byte-compose a multi-field access (Section 3.2 relaxation for generic
 * word-wise code). Pointer-class results are provenance-free bits.
 */
uint64_t
readSpanning(ManagedObject &obj, unsigned size, int64_t offset)
{
    uint64_t bits = 0;
    for (unsigned i = 0; i < size; i++) {
        uint64_t byte = 0;
        Address dummy;
        obj.read(AccessClass::integer, 1, offset + i, byte, dummy);
        bits |= (byte & 0xff) << (8 * i);
    }
    return bits;
}

void
writeSpanning(ManagedObject &obj, unsigned size, int64_t offset,
              uint64_t bits)
{
    for (unsigned i = 0; i < size; i++) {
        Address dummy;
        obj.write(AccessClass::integer, 1, offset + i,
                  (bits >> (8 * i)) & 0xff, dummy);
    }
}

} // namespace

void
StructObject::read(AccessClass cls, unsigned size, int64_t offset,
                   uint64_t &out_int, Address &out_addr)
{
    int64_t inner = 0;
    ManagedObject *field = resolve(offset, size, inner, false);
    if (field == nullptr) {
        uint64_t bits = readSpanning(*this, size, offset);
        if (cls == AccessClass::pointer) {
            out_addr = Address{};
            out_addr.offset = static_cast<int64_t>(bits);
        } else {
            out_int = bits;
        }
        return;
    }
    field->read(cls, size, inner, out_int, out_addr);
}

void
StructObject::write(AccessClass cls, unsigned size, int64_t offset,
                    uint64_t bits, const Address &addr)
{
    int64_t inner = 0;
    ManagedObject *field = resolve(offset, size, inner, true);
    if (field == nullptr) {
        if (cls == AccessClass::pointer) {
            if (!addr.isNull())
                raiseTypeError("pointer write spans fields of " +
                               describe());
            bits = static_cast<uint64_t>(addr.offset);
        }
        writeSpanning(*this, size, offset, bits);
        return;
    }
    field->write(cls, size, inner, bits, addr);
}

void
StructObject::free()
{
    fields_.clear();
    freed_ = true;
}

// -----------------------------------------------------------------------
// AggregateArray
// -----------------------------------------------------------------------

AggregateArray::AggregateArray(StorageKind storage, const Type *array_type)
    : ManagedObject(ObjectKind::arrayOfAggregates, storage),
      type_(array_type), elemSize_(array_type->elemType()->size())
{
    elems_.reserve(array_type->arrayLength());
    for (uint64_t i = 0; i < array_type->arrayLength(); i++)
        elems_.push_back(createFieldObject(storage, array_type->elemType()));
}

ManagedObject *
AggregateArray::resolve(int64_t offset, unsigned size, int64_t &inner_offset,
                        bool is_write)
{
    if (freed_)
        raiseUseAfterFree(is_write);
    if (offset < 0 || offset + static_cast<int64_t>(size) > byteSize())
        raiseBounds(AccessClass::integer, offset, size, is_write);
    size_t idx = static_cast<size_t>(offset / static_cast<int64_t>(elemSize_));
    inner_offset = offset % static_cast<int64_t>(elemSize_);
    if (inner_offset + static_cast<int64_t>(size) >
        static_cast<int64_t>(elemSize_)) {
        return nullptr; // spans elements; handled byte-wise by callers
    }
    return elems_[idx].get();
}

void
AggregateArray::read(AccessClass cls, unsigned size, int64_t offset,
                     uint64_t &out_int, Address &out_addr)
{
    int64_t inner = 0;
    ManagedObject *elem = resolve(offset, size, inner, false);
    if (elem == nullptr) {
        uint64_t bits = readSpanning(*this, size, offset);
        if (cls == AccessClass::pointer) {
            out_addr = Address{};
            out_addr.offset = static_cast<int64_t>(bits);
        } else {
            out_int = bits;
        }
        return;
    }
    elem->read(cls, size, inner, out_int, out_addr);
}

void
AggregateArray::write(AccessClass cls, unsigned size, int64_t offset,
                      uint64_t bits, const Address &addr)
{
    int64_t inner = 0;
    ManagedObject *elem = resolve(offset, size, inner, true);
    if (elem == nullptr) {
        if (cls == AccessClass::pointer) {
            if (!addr.isNull())
                raiseTypeError("pointer write spans elements of " +
                               describe());
            bits = static_cast<uint64_t>(addr.offset);
        }
        writeSpanning(*this, size, offset, bits);
        return;
    }
    elem->write(cls, size, inner, bits, addr);
}

void
AggregateArray::free()
{
    elems_.clear();
    freed_ = true;
}

} // namespace sulong
