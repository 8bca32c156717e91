/**
 * @file
 * The type system of the MiniSulong IR.
 *
 * Deliberately at the abstraction level of LLVM IR with opaque pointers:
 * integer types of the widths Clang emits for C on AMD64 (i1..i64),
 * float/double, one opaque pointer type, and aggregate types (arrays and
 * named structs) used for layout, allocation and managed-object shaping.
 *
 * Types are interned: within one TypeContext, structurally identical types
 * are represented by the same Type pointer, so type equality is pointer
 * equality.
 */

#ifndef MS_IR_TYPE_H
#define MS_IR_TYPE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sulong
{

class TypeContext;

/** Discriminator for Type. */
enum class TypeKind : uint8_t
{
    voidTy,
    i1,
    i8,
    i16,
    i32,
    i64,
    f32,
    f64,
    /// The single opaque pointer type.
    ptr,
    /// Fixed-size array: elem type + element count.
    array,
    /// Named struct with laid-out fields.
    structTy,
    /// Function type (return + params + varargs flag).
    function,
};

/** One field of a struct type, with its computed byte offset. */
struct StructField
{
    std::string name;
    const class Type *type = nullptr;
    uint64_t offset = 0;
};

/**
 * An immutable, interned IR type.
 *
 * Construction goes through TypeContext; layout (size/alignment) follows
 * the System V AMD64 data model that the paper's execution targets use.
 */
class Type
{
  public:
    TypeKind kind() const { return kind_; }

    bool isVoid() const { return kind_ == TypeKind::voidTy; }
    bool isInteger() const
    {
        return kind_ >= TypeKind::i1 && kind_ <= TypeKind::i64;
    }
    bool isFloat() const
    {
        return kind_ == TypeKind::f32 || kind_ == TypeKind::f64;
    }
    bool isPointer() const { return kind_ == TypeKind::ptr; }
    bool isArray() const { return kind_ == TypeKind::array; }
    bool isStruct() const { return kind_ == TypeKind::structTy; }
    bool isFunction() const { return kind_ == TypeKind::function; }
    bool isAggregate() const { return isArray() || isStruct(); }
    /// A type a single load/store can move: int, float, or pointer.
    bool isScalar() const { return isInteger() || isFloat() || isPointer(); }

    /** Bit width for integer types (i1 -> 1, ..., i64 -> 64). Inline:
     *  this sits on the per-access path of the managed engine. */
    unsigned
    intBits() const
    {
        switch (kind_) {
          case TypeKind::i1: return 1;
          case TypeKind::i8: return 8;
          case TypeKind::i16: return 16;
          case TypeKind::i32: return 32;
          case TypeKind::i64: return 64;
          default: return intBitsBad();
        }
    }

    /** Bit width for float types (f32 -> 32, f64 -> 64). */
    unsigned fpBits() const { return kind_ == TypeKind::f32 ? 32 : 64; }

    /** Size in bytes (structs/arrays include padding; void/function: 0). */
    uint64_t size() const { return size_; }
    /** Alignment requirement in bytes. */
    uint64_t align() const { return align_; }

    // Array accessors.
    const Type *elemType() const { return elem_; }
    uint64_t arrayLength() const { return arrayLen_; }

    // Struct accessors.
    const std::string &structName() const { return name_; }
    const std::vector<StructField> &fields() const { return fields_; }
    /** @return field index containing byte @p offset, or -1. */
    int fieldAt(uint64_t offset) const;
    /** @return field with exactly this name, or nullptr. */
    const StructField *fieldNamed(const std::string &name) const;

    // Function-type accessors.
    const Type *returnType() const { return elem_; }
    const std::vector<const Type *> &paramTypes() const { return params_; }
    bool isVarArg() const { return varArg_; }

    /** Render in LLVM-like syntax ("i32", "[10 x i32]", "%struct.foo"). */
    std::string toString() const;

  private:
    friend class TypeContext;
    Type() = default;

    /// Cold half of intBits(): the throw on a non-integer type.
    [[noreturn]] unsigned intBitsBad() const;

    TypeKind kind_ = TypeKind::voidTy;
    uint64_t size_ = 0;
    uint64_t align_ = 1;
    const Type *elem_ = nullptr;    // array elem / function return
    uint64_t arrayLen_ = 0;
    std::string name_;              // struct name
    std::vector<StructField> fields_;
    std::vector<const Type *> params_;
    bool varArg_ = false;
};

/**
 * Owns and interns all types of one Module.
 *
 * A context may extend a @p base context that is never changed again (a
 * shared library's, or the front-end module a program is copied from):
 * every type the base has is the base's object, and only the others are
 * created here, so IR types compare by pointer across a program and the
 * library it links. The context keeps its base alive.
 */
class TypeContext
{
  public:
    explicit TypeContext(std::shared_ptr<const TypeContext> base = nullptr);
    TypeContext(const TypeContext &) = delete;
    TypeContext &operator=(const TypeContext &) = delete;

    const Type *voidTy() const { return &primitives_[0]; }
    const Type *i1() const { return &primitives_[1]; }
    const Type *i8() const { return &primitives_[2]; }
    const Type *i16() const { return &primitives_[3]; }
    const Type *i32() const { return &primitives_[4]; }
    const Type *i64() const { return &primitives_[5]; }
    const Type *f32() const { return &primitives_[6]; }
    const Type *f64() const { return &primitives_[7]; }
    const Type *ptr() const { return &primitives_[8]; }

    /** Integer type of the given bit width (1, 8, 16, 32, 64). */
    const Type *intType(unsigned bits) const;

    /** Interned array type. */
    const Type *arrayType(const Type *elem, uint64_t count);

    /**
     * Create a named struct type. Offsets are computed from field types
     * using natural alignment. Calling twice with the same name returns
     * the first definition (mini-C has one definition per tag).
     */
    const Type *structType(const std::string &name,
                           const std::vector<std::pair<std::string,
                               const Type *>> &fields);

    /** Look up a previously created struct type by name, or nullptr. */
    const Type *findStruct(const std::string &name) const;

    /** Interned function type. */
    const Type *functionType(const Type *ret,
                             std::vector<const Type *> params,
                             bool var_arg);

  private:
    const Type *findArray(const Type *elem, uint64_t count) const;
    const Type *findFunction(const std::string &key) const;

    std::shared_ptr<const TypeContext> base_;
    /// The base's primitives, or ownPrimitives_.
    const Type *primitives_;
    Type ownPrimitives_[9];
    std::vector<std::unique_ptr<Type>> owned_;
    std::map<std::pair<const Type *, uint64_t>, const Type *> arrays_;
    std::map<std::string, const Type *> structs_;
    std::map<std::string, const Type *> functions_;
};

} // namespace sulong

#endif // MS_IR_TYPE_H
