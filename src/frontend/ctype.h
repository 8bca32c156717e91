/**
 * @file
 * The C-level type system of the mini-C front end.
 *
 * IR types are signedness-free (like LLVM IR); C semantics (signed vs.
 * unsigned arithmetic, integer promotions, usual arithmetic conversions,
 * array decay) live here and drive instruction selection in codegen.
 */

#ifndef MS_FRONTEND_CTYPE_H
#define MS_FRONTEND_CTYPE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/type.h"

namespace sulong
{

/** C type discriminator. Integer kinds are ordered by conversion rank. */
enum class CTypeKind : uint8_t
{
    voidTy,
    charTy,     ///< plain char; signed on our target
    ucharTy,
    shortTy,
    ushortTy,
    intTy,
    uintTy,
    longTy,     ///< 64-bit (LP64)
    ulongTy,
    floatTy,
    doubleTy,
    pointer,
    array,
    structTy,
    function,
};

class CType;

/** One struct member. */
struct CField
{
    std::string name;
    const CType *type = nullptr;
};

/**
 * An immutable, interned C type.
 */
class CType
{
  public:
    CTypeKind kind() const { return kind_; }

    bool isVoid() const { return kind_ == CTypeKind::voidTy; }
    bool isInteger() const
    {
        return kind_ >= CTypeKind::charTy && kind_ <= CTypeKind::ulongTy;
    }
    bool isFloat() const
    {
        return kind_ == CTypeKind::floatTy || kind_ == CTypeKind::doubleTy;
    }
    bool isArithmetic() const { return isInteger() || isFloat(); }
    bool isPointer() const { return kind_ == CTypeKind::pointer; }
    bool isArray() const { return kind_ == CTypeKind::array; }
    bool isStruct() const { return kind_ == CTypeKind::structTy; }
    bool isFunction() const { return kind_ == CTypeKind::function; }
    /// Usable in conditions / as an rvalue after decay.
    bool isScalar() const
    {
        return isArithmetic() || isPointer();
    }

    bool isSignedInt() const
    {
        switch (kind_) {
          case CTypeKind::charTy: case CTypeKind::shortTy:
          case CTypeKind::intTy: case CTypeKind::longTy:
            return true;
          default:
            return false;
        }
    }
    bool isUnsignedInt() const { return isInteger() && !isSignedInt(); }

    /// Conversion rank: char/uchar=1, short=2, int=3, long=4.
    int intRank() const;

    const CType *pointee() const { return elem_; }
    const CType *elemType() const { return elem_; }
    /// Array length; 0 means an incomplete array type (e.g. `int a[]`).
    uint64_t arrayLength() const { return arrayLen_; }

    const std::string &structName() const { return name_; }
    const std::vector<CField> &fields() const { return fields_; }
    bool isCompleteStruct() const { return structComplete_; }
    const CField *fieldNamed(const std::string &name) const;

    const CType *returnType() const { return elem_; }
    const std::vector<const CType *> &paramTypes() const { return params_; }
    bool isVarArg() const { return varArg_; }

    /** Render roughly like C ("int", "char *", "struct foo [4]"). */
    std::string toString() const;

  private:
    friend class CTypeContext;
    CType() = default;

    CTypeKind kind_ = CTypeKind::voidTy;
    const CType *elem_ = nullptr;
    uint64_t arrayLen_ = 0;
    std::string name_;
    std::vector<CField> fields_;
    bool structComplete_ = false;
    std::vector<const CType *> params_;
    bool varArg_ = false;
};

/**
 * Owns, interns, and lowers C types. One per compilation; bound to the
 * Module's TypeContext for layout queries and IR lowering.
 *
 * A context may extend a @p base context that is never changed again (a
 * precompiled library's): it starts where the base's compile ended, with
 * its struct tags, function types and anonymous-struct numbering, and
 * every type the base has is the base's object. @p ir_types must then
 * extend the base's IR types.
 */
class CTypeContext
{
  public:
    explicit CTypeContext(TypeContext &ir_types,
                          const CTypeContext *base = nullptr);
    CTypeContext(const CTypeContext &) = delete;
    CTypeContext &operator=(const CTypeContext &) = delete;

    const CType *voidTy() const { return &basics_[0]; }
    const CType *charTy() const { return &basics_[1]; }
    const CType *ucharTy() const { return &basics_[2]; }
    const CType *shortTy() const { return &basics_[3]; }
    const CType *ushortTy() const { return &basics_[4]; }
    const CType *intTy() const { return &basics_[5]; }
    const CType *uintTy() const { return &basics_[6]; }
    const CType *longTy() const { return &basics_[7]; }
    const CType *ulongTy() const { return &basics_[8]; }
    const CType *floatTy() const { return &basics_[9]; }
    const CType *doubleTy() const { return &basics_[10]; }

    const CType *pointerTo(const CType *pointee);
    const CType *arrayOf(const CType *elem, uint64_t count);

    /** Declare (or fetch) a struct tag; starts incomplete. */
    const CType *declareStruct(const std::string &tag);
    /** Complete a struct with fields; error to complete twice. */
    void completeStruct(const CType *struct_type,
                        std::vector<CField> fields);
    const CType *findStruct(const std::string &tag) const;

    const CType *functionType(const CType *ret,
                              std::vector<const CType *> params,
                              bool var_arg);

    /** Size in bytes (via IR lowering). Arrays of len 0 have size 0. */
    uint64_t sizeOf(const CType *type);

    /**
     * Lower a C type to its IR type (char -> i8, pointers -> ptr,
     * structs -> interned IR struct, functions -> IR function type).
     */
    const Type *lower(const CType *type);

    /** Result of the C integer promotions (char/short -> int). */
    const CType *promote(const CType *type) const;

    /** Usual arithmetic conversions for a binary operator. */
    const CType *usualArithmetic(const CType *lhs, const CType *rhs) const;

    TypeContext &irTypes() { return irTypes_; }

  private:
    CType *allocate();
    const CType *findPointer(const CType *pointee) const;
    const CType *findArray(const CType *elem, uint64_t count) const;
    const CType *findFunction(const std::string &key) const;
    const Type *findLowered(const CType *struct_type) const;

    TypeContext &irTypes_;
    const CTypeContext *base_;
    /// The base's basic types, or ownBasics_.
    const CType *basics_;
    CType ownBasics_[11];
    std::vector<std::unique_ptr<CType>> owned_;
    std::map<const CType *, const CType *> pointers_;
    std::map<std::pair<const CType *, uint64_t>, const CType *> arrays_;
    std::map<std::string, CType *> structs_;
    std::map<std::string, const CType *> functions_;
    std::map<const CType *, const Type *> loweredStructs_;
    unsigned anonStructCount_ = 0;
};

} // namespace sulong

#endif // MS_FRONTEND_CTYPE_H
