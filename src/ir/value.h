/**
 * @file
 * Values of the MiniSulong IR: arguments, constants, globals, functions
 * and instruction results. All Value objects are owned by the Module (or
 * by Functions within it) and referenced by plain pointers; a Module is
 * immutable while engines execute it.
 */

#ifndef MS_IR_VALUE_H
#define MS_IR_VALUE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/type.h"

namespace sulong
{

class Function;
class GlobalVariable;

/** Discriminator for Value. */
enum class ValueKind : uint8_t
{
    argument,
    instruction,
    constantInt,
    constantFP,
    constantNull,
    global,
    function,
};

/**
 * Base class of everything an instruction can reference as an operand.
 */
class Value
{
  public:
    virtual ~Value() = default;

    ValueKind valueKind() const { return valueKind_; }
    const Type *type() const { return type_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    bool isConstant() const
    {
        return valueKind_ == ValueKind::constantInt ||
            valueKind_ == ValueKind::constantFP ||
            valueKind_ == ValueKind::constantNull;
    }

  protected:
    Value(ValueKind kind, const Type *type) : valueKind_(kind), type_(type) {}

    ValueKind valueKind_;
    const Type *type_;
    std::string name_;
};

/**
 * A formal parameter of a function. Its frame slot equals its index.
 */
class Argument : public Value
{
  public:
    Argument(const Type *type, unsigned index, std::string name)
        : Value(ValueKind::argument, type), index_(index)
    {
        name_ = std::move(name);
    }

    unsigned index() const { return index_; }

  private:
    unsigned index_;
};

/** An integer constant; bits are stored sign-extended to 64 bits. */
class ConstantInt : public Value
{
  public:
    ConstantInt(const Type *type, int64_t value)
        : Value(ValueKind::constantInt, type), value_(value)
    {}

    /** Sign-extended value. */
    int64_t value() const { return value_; }

  private:
    int64_t value_;
};

/** A floating-point constant (f32 constants are stored widened and
 *  rounded to float). */
class ConstantFP : public Value
{
  public:
    ConstantFP(const Type *type, double value)
        : Value(ValueKind::constantFP, type), value_(value)
    {}

    double value() const { return value_; }

  private:
    double value_;
};

/** The null pointer constant. */
class ConstantNull : public Value
{
  public:
    explicit ConstantNull(const Type *ptr_type)
        : Value(ValueKind::constantNull, ptr_type)
    {}
};

/**
 * Static initializer tree for global variables.
 *
 * Globals can be zero-initialized, scalar-initialized, byte-blob
 * initialized (string literals), aggregate-initialized, or initialized
 * with the address of another global or function.
 */
struct Initializer
{
    enum class Kind : uint8_t
    {
        zero,
        intVal,
        fpVal,
        bytes,
        array,
        structVal,
        globalRef,
        functionRef,
    };

    Kind kind = Kind::zero;
    int64_t intValue = 0;
    double fpValue = 0;
    /// Raw bytes for string-literal data (includes the NUL if present).
    std::string bytes;
    std::vector<Initializer> elems;
    const GlobalVariable *global = nullptr;
    /// Byte offset added to a globalRef (e.g. &arr[2]).
    int64_t addend = 0;
    const Function *function = nullptr;

    static Initializer makeZero() { return {}; }
    static Initializer makeInt(int64_t v)
    {
        Initializer init;
        init.kind = Kind::intVal;
        init.intValue = v;
        return init;
    }
    static Initializer makeFP(double v)
    {
        Initializer init;
        init.kind = Kind::fpVal;
        init.fpValue = v;
        return init;
    }
    static Initializer makeBytes(std::string data)
    {
        Initializer init;
        init.kind = Kind::bytes;
        init.bytes = std::move(data);
        return init;
    }
    static Initializer makeGlobalRef(const GlobalVariable *g, int64_t add = 0)
    {
        Initializer init;
        init.kind = Kind::globalRef;
        init.global = g;
        init.addend = add;
        return init;
    }
    static Initializer makeFunctionRef(const Function *f)
    {
        Initializer init;
        init.kind = Kind::functionRef;
        init.function = f;
        return init;
    }

    bool isZero() const { return kind == Kind::zero; }
};

/**
 * A global (static-storage) variable. As a Value its type is `ptr` (its
 * address); the type of the stored data is valueType().
 */
class GlobalVariable : public Value
{
  public:
    GlobalVariable(const Type *ptr_type, const Type *value_type,
                   std::string name, Initializer init, bool is_const)
        : Value(ValueKind::global, ptr_type), valueType_(value_type),
          init_(std::move(init)), isConst_(is_const)
    {
        name_ = std::move(name);
    }

    const Type *valueType() const { return valueType_; }
    const Initializer &init() const { return init_; }
    /// Two-phase construction: globals are created first (zero) so that
    /// initializers may reference globals defined later in the file.
    void setInit(Initializer init) { init_ = std::move(init); }
    bool isConst() const { return isConst_; }

  private:
    const Type *valueType_;
    Initializer init_;
    bool isConst_;
};

} // namespace sulong

#endif // MS_IR_VALUE_H
