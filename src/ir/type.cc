#include "ir/type.h"

#include <sstream>

#include "support/diagnostics.h"

namespace sulong
{

unsigned
Type::intBitsBad() const
{
    throw InternalError("intBits() on non-integer type");
}

int
Type::fieldAt(uint64_t offset) const
{
    for (size_t i = 0; i < fields_.size(); i++) {
        uint64_t end = fields_[i].offset + fields_[i].type->size();
        if (offset >= fields_[i].offset && offset < end)
            return static_cast<int>(i);
    }
    return -1;
}

const StructField *
Type::fieldNamed(const std::string &name) const
{
    for (const auto &field : fields_) {
        if (field.name == name)
            return &field;
    }
    return nullptr;
}

std::string
Type::toString() const
{
    switch (kind_) {
      case TypeKind::voidTy: return "void";
      case TypeKind::i1: return "i1";
      case TypeKind::i8: return "i8";
      case TypeKind::i16: return "i16";
      case TypeKind::i32: return "i32";
      case TypeKind::i64: return "i64";
      case TypeKind::f32: return "float";
      case TypeKind::f64: return "double";
      case TypeKind::ptr: return "ptr";
      case TypeKind::array: {
        std::ostringstream os;
        os << "[" << arrayLen_ << " x " << elem_->toString() << "]";
        return os.str();
      }
      case TypeKind::structTy:
        return "%struct." + name_;
      case TypeKind::function: {
        std::ostringstream os;
        os << elem_->toString() << " (";
        for (size_t i = 0; i < params_.size(); i++) {
            if (i)
                os << ", ";
            os << params_[i]->toString();
        }
        if (varArg_)
            os << (params_.empty() ? "..." : ", ...");
        os << ")";
        return os.str();
      }
    }
    return "<invalid>";
}

TypeContext::TypeContext(std::shared_ptr<const TypeContext> base)
    : base_(std::move(base)),
      primitives_(base_ != nullptr ? base_->primitives_ : ownPrimitives_)
{
    if (base_ != nullptr)
        return;
    struct Spec { TypeKind kind; uint64_t size; uint64_t align; };
    static const Spec specs[9] = {
        {TypeKind::voidTy, 0, 1}, {TypeKind::i1, 1, 1},
        {TypeKind::i8, 1, 1},     {TypeKind::i16, 2, 2},
        {TypeKind::i32, 4, 4},    {TypeKind::i64, 8, 8},
        {TypeKind::f32, 4, 4},    {TypeKind::f64, 8, 8},
        {TypeKind::ptr, 8, 8},
    };
    for (int i = 0; i < 9; i++) {
        ownPrimitives_[i].kind_ = specs[i].kind;
        ownPrimitives_[i].size_ = specs[i].size;
        ownPrimitives_[i].align_ = specs[i].align;
    }
}

const Type *
TypeContext::intType(unsigned bits) const
{
    switch (bits) {
      case 1: return i1();
      case 8: return i8();
      case 16: return i16();
      case 32: return i32();
      case 64: return i64();
      default:
        throw InternalError("unsupported integer width");
    }
}

const Type *
TypeContext::findArray(const Type *elem, uint64_t count) const
{
    auto it = arrays_.find(std::make_pair(elem, count));
    if (it != arrays_.end())
        return it->second;
    return base_ != nullptr ? base_->findArray(elem, count) : nullptr;
}

const Type *
TypeContext::arrayType(const Type *elem, uint64_t count)
{
    if (const Type *known = findArray(elem, count))
        return known;
    auto key = std::make_pair(elem, count);
    auto type = std::unique_ptr<Type>(new Type());
    type->kind_ = TypeKind::array;
    type->elem_ = elem;
    type->arrayLen_ = count;
    type->size_ = elem->size() * count;
    type->align_ = elem->align();
    const Type *raw = type.get();
    owned_.push_back(std::move(type));
    arrays_[key] = raw;
    return raw;
}

const Type *
TypeContext::structType(
    const std::string &name,
    const std::vector<std::pair<std::string, const Type *>> &fields)
{
    if (const Type *known = findStruct(name))
        return known;
    auto type = std::unique_ptr<Type>(new Type());
    type->kind_ = TypeKind::structTy;
    type->name_ = name;
    uint64_t offset = 0;
    uint64_t max_align = 1;
    for (const auto &[field_name, field_type] : fields) {
        uint64_t align = field_type->align();
        offset = (offset + align - 1) / align * align;
        type->fields_.push_back(StructField{field_name, field_type, offset});
        offset += field_type->size();
        max_align = std::max(max_align, align);
    }
    type->align_ = max_align;
    type->size_ = (offset + max_align - 1) / max_align * max_align;
    if (type->size_ == 0)
        type->size_ = max_align; // empty structs occupy one unit
    const Type *raw = type.get();
    owned_.push_back(std::move(type));
    structs_[name] = raw;
    return raw;
}

const Type *
TypeContext::findStruct(const std::string &name) const
{
    auto it = structs_.find(name);
    if (it != structs_.end())
        return it->second;
    return base_ != nullptr ? base_->findStruct(name) : nullptr;
}

const Type *
TypeContext::findFunction(const std::string &key) const
{
    auto it = functions_.find(key);
    if (it != functions_.end())
        return it->second;
    return base_ != nullptr ? base_->findFunction(key) : nullptr;
}

const Type *
TypeContext::functionType(const Type *ret, std::vector<const Type *> params,
                          bool var_arg)
{
    // Key by rendered signature; cheap and simple.
    std::string key = ret->toString() + "(";
    for (const Type *param : params)
        key += param->toString() + ",";
    if (var_arg)
        key += "...";
    key += ")";
    if (const Type *known = findFunction(key))
        return known;
    auto type = std::unique_ptr<Type>(new Type());
    type->kind_ = TypeKind::function;
    type->elem_ = ret;
    type->params_ = std::move(params);
    type->varArg_ = var_arg;
    type->size_ = 0;
    type->align_ = 1;
    const Type *raw = type.get();
    owned_.push_back(std::move(type));
    functions_[key] = raw;
    return raw;
}

} // namespace sulong
