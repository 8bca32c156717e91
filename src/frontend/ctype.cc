#include "frontend/ctype.h"

#include "support/diagnostics.h"

namespace sulong
{

int
CType::intRank() const
{
    switch (kind_) {
      case CTypeKind::charTy: case CTypeKind::ucharTy: return 1;
      case CTypeKind::shortTy: case CTypeKind::ushortTy: return 2;
      case CTypeKind::intTy: case CTypeKind::uintTy: return 3;
      case CTypeKind::longTy: case CTypeKind::ulongTy: return 4;
      default:
        throw InternalError("intRank() on non-integer");
    }
}

const CField *
CType::fieldNamed(const std::string &name) const
{
    for (const auto &field : fields_) {
        if (field.name == name)
            return &field;
    }
    return nullptr;
}

std::string
CType::toString() const
{
    switch (kind_) {
      case CTypeKind::voidTy: return "void";
      case CTypeKind::charTy: return "char";
      case CTypeKind::ucharTy: return "unsigned char";
      case CTypeKind::shortTy: return "short";
      case CTypeKind::ushortTy: return "unsigned short";
      case CTypeKind::intTy: return "int";
      case CTypeKind::uintTy: return "unsigned int";
      case CTypeKind::longTy: return "long";
      case CTypeKind::ulongTy: return "unsigned long";
      case CTypeKind::floatTy: return "float";
      case CTypeKind::doubleTy: return "double";
      case CTypeKind::pointer: return elem_->toString() + " *";
      case CTypeKind::array:
        return elem_->toString() + " [" + std::to_string(arrayLen_) + "]";
      case CTypeKind::structTy: return "struct " + name_;
      case CTypeKind::function: {
        std::string s = elem_->toString() + " (";
        for (size_t i = 0; i < params_.size(); i++) {
            if (i)
                s += ", ";
            s += params_[i]->toString();
        }
        if (varArg_)
            s += params_.empty() ? "..." : ", ...";
        return s + ")";
      }
    }
    return "<bad-ctype>";
}

CTypeContext::CTypeContext(TypeContext &ir_types, const CTypeContext *base)
    : irTypes_(ir_types), base_(base),
      basics_(base != nullptr ? base->basics_ : ownBasics_),
      anonStructCount_(base != nullptr ? base->anonStructCount_ : 0)
{
    if (base != nullptr)
        return;
    static const CTypeKind kinds[11] = {
        CTypeKind::voidTy, CTypeKind::charTy, CTypeKind::ucharTy,
        CTypeKind::shortTy, CTypeKind::ushortTy, CTypeKind::intTy,
        CTypeKind::uintTy, CTypeKind::longTy, CTypeKind::ulongTy,
        CTypeKind::floatTy, CTypeKind::doubleTy,
    };
    for (int i = 0; i < 11; i++)
        ownBasics_[i].kind_ = kinds[i];
}

CType *
CTypeContext::allocate()
{
    owned_.push_back(std::unique_ptr<CType>(new CType()));
    return owned_.back().get();
}

const CType *
CTypeContext::findPointer(const CType *pointee) const
{
    auto it = pointers_.find(pointee);
    if (it != pointers_.end())
        return it->second;
    return base_ != nullptr ? base_->findPointer(pointee) : nullptr;
}

const CType *
CTypeContext::findArray(const CType *elem, uint64_t count) const
{
    auto it = arrays_.find(std::make_pair(elem, count));
    if (it != arrays_.end())
        return it->second;
    return base_ != nullptr ? base_->findArray(elem, count) : nullptr;
}

const CType *
CTypeContext::findFunction(const std::string &key) const
{
    auto it = functions_.find(key);
    if (it != functions_.end())
        return it->second;
    return base_ != nullptr ? base_->findFunction(key) : nullptr;
}

const Type *
CTypeContext::findLowered(const CType *struct_type) const
{
    auto it = loweredStructs_.find(struct_type);
    if (it != loweredStructs_.end())
        return it->second;
    return base_ != nullptr ? base_->findLowered(struct_type) : nullptr;
}

const CType *
CTypeContext::pointerTo(const CType *pointee)
{
    if (const CType *known = findPointer(pointee))
        return known;
    CType *type = allocate();
    type->kind_ = CTypeKind::pointer;
    type->elem_ = pointee;
    pointers_[pointee] = type;
    return type;
}

const CType *
CTypeContext::arrayOf(const CType *elem, uint64_t count)
{
    if (const CType *known = findArray(elem, count))
        return known;
    auto key = std::make_pair(elem, count);
    CType *type = allocate();
    type->kind_ = CTypeKind::array;
    type->elem_ = elem;
    type->arrayLen_ = count;
    arrays_[key] = type;
    return type;
}

const CType *
CTypeContext::declareStruct(const std::string &tag)
{
    std::string name = tag;
    if (name.empty())
        name = ".anon" + std::to_string(anonStructCount_++);
    auto it = structs_.find(name);
    if (it != structs_.end())
        return it->second;
    // A base's struct is shared only once complete: completing it here
    // would change the base. (A library leaves none incomplete.)
    const CType *inherited =
        base_ != nullptr ? base_->findStruct(name) : nullptr;
    if (inherited != nullptr && inherited->isCompleteStruct())
        return inherited;
    CType *type = allocate();
    type->kind_ = CTypeKind::structTy;
    type->name_ = name;
    structs_[name] = type;
    return type;
}

void
CTypeContext::completeStruct(const CType *struct_type,
                             std::vector<CField> fields)
{
    if (struct_type->isCompleteStruct())
        return; // redefinition handled by the parser with a diagnostic
    auto it = structs_.find(struct_type->structName());
    if (it == structs_.end() || it->second != struct_type)
        throw InternalError("completing unknown struct");
    CType *mut = it->second;
    mut->fields_ = std::move(fields);
    mut->structComplete_ = true;
}

const CType *
CTypeContext::findStruct(const std::string &tag) const
{
    auto it = structs_.find(tag);
    if (it != structs_.end())
        return it->second;
    return base_ != nullptr ? base_->findStruct(tag) : nullptr;
}

const CType *
CTypeContext::functionType(const CType *ret,
                           std::vector<const CType *> params, bool var_arg)
{
    std::string key = ret->toString() + "(";
    for (const CType *param : params)
        key += param->toString() + ",";
    if (var_arg)
        key += "...";
    key += ")";
    if (const CType *known = findFunction(key))
        return known;
    CType *type = allocate();
    type->kind_ = CTypeKind::function;
    type->elem_ = ret;
    type->params_ = std::move(params);
    type->varArg_ = var_arg;
    functions_[key] = type;
    return type;
}

uint64_t
CTypeContext::sizeOf(const CType *type)
{
    return lower(type)->size();
}

const Type *
CTypeContext::lower(const CType *type)
{
    switch (type->kind()) {
      case CTypeKind::voidTy: return irTypes_.voidTy();
      case CTypeKind::charTy: case CTypeKind::ucharTy:
        return irTypes_.i8();
      case CTypeKind::shortTy: case CTypeKind::ushortTy:
        return irTypes_.i16();
      case CTypeKind::intTy: case CTypeKind::uintTy:
        return irTypes_.i32();
      case CTypeKind::longTy: case CTypeKind::ulongTy:
        return irTypes_.i64();
      case CTypeKind::floatTy: return irTypes_.f32();
      case CTypeKind::doubleTy: return irTypes_.f64();
      case CTypeKind::pointer: return irTypes_.ptr();
      case CTypeKind::array:
        return irTypes_.arrayType(lower(type->elemType()),
                                  type->arrayLength());
      case CTypeKind::structTy: {
        if (const Type *known = findLowered(type))
            return known;
        std::vector<std::pair<std::string, const Type *>> fields;
        for (const CField &field : type->fields())
            fields.emplace_back(field.name, lower(field.type));
        const Type *ir = irTypes_.structType(type->structName(), fields);
        loweredStructs_[type] = ir;
        return ir;
      }
      case CTypeKind::function: {
        std::vector<const Type *> params;
        for (const CType *param : type->paramTypes())
            params.push_back(lower(param));
        return irTypes_.functionType(lower(type->returnType()),
                                     std::move(params), type->isVarArg());
      }
    }
    throw InternalError("lower(): bad type");
}

const CType *
CTypeContext::promote(const CType *type) const
{
    if (!type->isInteger())
        return type;
    if (type->intRank() < intTy()->intRank())
        return intTy(); // all sub-int types fit in int on LP64
    return type;
}

const CType *
CTypeContext::usualArithmetic(const CType *lhs, const CType *rhs) const
{
    if (lhs->kind() == CTypeKind::doubleTy ||
        rhs->kind() == CTypeKind::doubleTy) {
        return doubleTy();
    }
    if (lhs->kind() == CTypeKind::floatTy ||
        rhs->kind() == CTypeKind::floatTy) {
        return floatTy();
    }
    const CType *l = promote(lhs);
    const CType *r = promote(rhs);
    if (l == r)
        return l;
    bool l_signed = l->isSignedInt();
    bool r_signed = r->isSignedInt();
    int l_rank = l->intRank();
    int r_rank = r->intRank();
    if (l_signed == r_signed)
        return l_rank >= r_rank ? l : r;
    const CType *u = l_signed ? r : l;
    const CType *s = l_signed ? l : r;
    int u_rank = u->intRank();
    int s_rank = s->intRank();
    if (u_rank >= s_rank)
        return u;
    // Signed type has higher rank; on LP64 it can represent all values of
    // the lower-ranked unsigned type.
    return s;
}

} // namespace sulong
