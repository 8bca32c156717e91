#include "ir/module.h"

#include <bit>

#include "ir/clone.h"
#include "ir/semantics.h"

namespace sulong
{

void
Function::removeBlocksIf(const std::vector<bool> &dead)
{
    std::vector<std::unique_ptr<BasicBlock>> kept;
    for (size_t i = 0; i < blocks_.size(); i++) {
        if (i < dead.size() && dead[i])
            continue;
        kept.push_back(std::move(blocks_[i]));
    }
    blocks_ = std::move(kept);
    for (unsigned i = 0; i < blocks_.size(); i++)
        blocks_[i]->setIndex(i);
}

void
Function::numberSlots()
{
    int next = static_cast<int>(args_.size());
    for (auto &bb : blocks_) {
        for (auto &inst : bb->insts()) {
            if (inst->producesValue())
                inst->setSlot(next++);
            else
                inst->setSlot(-1);
        }
    }
    numSlots_ = static_cast<unsigned>(next);
}

ConstantInt *
Module::constInt(const Type *type, int64_t value)
{
    value = sem::normInt(static_cast<uint64_t>(value), type->intBits());
    auto key = std::make_pair(type, value);
    auto it = intConstants_.find(key);
    if (it != intConstants_.end())
        return it->second.get();
    auto c = std::make_unique<ConstantInt>(type, value);
    ConstantInt *raw = c.get();
    intConstants_[key] = std::move(c);
    return raw;
}

ConstantFP *
Module::constFP(const Type *type, double value)
{
    value = sem::roundFP(value, type->fpBits());
    auto key = std::make_pair(type, std::bit_cast<uint64_t>(value));
    auto it = fpConstants_.find(key);
    if (it != fpConstants_.end())
        return it->second.get();
    auto c = std::make_unique<ConstantFP>(type, value);
    ConstantFP *raw = c.get();
    fpConstants_[key] = std::move(c);
    return raw;
}

ConstantNull *
Module::constNull()
{
    if (!nullConstant_)
        nullConstant_ = std::make_unique<ConstantNull>(types_->ptr());
    return nullConstant_.get();
}

GlobalVariable *
Module::addGlobal(const Type *value_type, std::string name, Initializer init,
                  bool is_const)
{
    if (name.empty())
        name = ".anon" + std::to_string(anonGlobalCount_++);
    auto g = std::make_unique<GlobalVariable>(
        types_->ptr(), value_type, std::move(name), std::move(init), is_const);
    GlobalVariable *raw = g.get();
    ownGlobals_.push_back(std::move(g));
    globals_.push_back(raw);
    globalsByName_[raw->name()] = raw;
    return raw;
}

void
Module::addLibraryGlobal(GlobalVariable *global)
{
    globals_.push_back(global);
}

void
Module::renameGlobal(GlobalVariable *global, std::string name)
{
    auto it = globalsByName_.find(global->name());
    if (it != globalsByName_.end() && it->second == global)
        globalsByName_.erase(it);
    global->setName(std::move(name));
    globalsByName_[global->name()] = global;
}

GlobalVariable *
Module::findGlobal(const std::string &name) const
{
    auto it = globalsByName_.find(name);
    if (it != globalsByName_.end())
        return it->second;
    return library_ != nullptr ? library_->module().findGlobal(name)
                               : nullptr;
}

Function *
Module::addFunction(const Type *fn_type, std::string name)
{
    return createFunction(static_cast<unsigned>(functions_.size()), fn_type,
                          std::move(name));
}

Function *
Module::overrideFunction(unsigned id, const Type *fn_type, std::string name)
{
    return createFunction(id, fn_type, std::move(name));
}

Function *
Module::createFunction(unsigned id, const Type *fn_type, std::string name)
{
    auto f = std::make_unique<Function>(types_->ptr(), fn_type,
                                        std::move(name));
    Function *raw = f.get();
    raw->setParent(this);
    raw->setId(id);
    ownFunctions_.push_back(std::move(f));
    if (id == functions_.size())
        functions_.push_back(raw);
    else
        functions_[id] = raw;
    functionsByName_[raw->name()] = raw;
    return raw;
}

void
Module::renumberFunctions(std::vector<Function *> by_id)
{
    if (by_id.size() != functions_.size())
        throw InternalError("renumberFunctions: not a permutation");
    std::vector<bool> seen(by_id.size(), false);
    for (Function *fn : by_id) {
        if (fn->id() >= seen.size() || seen[fn->id()] ||
            functions_[fn->id()] != fn)
            throw InternalError("renumberFunctions: not a permutation");
        seen[fn->id()] = true;
    }
    for (unsigned id = 0; id < by_id.size(); id++)
        by_id[id]->setId(id);
    functions_ = std::move(by_id);
}

Function *
Module::findFunction(const std::string &name) const
{
    auto it = functionsByName_.find(name);
    if (it != functionsByName_.end())
        return it->second;
    if (library_ == nullptr)
        return nullptr;
    const Function *fn = library_->module().findFunction(name);
    return fn != nullptr ? functions_[fn->id()] : nullptr;
}

void
Module::useLibrary(const SharedLibrary &library)
{
    library_ = &library;
    functions_.reserve(library.numFunctions());
    for (unsigned id = 0; id < library.numFunctions(); id++)
        functions_.push_back(library.declaration(id));
}

void
Module::finalize()
{
    for (auto &f : ownFunctions_) {
        if (!f->isDeclaration())
            f->numberSlots();
    }
}

} // namespace sulong
