#include "managed/globals.h"

namespace sulong
{

GlobalStore::GlobalStore(const Module &module)
{
    for (const auto &fn : module.functions())
        functions_[fn->id()] = ObjRef(new FunctionObject(fn->id()));
    // Create all global objects first: initializers may reference them.
    for (const auto &g : module.globals()) {
        ObjRef obj = createManagedObject(StorageKind::global,
                                         g->valueType());
        obj->setName(g->name());
        globals_[g] = std::move(obj);
    }
    for (const auto &g : module.globals()) {
        applyInit(globals_[g].get(), g->valueType(), 0, g->init());
    }
}

Address
GlobalStore::addressOf(const GlobalVariable *g) const
{
    auto it = globals_.find(g);
    if (it == globals_.end())
        throw InternalError("unknown global " + g->name());
    return Address{it->second, 0};
}

Address
GlobalStore::addressOf(const Function *fn) const
{
    auto it = functions_.find(fn->id());
    if (it == functions_.end())
        throw InternalError("unknown function " + fn->name());
    return Address{it->second, 0};
}

const FunctionObject *
GlobalStore::functionObject(unsigned id) const
{
    auto it = functions_.find(id);
    return it == functions_.end()
        ? nullptr
        : static_cast<const FunctionObject *>(it->second.get());
}

Address
GlobalStore::makeStringArray(const std::vector<std::string> &strings)
{
    // argv/envp layout: N string pointers followed by a terminating NULL
    // (accessing past it is the bug class of paper Fig. 10).
    ObjRef arr(new AddressArray(StorageKind::mainArgs, strings.size() + 1));
    auto *addr_arr = static_cast<AddressArray *>(arr.get());
    for (size_t i = 0; i < strings.size(); i++) {
        ObjRef str(new I8Array(StorageKind::mainArgs,
                               strings[i].size() + 1));
        auto *bytes = static_cast<I8Array *>(str.get());
        std::memcpy(bytes->data(), strings[i].data(), strings[i].size());
        addr_arr->at(i) = Address{std::move(str), 0};
    }
    return Address{std::move(arr), 0};
}

void
GlobalStore::applyInit(ManagedObject *obj, const Type *type, int64_t offset,
                       const Initializer &init)
{
    switch (init.kind) {
      case Initializer::Kind::zero:
        return; // managed payloads start zeroed
      case Initializer::Kind::intVal: {
        Address dummy;
        obj->write(AccessClass::integer,
                   static_cast<unsigned>(type->size()), offset,
                   static_cast<uint64_t>(init.intValue), dummy);
        return;
      }
      case Initializer::Kind::fpVal: {
        Address dummy;
        uint64_t bits = 0;
        if (type->kind() == TypeKind::f32) {
            float f = static_cast<float>(init.fpValue);
            std::memcpy(&bits, &f, 4);
            obj->write(AccessClass::floating, 4, offset, bits, dummy);
        } else {
            std::memcpy(&bits, &init.fpValue, 8);
            obj->write(AccessClass::floating, 8, offset, bits, dummy);
        }
        return;
      }
      case Initializer::Kind::bytes: {
        Address dummy;
        for (size_t i = 0; i < init.bytes.size(); i++) {
            obj->write(AccessClass::integer, 1,
                       offset + static_cast<int64_t>(i),
                       static_cast<uint8_t>(init.bytes[i]), dummy);
        }
        return;
      }
      case Initializer::Kind::array: {
        const Type *elem = type->elemType();
        int64_t stride = static_cast<int64_t>(elem->size());
        for (size_t i = 0; i < init.elems.size(); i++) {
            applyInit(obj, elem, offset + static_cast<int64_t>(i) * stride,
                      init.elems[i]);
        }
        return;
      }
      case Initializer::Kind::structVal: {
        const auto &fields = type->fields();
        for (size_t i = 0; i < init.elems.size() && i < fields.size(); i++) {
            applyInit(obj, fields[i].type,
                      offset + static_cast<int64_t>(fields[i].offset),
                      init.elems[i]);
        }
        return;
      }
      case Initializer::Kind::globalRef: {
        auto it = globals_.find(init.global);
        if (it == globals_.end())
            throw InternalError("initializer references unknown global");
        Address target{it->second, init.addend};
        obj->write(AccessClass::pointer, 8, offset, 0, target);
        return;
      }
      case Initializer::Kind::functionRef: {
        Address target = addressOf(init.function);
        obj->write(AccessClass::pointer, 8, offset, 0, target);
        return;
      }
    }
}

} // namespace sulong
