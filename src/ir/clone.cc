#include "ir/clone.h"

#include <unordered_map>

namespace sulong
{

namespace
{

/**
 * Maps values and types of the original module into the clone. Both
 * modules number their functions alike, so functions map by id; the
 * values of a function body map through its frame slots and block
 * indices, which every finalized module carries.
 */
class ModuleCloner
{
  public:
    /** Clone from @p original into @p clone, which outlives the cloner. */
    ModuleCloner(const Module &original, Module &clone)
        : original_(original), clone_(clone)
    {
        typeMap_.reserve(64);
    }

    /** Copy all of the original into the (empty) clone. */
    void cloneAll();

    /** The linkLibrary() step: the original is the library. */
    void linkReachable(
        const std::unordered_map<const GlobalVariable *, GlobalVariable *>
            &globals);

  private:
    const Type *mapType(const Type *type);
    Value *mapValue(const Value *value);
    void cloneGlobals();
    Initializer mapInitializer(const Initializer &init);
    void cloneFunctionShells();
    void cloneBody(const Function &fn);
    std::unique_ptr<Instruction> cloneInstruction(const Instruction &inst);

    const Module &original_;
    Module &clone_;
    std::unordered_map<const Type *, const Type *> typeMap_;
    /// Globals and constants.
    std::unordered_map<const Value *, Value *> valueMap_;
    /// The body being cloned: its arguments and results by frame slot,
    /// its blocks by index.
    std::vector<Value *> slots_;
    std::vector<BasicBlock *> blocks_;
};

const Type *
ModuleCloner::mapType(const Type *type)
{
    if (type == nullptr)
        return nullptr;
    auto it = typeMap_.find(type);
    if (it != typeMap_.end())
        return it->second;

    TypeContext &types = clone_.types();
    const Type *mapped = nullptr;
    switch (type->kind()) {
      case TypeKind::voidTy: mapped = types.voidTy(); break;
      case TypeKind::i1: mapped = types.i1(); break;
      case TypeKind::i8: mapped = types.i8(); break;
      case TypeKind::i16: mapped = types.i16(); break;
      case TypeKind::i32: mapped = types.i32(); break;
      case TypeKind::i64: mapped = types.i64(); break;
      case TypeKind::f32: mapped = types.f32(); break;
      case TypeKind::f64: mapped = types.f64(); break;
      case TypeKind::ptr: mapped = types.ptr(); break;
      case TypeKind::array:
        mapped = types.arrayType(mapType(type->elemType()),
                                 type->arrayLength());
        break;
      case TypeKind::structTy: {
        // Mini-C structs cannot contain themselves by value, so mapping
        // the field types first always terminates.
        std::vector<std::pair<std::string, const Type *>> fields;
        fields.reserve(type->fields().size());
        for (const StructField &field : type->fields())
            fields.emplace_back(field.name, mapType(field.type));
        mapped = types.structType(type->structName(), fields);
        break;
      }
      case TypeKind::function: {
        std::vector<const Type *> params;
        params.reserve(type->paramTypes().size());
        for (const Type *param : type->paramTypes())
            params.push_back(mapType(param));
        mapped = types.functionType(mapType(type->returnType()),
                                    std::move(params), type->isVarArg());
        break;
      }
    }
    typeMap_[type] = mapped;
    return mapped;
}

Value *
ModuleCloner::mapValue(const Value *value)
{
    if (value == nullptr)
        return nullptr;
    switch (value->valueKind()) {
      case ValueKind::instruction:
        return slots_.at(static_cast<const Instruction *>(value)->slot());
      case ValueKind::argument:
        return slots_.at(static_cast<const Argument *>(value)->index());
      case ValueKind::function:
        return clone_.functionById(static_cast<const Function *>(value)->id());
      default:
        break;
    }
    auto it = valueMap_.find(value);
    if (it != valueMap_.end())
        return it->second;

    // Globals are registered up front; only interned constants are
    // created on demand.
    Value *mapped = nullptr;
    switch (value->valueKind()) {
      case ValueKind::constantInt: {
        const auto *c = static_cast<const ConstantInt *>(value);
        mapped = clone_.constInt(mapType(c->type()), c->value());
        break;
      }
      case ValueKind::constantFP: {
        const auto *c = static_cast<const ConstantFP *>(value);
        mapped = clone_.constFP(mapType(c->type()), c->value());
        break;
      }
      case ValueKind::constantNull:
        mapped = clone_.constNull();
        break;
      default:
        return nullptr; // unreachable for well-formed modules
    }
    valueMap_[value] = mapped;
    return mapped;
}

Initializer
ModuleCloner::mapInitializer(const Initializer &init)
{
    Initializer mapped;
    mapped.kind = init.kind;
    mapped.intValue = init.intValue;
    mapped.fpValue = init.fpValue;
    mapped.bytes = init.bytes;
    mapped.addend = init.addend;
    if (init.global != nullptr) {
        mapped.global =
            static_cast<const GlobalVariable *>(valueMap_.at(init.global));
    }
    if (init.function != nullptr)
        mapped.function = clone_.functionById(init.function->id());
    mapped.elems.reserve(init.elems.size());
    for (const Initializer &elem : init.elems)
        mapped.elems.push_back(mapInitializer(elem));
    return mapped;
}

void
ModuleCloner::cloneGlobals()
{
    // Two phases, like the front end: create every global zeroed first so
    // initializers can reference globals defined later.
    for (const auto &global : original_.globals()) {
        GlobalVariable *copy =
            clone_.addGlobal(mapType(global->valueType()), global->name(),
                              Initializer::makeZero(), global->isConst());
        valueMap_[global.get()] = copy;
    }
}

void
ModuleCloner::cloneFunctionShells()
{
    for (const auto &fn : original_.functions()) {
        // addFunction assigns ids sequentially, so cloning in module
        // order preserves ids (and with them function-pointer encodings).
        Function *copy =
            clone_.addFunction(mapType(fn->fnType()), fn->name());
        copy->setIntrinsic(fn->isIntrinsic());
        copy->setSourceFile(fn->sourceFile());
        for (unsigned i = 0; i < fn->numArgs(); i++)
            copy->arg(i)->setName(fn->arg(i)->name());
    }
}

std::unique_ptr<Instruction>
ModuleCloner::cloneInstruction(const Instruction &inst)
{
    auto copy =
        std::make_unique<Instruction>(inst.op(), mapType(inst.type()));
    copy->setName(inst.name());
    copy->setAccessType(mapType(inst.accessType()));
    copy->setIntPred(inst.intPred()); // same byte as the float predicate
    copy->setGep(inst.gepConstOffset(), inst.gepScale());
    copy->setSlot(inst.slot());
    copy->setLoc(inst.loc());
    return copy;
}

void
ModuleCloner::cloneBody(const Function &fn)
{
    if (fn.isDeclaration())
        return;
    Function *copy = clone_.functionById(fn.id());
    slots_.assign(fn.numSlots(), nullptr);
    for (unsigned i = 0; i < fn.numArgs(); i++)
        slots_[i] = copy->arg(i);
    blocks_.clear();

    // First pass: create blocks and instructions so that operands and
    // branch targets can reference them regardless of layout order.
    for (const auto &bb : fn.blocks()) {
        BasicBlock *bbCopy = copy->addBlock(bb->name());
        blocks_.push_back(bbCopy);
        for (const auto &inst : bb->insts()) {
            Instruction *instCopy = bbCopy->append(cloneInstruction(*inst));
            if (inst->slot() >= 0)
                slots_.at(inst->slot()) = instCopy;
        }
    }

    // Second pass: resolve operands and targets.
    for (size_t b = 0; b < fn.blocks().size(); b++) {
        const auto &insts = fn.blocks()[b]->insts();
        const auto &copies = blocks_[b]->insts();
        for (size_t i = 0; i < insts.size(); i++) {
            const Instruction &inst = *insts[i];
            Instruction &instCopy = *copies[i];
            instCopy.mutableOperands().reserve(inst.numOperands());
            for (const Value *operand : inst.operands())
                instCopy.addOperand(mapValue(operand));
            if (inst.isTerminator()) {
                BasicBlock *t0 = inst.target(0) != nullptr
                    ? blocks_.at(inst.target(0)->index()) : nullptr;
                BasicBlock *t1 = inst.target(1) != nullptr
                    ? blocks_.at(inst.target(1)->index()) : nullptr;
                if (t0 != nullptr || t1 != nullptr)
                    instCopy.setTargets(t0, t1);
            }
        }
    }
}

void
ModuleCloner::cloneAll()
{
    cloneGlobals();
    cloneFunctionShells();
    for (const auto &global : original_.globals()) {
        auto *copy = static_cast<GlobalVariable *>(valueMap_.at(global.get()));
        copy->setInit(mapInitializer(global->init()));
    }
    for (const auto &fn : original_.functions())
        cloneBody(*fn);
    // Recomputes the same dense slot numbering the original carries
    // (cloneInstruction copied the slots already; finalize also restores
    // numSlots(), which has no direct setter).
    clone_.finalize();
}

void
ModuleCloner::linkReachable(
    const std::unordered_map<const GlobalVariable *, GlobalVariable *>
        &globals)
{
    const auto &library = original_.functions();
    for (const auto &[global, copy] : globals)
        valueMap_[global] = copy;

    // A worklist of library functions whose bodies the program reaches,
    // seeded from the program's own bodies and every global initializer.
    std::vector<bool> queued(library.size(), false);
    std::vector<const Function *> work;
    auto reach = [&](const Value *value) {
        if (value == nullptr || value->valueKind() != ValueKind::function)
            return;
        unsigned id = static_cast<const Function *>(value)->id();
        if (id < library.size() && !queued[id] &&
            !library[id]->isDeclaration()) {
            queued[id] = true;
            work.push_back(library[id].get());
        }
    };
    auto reachInit = [&reach](const Initializer &init, auto &self) -> void {
        reach(init.function);
        for (const Initializer &elem : init.elems)
            self(elem, self);
    };
    for (const auto &fn : clone_.functions())
        for (const auto &bb : fn->blocks())
            for (const auto &inst : bb->insts())
                for (const Value *operand : inst->operands())
                    reach(operand);
    for (const auto &global : clone_.globals())
        reachInit(global->init(), reachInit);

    while (!work.empty()) {
        const Function *fn = work.back();
        work.pop_back();
        for (const auto &bb : fn->blocks())
            for (const auto &inst : bb->insts())
                for (const Value *operand : inst->operands())
                    reach(operand);
        clone_.functionById(fn->id())->setSourceFile(fn->sourceFile());
        cloneBody(*fn);
    }
    clone_.finalize();
}

} // namespace

std::unique_ptr<Module>
cloneModule(const Module &original)
{
    auto clone = std::make_unique<Module>();
    ModuleCloner(original, *clone).cloneAll();
    return clone;
}

void
linkLibrary(Module &program, const Module &library,
            const std::unordered_map<const GlobalVariable *, GlobalVariable *>
                &globals)
{
    ModuleCloner(library, program).linkReachable(globals);
}

} // namespace sulong
