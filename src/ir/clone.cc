#include "ir/clone.h"

#include "support/diagnostics.h"

namespace sulong
{

namespace
{

/** Call @p visit on every function @p init names, transitively. */
template <typename Visit>
void
forEachInitFunction(const Initializer &init, const Visit &visit)
{
    if (init.function != nullptr)
        visit(init.function);
    for (const Initializer &elem : init.elems)
        forEachInitFunction(elem, visit);
}

} // namespace

SharedLibrary::SharedLibrary(std::unique_ptr<Module> module)
    : module_(std::move(module))
{
    const auto &functions = module_->functions();
    declarations_.reserve(functions.size());
    references_.resize(functions.size());
    addressTaken_.resize(functions.size());
    for (Function *fn : functions) {
        if (fn->isDeclaration()) {
            declarations_.push_back(fn);
            continue;
        }
        auto twin = std::make_unique<Function>(module_->types().ptr(),
                                               fn->fnType(), fn->name());
        twin->setId(fn->id());
        twin->setParent(module_.get());
        declarations_.push_back(twin.get());
        twins_.push_back(std::move(twin));

        std::vector<bool> named(functions.size(), false);
        std::vector<bool> taken(functions.size(), false);
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                const auto &operands = inst->operands();
                for (size_t i = 0; i < operands.size(); i++) {
                    if (operands[i]->valueKind() != ValueKind::function)
                        continue;
                    unsigned id =
                        static_cast<const Function *>(operands[i])->id();
                    if (!named[id]) {
                        named[id] = true;
                        references_[fn->id()].push_back(id);
                    }
                    bool callee = i == 0 && inst->op() == Opcode::call;
                    if (!callee && !taken[id]) {
                        taken[id] = true;
                        addressTaken_[fn->id()].push_back(id);
                    }
                }
            }
        }
    }
    const auto &globals = module_->globals();
    for (size_t i = 0; i < globals.size(); i++)
        globalIndex_[globals[i]] = static_cast<int>(i);
}

SharedLibrary::~SharedLibrary() = default;

int
SharedLibrary::globalIndex(const GlobalVariable *global) const
{
    auto it = globalIndex_.find(global);
    return it == globalIndex_.end() ? -1 : it->second;
}

void
linkLibrary(Module &program)
{
    const SharedLibrary &library = *program.library();
    const Module &prototype = library.module();
    const unsigned count = library.numFunctions();

    // A worklist of library functions whose bodies the program reaches,
    // seeded from the program's own bodies and every global initializer.
    std::vector<bool> queued(count, false);
    std::vector<unsigned> work;
    auto reach = [&](unsigned id) {
        if (id < count && !queued[id] &&
            !prototype.functionById(id)->isDeclaration()) {
            queued[id] = true;
            work.push_back(id);
        }
    };
    for (const auto &fn : program.ownFunctions())
        for (const auto &bb : fn->blocks())
            for (const auto &inst : bb->insts())
                for (const Value *operand : inst->operands())
                    if (operand->valueKind() == ValueKind::function)
                        reach(static_cast<const Function *>(operand)->id());
    for (const GlobalVariable *global : program.globals())
        forEachInitFunction(global->init(), [&reach](const Function *fn) {
            reach(fn->id());
        });
    while (!work.empty()) {
        unsigned id = work.back();
        work.pop_back();
        program.showLibraryFunction(prototype.functionById(id));
        for (unsigned callee : library.references(id))
            reach(callee);
    }
}

std::unique_ptr<Module>
linkCopy(const Module &program, const SharedLibrary &stage)
{
    const SharedLibrary &from = *program.library();
    if (from.numFunctions() != stage.numFunctions() ||
        from.module().globals().size() != stage.module().globals().size())
        throw InternalError("linkCopy: stage of another library");
    auto copy = std::make_unique<Module>(program.sharedTypes());
    copy->useLibrary(stage);

    // The program's own functions, at their ids, before anything names
    // them.
    for (const auto &fn : program.ownFunctions()) {
        Function *dup = fn->id() < stage.numFunctions()
            ? copy->overrideFunction(fn->id(), fn->fnType(), fn->name())
            : copy->addFunction(fn->fnType(), fn->name());
        if (dup->id() != fn->id())
            throw InternalError("linkCopy: function ids out of order");
        dup->setIntrinsic(fn->isIntrinsic());
        dup->setSourceFile(fn->sourceFile());
        for (unsigned i = 0; i < fn->numArgs(); i++)
            dup->arg(i)->setName(fn->arg(i)->name());
    }
    // The copy's object for a function or global of the program.
    auto function = [&](const Function *fn) -> Function * {
        if (program.owns(*fn))
            return copy->functionById(fn->id());
        return from.declaration(fn->id()) == fn
            ? stage.declaration(fn->id())
            : stage.module().functionById(fn->id());
    };
    // Globals in place order; an initializer may name a later one.
    std::unordered_map<const GlobalVariable *, GlobalVariable *> globals;
    std::vector<GlobalVariable *> own_globals;
    for (const GlobalVariable *g : program.globals()) {
        int index = from.globalIndex(g);
        GlobalVariable *dup;
        if (index >= 0) {
            dup = stage.module().globals()[index];
            copy->addLibraryGlobal(dup);
        } else {
            dup = copy->addGlobal(g->valueType(), g->name(), g->init(),
                                  g->isConst());
            own_globals.push_back(dup);
        }
        globals.emplace(g, dup);
    }
    auto relinkInit = [&](Initializer &init, auto &self) -> void {
        if (init.function != nullptr)
            init.function = function(init.function);
        if (init.global != nullptr)
            init.global = globals.at(init.global);
        for (Initializer &elem : init.elems)
            self(elem, self);
    };
    for (GlobalVariable *dup : own_globals) {
        const Initializer &init = dup->init();
        if (init.global == nullptr && init.function == nullptr &&
            init.elems.empty())
            continue; // names nothing: a scalar or a string's bytes
        Initializer relinked = init;
        relinkInit(relinked, relinkInit);
        dup->setInit(std::move(relinked));
    }

    // Bodies: each instruction is copied whole, then its operands and
    // targets are pointed at the copy's values. A value an operand
    // names is found by its frame slot, which the front end numbered.
    for (const auto &fn : program.ownFunctions()) {
        Function *dup = copy->functionById(fn->id());
        for (const auto &bb : fn->blocks())
            dup->addBlock(bb->name());
        std::vector<Instruction *> slots(fn->numSlots(), nullptr);
        std::vector<Instruction *> copied;
        for (const auto &bb : fn->blocks()) {
            BasicBlock *into = dup->blocks()[bb->index()].get();
            for (const auto &inst : bb->insts()) {
                Instruction *twin =
                    into->append(std::make_unique<Instruction>(*inst));
                if (inst->slot() >= 0)
                    slots[inst->slot()] = twin;
                copied.push_back(twin);
            }
        }
        auto block = [dup](const BasicBlock *bb) {
            return bb != nullptr ? dup->blocks()[bb->index()].get()
                                 : nullptr;
        };
        for (Instruction *inst : copied) {
            for (Value *&operand : inst->mutableOperands()) {
                switch (operand->valueKind()) {
                  case ValueKind::argument:
                    operand =
                        dup->arg(static_cast<Argument *>(operand)->index());
                    break;
                  case ValueKind::instruction:
                    operand = slots[static_cast<Instruction *>(operand)
                                        ->slot()];
                    break;
                  case ValueKind::constantInt:
                    operand = copy->constInt(
                        operand->type(),
                        static_cast<ConstantInt *>(operand)->value());
                    break;
                  case ValueKind::constantFP:
                    operand = copy->constFP(
                        operand->type(),
                        static_cast<ConstantFP *>(operand)->value());
                    break;
                  case ValueKind::constantNull:
                    operand = copy->constNull();
                    break;
                  case ValueKind::global:
                    operand =
                        globals.at(static_cast<GlobalVariable *>(operand));
                    break;
                  case ValueKind::function:
                    operand = function(static_cast<Function *>(operand));
                    break;
                }
            }
            inst->setTargets(block(inst->target(0)), block(inst->target(1)));
        }
    }
    copy->finalize();
    linkLibrary(*copy);
    return copy;
}

} // namespace sulong
