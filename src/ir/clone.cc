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

void
relinkLibrary(Module &program, const SharedLibrary &stage)
{
    const SharedLibrary &from = *program.library();
    if (from.numFunctions() != stage.numFunctions() ||
        from.module().globals().size() != stage.module().globals().size())
        throw InternalError("relinkLibrary: stage of another library");
    // The stage's object for a library function or global; null for the
    // program's own.
    auto function = [&](const Function *fn) -> Function * {
        if (fn->id() >= stage.numFunctions() || program.owns(*fn))
            return nullptr;
        return from.declaration(fn->id()) == fn
            ? stage.declaration(fn->id())
            : stage.module().functionById(fn->id());
    };
    auto global = [&](const GlobalVariable *g) -> GlobalVariable * {
        int index = from.globalIndex(g);
        return index < 0 ? nullptr : stage.module().globals()[index];
    };
    auto relinkInit = [&](Initializer &init, auto &self) -> void {
        if (init.function != nullptr)
            if (Function *mapped = function(init.function))
                init.function = mapped;
        if (init.global != nullptr)
            if (GlobalVariable *mapped = global(init.global))
                init.global = mapped;
        for (Initializer &elem : init.elems)
            self(elem, self);
    };

    for (const auto &fn : program.ownFunctions()) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                for (Value *&operand : inst->mutableOperands()) {
                    Value *mapped = nullptr;
                    if (operand->valueKind() == ValueKind::function)
                        mapped = function(static_cast<Function *>(operand));
                    else if (operand->valueKind() == ValueKind::global)
                        mapped = global(
                            static_cast<GlobalVariable *>(operand));
                    if (mapped != nullptr)
                        operand = mapped;
                }
            }
        }
    }
    for (const auto &owned : program.ownGlobals_) {
        const Initializer &old = owned->init();
        if (old.global == nullptr && old.function == nullptr &&
            old.elems.empty())
            continue; // names nothing: a scalar or a string's bytes
        Initializer init = old;
        relinkInit(init, relinkInit);
        owned->setInit(std::move(init));
    }
    for (Function *&fn : program.functions_)
        if (Function *mapped = function(fn))
            fn = mapped;
    for (GlobalVariable *&g : program.globals_)
        if (GlobalVariable *mapped = global(g))
            g = mapped;
    program.library_ = &stage;
}

} // namespace sulong
