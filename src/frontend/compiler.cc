#include "frontend/compiler.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "frontend/codegen.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "ir/clone.h"
#include "ir/verifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/passes.h"

namespace sulong
{

const char *
builtinDeclarations()
{
    return R"(
/* Engine-implemented allocation entry points (Section 3.3 of the paper:
 * heap objects come from malloc/calloc/realloc and are freed by free). */
void *malloc(unsigned long size);
void free(void *ptr);
void *calloc(unsigned long nmemb, unsigned long size);
void *realloc(void *ptr, unsigned long size);

/* Host bridge ("system calls" of the execution environments). */
void __sys_exit(int code);
long __sys_write(int fd, const char *buf, long len);
int __sys_getchar(void);
long __sys_alloc_size(void *ptr);

/* Varargs support (count_varargs / get_vararg of the paper, Fig. 9). */
void *__va_start(void);
void *__va_arg_ptr(void *ap);
void __va_end(void *ap);
int __va_count(void);

/* Math intrinsics backed by the host libm. */
double sqrt(double x);
double sin(double x);
double cos(double x);
double tan(double x);
double atan(double x);
double atan2(double y, double x);
double exp(double x);
double log(double x);
double pow(double x, double y);
double floor(double x);
double ceil(double x);
double fabs(double x);
double fmod(double x, double y);
)";
}

const std::vector<std::string> &
intrinsicNames()
{
    static const std::vector<std::string> names = {
        "malloc", "free", "calloc", "realloc",
        "__sys_exit", "__sys_write", "__sys_getchar", "__sys_alloc_size",
        "__va_start", "__va_arg_ptr", "__va_end", "__va_count",
        "sqrt", "sin", "cos", "tan", "atan", "atan2", "exp", "log",
        "pow", "floor", "ceil", "fabs", "fmod",
    };
    return names;
}

namespace
{

/** The state one compile builds; a LibraryPrototype keeps its own. */
struct Compilation
{
    /** A compile whose IR types, and with @p base_ctypes its C types
     *  too, extend those of a library. */
    explicit Compilation(
        std::shared_ptr<const TypeContext> base_types = nullptr,
        const CTypeContext *base_ctypes = nullptr)
        : module(std::make_unique<Module>(std::move(base_types))),
          ctypes(std::make_unique<CTypeContext>(module->types(),
                                                base_ctypes))
    {}

    std::unique_ptr<Module> module;
    std::unique_ptr<CTypeContext> ctypes;
    TypedefMap typedefs;
    TranslationUnit unit;
};

/**
 * Parse, lower and verify @p sources into @p c; false (with the errors in
 * @p result) when they do not compile. With @p library, whose types
 * c.ctypes extends, then link in the library bodies the sources reach;
 * with @p exported, describe the module for sources compiled against it.
 */
bool
compileInto(Compilation &c, const std::vector<SourceFile> &sources,
            bool inject_builtins, const LibraryDecls *library,
            CompileResult &result, LibraryDecls *exported = nullptr)
{
    DiagnosticEngine diags;
    std::vector<SourceFile> all;
    if (inject_builtins)
        all.push_back(SourceFile{"<builtins>", builtinDeclarations()});
    for (const auto &src : sources)
        all.push_back(src);

    {
        MS_TRACE_SPAN("frontend.parse");
        for (const auto &src : all) {
            Lexer lexer(src.name, src.text, diags);
            Parser parser(lexer.lexAll(), *c.ctypes, diags, c.typedefs);
            parser.parseInto(c.unit);
        }
    }
    if (diags.hasErrors()) {
        result.errors = diags.dump();
        return false;
    }

    if (library != nullptr)
        c.module->useLibrary(*library->library);
    CodeGen codegen(*c.module, *c.ctypes, diags, library);
    {
        MS_TRACE_SPAN("frontend.codegen");
        codegen.generate(c.unit);
    }
    if (diags.hasErrors()) {
        result.errors = diags.dump();
        return false;
    }

    // Mark engine intrinsics (a library marked its own).
    const auto &intrinsics = intrinsicNames();
    for (const auto &fn : c.module->ownFunctions()) {
        if (fn->isDeclaration() &&
            std::find(intrinsics.begin(), intrinsics.end(), fn->name()) !=
                intrinsics.end())
            fn->setIntrinsic(true);
    }

    {
        MS_TRACE_SPAN("frontend.verify");
        c.module->finalize();
        auto issues = verifyModule(*c.module);
        if (!issues.empty()) {
            result.errors = "internal: codegen produced invalid IR:\n" +
                formatIssues(issues);
            return false;
        }
    }
    // The library's bodies were verified when it was built.
    if (library != nullptr) {
        MS_TRACE_SPAN("frontend.link");
        linkLibrary(*c.module);
    }
    if (exported != nullptr)
        *exported = codegen.exportDecls();
    result.warningCount = diags.warningCount();
    result.errors = diags.dump(); // warnings, if any
    return true;
}

/** Compile @p sources, a library, alone; throws when they do not. */
void
compileLibrary(Compilation &c, const std::vector<SourceFile> &sources,
               LibraryDecls *exported = nullptr)
{
    CompileResult result;
    if (!compileInto(c, sources, /*inject_builtins=*/true, nullptr, result,
                     exported)) {
        throw InternalError("library does not compile:\n" + result.errors);
    }
}

/** Whether @p a and @p b initialize a global alike, naming functions
 *  and globals by name. */
bool
sameInit(const Initializer &a, const Initializer &b)
{
    auto name = [](const Value *v) -> const std::string * {
        return v != nullptr ? &v->name() : nullptr;
    };
    auto sameName = [&name](const Value *x, const Value *y) {
        return (x == nullptr) == (y == nullptr) &&
            (x == nullptr || *name(x) == *name(y));
    };
    if (a.kind != b.kind || a.intValue != b.intValue ||
        std::bit_cast<uint64_t>(a.fpValue) !=
            std::bit_cast<uint64_t>(b.fpValue) ||
        a.bytes != b.bytes || a.addend != b.addend ||
        !sameName(a.global, b.global) || !sameName(a.function, b.function) ||
        a.elems.size() != b.elems.size())
        return false;
    for (size_t i = 0; i < a.elems.size(); i++)
        if (!sameInit(a.elems[i], b.elems[i]))
            return false;
    return true;
}

/**
 * Give @p stage, the library compiled from other sources, @p prototype's
 * function ids, matching functions by name; throws InternalError unless
 * it has the prototype's functions, with the same types, and the
 * prototype's globals, at the same places, alike.
 */
void
alignStage(Module &stage, const Module &prototype)
{
    auto mismatch = [](const std::string &what) {
        return InternalError("library stage differs from its prototype: " +
                             what);
    };
    if (stage.functions().size() != prototype.functions().size())
        throw mismatch("function count");
    std::vector<Function *> by_id;
    for (const Function *fn : prototype.functions()) {
        Function *same = stage.findFunction(fn->name());
        if (same == nullptr || same->fnType() != fn->fnType() ||
            same->isDeclaration() != fn->isDeclaration() ||
            same->isIntrinsic() != fn->isIntrinsic())
            throw mismatch("function '" + fn->name() + "'");
        by_id.push_back(same);
    }
    stage.renumberFunctions(std::move(by_id));
    const auto &globals = prototype.globals();
    if (stage.globals().size() != globals.size())
        throw mismatch("global count");
    for (size_t i = 0; i < globals.size(); i++) {
        const GlobalVariable &g = *stage.globals()[i];
        if (g.name() != globals[i]->name() ||
            g.valueType() != globals[i]->valueType() ||
            g.isConst() != globals[i]->isConst() ||
            !sameInit(g.init(), globals[i]->init()))
            throw mismatch("global '" + globals[i]->name() + "'");
    }
}

} // namespace

struct LibraryPrototype::State
{
    /// The sources of each variant, by LibcVariant.
    std::vector<SourceFile> sources[2];
    /// The prototype's front-end end state: its C types (over the IR
    /// types of the prototype's module), typedefs and enum constants.
    std::unique_ptr<CTypeContext> ctypes;
    TypedefMap typedefs;
    std::map<std::string, int64_t> enumConstants;
    LibraryDecls decls;
    /// By variant, the stages -1, 0 and 3, by slot; the safe variant's
    /// -1 is the prototype, built by the constructor.
    std::unique_ptr<const SharedLibrary> stages[2][3];
    std::once_flag built[2][3];

    const SharedLibrary &prototype() const { return *stages[0][0]; }
};

LibraryPrototype::LibraryPrototype(const Sources &sources)
    : state_(std::make_unique<State>())
{
    for (LibcVariant variant :
         {LibcVariant::safe, LibcVariant::nativeOptimized})
        state_->sources[static_cast<size_t>(variant)] = sources(variant);
    Compilation c;
    compileLibrary(c, state_->sources[0], &state_->decls);
    state_->ctypes = std::move(c.ctypes);
    state_->typedefs = std::move(c.typedefs);
    state_->enumConstants = std::move(c.unit.enumConstants);
    state_->stages[0][0] =
        std::make_unique<SharedLibrary>(std::move(c.module));
    state_->decls.library = state_->stages[0][0].get();
}

LibraryPrototype::~LibraryPrototype() = default;

const SharedLibrary &
LibraryPrototype::stage(LibcVariant variant, int opt_level) const
{
    State &state = *state_;
    size_t v = static_cast<size_t>(variant);
    int slot = opt_level >= 3 ? 2 : (opt_level >= 0 ? 1 : 0);
    std::call_once(state.built[v][slot], [&state, v, slot]() {
        if (state.stages[v][slot] != nullptr)
            return; // the prototype
        MS_TRACE_SPAN("frontend.library_stage");
        obs::MetricsRegistry::global().counter("frontend.library_stages").inc();
        // The variant's sources, over the prototype's IR types, so the
        // stage's types are the prototype's objects.
        const Module &prototype = state.prototype().module();
        Compilation c(prototype.sharedTypes());
        compileLibrary(c, state.sources[v]);
        alignStage(*c.module, prototype);
        if (slot == 2)
            runO3Pipeline(*c.module);
        else if (slot == 1)
            runO0Pipeline(*c.module);
        state.stages[v][slot] =
            std::make_unique<SharedLibrary>(std::move(c.module));
    });
    return *state.stages[v][slot];
}

CompileResult
compileC(const std::vector<SourceFile> &sources,
         const CompileOptions &options)
{
    MS_TRACE_SPAN("frontend.compile");
    obs::MetricsRegistry::global().counter("frontend.compiles").inc();
    CompileResult result;
    const LibraryPrototype::State *library =
        options.library != nullptr ? options.library->state_.get() : nullptr;
    // Against a library, start where its own compile ended.
    Compilation c(
        library != nullptr ? library->prototype().module().sharedTypes()
                           : nullptr,
        library != nullptr ? library->ctypes.get() : nullptr);
    if (library != nullptr) {
        c.typedefs = library->typedefs;
        c.unit.enumConstants = library->enumConstants;
    }
    if (compileInto(c, sources, options.injectBuiltins && library == nullptr,
                    library != nullptr ? &library->decls : nullptr, result)) {
        result.module = std::move(c.module);
    }
    return result;
}

CompileResult
compileC(const std::string &source, const CompileOptions &options)
{
    return compileC(std::vector<SourceFile>{SourceFile{"<input>", source}},
                    options);
}

} // namespace sulong
