#include "frontend/compiler.h"

#include <set>

#include "frontend/codegen.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "ir/clone.h"
#include "ir/verifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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
    std::unique_ptr<Module> module = std::make_unique<Module>();
    std::unique_ptr<CTypeContext> ctypes =
        std::make_unique<CTypeContext>(module->types());
    TypedefMap typedefs;
    TranslationUnit unit;
};

/**
 * Parse, lower and verify @p sources into @p c; false (with the errors in
 * @p result) when they do not compile. With @p library, whose types live
 * in c.ctypes, then link in the library bodies the sources reach; with
 * @p exported, describe the module for sources compiled against it.
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

    CodeGen codegen(*c.module, *c.ctypes, diags, library);
    {
        MS_TRACE_SPAN("frontend.codegen");
        codegen.generate(c.unit);
    }
    if (diags.hasErrors()) {
        result.errors = diags.dump();
        return false;
    }

    // Mark engine intrinsics.
    std::set<std::string> intrinsics(intrinsicNames().begin(),
                                     intrinsicNames().end());
    for (const auto &fn : c.module->functions()) {
        if (fn->isDeclaration() && intrinsics.count(fn->name()))
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
    // The library's bodies were verified when it was built; linking
    // clones them verbatim.
    if (library != nullptr) {
        MS_TRACE_SPAN("frontend.link");
        linkLibrary(*c.module, *library->module, codegen.libraryGlobals());
    }
    if (exported != nullptr)
        *exported = codegen.exportDecls();
    result.warningCount = diags.warningCount();
    result.errors = diags.dump(); // warnings, if any
    return true;
}

} // namespace

struct LibraryPrototype::State
{
    Compilation c;
    LibraryDecls decls;
};

LibraryPrototype::LibraryPrototype(const std::vector<SourceFile> &sources)
    : state_(std::make_unique<State>())
{
    CompileResult result;
    if (!compileInto(state_->c, sources, /*inject_builtins=*/true, nullptr,
                     result, &state_->decls)) {
        throw InternalError("library does not compile:\n" + result.errors);
    }
    // Programs see the library's declarations, not its bodies' syntax.
    state_->c.unit.functions.clear();
    state_->c.unit.globals.clear();
}

LibraryPrototype::~LibraryPrototype() = default;

CompileResult
compileC(const std::vector<SourceFile> &sources,
         const CompileOptions &options)
{
    MS_TRACE_SPAN("frontend.compile");
    obs::MetricsRegistry::global().counter("frontend.compiles").inc();
    CompileResult result;
    Compilation c;
    LibraryDecls library;
    if (options.library != nullptr) {
        // Start where the library's own compile ended, in this
        // compile's type context.
        const LibraryPrototype::State &state = *options.library->state_;
        const Compilation &lib = state.c;
        c.ctypes->importAll(*lib.ctypes);
        for (const auto &[name, type] : lib.typedefs)
            c.typedefs[name] = c.ctypes->import(type);
        c.unit.enumConstants = lib.unit.enumConstants;
        library.module = lib.module.get();
        auto import = [&c](const std::vector<const CType *> &types) {
            std::vector<const CType *> out;
            out.reserve(types.size());
            for (const CType *type : types)
                out.push_back(type != nullptr ? c.ctypes->import(type)
                                              : nullptr);
            return out;
        };
        library.functionTypes = import(state.decls.functionTypes);
        library.globalTypes = import(state.decls.globalTypes);
        library.createdGlobalTypes = import(state.decls.createdGlobalTypes);
    }
    if (compileInto(c, sources,
                    options.injectBuiltins && options.library == nullptr,
                    options.library != nullptr ? &library : nullptr,
                    result)) {
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
