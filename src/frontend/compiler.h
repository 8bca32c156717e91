/**
 * @file
 * Top-level mini-C compiler entry point: source text in, IR Module out.
 *
 * Plays the role Clang -O0 plays in the paper's pipeline (Fig. 4): no
 * optimizations are applied here. Optimization pipelines (including the
 * UB-exploiting ones that can delete bugs, P2) live in src/opt/ and are
 * applied explicitly by the driver.
 */

#ifndef MS_FRONTEND_COMPILER_H
#define MS_FRONTEND_COMPILER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "support/diagnostics.h"

namespace sulong
{

/** One input file: a logical name (for diagnostics) plus its contents. */
struct SourceFile
{
    std::string name;
    std::string text;
};

/**
 * Which bodies of the libc a library stage runs (libc/libc_sources.h
 * describes the two). A LibraryPrototype is compiled from the safe
 * variant; the other is one of its stages.
 */
enum class LibcVariant : uint8_t
{
    safe,
    nativeOptimized,
};

class LibraryPrototype;

struct CompileOptions
{
    /// Prepend declarations of the engine intrinsics (__sys_*, malloc...).
    /// With a library, its own compile decided this.
    bool injectBuiltins = true;
    /// Compile the sources against this precompiled library and link
    /// the library bodies they reach (see LibraryPrototype).
    const LibraryPrototype *library = nullptr;
};

struct CompileResult
{
    std::unique_ptr<Module> module; ///< null when compilation failed
    std::string errors;             ///< rendered diagnostics
    size_t warningCount = 0;

    bool ok() const { return module != nullptr; }
};

/**
 * Compile and "link" several mini-C sources into one module.
 *
 * All sources share one type context and one symbol namespace, which is
 * how the paper's setup links the user program with its safe libc.
 *
 * With CompileOptions::library, the result looks like what compiling
 * the library's sources followed by @p sources gives — same function
 * ids, same globals in the same order with the same names and
 * initializers, same diagnostics — except that only the library
 * functions the program reaches, from its own functions and from any
 * global's initializer, show their bodies; the others are declarations.
 * The library's functions and globals are the prototype's own objects
 * (stage -1), shared, not copied; the module owns only the program's.
 */
CompileResult compileC(const std::vector<SourceFile> &sources,
                       const CompileOptions &options = {});

/**
 * A library compiled once and linked into many programs, as the paper's
 * pipeline links each program against a libc compiled to IR ahead of
 * time. It keeps its module — shared by reference, see ir/clone.h — and
 * the front-end state its compile ended in: typedefs, struct tags, enum
 * constants, and the C types and names of its functions and globals,
 * which a program compiled against it starts from. Immutable once
 * built, so concurrent compiles share one instance.
 *
 * Every variant of the library declares the same functions and globals
 * and differs only in bodies, so one prototype, compiled from the safe
 * variant, serves them all: a program is compiled once, against the
 * prototype, and moved onto the stage its tool runs by linkCopy().
 */
class LibraryPrototype
{
  public:
    /** The library's sources of one variant. */
    using Sources = std::function<std::vector<SourceFile>(LibcVariant)>;

    /** Compile the safe variant of @p sources; throws InternalError if it
     *  does not compile. The other variants compile at their first
     *  stage(). */
    explicit LibraryPrototype(const Sources &sources);
    ~LibraryPrototype();

    /**
     * The library as a program of @p variant at @p opt_level sees it.
     * The safe variant at level -1 (or below) is the prototype itself.
     * Every other stage is the variant's sources compiled again over the
     * prototype's IR types, given the prototype's function ids, and, at
     * levels 0..2 and 3 (or above), run once through runO0Pipeline() or
     * runO3Pipeline(). Built on first use (counter
     * `frontend.library_stages`); concurrent first callers share one
     * build. Throws InternalError if the variant does not declare the
     * prototype's functions, with the same types, and the prototype's
     * globals, at the same places with the same initializers. The
     * pipelines change each function alone and read only the library's
     * own const globals, which a program cannot redefine, so a program
     * linked against a stage (linkCopy()) executes the bodies the
     * whole-program pipeline would give it.
     */
    const SharedLibrary &stage(LibcVariant variant, int opt_level) const;

  private:
    friend CompileResult compileC(const std::vector<SourceFile> &,
                                  const CompileOptions &);
    struct State;
    std::unique_ptr<State> state_;
};

/** Convenience wrapper for a single anonymous source. */
CompileResult compileC(const std::string &source,
                       const CompileOptions &options = {});

/** Names of the functions engines implement natively. */
const std::vector<std::string> &intrinsicNames();

/** The mini-C declarations injected by injectBuiltins. */
const char *builtinDeclarations();

} // namespace sulong

#endif // MS_FRONTEND_COMPILER_H
