/**
 * @file
 * The C standard library shipped with the engines (paper Section 3.1).
 *
 * Two variants exist:
 *  - `safe`: written in plain standard C, optimized for safety — byte-wise
 *    string loops, no undefined-behaviour tricks. This is what Safe
 *    Sulong interprets, so bugs in arguments to libc functions are found
 *    by the same automatic checks as user code (addresses P4).
 *  - `nativeOptimized`: the same API implemented with the performance
 *    tricks of production libcs — word-wise strlen/strcmp that read up to
 *    a word past the NUL terminator. Harmless on the flat native memory
 *    model, but exactly the pattern that forces shadow-memory tools to
 *    skip instrumenting libc and rely on (incomplete) interceptors.
 */

#ifndef MS_LIBC_LIBC_SOURCES_H
#define MS_LIBC_LIBC_SOURCES_H

#include "frontend/compiler.h"

namespace sulong
{

enum class LibcVariant : uint8_t
{
    safe,
    nativeOptimized,
};

/** The libc translation units for one compilation. */
std::vector<SourceFile> libcSources(LibcVariant variant);

/**
 * The libc variant compiled once per process (built on first use, which
 * concurrent callers share; counted by `frontend.libc_prototypes`). Pass
 * it as CompileOptions::library to compile a program against it; its
 * stage() is the variant as an -O0 or -O3 program links it.
 */
const LibraryPrototype &libcPrototype(LibcVariant variant);

/** Names of all public libc functions provided (for tests and docs). */
std::vector<std::string> libcFunctionNames();

} // namespace sulong

#endif // MS_LIBC_LIBC_SOURCES_H
