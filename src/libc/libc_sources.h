/**
 * @file
 * The C standard library shipped with the engines (paper Section 3.1).
 *
 * Two variants (LibcVariant) exist:
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

/** The libc translation units of @p variant (LibcVariant is declared in
 *  frontend/compiler.h). Both variants declare the same functions, in
 *  different orders, and the same globals; only bodies differ. */
std::vector<SourceFile> libcSources(LibcVariant variant);

/**
 * The libc compiled once per process from its safe sources (built on
 * first use, which concurrent callers share; counted by
 * `frontend.libc_prototypes`). Pass it as CompileOptions::library to
 * compile a program against it; stage(variant, level) is a variant as
 * a program of that pipeline level links it — the native one is a stage
 * of this same prototype, with its function ids and global places.
 */
const LibraryPrototype &libcPrototype();

/** Names of all public libc functions provided (for tests and docs). */
std::vector<std::string> libcFunctionNames();

} // namespace sulong

#endif // MS_LIBC_LIBC_SOURCES_H
