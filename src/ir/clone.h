/**
 * @file
 * Deep copy of IR modules.
 *
 * The compile cache (src/tools/compile_cache.h) keeps one immutable
 * prototype module per pipeline stage and hands every evaluation job its
 * own clone, so instrumentation passes (ASan) and engines that intern
 * types during execution (the managed engine) never mutate shared state.
 *
 * Unlike the print/parse round trip (ir/parser.h), cloning supports the
 * full IR — including named struct types — and preserves function ids,
 * frame-slot numbering and source locations exactly, so a cloned module
 * executes bit-identically to its original under every engine.
 *
 * The same cloner links a precompiled library into a program compiled
 * against it (see LibraryPrototype in frontend/compiler.h): it copies
 * only the library bodies the program reaches.
 */

#ifndef MS_IR_CLONE_H
#define MS_IR_CLONE_H

#include <memory>
#include <unordered_map>

#include "ir/module.h"

namespace sulong
{

/** Deep-copy @p original into a fresh module with its own TypeContext. */
std::unique_ptr<Module> cloneModule(const Module &original);

/**
 * Link @p library into @p program, which declares every library function
 * under the library's id and holds a copy of every library global
 * (@p globals maps each library global to it). The body of each library
 * function reachable from @p program's own function bodies or from any
 * of its global initializers is cloned into its declaration; the other
 * library functions stay declarations.
 */
void linkLibrary(
    Module &program, const Module &library,
    const std::unordered_map<const GlobalVariable *, GlobalVariable *>
        &globals);

} // namespace sulong

#endif // MS_IR_CLONE_H
