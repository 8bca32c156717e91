/**
 * @file
 * Linking a precompiled library into a program by cloning its bodies.
 *
 * A program compiled against a library (see LibraryPrototype in
 * frontend/compiler.h) declares every library function and holds its
 * own copy of every library global; linkLibrary() then copies in only
 * the library bodies the program reaches. The library module itself is
 * never changed, so one immutable prototype serves every program.
 *
 * The copy supports the full IR — including named struct types — and
 * preserves function ids, frame-slot numbering and source locations
 * exactly, so a linked body executes bit-identically to the library's
 * own under every engine.
 */

#ifndef MS_IR_CLONE_H
#define MS_IR_CLONE_H

#include <unordered_map>

#include "ir/module.h"

namespace sulong
{

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
