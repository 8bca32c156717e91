/**
 * @file
 * Which functions the ASan-style tool treats as instrumented. Its
 * checks are made at run time by the native engine (see
 * sanitizer/asan_runtime.h); no pass rewrites the IR.
 */

#ifndef MS_SANITIZER_ASAN_PASS_H
#define MS_SANITIZER_ASAN_PASS_H

#include "ir/module.h"

namespace sulong
{

/** Kept only because perfbench/ reads this name; nothing fills it. */
struct AsanPassStats
{
    unsigned instrumentedFunctions = 0;
    unsigned insertedChecks = 0;
};

/**
 * @return true when @p fn belongs to the shipped libc, which ASan treats
 *         as precompiled without instrumentation (P4).
 */
bool isLibcFunction(const Function &fn);

} // namespace sulong

#endif // MS_SANITIZER_ASAN_PASS_H
