/**
 * @file
 * Flow-sensitive, intraprocedural abstract interpreter over the IR.
 *
 * For every function definition, a worklist fixpoint over the CFG
 * propagates an abstract state (frame-slot values + abstract memory, see
 * lattice.h) and collects candidate memory errors: definite/maybe null
 * dereferences, constant- and interval-out-of-bounds accesses, use after
 * free and double free along must-reach paths, invalid frees, and reads
 * of uninitialized locals. Branch refinement narrows intervals through
 * the `load; icmp; zext; icmp ne 0; condbr` chains the unoptimized
 * codegen emits, writing refinements back through load provenance so
 * loop counters that live in allocas actually get bounded.
 *
 * The optional refutation stage then runs the program once on the
 * managed engine (the dynamic detector itself, bounded by the replay
 * budgets) and demotes every candidate that run does not confirm to
 * `maybe`; a fault no candidate predicted is added as definite. The run
 * shows up as a `managed.run` span under `analysis.refute` and in the
 * engine's `managed.*` counters.
 */

#ifndef MS_ANALYSIS_ANALYZER_H
#define MS_ANALYSIS_ANALYZER_H

#include "analysis/finding.h"
#include "ir/module.h"

namespace sulong
{

/**
 * Analyze every function definition of @p module (subject to
 * AnalysisOptions::userCodeOnly) and, when enabled, refute/confirm the
 * candidates by one bounded run of the managed engine.
 */
AnalysisReport analyzeModule(const Module &module,
                             const AnalysisOptions &options = {});

} // namespace sulong

#endif // MS_ANALYSIS_ANALYZER_H
