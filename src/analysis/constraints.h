/**
 * @file
 * Path-condition extraction and constraint-based refutation of static
 * findings.
 *
 * For a maybe-finding the interval fixpoint could not decide, the
 * PathRefuter re-derives the finding's witness paths symbolically:
 * it enumerates the acyclic entry-to-fault paths of the CFG, executes
 * each path over a small linear symbolic domain (affine expressions over
 * bounded fresh variables, per-object constant-offset memories), turns
 * the branch conditions along the path into SmtLite constraints, and
 * asks the solver whether any path admits the fault.
 *
 * The verdict is deliberately one-sided:
 *  - `provenInfeasible` is returned only when the enumeration was
 *    complete (acyclic region, under the path cap) and EVERY path is
 *    either contradictory or proves the access in bounds — the solver's
 *    UNSAT results are proofs, so the finding can be dropped with a
 *    certificate.
 *  - `feasible` means some path admits a concrete, exactly-verified
 *    model of the fault.
 *  - Anything the symbolic domain cannot express (loops, too many
 *    paths, smashed memory, unsigned comparisons as the only hope)
 *    degrades to `unknown`, which the pipeline routes to the engine
 *    replay — never to dropping the finding.
 */

#ifndef MS_ANALYSIS_CONSTRAINTS_H
#define MS_ANALYSIS_CONSTRAINTS_H

#include <string>

#include "analysis/finding.h"
#include "ir/cfg.h"
#include "ir/module.h"

namespace sulong
{

/** Outcome of one refutation attempt. */
enum class RefuteVerdict : uint8_t
{
    /// All witness paths refuted; the finding can be dropped.
    provenInfeasible,
    /// A concrete model reaches the fault; keep the finding.
    feasible,
    /// Out of scope for the symbolic domain; fall back to the replay.
    unknown,
};

const char *refuteVerdictName(RefuteVerdict verdict);

struct RefutationCheck
{
    RefuteVerdict verdict = RefuteVerdict::unknown;
    /// provenInfeasible: the per-path refutation certificate.
    /// feasible: the satisfying model. unknown: why it gave up.
    std::string certificate;
};

/**
 * Refutes findings within one function. Construction precomputes the
 * CFG; check() is then called once per finding in that function.
 */
class PathRefuter
{
  public:
    PathRefuter(const Module &module, const Function &fn);

    /** Attempt to refute @p finding (which must belong to this
     *  function). */
    RefutationCheck check(const StaticFinding &finding) const;

  private:
    const Module &module_;
    const Function &fn_;
    Cfg cfg_;
};

} // namespace sulong

#endif // MS_ANALYSIS_CONSTRAINTS_H
