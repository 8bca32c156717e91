/**
 * @file
 * SMT-lite constraint solver for refuting static-finding path
 * conditions.
 *
 * The solver handles exactly the constraint language the path refuter
 * emits (constraints.h): bounded integer variables, affine equalities
 * `a = m*b + k`, offset inequalities `a <= b + k`, and constant
 * disequalities `v != c`. It decides systems by interval propagation to
 * a fixpoint, with a small lo/mid/hi split search used only to find
 * satisfying models. The asymmetry is deliberate and is what keeps the
 * refutation pipeline sound:
 *
 *  - UNSAT is claimed only when top-level propagation empties a
 *    variable's domain — a proof that no assignment exists.
 *  - SAT is claimed only for a concrete all-singleton assignment that
 *    passes exact (128-bit) re-verification of every constraint.
 *  - Everything else is `unknown`, which the analysis pipeline routes
 *    to the engine replay instead of dropping the finding.
 */

#ifndef MS_ANALYSIS_SOLVER_H
#define MS_ANALYSIS_SOLVER_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lattice.h"

namespace sulong
{

/** A conjunction of constraints over bounded 64-bit integer variables. */
class SmtLite
{
  public:
    /// Sentinel for the right-hand variable of addLe: `a <= k` alone.
    static constexpr int kConst = -1;

    enum class Result : uint8_t
    {
        /// Proven: no assignment satisfies the system.
        unsat,
        /// A concrete model was found and exactly verified.
        sat,
        /// The solver could not decide within its budgets.
        unknown,
    };

    struct Outcome
    {
        Result result = Result::unknown;
        /// unsat: the propagation step that emptied a domain.
        /// sat: rendering of the model. unknown: why it gave up.
        std::string reason;
        /// Result::sat only: one value per variable.
        std::vector<int64_t> model;
    };

    /** New variable with declared domain @p domain (empty → immediate
     *  UNSAT on solve). Returns its id. */
    int addVar(const Interval &domain, std::string name = "");

    /** a = mul*b + add (mul must be nonzero). */
    void addEq(int a, int b, int64_t mul, int64_t add);

    /** a <= b + k; pass b = kConst for the unary form a <= k. */
    void addLe(int a, int b, int64_t k);

    /** v != c. */
    void addNeq(int v, int64_t c);

    size_t numVars() const { return domains_.size(); }
    size_t numConstraints() const
    {
        return eqs_.size() + les_.size() + neqs_.size();
    }

    /** Decide the current system. The system itself is not modified, so
     *  callers may add constraints and re-solve incrementally. */
    Outcome solve() const;

  private:
    struct Eq
    {
        int a;
        int b;
        int64_t mul;
        int64_t add;
    };
    struct Le
    {
        int a;
        int b; // kConst for the unary form
        int64_t k;
    };
    struct Neq
    {
        int v;
        int64_t c;
    };

    std::string varName(int v) const;
    std::string describeEq(const Eq &eq) const;
    std::string describeLe(const Le &le) const;

    /// Propagate to fixpoint over @p dom; false = emptied (reason set).
    bool propagate(std::vector<Interval> &dom, std::string &reason) const;
    /// Exact 128-bit check of every constraint against a full model.
    bool verifyModel(const std::vector<int64_t> &model) const;
    /// Depth-bounded lo/mid/hi search for a verified model.
    bool searchModel(std::vector<Interval> dom, unsigned depth,
                     unsigned &budget, std::vector<int64_t> &model) const;

    std::vector<Interval> domains_;
    std::vector<std::string> names_;
    std::vector<Eq> eqs_;
    std::vector<Le> les_;
    std::vector<Neq> neqs_;
};

} // namespace sulong

#endif // MS_ANALYSIS_SOLVER_H
