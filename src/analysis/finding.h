/**
 * @file
 * Structured results of the static bug-finding layer.
 *
 * The analyzer reports candidate memory errors in the shared ErrorKind
 * taxonomy so that static findings, dynamic BugReports, and the corpus
 * ground truth can all be compared through study/classifier.h's BugClass
 * without parallel string tables. No stage drops a candidate: the one
 * refuter, a replay on the managed engine, only confirms or demotes.
 */

#ifndef MS_ANALYSIS_FINDING_H
#define MS_ANALYSIS_FINDING_H

#include <optional>
#include <string>
#include <vector>

#include "support/diagnostics.h"
#include "support/error.h"

namespace sulong
{

/**
 * How sure the analyzer is about a finding.
 *
 * `definite` is contractual: over the bug corpus, every definite finding
 * must agree with the dynamic detector (zero false definites, CI-gated).
 * After the refutation stage, a finding is definite only when a bounded
 * run of the managed engine itself — the dynamic detector — faulted at
 * the same instruction with the same error kind; everything that run
 * did not confirm — paths depending on unknown inputs, joins that merged
 * a safe path in, widened loop bounds — is demoted to `maybe`.
 */
enum class Confidence : uint8_t
{
    maybe,
    definite,
};

const char *confidenceName(Confidence confidence);

/** One static finding, addressable down to the faulting instruction. */
struct StaticFinding
{
    ErrorKind kind = ErrorKind::none;
    AccessKind access = AccessKind::read;
    StorageKind storage = StorageKind::unknown;
    BoundsDirection direction = BoundsDirection::unknown;
    Confidence confidence = Confidence::maybe;

    /// Function containing the faulting instruction.
    std::string function;
    /// Block index and instruction index within the function.
    unsigned blockIndex = 0;
    unsigned instIndex = 0;
    SourceLoc loc;

    /// Free-form description of the violation itself.
    std::string detail;
    /// The abstract facts under which the fault occurs (the path
    /// condition the fixpoint derived), e.g. "offset in [40,40] of
    /// 40-byte stack object 'buf'".
    std::string pathCondition;
    /// Set by the refutation stage when the managed engine's replay run
    /// faulted here (the only way a finding stays definite after it).
    bool replayConfirmed = false;

    /// Byte offset of the access relative to the object, when constant.
    std::optional<int64_t> offset;
    /// Size of the object involved, when known.
    std::optional<int64_t> objectSize;

    /** One-line rendering, e.g. for --analyze output. */
    std::string toString() const;
};

/** Tuning knobs of one analysis run. */
struct AnalysisOptions
{
    /// Run the refutation stage (one bounded run of the managed engine
    /// from main). Without it, `definite` means "abstractly
    /// must-fault", which is NOT covered by the zero-false-definite
    /// contract.
    bool refute = true;
    /// Analyze only functions compiled from user code ("<input>" /
    /// corpus sources); libc definitions are skipped. The libc smoke
    /// test flips this off to sweep the libc bodies themselves.
    bool userCodeOnly = true;
    /// Compute bottom-up function summaries over the SCC condensation
    /// and apply them at call sites. Off = PR-4 behaviour (calls to
    /// user functions havoc everything reachable).
    bool summaries = true;
    /// Fixpoint rounds for a recursive SCC's summaries before the whole
    /// SCC degrades to pessimistic.
    unsigned summaryDepth = 3;
    /// Worker threads for same-depth SCCs (1 = fully sequential).
    /// Findings are merged in function order, so results are identical
    /// for any value.
    unsigned jobs = 1;
    /// Joins at one block before intervals are widened (to the
    /// function's comparison thresholds, then to +/-inf).
    unsigned widenAfter = 6;
    /// Fixpoint visits of one block before the function is abandoned
    /// (reported as incomplete; its findings stay maybe).
    unsigned maxBlockVisits = 80;
    /// Instruction budget of the replay (the engine's step limit).
    uint64_t replaySteps = 4 * 1000 * 1000;
    /// Program arguments / stdin the replay runs with (the corpus
    /// harness passes the entry's trigger input).
    std::vector<std::string> replayArgs;
    std::string replayStdin;
};

/** Everything one analysis run produced. */
struct AnalysisReport
{
    std::vector<StaticFinding> findings;
    /// Number of function definitions visited by the fixpoint.
    unsigned functionsAnalyzed = 0;
    /// Strongly connected components of the call graph.
    unsigned sccCount = 0;
    /// Call sites where a callee summary was applied instead of a havoc.
    unsigned summariesApplied = 0;
    /// Fixpoint block visits over every analyzed function (the
    /// `analysis.fixpoint.block_visits` counter's share of this run).
    uint64_t blockVisits = 0;
    /// True when some function hit maxBlockVisits and was abandoned.
    bool incomplete = false;
    /// True when the refutation replay ran (a main() was present).
    bool replayRan = false;
    /// How the replay ended: "fault", "exit", "inconclusive: <why>"
    /// (resource limit or engine error), "" (not run).
    std::string replayOutcome;

    unsigned definiteCount() const;
    unsigned maybeCount() const;
    /// Findings of one confidence tier, in program order.
    std::vector<StaticFinding> byConfidence(Confidence confidence) const;

    /** Multi-line rendering of all findings plus a one-line summary. */
    std::string toString() const;
};

} // namespace sulong

#endif // MS_ANALYSIS_FINDING_H
