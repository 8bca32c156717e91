/**
 * @file
 * Harness that runs the corpus under the tool matrix and regenerates
 * Table 1, Table 2, and the Section 4.1 detection comparison.
 */

#ifndef MS_CORPUS_HARNESS_H
#define MS_CORPUS_HARNESS_H

#include "analysis/analyzer.h"
#include "corpus/corpus.h"
#include "study/classifier.h"
#include "tools/batch_runner.h"
#include "tools/driver.h"

namespace sulong
{

/** Result of one (tool, program) cell. */
struct DetectionOutcome
{
    /// The tool reported the planted bug (kind matches ground truth).
    bool detected = false;
    /// Memcheck-style indirect hint: an uninitialised-value report for a
    /// planted out-of-bounds read (the paper's "arguably could be used
    /// to indirectly identify" case).
    bool indirect = false;
    /// The program failed to compile or the engine gave up.
    bool error = false;
    BugReport report;
};

/** One tool's row over the whole corpus. */
struct MatrixRow
{
    std::string tool;
    std::vector<DetectionOutcome> outcomes;
    unsigned directCount = 0;
    unsigned indirectCount = 0;
    unsigned errorCount = 0;
};

/** Classify a run against the entry's ground truth. */
DetectionOutcome classifyOutcome(const CorpusEntry &entry,
                                 const ExecutionResult &result);

/**
 * Default per-job resource budget for corpus evaluation: generous for
 * every correct corpus program, tight enough that loops, recursion
 * bombs, allocation bombs, and printf bombs all terminate structurally.
 * Deliberately leaves the wall-clock deadline off so corpus outcomes
 * never depend on host timing.
 */
ResourceLimits corpusRunLimits();

/**
 * Run @p entries under @p tools: every (tool, entry) cell becomes one
 * BatchJob, executed over @p options' worker pool and compile cache.
 * Rows are tool-major and come back in the same deterministic order,
 * with identical outcomes, for every worker count. Jobs run under
 * @p job_limits (corpusRunLimits() when null).
 */
std::vector<MatrixRow>
runDetectionMatrix(const std::vector<CorpusEntry> &entries,
                   const std::vector<ToolConfig> &tools,
                   const BatchOptions &options = {},
                   CompileCacheStats *cache_stats = nullptr,
                   const ResourceLimits *job_limits = nullptr);

/** Table 1: error distribution of the corpus (ground truth). */
std::string formatTable1(const std::vector<CorpusEntry> &entries);

/** Table 2: read/write, under/overflow, and storage splits of the
 *  out-of-bounds entries (ground truth). */
std::string formatTable2(const std::vector<CorpusEntry> &entries);

/** The detection-matrix summary (per tool: found / indirect / missed). */
std::string formatMatrix(const std::vector<CorpusEntry> &entries,
                         const std::vector<MatrixRow> &rows);

/** Ids of entries only the first row's tool detected (Section 4.1's
 *  "8 bugs found only by Safe Sulong"). */
std::vector<std::string>
exclusiveDetections(const std::vector<CorpusEntry> &entries,
                    const std::vector<MatrixRow> &rows,
                    bool count_indirect_as_found = false);

/** Static-vs-dynamic comparison for one corpus entry. */
struct CrossValidationRow
{
    std::string id;
    /// Ground-truth kind and shared-taxonomy class of the planted bug.
    ErrorKind expectedKind = ErrorKind::outOfBounds;
    BugClass expected = BugClass::spatial;
    /// The dynamic oracle's verdict (Safe Sulong, uninitialized-read
    /// detection on, corpusRunLimits()).
    BugReport dynamicReport;
    /// The oracle gave up (compile failure / resource termination /
    /// engine error) — nothing can be confirmed against it.
    bool dynamicError = false;
    unsigned definiteCount = 0;
    unsigned maybeCount = 0;
    /// Call sites where a callee summary was applied instead of havocking.
    unsigned summariesApplied = 0;
    /// A `definite` static finding whose kind the oracle did not
    /// reproduce. The soundness contract is that this never happens.
    bool falseDefinite = false;
    /// A `definite` finding has the planted bug's kind.
    bool definiteHit = false;
    /// Any finding (definite or maybe) has the planted bug's kind.
    bool staticHit = false;
    std::string replayOutcome;
};

/** Corpus-wide static/dynamic agreement summary. */
struct CrossValidationReport
{
    std::vector<CrossValidationRow> rows;
    double wallMs = 0;

    unsigned falseDefinites() const;
    unsigned definiteHits() const;
    unsigned staticHits() const;
    /// Fraction of planted bugs the analyzer reported at any confidence.
    double recall() const;
    /// Fraction the analyzer reported as replay-confirmed `definite`.
    double definiteRecall() const;
};

/**
 * Run the static analyzer over every corpus entry — replaying the
 * entry's triggering inputs in the refutation stage — then run the
 * dynamic detector on the same module, and compare. Every `definite`
 * static finding must agree in kind with the dynamic report; any
 * disagreement is recorded as a false definite.
 *
 * When @p cache is non-null, per-entry compiles go through it (the same
 * shared CompileCache the batch runner uses), so repeated
 * cross-validation passes — e.g. ablation sweeps over AnalysisOptions —
 * recompile nothing.
 */
CrossValidationReport
crossValidateCorpus(const std::vector<CorpusEntry> &entries,
                    const AnalysisOptions &base = {},
                    CompileCache *cache = nullptr);

/** Render the cross-validation summary (and any disagreeing rows). */
std::string formatCrossValidation(const CrossValidationReport &report);

} // namespace sulong

#endif // MS_CORPUS_HARNESS_H
