/**
 * @file
 * Differential oracle: one generated program, every engine, one verdict.
 *
 * Runs a generated program through the four dynamic engines (managed,
 * native, ASan-sim, Memcheck-sim) and the static analyzer, then
 * classifies every result against the program's ground truth:
 *
 *  - Injected-bug programs: an engine *expected* to detect the planted
 *    BugClass (per the capability matrix, the paper's Table 1/2) that
 *    misses it is a `missedBug` disagreement. The managed engine is
 *    expected to detect everything — that is the paper's thesis — so a
 *    managed miss is always a finding.
 *  - Clean programs: all engines must terminate normally with output and
 *    exit code identical to the managed reference. A bug report is a
 *    `falsePositive`, differing stdout is an `outputDivergence`, and a
 *    resource/exit mismatch is a `terminationDivergence`.
 *  - Static findings: a `definite` finding on a clean program violates
 *    the analyzer's soundness contract (the refutation replay, the
 *    analyzer's only refuter, is the adjudicator: definite means the
 *    managed engine faulted there) and
 *    reports as `falsePositive`; on injected programs the analyzer's
 *    hit/miss is recorded as statistics, never as an unexplained
 *    disagreement (static analysis is allowed to be incomplete, not
 *    unsound).
 *
 * Every verdict is deterministic: wall-clock never influences the
 * classification (limits are step/heap/depth based by default).
 */

#ifndef MS_FUZZ_ORACLE_H
#define MS_FUZZ_ORACLE_H

#include "fuzz/generator.h"
#include "tools/driver.h"

namespace sulong
{

/** How one engine's result disagrees with ground truth (if it does). */
enum class DisagreementKind : uint8_t
{
    none,
    /// An engine expected to find the planted bug did not (or reported a
    /// different BugClass for it).
    missedBug,
    /// A bug report (or definite static finding) on a clean program.
    falsePositive,
    /// Clean program, stdout differs from the managed reference.
    outputDivergence,
    /// Clean program, exit code or termination differs from the
    /// reference (one engine hit a limit the others did not).
    terminationDivergence,
};

inline constexpr int kDisagreementKindCount = 5;

const char *disagreementKindName(DisagreementKind kind);

/** Per-(engine, BugClass) expectation of the capability matrix. */
enum class Expectation : uint8_t
{
    /// Missing the planted bug is a disagreement (missedBug).
    mustDetect,
    /// Detection is recorded as a statistic; a miss is explained (e.g.
    /// Memcheck-sim on stack out-of-bounds, ASan-sim past the redzone).
    mayDetect,
};

/** The capability matrix: what @p tool is expected to do with @p bug.
 *  Mirrors the detection matrix of the paper's Section 4.1. */
Expectation expectedDetection(ToolKind tool, const InjectedBug &bug);

/** One engine's (or the analyzer's) judged result. */
struct EngineVerdict
{
    /// Display name ("Safe Sulong", "Native -O0", ..., "Static").
    std::string engine;
    /// The engine reported the planted bug with the ground-truth kind.
    bool detected = false;
    /// What the engine reported (kind none = ran clean).
    ErrorKind reported = ErrorKind::none;
    TerminationKind termination = TerminationKind::normal;
    int exitCode = 0;
    DisagreementKind disagreement = DisagreementKind::none;
    /// One-line explanation when disagreement != none.
    std::string detail;
};

/** Everything the oracle concluded about one program. */
struct OracleReport
{
    uint64_t seed = 0;
    InjectedBug bug;
    /// Dynamic engines first (managed, native, asan, memcheck), then
    /// the static analyzer's verdict when analysis ran.
    std::vector<EngineVerdict> verdicts;
    /// Static-analysis statistics (valid when analysisRan).
    bool analysisRan = false;
    unsigned staticDefinite = 0;
    unsigned staticMaybe = 0;
    /// Any finding (definite or maybe) matched the planted bug's kind.
    bool staticHit = false;
    /// The program failed to compile under some configuration — a
    /// front-end/pipeline divergence, counted separately.
    bool compileError = false;
    std::string compileErrorDetail;

    bool
    hasDisagreement() const
    {
        for (const EngineVerdict &v : verdicts)
            if (v.disagreement != DisagreementKind::none)
                return true;
        return false;
    }
    /// First non-none disagreement (the survivor's signature).
    const EngineVerdict *firstDisagreement() const;
};

/** Oracle configuration shared by a whole campaign. */
struct OracleOptions
{
    /// Per-program budget: structural (steps/heap/depth), no wall clock,
    /// so verdicts are host-independent.
    ResourceLimits limits;
    /// Run the static analyzer (with engine-replay refutation) as the
    /// fifth perspective.
    bool runAnalysis = true;
    AnalysisOptions analysis;
    /// Managed-engine tuning; detectUninitReads is forced on (the
    /// uninit-read mutator is part of ground truth).
    ManagedOptions managed;

    OracleOptions();
};

/**
 * Run @p program under every engine and judge the results. The arms
 * share @p cache, so with one the program is compiled once per pipeline
 * stage; the analyzer reads the managed arm's module.
 */
OracleReport runOracle(const FuzzProgram &program,
                       const OracleOptions &options,
                       CompileCache *cache = nullptr);

} // namespace sulong

#endif // MS_FUZZ_ORACLE_H
