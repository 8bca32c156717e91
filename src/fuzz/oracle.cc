#include "fuzz/oracle.h"

namespace sulong
{

const char *
disagreementKindName(DisagreementKind kind)
{
    switch (kind) {
      case DisagreementKind::none:                  return "none";
      case DisagreementKind::missedBug:             return "missed-bug";
      case DisagreementKind::falsePositive:         return "false-positive";
      case DisagreementKind::outputDivergence:      return "output-divergence";
      case DisagreementKind::terminationDivergence:
        return "termination-divergence";
    }
    return "?";
}

Expectation
expectedDetection(ToolKind tool, const InjectedBug &bug)
{
    switch (tool) {
      case ToolKind::safeSulong:
        // The paper's thesis: the managed execution model detects every
        // class, including the far out-of-bounds accesses redzones miss.
        return Expectation::mustDetect;
      case ToolKind::clang:
        // Plain native execution detects nothing by contract; a
        // simulated segfault is incidental.
        return Expectation::mayDetect;
      case ToolKind::asan:
        switch (bug.kind) {
          case ErrorKind::outOfBounds:
            // Redzones on all three storage classes, but only adjacent —
            // and only when the access survives to run time: constant
            // global accesses fold away before instrumentation (Fig. 13).
            return bug.adjacent && !bug.foldable ? Expectation::mustDetect
                                                 : Expectation::mayDetect;
          case ErrorKind::useAfterFree:
          case ErrorKind::doubleFree:
          case ErrorKind::invalidFree:
            return Expectation::mustDetect;
          default: // uninit reads (no V-bits), null deref (plain fault)
            return Expectation::mayDetect;
        }
      case ToolKind::memcheck:
        switch (bug.kind) {
          case ErrorKind::outOfBounds:
            // Heap redzones only: stack/global accesses are not
            // instrumented (the classic Memcheck blind spot).
            return bug.storage == StorageKind::heap && bug.adjacent
                ? Expectation::mustDetect
                : Expectation::mayDetect;
          case ErrorKind::useAfterFree:
          case ErrorKind::doubleFree:
          case ErrorKind::invalidFree:
          case ErrorKind::uninitRead:
            return Expectation::mustDetect;
          default:
            return Expectation::mayDetect;
        }
    }
    return Expectation::mayDetect;
}

OracleOptions::OracleOptions()
{
    // Structural budgets only — no wall-clock — so an oracle verdict is
    // identical on every host and worker count. Generous for any
    // generated program (bounded loops, no recursion).
    limits.maxSteps = 20'000'000;
    limits.maxCallDepth = 256;
    limits.maxHeapBytes = 64ull << 20;
    limits.maxHeapAllocations = 100'000;
    limits.maxOutputBytes = 1u << 20;
    limits.deadlineMs = 0;
    // Ground truth includes the uninit-read mutator, so the managed
    // engine runs with its uninitialized-read detection on.
    managed.detectUninitReads = true;
}

namespace
{

struct DynamicRun
{
    const char *name;
    ToolKind tool;
    ExecutionResult result;
    bool compiled = true;
};

EngineVerdict
judgeInjected(const DynamicRun &run, const InjectedBug &bug)
{
    EngineVerdict v;
    v.engine = run.name;
    v.reported = run.result.bug.kind;
    v.termination = run.result.termination;
    v.exitCode = run.result.exitCode;
    v.detected = run.result.termination == TerminationKind::normal &&
        run.result.bug.kind == bug.kind;
    if (expectedDetection(run.tool, bug) == Expectation::mustDetect &&
        !v.detected) {
        v.disagreement = DisagreementKind::missedBug;
        v.detail = std::string(run.name) + " expected to detect " +
            errorKindName(bug.kind) + " (" + bug.description +
            "), got " +
            (run.result.termination != TerminationKind::normal
                 ? terminationKindName(run.result.termination)
                 : errorKindName(run.result.bug.kind));
    }
    return v;
}

EngineVerdict
judgeClean(const DynamicRun &run, const ExecutionResult &reference)
{
    EngineVerdict v;
    v.engine = run.name;
    v.reported = run.result.bug.kind;
    v.termination = run.result.termination;
    v.exitCode = run.result.exitCode;
    if (run.result.bug.kind != ErrorKind::none) {
        v.disagreement = DisagreementKind::falsePositive;
        v.detail = std::string(run.name) + " reported " +
            run.result.bug.toString() + " on a well-defined program";
        return v;
    }
    if (run.result.termination != TerminationKind::normal ||
        run.result.exitCode != reference.exitCode) {
        v.disagreement = DisagreementKind::terminationDivergence;
        v.detail = std::string(run.name) + " ended with " +
            terminationKindName(run.result.termination) + " exit " +
            std::to_string(run.result.exitCode) + ", reference exit " +
            std::to_string(reference.exitCode);
        return v;
    }
    if (run.result.output != reference.output) {
        v.disagreement = DisagreementKind::outputDivergence;
        v.detail = std::string(run.name) + " stdout {" +
            run.result.output + "} != reference {" + reference.output +
            "}";
    }
    return v;
}

} // namespace

const EngineVerdict *
OracleReport::firstDisagreement() const
{
    for (const EngineVerdict &v : verdicts)
        if (v.disagreement != DisagreementKind::none)
            return &v;
    return nullptr;
}

OracleReport
runOracle(const FuzzProgram &program, const OracleOptions &options,
          CompileCache *cache)
{
    OracleReport report;
    report.seed = program.seed;
    report.bug = program.bug;
    std::string source = program.render();

    // The managed reference runs first (twice: cold tier-1 profile,
    // and eagerly compiled with every eligible call site inlined), then
    // the native/instrumented engines. The eager arm is the
    // differential check that compilation, inlining, threaded dispatch,
    // and superblock fusion never change what a program computes or
    // reports.
    ToolConfig managed = ToolConfig::make(ToolKind::safeSulong);
    managed.managed = options.managed;
    ToolConfig managed_tier2 = managed;
    managed_tier2.managed.enableTier2 = true;
    managed_tier2.managed.compileThreshold = 1;
    managed_tier2.managed.inlineSiteMin = 0;

    struct RunSpec
    {
        const char *name;
        ToolConfig config;
    };
    const RunSpec specs[] = {
        {"managed", managed},
        {"managed-tier2", managed_tier2},
        {"native", ToolConfig::make(ToolKind::clang, 0)},
        {"asan", ToolConfig::make(ToolKind::asan, 0)},
        {"memcheck", ToolConfig::make(ToolKind::memcheck, 0)},
    };

    std::vector<DynamicRun> runs;
    for (const RunSpec &spec : specs) {
        DynamicRun run;
        run.name = spec.name;
        run.tool = spec.config.kind;
        PreparedProgram prepared = prepareProgram(source, spec.config,
                                                  cache);
        if (!prepared.ok()) {
            report.compileError = true;
            report.compileErrorDetail = std::string(spec.name) + ": " +
                prepared.compileErrors;
            run.compiled = false;
            runs.push_back(std::move(run));
            continue;
        }
        prepared.engine->limits() = options.limits;
        run.result = prepared.run();
        runs.push_back(std::move(run));
    }

    const ExecutionResult &reference = runs[0].result;
    for (const DynamicRun &run : runs) {
        if (!run.compiled) {
            EngineVerdict v;
            v.engine = run.name;
            v.disagreement = DisagreementKind::terminationDivergence;
            v.detail = std::string(run.name) + " failed to compile";
            report.verdicts.push_back(std::move(v));
            continue;
        }
        report.verdicts.push_back(program.bug.injected()
                                      ? judgeInjected(run, program.bug)
                                      : judgeClean(run, reference));
    }

    if (options.runAnalysis) {
        AnalysisOptions analysis = options.analysis;
        AnalysisReport findings = analyzeSource(source, analysis);
        report.analysisRan = true;
        report.staticDefinite = findings.definiteCount();
        report.staticMaybe = findings.maybeCount();
        EngineVerdict v;
        v.engine = "static";
        for (const StaticFinding &finding : findings.findings) {
            if (finding.kind == program.bug.kind &&
                program.bug.injected()) {
                report.staticHit = true;
                if (finding.confidence == Confidence::definite)
                    v.detected = true;
            }
        }
        if (program.bug.injected()) {
            // Incomplete is fine (maybe/missed findings are statistics);
            // a *definite* finding of a kind the planted bug does not
            // have would be unsound — the base program is well-defined,
            // so the only real fault is the planted one.
            for (const StaticFinding &finding : findings.findings) {
                if (finding.confidence == Confidence::definite &&
                    finding.kind != program.bug.kind) {
                    v.disagreement = DisagreementKind::falsePositive;
                    v.detail = "definite static finding " +
                        finding.toString() +
                        " does not match the planted " +
                        std::string(errorKindName(program.bug.kind));
                    break;
                }
            }
        } else if (report.staticDefinite > 0) {
            v.disagreement = DisagreementKind::falsePositive;
            v.detail = "definite static finding on a well-defined "
                       "program: " +
                findings.byConfidence(Confidence::definite)[0].toString();
        }
        report.verdicts.push_back(std::move(v));
    }
    return report;
}

} // namespace sulong
