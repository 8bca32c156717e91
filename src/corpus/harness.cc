#include "corpus/harness.h"

#include <chrono>
#include <sstream>

#include "support/string_utils.h"

namespace sulong
{

DetectionOutcome
classifyOutcome(const CorpusEntry &entry, const ExecutionResult &result)
{
    DetectionOutcome outcome;
    outcome.report = result.bug;
    // A non-normal termination (resource limit, timeout, cancellation,
    // host fault) means the engine gave up before a verdict.
    if (result.termination != TerminationKind::normal ||
        result.bug.kind == ErrorKind::engineError) {
        outcome.error = true;
        return outcome;
    }
    switch (entry.kind) {
      case ErrorKind::outOfBounds:
        outcome.detected = result.bug.kind == ErrorKind::outOfBounds;
        outcome.indirect = result.bug.kind == ErrorKind::uninitRead &&
            entry.access == AccessKind::read;
        break;
      case ErrorKind::useAfterFree:
        outcome.detected = result.bug.kind == ErrorKind::useAfterFree;
        break;
      case ErrorKind::nullDeref:
        outcome.detected = result.bug.kind == ErrorKind::nullDeref;
        break;
      case ErrorKind::varargs:
        outcome.detected = result.bug.kind == ErrorKind::varargs;
        break;
      default:
        outcome.detected = result.bug.kind == entry.kind;
        break;
    }
    return outcome;
}

ResourceLimits
corpusRunLimits()
{
    // Generous for any correct corpus program, tight enough that a
    // misbehaving cell terminates in well under a second instead of
    // wedging a worker or exhausting host memory.
    ResourceLimits limits;
    limits.maxSteps = 50'000'000;
    limits.maxCallDepth = 3'000;
    limits.maxHeapBytes = 256ull * 1024 * 1024;
    limits.maxHeapAllocations = 1'000'000;
    limits.maxOutputBytes = 16ull * 1024 * 1024;
    limits.deadlineMs = 0; // keep corpus outcomes time-independent
    return limits;
}

std::vector<MatrixRow>
runDetectionMatrix(const std::vector<CorpusEntry> &entries,
                   const std::vector<ToolConfig> &tools,
                   const BatchOptions &options,
                   CompileCacheStats *cache_stats,
                   const ResourceLimits *job_limits)
{
    ResourceLimits limits =
        job_limits != nullptr ? *job_limits : corpusRunLimits();
    // Tool-major job order: cell (tool r, entry i) is job
    // r * |entries| + i.
    std::vector<BatchJob> jobs;
    jobs.reserve(tools.size() * entries.size());
    for (const ToolConfig &config : tools) {
        for (const CorpusEntry &entry : entries) {
            jobs.push_back(BatchJob::make(entry.source, config, entry.args,
                                          entry.stdinData));
            jobs.back().limits = limits;
        }
    }

    BatchReport report = runBatch(jobs, options);
    if (cache_stats != nullptr)
        *cache_stats = report.cacheStats;

    std::vector<MatrixRow> rows(tools.size());
    for (size_t r = 0; r < tools.size(); r++) {
        MatrixRow &row = rows[r];
        row.tool = tools[r].toString();
        for (size_t i = 0; i < entries.size(); i++) {
            DetectionOutcome outcome = classifyOutcome(
                entries[i], report.results[r * entries.size() + i]);
            row.directCount += outcome.detected ? 1 : 0;
            row.indirectCount += outcome.indirect ? 1 : 0;
            row.errorCount += outcome.error ? 1 : 0;
            row.outcomes.push_back(std::move(outcome));
        }
    }
    return rows;
}

std::string
formatTable1(const std::vector<CorpusEntry> &entries)
{
    unsigned oob = 0, nulls = 0, uaf = 0, varargs = 0, other = 0;
    for (const auto &entry : entries) {
        switch (entry.kind) {
          case ErrorKind::outOfBounds: oob++; break;
          case ErrorKind::nullDeref: nulls++; break;
          case ErrorKind::useAfterFree: uaf++; break;
          case ErrorKind::varargs: varargs++; break;
          default: other++; break;
        }
    }
    std::ostringstream os;
    os << "Table 1: error distribution of the corpus\n";
    os << "  Buffer overflows    " << padLeft(std::to_string(oob), 4) << "\n";
    os << "  NULL dereferences   " << padLeft(std::to_string(nulls), 4)
       << "\n";
    os << "  Use-after-free      " << padLeft(std::to_string(uaf), 4) << "\n";
    os << "  Varargs             " << padLeft(std::to_string(varargs), 4)
       << "\n";
    if (other > 0)
        os << "  Other               " << padLeft(std::to_string(other), 4)
           << "\n";
    os << "  Total               "
       << padLeft(std::to_string(entries.size()), 4) << "\n";
    return os.str();
}

std::string
formatTable2(const std::vector<CorpusEntry> &entries)
{
    unsigned reads = 0, writes = 0, under = 0, over = 0;
    unsigned stack = 0, heap = 0, global = 0, main_args = 0;
    for (const auto &entry : entries) {
        if (entry.kind != ErrorKind::outOfBounds)
            continue;
        (entry.access == AccessKind::read ? reads : writes)++;
        (entry.direction == BoundsDirection::underflow ? under : over)++;
        switch (entry.storage) {
          case StorageKind::stack: stack++; break;
          case StorageKind::heap: heap++; break;
          case StorageKind::global: global++; break;
          case StorageKind::mainArgs: main_args++; break;
          default: break;
        }
    }
    std::ostringstream os;
    os << "Table 2: distribution of out-of-bounds accesses\n";
    os << "  Read  " << padLeft(std::to_string(reads), 3)
       << "   Underflow " << padLeft(std::to_string(under), 3)
       << "   Stack     " << padLeft(std::to_string(stack), 3) << "\n";
    os << "  Write " << padLeft(std::to_string(writes), 3)
       << "   Overflow  " << padLeft(std::to_string(over), 3)
       << "   Heap      " << padLeft(std::to_string(heap), 3) << "\n";
    os << "                          "
       << "Global    " << padLeft(std::to_string(global), 3) << "\n";
    os << "                          "
       << "Main args " << padLeft(std::to_string(main_args), 3) << "\n";
    return os.str();
}

std::string
formatMatrix(const std::vector<CorpusEntry> &entries,
             const std::vector<MatrixRow> &rows)
{
    std::ostringstream os;
    os << "Detection matrix over " << entries.size() << " corpus bugs\n";
    os << "  " << padRight("tool", 14) << padLeft("found", 7)
       << padLeft("indirect", 10) << padLeft("missed", 8) << "\n";
    for (const auto &row : rows) {
        unsigned missed = static_cast<unsigned>(entries.size()) -
            row.directCount - row.indirectCount;
        os << "  " << padRight(row.tool, 14)
           << padLeft(std::to_string(row.directCount), 7)
           << padLeft(std::to_string(row.indirectCount), 10)
           << padLeft(std::to_string(missed), 8);
        if (row.errorCount > 0)
            os << "  (" << row.errorCount << " errors)";
        os << "\n";
    }
    return os.str();
}

unsigned
CrossValidationReport::falseDefinites() const
{
    unsigned n = 0;
    for (const CrossValidationRow &row : rows)
        n += row.falseDefinite ? 1 : 0;
    return n;
}

unsigned
CrossValidationReport::definiteHits() const
{
    unsigned n = 0;
    for (const CrossValidationRow &row : rows)
        n += row.definiteHit ? 1 : 0;
    return n;
}

unsigned
CrossValidationReport::staticHits() const
{
    unsigned n = 0;
    for (const CrossValidationRow &row : rows)
        n += row.staticHit ? 1 : 0;
    return n;
}

double
CrossValidationReport::recall() const
{
    return rows.empty() ? 0.0
                        : static_cast<double>(staticHits()) /
            static_cast<double>(rows.size());
}

double
CrossValidationReport::definiteRecall() const
{
    return rows.empty() ? 0.0
                        : static_cast<double>(definiteHits()) /
            static_cast<double>(rows.size());
}

CrossValidationReport
crossValidateCorpus(const std::vector<CorpusEntry> &entries,
                    const AnalysisOptions &base, CompileCache *cache)
{
    CrossValidationReport report;
    auto start = std::chrono::steady_clock::now();

    // The oracle is the engine the refutation stage runs: Safe Sulong
    // with uninitialized-read detection on, under the corpus budget.
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.detectUninitReads = true;

    for (const CorpusEntry &entry : entries) {
        CrossValidationRow row;
        row.id = entry.id;
        row.expectedKind = entry.kind;
        row.expected = bugClassOfError(entry.kind);

        PreparedProgram prepared = prepareProgram(entry.source, config, cache);
        if (!prepared.ok()) {
            row.dynamicError = true;
            report.rows.push_back(std::move(row));
            continue;
        }

        AnalysisOptions options = base;
        options.replayArgs = entry.args;
        options.replayStdin = entry.stdinData;
        AnalysisReport analysis = analyzeModule(*prepared.module, options);
        row.replayOutcome = analysis.replayOutcome;
        row.summariesApplied = analysis.summariesApplied;

        prepared.engine->limits() = corpusRunLimits();
        ExecutionResult dynamic = prepared.run(entry.args, entry.stdinData);
        row.dynamicReport = dynamic.bug;
        row.dynamicError =
            dynamic.termination != TerminationKind::normal ||
            dynamic.bug.kind == ErrorKind::engineError;

        for (const StaticFinding &f : analysis.findings) {
            bool definite = f.confidence == Confidence::definite;
            (definite ? row.definiteCount : row.maybeCount)++;
            if (f.kind == entry.kind) {
                row.staticHit = true;
                row.definiteHit = row.definiteHit || definite;
            }
            if (definite &&
                (row.dynamicError || dynamic.bug.kind != f.kind))
                row.falseDefinite = true;
        }
        report.rows.push_back(std::move(row));
    }

    report.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return report;
}

std::string
formatCrossValidation(const CrossValidationReport &report)
{
    unsigned definiteTotal = 0, maybeTotal = 0;
    for (const CrossValidationRow &row : report.rows) {
        definiteTotal += row.definiteCount;
        maybeTotal += row.maybeCount;
    }
    std::ostringstream os;
    os << "Static/dynamic cross-validation over " << report.rows.size()
       << " corpus bugs\n";
    os << "  definite findings   " << padLeft(std::to_string(definiteTotal), 5)
       << "\n";
    os << "  maybe findings      " << padLeft(std::to_string(maybeTotal), 5)
       << "\n";
    os << "  false definites     "
       << padLeft(std::to_string(report.falseDefinites()), 5) << "\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%u/%zu (%.1f%%)", report.staticHits(),
                  report.rows.size(), report.recall() * 100.0);
    os << "  static recall       " << buf << "\n";
    std::snprintf(buf, sizeof buf, "%u/%zu (%.1f%%)", report.definiteHits(),
                  report.rows.size(), report.definiteRecall() * 100.0);
    os << "  definite recall     " << buf << "\n";
    for (const CrossValidationRow &row : report.rows) {
        if (!row.falseDefinite)
            continue;
        os << "  FALSE DEFINITE " << row.id << ": static definite vs dynamic "
           << errorKindName(row.dynamicReport.kind)
           << (row.dynamicError ? " (oracle error)" : "")
           << " [replay: " << row.replayOutcome << "]\n";
    }
    for (const CrossValidationRow &row : report.rows) {
        if (row.staticHit || row.falseDefinite)
            continue;
        os << "  missed " << row.id << " ("
           << errorKindName(row.expectedKind) << ") [replay: "
           << row.replayOutcome << "]\n";
    }
    return os.str();
}

std::vector<std::string>
exclusiveDetections(const std::vector<CorpusEntry> &entries,
                    const std::vector<MatrixRow> &rows,
                    bool count_indirect_as_found)
{
    std::vector<std::string> ids;
    if (rows.empty())
        return ids;
    for (size_t i = 0; i < entries.size(); i++) {
        if (!rows[0].outcomes[i].detected)
            continue;
        bool found_elsewhere = false;
        for (size_t r = 1; r < rows.size(); r++) {
            const DetectionOutcome &cell = rows[r].outcomes[i];
            if (cell.detected ||
                (count_indirect_as_found && cell.indirect)) {
                found_elsewhere = true;
                break;
            }
        }
        if (!found_elsewhere)
            ids.push_back(entries[i].id);
    }
    return ids;
}

} // namespace sulong
