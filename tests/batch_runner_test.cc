/**
 * @file
 * Batch-runner tests: parallel evaluation must be bit-identical to
 * serial (results ordered by job index, never completion order), the
 * compile cache must actually share pipeline stages, and failures must
 * surface per job instead of tearing down the batch.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include "test_util.h"

#include "corpus/harness.h"
#include "support/fault.h"
#include "tools/batch_runner.h"

namespace sulong
{
namespace
{

bool
sameResult(const ExecutionResult &a, const ExecutionResult &b)
{
    return a.exitCode == b.exitCode && a.output == b.output &&
           a.bug.kind == b.bug.kind && a.bug.access == b.bug.access &&
           a.bug.storage == b.bug.storage &&
           a.bug.direction == b.bug.direction &&
           a.bug.detail == b.bug.detail && a.termination == b.termination &&
           a.terminationDetail == b.terminationDetail;
}

std::vector<BatchJob>
corpusJobs(size_t max_entries)
{
    const auto &corpus = bugCorpus();
    std::vector<BatchJob> jobs;
    for (size_t i = 0; i < corpus.size() && i < max_entries; i++) {
        for (const ToolConfig &tool : evaluationToolMatrix()) {
            jobs.push_back(BatchJob::make(corpus[i].source, tool,
                                          corpus[i].args,
                                          corpus[i].stdinData));
        }
    }
    return jobs;
}

TEST(BatchRunnerTest, EightWorkersMatchSerial)
{
    std::vector<BatchJob> jobs = corpusJobs(12);

    BatchOptions serial;
    serial.jobs = 1;
    BatchReport reference = runBatch(jobs, serial);

    BatchOptions parallel;
    parallel.jobs = 8;
    BatchReport report = runBatch(jobs, parallel);

    ASSERT_EQ(reference.results.size(), jobs.size());
    ASSERT_EQ(report.results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        EXPECT_TRUE(sameResult(reference.results[i], report.results[i]))
            << "job " << i << " diverged: "
            << reference.results[i].bug.toString() << " vs "
            << report.results[i].bug.toString();
    }
}

TEST(BatchRunnerTest, MatrixIsIdenticalOnOneAndEightWorkers)
{
    const auto &corpus = bugCorpus();
    std::vector<CorpusEntry> entries(corpus.begin(),
                                     corpus.begin() + 10);
    auto tools = evaluationToolMatrix();
    ResourceLimits limits = corpusRunLimits();

    BatchOptions serial;
    serial.jobs = 1;
    std::vector<MatrixRow> reference =
        runDetectionMatrix(entries, tools, serial, nullptr, &limits);

    BatchOptions options;
    options.jobs = 8;
    CompileCacheStats stats;
    std::vector<MatrixRow> rows =
        runDetectionMatrix(entries, tools, options, &stats, &limits);

    ASSERT_EQ(rows.size(), reference.size());
    for (size_t r = 0; r < rows.size(); r++) {
        EXPECT_EQ(rows[r].tool, reference[r].tool);
        EXPECT_EQ(rows[r].directCount, reference[r].directCount);
        EXPECT_EQ(rows[r].indirectCount, reference[r].indirectCount);
        EXPECT_EQ(rows[r].errorCount, reference[r].errorCount);
        ASSERT_EQ(rows[r].outcomes.size(), reference[r].outcomes.size());
        for (size_t i = 0; i < rows[r].outcomes.size(); i++) {
            EXPECT_EQ(rows[r].outcomes[i].detected,
                      reference[r].outcomes[i].detected);
            EXPECT_EQ(rows[r].outcomes[i].indirect,
                      reference[r].outcomes[i].indirect);
            EXPECT_EQ(rows[r].outcomes[i].error,
                      reference[r].outcomes[i].error);
            EXPECT_EQ(rows[r].outcomes[i].report.detail,
                      reference[r].outcomes[i].report.detail);
        }
    }
    // 5 tools map onto 5 pipeline stages per entry (3 plain + 2 ASan);
    // everything beyond that must be a hit.
    EXPECT_GT(stats.hits, 0u);
}

TEST(BatchRunnerTest, CacheSharesStagesAcrossTools)
{
    // ASan -O0, Memcheck -O0 and Clang -O0 share one front-end stage.
    std::string src = "int main(void) { return 41 + 1; }";
    std::vector<BatchJob> jobs = {
        BatchJob::make(src, ToolConfig::make(ToolKind::clang, 0)),
        BatchJob::make(src, ToolConfig::make(ToolKind::memcheck, 0)),
        BatchJob::make(src, ToolConfig::make(ToolKind::asan, 0)),
    };
    BatchOptions options;
    options.jobs = 1;
    BatchReport report = runBatch(jobs, options);
    for (const ExecutionResult &result : report.results)
        EXPECT_EQ(result.exitCode, 42);
    // clang misses, and so does the front-end entry its stage is
    // copied from; memcheck and asan both hit clang's stage (ASan
    // checks accesses at run time, so it needs no stage of its own).
    EXPECT_EQ(report.cacheStats.misses, 2u);
    EXPECT_EQ(report.cacheStats.hits, 2u);
}

TEST(BatchRunnerTest, PerJobPrepareMatchesSharedCache)
{
    std::vector<BatchJob> jobs = corpusJobs(6);

    BatchOptions shared;
    shared.jobs = 4;
    BatchReport report = runBatch(jobs, shared);
    ASSERT_EQ(report.results.size(), jobs.size());
    EXPECT_GT(report.cacheStats.hits, 0u);

    // Without a cache, each prepare compiles into a cold call-local one.
    for (size_t i = 0; i < jobs.size(); i++) {
        PreparedProgram prepared =
            prepareProgram(jobs[i].sources, jobs[i].config);
        ASSERT_TRUE(prepared.ok()) << prepared.compileErrors;
        prepared.engine->limits() = jobs[i].limits;
        ExecutionResult result =
            prepared.run(jobs[i].args, jobs[i].stdinData);
        EXPECT_TRUE(sameResult(result, report.results[i])) << "job " << i;
    }
}

TEST(BatchRunnerTest, CompileErrorsStayPerJob)
{
    std::vector<BatchJob> jobs = {
        BatchJob::make("int main(void) { return 0; }",
                       ToolConfig::make(ToolKind::safeSulong)),
        BatchJob::make("int main(void) { syntax error }",
                       ToolConfig::make(ToolKind::safeSulong)),
        BatchJob::make("int main(void) { return 3; }",
                       ToolConfig::make(ToolKind::safeSulong)),
    };
    BatchOptions options;
    options.jobs = 2;
    BatchReport report = runBatch(jobs, options);
    ASSERT_EQ(report.results.size(), 3u);
    EXPECT_EQ(report.results[0].exitCode, 0);
    EXPECT_EQ(report.results[1].bug.kind, ErrorKind::engineError);
    EXPECT_EQ(report.results[2].exitCode, 3);
}

TEST(GuardedJobTest, RetryExhaustionReportsLastTerminationAndAttempts)
{
    FaultInjector faults;
    FaultInjector::Rule rule;
    rule.site = "batch.job/0";
    rule.action = FaultInjector::Action::hostException;
    faults.addRule(rule);

    BatchJob job = BatchJob::make("int main(void) { return 0; }",
                                  ToolConfig::make(ToolKind::safeSulong));
    GuardedJobOptions options;
    options.retries = 2;
    options.retryBackoffMs = 0;
    options.faults = &faults;
    JobWatchdog watchdog(0);
    BatchReport::JobStats stats;
    std::atomic<bool> drain{false};
    ExecutionResult result =
        runGuardedJob(job, 0, nullptr, options, drain, watchdog, stats);

    EXPECT_EQ(stats.attempts, 3u); // 1 + retries, all spent
    EXPECT_EQ(stats.termination, TerminationKind::hostFault);
    EXPECT_EQ(result.termination, TerminationKind::hostFault);
    EXPECT_NE(result.terminationDetail.find("injected host fault"),
              std::string::npos)
        << result.terminationDetail;
}

TEST(GuardedJobTest, TransientFaultRecoversWithinRetryBudget)
{
    FaultInjector faults;
    FaultInjector::Rule rule;
    rule.site = "batch.job/0";
    rule.action = FaultInjector::Action::hostException;
    rule.maxFirings = 2; // attempts 1 and 2 fault, attempt 3 succeeds
    faults.addRule(rule);

    BatchJob job = BatchJob::make("int main(void) { return 9; }",
                                  ToolConfig::make(ToolKind::safeSulong));
    GuardedJobOptions options;
    options.retries = 3;
    options.retryBackoffMs = 0;
    options.faults = &faults;
    JobWatchdog watchdog(0);
    BatchReport::JobStats stats;
    std::atomic<bool> drain{false};
    ExecutionResult result =
        runGuardedJob(job, 0, nullptr, options, drain, watchdog, stats);

    EXPECT_EQ(stats.attempts, 3u);
    EXPECT_EQ(stats.termination, TerminationKind::normal);
    EXPECT_EQ(result.exitCode, 9);
}

TEST(GuardedJobTest, DrainBeforeStartIsCancelledWithZeroAttempts)
{
    BatchJob job = BatchJob::make("int main(void) { return 0; }",
                                  ToolConfig::make(ToolKind::safeSulong));
    JobWatchdog watchdog(0);
    BatchReport::JobStats stats;
    std::atomic<bool> drain{true};
    ExecutionResult result = runGuardedJob(job, 0, nullptr, {}, drain,
                                           watchdog, stats);
    EXPECT_EQ(stats.attempts, 0u);
    EXPECT_EQ(result.termination, TerminationKind::cancelled);
}

TEST(GuardedJobTest, DrainBetweenRetriesKeepsTheHostFaultOutcome)
{
    // Regression: a drain firing between retry attempts used to burn
    // one more (immediately-cancelled) attempt, overwriting the real
    // hostFault termination. Now the loop breaks before attempt 3.
    FaultInjector faults;
    FaultInjector::Rule rule;
    rule.site = "batch.job/0";
    rule.action = FaultInjector::Action::hostException;
    faults.addRule(rule);

    BatchJob job = BatchJob::make("int main(void) { return 0; }",
                                  ToolConfig::make(ToolKind::safeSulong));
    GuardedJobOptions options;
    options.retries = 5;
    options.retryBackoffMs = 600; // attempt 2 starts ~600ms in
    options.faults = &faults;
    JobWatchdog watchdog(0);
    BatchReport::JobStats stats;
    std::atomic<bool> drain{false};

    // Flip the drain inside attempt 1's backoff window: wait for the
    // first fault-site visit (attempt 1 has faulted and begun its
    // sleep), then set the flag well before attempt 2's 600ms mark.
    std::thread flipper([&] {
        while (faults.visits("batch.job/0") == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        drain.store(true);
        watchdog.cancelAll(true); // mirror the service's hard drain
    });
    ExecutionResult result =
        runGuardedJob(job, 0, nullptr, options, drain, watchdog, stats);
    flipper.join();

    // The outcome of the last real attempt survives the drain: never
    // cancelled, and no attempt was spent after the drain fired.
    EXPECT_EQ(result.termination, TerminationKind::hostFault);
    EXPECT_EQ(stats.termination, TerminationKind::hostFault);
    EXPECT_GE(stats.attempts, 1u);
    EXPECT_LT(stats.attempts, 1u + options.retries);
}

TEST(GuardedJobTest, StickyCancelAllCancelsLaterWatches)
{
    JobWatchdog watchdog(0);
    watchdog.cancelAll(/*sticky=*/true);
    CancellationToken token;
    watchdog.watch(1, token);
    EXPECT_TRUE(token.cancelled());
    watchdog.release(1);

    JobWatchdog fresh(0);
    CancellationToken other;
    fresh.cancelAll(/*sticky=*/false);
    fresh.watch(2, other);
    EXPECT_FALSE(other.cancelled()); // non-sticky only hits in-flight
    fresh.release(2);
}

TEST(BatchRunnerTest, ExternalCacheIsReusedAcrossBatches)
{
    CompileCache cache;
    std::vector<BatchJob> jobs = {BatchJob::make(
        "int main(void) { return 7; }",
        ToolConfig::make(ToolKind::safeSulong))};

    BatchOptions options;
    options.jobs = 1;
    options.cache = &cache;
    runBatch(jobs, options);
    BatchReport second = runBatch(jobs, options);
    EXPECT_EQ(second.results[0].exitCode, 7);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

} // namespace
} // namespace sulong
