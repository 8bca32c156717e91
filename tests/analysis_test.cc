/**
 * @file
 * Tests for the static analysis layer (src/analysis): per-bug-class
 * positive and negative programs, refutation demotion, and smoke runs
 * over the example programs and the safe libc.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/callgraph.h"
#include "corpus/harness.h"
#include "fuzz/campaign.h"
#include "tools/batch_runner.h"
#include "tools/benchmark_programs.h"
#include "tools/compile_cache.h"
#include "test_util.h"

namespace sulong
{
namespace
{

/** All test compiles share one cache, like the batch runner's: a
 *  source recompiled by a later test is a hit, not a recompile. */
CompileCache &
sharedCache()
{
    static CompileCache cache;
    return cache;
}

std::shared_ptr<const Module>
moduleOf(const std::string &src)
{
    PreparedProgram prepared = prepareProgram(
        src, ToolConfig::make(ToolKind::safeSulong), &sharedCache());
    EXPECT_TRUE(prepared.ok()) << prepared.compileErrors;
    return prepared.module;
}

AnalysisReport
analyze(const std::string &src, AnalysisOptions options = {})
{
    std::shared_ptr<const Module> module = moduleOf(src);
    if (module == nullptr)
        return {};
    return analyzeModule(*module, options);
}

bool
hasFinding(const AnalysisReport &report, ErrorKind kind,
           Confidence confidence)
{
    for (const StaticFinding &f : report.findings)
        if (f.kind == kind && f.confidence == confidence)
            return true;
    return false;
}

bool
hasDefinite(const AnalysisReport &report, ErrorKind kind)
{
    return hasFinding(report, kind, Confidence::definite);
}

// ---------------------------------------------------------------------
// Null dereference
// ---------------------------------------------------------------------

TEST(AnalysisNullDeref, DefiniteOnStraightLine)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int *p = 0;
    return *p;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::nullDeref))
        << report.toString();
}

TEST(AnalysisNullDeref, CheckedPointerIsClean)
{
    AnalysisReport report = analyze(R"(
#include <stdlib.h>
int main(void) {
    int *p = malloc(4 * sizeof(int));
    if (p == 0)
        return 1;
    p[0] = 7;
    int v = p[0];
    free(p);
    return v;
})");
    EXPECT_FALSE(hasDefinite(report, ErrorKind::nullDeref))
        << report.toString();
}

// ---------------------------------------------------------------------
// Out of bounds
// ---------------------------------------------------------------------

TEST(AnalysisOob, ConstantIndexStore)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int a[4];
    a[6] = 1;
    return 0;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
}

TEST(AnalysisOob, LoopWalksOffTheEnd)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int a[8];
    int i;
    for (i = 0; i <= 8; i++)
        a[i] = i;
    return a[0];
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
}

TEST(AnalysisOob, InBoundsLoopIsClean)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int a[8];
    int i;
    for (i = 0; i < 8; i++)
        a[i] = i;
    int sum = 0;
    for (i = 0; i < 8; i++)
        sum = sum + a[i];
    return sum;
})");
    EXPECT_FALSE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
}

// ---------------------------------------------------------------------
// Temporal errors
// ---------------------------------------------------------------------

TEST(AnalysisTemporal, UseAfterFree)
{
    AnalysisReport report = analyze(R"(
#include <stdlib.h>
int main(void) {
    int *p = malloc(sizeof(int));
    if (p == 0)
        return 1;
    *p = 3;
    free(p);
    return *p;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::useAfterFree))
        << report.toString();
}

TEST(AnalysisTemporal, DoubleFree)
{
    AnalysisReport report = analyze(R"(
#include <stdlib.h>
int main(void) {
    char *p = malloc(16);
    if (p == 0)
        return 1;
    free(p);
    free(p);
    return 0;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::doubleFree))
        << report.toString();
}

TEST(AnalysisTemporal, InvalidFreeOfStackObject)
{
    AnalysisReport report = analyze(R"(
#include <stdlib.h>
int main(void) {
    int a[4];
    a[0] = 1;
    free(a);
    return 0;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::invalidFree))
        << report.toString();
}

TEST(AnalysisTemporal, MallocFreeOnceIsClean)
{
    AnalysisReport report = analyze(R"(
#include <stdlib.h>
int main(void) {
    int *p = malloc(8 * sizeof(int));
    if (p == 0)
        return 1;
    int i;
    for (i = 0; i < 8; i++)
        p[i] = i;
    int v = p[7];
    free(p);
    return v;
})");
    EXPECT_FALSE(hasDefinite(report, ErrorKind::useAfterFree));
    EXPECT_FALSE(hasDefinite(report, ErrorKind::doubleFree));
    EXPECT_FALSE(hasDefinite(report, ErrorKind::invalidFree));
}

// ---------------------------------------------------------------------
// Uninitialized reads
// ---------------------------------------------------------------------

TEST(AnalysisUninit, ReadOfUninitializedLocal)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int x;
    return x;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::uninitRead))
        << report.toString();
}

TEST(AnalysisUninit, InitializedLocalIsClean)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int x = 5;
    int y = x + 1;
    return y;
})");
    EXPECT_FALSE(hasDefinite(report, ErrorKind::uninitRead))
        << report.toString();
}

// ---------------------------------------------------------------------
// Refutation
// ---------------------------------------------------------------------

TEST(AnalysisRefutation, UnreachedFaultIsDemoted)
{
    // The faulting store is syntactically a guaranteed null write, but
    // the guard is false for the replayed input (argc == 1), so the
    // engine replay exits cleanly and the report must demote to maybe.
    const char *src = R"(
int main(int argc, char **argv) {
    if (argc > 5) {
        int *p = 0;
        *p = 1;
    }
    return 0;
})";
    AnalysisOptions noRefute;
    noRefute.refute = false;
    AnalysisReport raw = analyze(src, noRefute);
    EXPECT_TRUE(hasDefinite(raw, ErrorKind::nullDeref)) << raw.toString();

    AnalysisReport refuted = analyze(src);
    EXPECT_FALSE(hasDefinite(refuted, ErrorKind::nullDeref))
        << refuted.toString();
    EXPECT_TRUE(hasFinding(refuted, ErrorKind::nullDeref, Confidence::maybe))
        << refuted.toString();
}

TEST(AnalysisRefutation, ReplayConfirmsReachedFault)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int a[4];
    int i;
    for (i = 0; i < 4; i++)
        a[i] = i;
    return a[4];
})");
    ASSERT_TRUE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
    bool confirmed = false;
    for (const StaticFinding &f : report.findings)
        if (f.kind == ErrorKind::outOfBounds &&
            f.confidence == Confidence::definite && f.replayConfirmed)
            confirmed = true;
    EXPECT_TRUE(confirmed) << report.toString();
}

TEST(AnalysisRefutation, ReplayAddsFaultMissedByAbstraction)
{
    // The index comes through a helper call, so the intraprocedural
    // abstraction cannot prove the overflow — but the engine replay
    // reaches it and promotes it into the report.
    AnalysisReport report = analyze(R"(
static int pick(int n) { return n + 3; }
int main(void) {
    int a[4];
    a[0] = 0;
    a[pick(2)] = 1;
    return 0;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
}

TEST(AnalysisRefutation, RelaxedTypeReadDoesNotStopTheReplay)
{
    // One 8-byte read across two int fields is legal under the relaxed
    // type rules (paper Section 3.2), so the replay must run on to the
    // out-of-bounds store, exactly as Safe Sulong does.
    std::shared_ptr<const Module> module = moduleOf(R"(
struct P { int a; int b; };
int main(void) { struct P p; p.a = 1; p.b = 2;
  long long v = *(long long *)&p; int buf[4];
  buf[(int)(v & 7) + 3] = 1; return 0; })");
    ASSERT_NE(module, nullptr);
    AnalysisReport report = analyzeModule(*module);
    EXPECT_EQ(report.replayOutcome, "fault") << report.toString();
    std::vector<StaticFinding> definite =
        report.byConfidence(Confidence::definite);
    ASSERT_EQ(definite.size(), 1u) << report.toString();
    const StaticFinding &f = definite.front();
    EXPECT_EQ(f.kind, ErrorKind::outOfBounds);
    EXPECT_EQ(f.access, AccessKind::write);
    EXPECT_TRUE(f.replayConfirmed);
    // Anchored at the store into buf.
    const Instruction &site = *module->findFunction(f.function)
                                   ->blocks()[f.blockIndex]
                                   ->insts()[f.instIndex];
    EXPECT_EQ(site.op(), Opcode::store);
    EXPECT_EQ(f.objectSize, 16);
}

// ---------------------------------------------------------------------
// Benign programs stay clean
// ---------------------------------------------------------------------

TEST(AnalysisClean, StringAndHeapWork)
{
    AnalysisReport report = analyze(R"(
#include <string.h>
#include <stdlib.h>
int main(void) {
    char buf[32];
    strcpy(buf, "hello");
    strcat(buf, " world");
    char *dup = strdup(buf);
    if (dup == 0)
        return 1;
    int n = (int)strlen(dup);
    free(dup);
    return n;
})");
    EXPECT_EQ(report.definiteCount(), 0u) << report.toString();
}

TEST(AnalysisClean, PrintfProgram)
{
    AnalysisReport report = analyze(R"(
int main(void) {
    int i;
    for (i = 0; i < 3; i++)
        printf("%d\n", i);
    return 0;
})");
    EXPECT_EQ(report.definiteCount(), 0u) << report.toString();
}

// ---------------------------------------------------------------------
// Options plumbing
// ---------------------------------------------------------------------

TEST(AnalysisOptions, AnalyzeOnlyNeedsNoExecution)
{
    // A report for a program whose bug sits behind unbounded input
    // still comes back (as maybe).
    AnalysisReport report = analyze(R"(
int main(int argc, char **argv) {
    int a[4];
    a[argc * 2] = 1;
    return 0;
})");
    EXPECT_GE(report.findings.size(), 0u);
    EXPECT_EQ(report.functionsAnalyzed, 1u);
}

TEST(AnalysisOptions, ReplayArgsDriveTheVerdict)
{
    const char *src = R"(
int main(int argc, char **argv) {
    int a[4];
    if (argc > 4)
        a[argc] = 1;
    return 0;
})";
    std::shared_ptr<const Module> module = moduleOf(src);
    ASSERT_NE(module, nullptr);

    AnalysisOptions quiet;
    AnalysisReport clean = analyzeModule(*module, quiet);
    EXPECT_EQ(clean.definiteCount(), 0u) << clean.toString();

    AnalysisOptions loud;
    loud.replayArgs = {"a", "b", "c", "d", "e"};
    AnalysisReport hit = analyzeModule(*module, loud);
    EXPECT_TRUE(hasDefinite(hit, ErrorKind::outOfBounds)) << hit.toString();
}

// ---------------------------------------------------------------------
// Corpus cross-validation: the soundness contract
// ---------------------------------------------------------------------

TEST(AnalysisCrossValidation, ZeroFalseDefinitesOverCorpus)
{
    CrossValidationReport report = crossValidateCorpus(bugCorpus());
    ASSERT_EQ(report.rows.size(), bugCorpus().size());
    EXPECT_EQ(report.falseDefinites(), 0u) << formatCrossValidation(report);
    // Empirical floors with head-room: the analyzer currently reports
    // all 68 planted bugs and replay-confirms 67 of them as definite.
    EXPECT_GE(report.recall(), 0.95) << formatCrossValidation(report);
    EXPECT_GE(report.definiteRecall(), 0.90)
        << formatCrossValidation(report);
}

// ---------------------------------------------------------------------
// Smoke: example programs and the safe libc
// ---------------------------------------------------------------------

TEST(AnalysisSmoke, QuickstartDemoFindsItsPlantedBug)
{
    // The quickstart example's demo program: an off-by-one store.
    AnalysisReport report = analyze(R"(
#include <stdio.h>
int main(void) {
    int squares[10];
    for (int i = 1; i <= 10; i++)
        squares[i] = i * i;
    printf("3^2 = %d\n", squares[3]);
    return 0;
})");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
}

TEST(AnalysisSmoke, BenchmarkProgramsStayClean)
{
    // The performance suite doubles as a clean-program corpus: every
    // benchmark is correct, so no replay fault (hence no definite
    // finding) may appear. A short replay budget keeps this fast — a
    // budget stop leaves findings at maybe, which is still clean.
    for (const BenchmarkProgram &bench : benchmarkPrograms()) {
        std::shared_ptr<const Module> module = moduleOf(bench.source);
        ASSERT_NE(module, nullptr) << bench.name;
        AnalysisOptions options;
        options.replaySteps = 200'000;
        options.replayArgs = bench.args;
        AnalysisReport report = analyzeModule(*module, options);
        EXPECT_EQ(report.definiteCount(), 0u)
            << bench.name << "\n" << report.toString();
    }
}

TEST(AnalysisSmoke, LibcBodiesStayClean)
{
    // Exercise a broad swath of the safe libc and analyze its function
    // bodies too (not just user code): nothing may be definite.
    AnalysisOptions options;
    options.userCodeOnly = false;
    std::shared_ptr<const Module> module = moduleOf(R"(
#include <string.h>
#include <stdlib.h>
#include <stdio.h>
static int cmp_int(const void *a, const void *b) {
    return *(const int *)a - *(const int *)b;
}
int main(void) {
    char buf[64];
    strcpy(buf, "hello");
    strncat(buf, " world", 32);
    char *dup = strdup(buf);
    if (dup == 0)
        return 1;
    if (strcmp(dup, buf) != 0 || strstr(buf, "world") == 0)
        return 1;
    memmove(buf + 1, buf, 10);
    memset(buf + 20, 'x', 8);
    int nums[5] = {4, 1, 3, 5, 2};
    qsort(nums, 5, sizeof(int), cmp_int);
    char out[32];
    snprintf(out, sizeof out, "%d %s", nums[0], dup);
    printf("%s len=%d atoi=%d\n", out, (int)strlen(out), atoi("42"));
    free(dup);
    return 0;
})");
    ASSERT_NE(module, nullptr);
    AnalysisReport report = analyzeModule(*module, options);
    EXPECT_EQ(report.definiteCount(), 0u) << report.toString();
    EXPECT_GT(report.functionsAnalyzed, 10u);

    // "The libc" is the linked libc: the bodies the program reaches,
    // each analyzed, and no other.
    unsigned defined = 0;
    for (const auto &fn : module->functions())
        defined += fn->isDeclaration() ? 0 : 1;
    EXPECT_EQ(report.functionsAnalyzed, defined);
    for (const char *called : {"strcpy", "qsort", "snprintf", "strdup"})
        EXPECT_FALSE(module->findFunction(called)->isDeclaration()) << called;
    EXPECT_TRUE(module->findFunction("strtok")->isDeclaration());
}

// ---------------------------------------------------------------------
// Call graph and SCC condensation
// ---------------------------------------------------------------------

TEST(AnalysisCallGraph, MutualRecursionFormsOneScc)
{
    std::shared_ptr<const Module> module = moduleOf(R"(
static int odd(int n);
static int even(int n) { return n == 0 ? 1 : odd(n - 1); }
static int odd(int n) { return n == 0 ? 0 : even(n - 1); }
int main(void) { return even(10); }
)");
    ASSERT_NE(module, nullptr);
    const Function *even = module->findFunction("even");
    const Function *odd = module->findFunction("odd");
    const Function *main_fn = module->findFunction("main");
    ASSERT_NE(even, nullptr);
    ASSERT_NE(odd, nullptr);
    ASSERT_NE(main_fn, nullptr);

    CallGraph graph = CallGraph::build(*module);
    SccInfo info = condense(graph);
    // even and odd collapse into one recursive SCC; main sits in its
    // own non-recursive SCC strictly above it (callees are deeper in
    // Tarjan's bottom-up emission, so they come first).
    EXPECT_EQ(info.sccOf[even->id()], info.sccOf[odd->id()]);
    EXPECT_NE(info.sccOf[main_fn->id()], info.sccOf[even->id()]);
    const Scc &cycle = info.sccs[info.sccOf[even->id()]];
    const Scc &top = info.sccs[info.sccOf[main_fn->id()]];
    EXPECT_TRUE(cycle.recursive);
    EXPECT_EQ(cycle.members.size(), 2u);
    EXPECT_FALSE(top.recursive);
    EXPECT_GT(top.depth, cycle.depth);
    EXPECT_LT(info.sccOf[even->id()], info.sccOf[main_fn->id()]);

    // The recursive SCC's summaries reach a fixpoint (or degrade to
    // pessimistic) without poisoning soundness: nothing is definite.
    AnalysisReport report = analyzeModule(*module);
    EXPECT_EQ(report.definiteCount(), 0u) << report.toString();
}

TEST(AnalysisCallGraph, SelfRecursionMarkedRecursive)
{
    std::shared_ptr<const Module> module = moduleOf(R"(
static int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }
int main(void) { return fact(5); }
)");
    ASSERT_NE(module, nullptr);
    const Function *fact = module->findFunction("fact");
    ASSERT_NE(fact, nullptr);
    CallGraph graph = CallGraph::build(*module);
    SccInfo info = condense(graph);
    const Scc &scc = info.sccs[info.sccOf[fact->id()]];
    EXPECT_TRUE(scc.recursive);
    EXPECT_EQ(scc.members.size(), 1u);
    AnalysisReport report = analyzeModule(*module);
    EXPECT_EQ(report.definiteCount(), 0u) << report.toString();
}

TEST(AnalysisCallGraph, FunctionPointerMayCallSet)
{
    std::shared_ptr<const Module> module = moduleOf(R"(
static int inc(int x) { return x + 1; }
static int dec(int x) { return x - 1; }
static double fp_mismatch(double x) { return x; }
int main(int argc, char **argv) {
    (void)argv;
    int (*fp)(int) = argc > 1 ? inc : dec;
    (void)fp_mismatch;
    return fp(3);
}
)");
    ASSERT_NE(module, nullptr);
    const Function *inc = module->findFunction("inc");
    const Function *dec = module->findFunction("dec");
    const Function *main_fn = module->findFunction("main");
    ASSERT_NE(inc, nullptr);
    ASSERT_NE(dec, nullptr);
    ASSERT_NE(main_fn, nullptr);

    CallGraph graph = CallGraph::build(*module);
    EXPECT_TRUE(graph.addressTaken(*inc));
    EXPECT_TRUE(graph.addressTaken(*dec));

    // Locate the indirect call in main and check its may-call set:
    // both int(int) candidates, never the double(double) one.
    const Instruction *indirect = nullptr;
    for (const auto &bb : main_fn->blocks())
        for (const auto &inst : bb->insts())
            if (inst->op() == Opcode::call &&
                dynamic_cast<const Function *>(inst->operand(0)) ==
                    nullptr)
                indirect = inst.get();
    ASSERT_NE(indirect, nullptr);
    std::vector<const Function *> targets = graph.mayCall(*indirect);
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_TRUE((targets[0] == inc && targets[1] == dec) ||
                (targets[0] == dec && targets[1] == inc));

    // And the call-graph edges from main include both candidates.
    const CallGraph::Node &node = graph.node(main_fn->id());
    EXPECT_NE(std::find(node.callees.begin(), node.callees.end(),
                        inc->id()),
              node.callees.end());
    EXPECT_NE(std::find(node.callees.begin(), node.callees.end(),
                        dec->id()),
              node.callees.end());
}

// ---------------------------------------------------------------------
// Function summaries at call sites
// ---------------------------------------------------------------------

TEST(AnalysisSummaries, CalleeIntervalSilencesInBoundsAccess)
{
    // With summaries, three()'s return narrows to [3,3]: the store is
    // provably in bounds and no finding appears at all. Without them
    // the call havocs to top and a maybe survives.
    const char *src = R"(
static int three(void) { return 3; }
int main(void) { int a[4]; a[three()] = 1; return 0; }
)";
    std::shared_ptr<const Module> module = moduleOf(src);
    ASSERT_NE(module, nullptr);

    AnalysisReport with = analyzeModule(*module);
    EXPECT_TRUE(with.findings.empty()) << with.toString();
    EXPECT_GE(with.summariesApplied, 1u);

    AnalysisOptions off;
    off.summaries = false;
    AnalysisReport without = analyzeModule(*module, off);
    EXPECT_EQ(without.summariesApplied, 0u);
    EXPECT_TRUE(
        hasFinding(without, ErrorKind::outOfBounds, Confidence::maybe))
        << without.toString();
}

TEST(AnalysisSummaries, CalleeConstantMakesOobDefinite)
{
    // PR-4 reported this as maybe (havocked call); the summary makes
    // the index exactly 6 and the replay confirms the fault.
    AnalysisReport report = analyze(R"(
static int idx(void) { return 6; }
int main(void) { int a[4]; a[idx()] = 1; return 0; }
)");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
}

TEST(AnalysisSummaries, AffineReturnNarrowsThroughArgument)
{
    // add3 is `x + 3`: the affine transfer maps the call-site argument
    // [2,2] to [5,5], in bounds of a[8] — no finding survives.
    AnalysisReport report = analyze(R"(
static int add3(int x) { return x + 3; }
int main(void) { int a[8]; a[add3(2)] = 1; return a[add3(2)]; }
)");
    EXPECT_TRUE(report.findings.empty()) << report.toString();
    EXPECT_GE(report.summariesApplied, 1u);
}

TEST(AnalysisSummaries, CrossFunctionFreeSeenThroughEffect)
{
    // The callee's may-free effect marks the block maybe-freed at the
    // call site, so the later use is flagged (and the replay confirms
    // the fault as definite).
    AnalysisReport report = analyze(R"(
#include <stdlib.h>
static void drop(int *p) { free(p); }
int main(void) {
    int *p = malloc(8);
    if (!p) return 0;
    drop(p);
    return p[0];
}
)");
    EXPECT_TRUE(hasDefinite(report, ErrorKind::useAfterFree))
        << report.toString();
}

// ---------------------------------------------------------------------
// Threshold widening and the replay as the only refuter
// ---------------------------------------------------------------------

TEST(AnalysisWidening, OffByOneLoopKeepsItsFinding)
{
    // The read of g[8] faults on the loop's ninth iteration. Without the
    // replay, the finding must still sit at that read, and widening
    // stops the index at the loop bound's thresholds instead of +inf.
    std::shared_ptr<const Module> module = moduleOf(R"(
int g[8];
int main(void) {
    int i;
    int sum = 0;
    for (i = 0; i <= 8; i++)
        sum += g[i];
    return sum;
}
)");
    ASSERT_NE(module, nullptr);
    AnalysisOptions noRefute;
    noRefute.refute = false;
    AnalysisReport raw = analyzeModule(*module, noRefute);
    const StaticFinding *oob = nullptr;
    for (const StaticFinding &f : raw.findings)
        if (f.kind == ErrorKind::outOfBounds)
            oob = &f;
    ASSERT_NE(oob, nullptr) << raw.toString();
    EXPECT_EQ(oob->access, AccessKind::read) << raw.toString();
    EXPECT_NE(oob->pathCondition.find("[0,32]"), std::string::npos)
        << raw.toString();
    EXPECT_EQ(oob->pathCondition.find("inf"), std::string::npos)
        << raw.toString();

    // The replay reaches the faulting read and confirms the same site.
    AnalysisReport report = analyzeModule(*module);
    std::vector<StaticFinding> definite =
        report.byConfidence(Confidence::definite);
    ASSERT_EQ(definite.size(), 1u) << report.toString();
    EXPECT_EQ(definite[0].kind, ErrorKind::outOfBounds);
    EXPECT_EQ(definite[0].blockIndex, oob->blockIndex);
    EXPECT_EQ(definite[0].instIndex, oob->instIndex);
}

TEST(AnalysisWidening, CountedLoopIsSilent)
{
    AnalysisOptions noRefute;
    noRefute.refute = false;
    AnalysisReport report = analyze(R"(
int main(void) {
    int a[8];
    int j;
    for (j = 0; j < 8; j++)
        a[j] = j;
    return a[3];
}
)", noRefute);
    EXPECT_FALSE(hasFinding(report, ErrorKind::outOfBounds,
                            Confidence::maybe))
        << report.toString();
    EXPECT_FALSE(hasDefinite(report, ErrorKind::outOfBounds))
        << report.toString();
    EXPECT_FALSE(report.incomplete) << report.toString();
}

TEST(AnalysisRefutation, CorrelatedGuardsStayMaybe)
{
    // i == 10 requires argc > 3, the guarded store requires argc <= 3,
    // so the store never faults. Intervals do not relate the two
    // branches, and the replay (argc == 1) exits cleanly: the finding
    // stays, demoted to maybe.
    AnalysisReport report = analyze(R"(
int main(int argc, char **argv) {
    int a[4]; int i;
    (void)argv;
    if (argc > 3) i = 10; else i = 2;
    if (argc <= 3) a[i] = 1;
    return 0;
}
)");
    EXPECT_EQ(report.replayOutcome, "exit") << report.toString();
    EXPECT_TRUE(
        hasFinding(report, ErrorKind::outOfBounds, Confidence::maybe))
        << report.toString();
    EXPECT_EQ(report.definiteCount(), 0u) << report.toString();
}

TEST(AnalysisRefutation, UnprovenFindingFallsBackToReplay)
{
    // The store is feasible (argc can be 5); the engine replay
    // (argc == 1) does not reach it and demotes it to maybe.
    AnalysisReport report = analyze(R"(
int main(int argc, char **argv) {
    int a[4];
    (void)argv;
    if (argc > 4)
        a[argc] = 1;
    return 0;
}
)");
    EXPECT_TRUE(report.replayRan) << report.toString();
    EXPECT_EQ(report.replayOutcome, "exit") << report.toString();
    EXPECT_TRUE(
        hasFinding(report, ErrorKind::outOfBounds, Confidence::maybe))
        << report.toString();
}

// ---------------------------------------------------------------------
// Parallel SCC scheduling is deterministic
// ---------------------------------------------------------------------

TEST(AnalysisParallel, JobsDoNotChangeFindings)
{
    // Wide fan-out: many same-depth leaf functions, analyzed in
    // parallel at jobs=8. The report must be byte-identical to the
    // sequential run (module-order assembly, not completion order).
    std::string src;
    for (int i = 0; i < 12; i++) {
        std::string n = std::to_string(i);
        src += "static int leaf" + n + "(void) { int a[4]; a[" + n +
               " % 3] = " + n + "; return a[" + n + " % 3] + " + n +
               "; }\n";
    }
    src += "int main(void) { int s = 0;\n";
    for (int i = 0; i < 12; i++)
        src += "  s += leaf" + std::to_string(i) + "();\n";
    src += "  int bad[4]; bad[6] = s; return s; }\n";

    std::shared_ptr<const Module> module = moduleOf(src);
    ASSERT_NE(module, nullptr);

    AnalysisOptions seq;
    seq.jobs = 1;
    AnalysisOptions par;
    par.jobs = 8;
    AnalysisReport a = analyzeModule(*module, seq);
    AnalysisReport b = analyzeModule(*module, par);
    EXPECT_EQ(a.toString(), b.toString());
    EXPECT_EQ(a.findings.size(), b.findings.size());
    EXPECT_EQ(a.summariesApplied, b.summariesApplied);
    EXPECT_TRUE(hasDefinite(a, ErrorKind::outOfBounds)) << a.toString();
}

// ---------------------------------------------------------------------
// Golden findings over generated programs
// ---------------------------------------------------------------------

/** FNV-1a 64 over @p bytes, chained from @p hash. */
uint64_t
fnv1a(uint64_t hash, const std::string &bytes)
{
    for (char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Digest of every finding field and the fixpoint/summary totals of the
 * analyses the fuzz oracle runs on seeds 1..100: the module of the
 * `managed` arm, analyzed with the campaign's default options.
 */
uint64_t
fuzzSeedFindingsDigest(unsigned jobs)
{
    CampaignOptions campaign;
    ToolConfig managed = ToolConfig::make(ToolKind::safeSulong);
    managed.managed = campaign.oracle.managed;
    AnalysisOptions options = campaign.oracle.analysis;
    options.replayArgs.clear();
    options.jobs = jobs;
    uint64_t hash = 0xcbf29ce484222325ull;
    auto field = [&hash](const std::string &bytes) {
        hash = fnv1a(hash, bytes + '\x1f');
    };
    auto orDash = [](const std::optional<int64_t> &v) {
        return v.has_value() ? std::to_string(*v) : std::string("-");
    };
    for (uint64_t seed = 1; seed <= 100; seed++) {
        FuzzProgram program = generateSeedProgram(seed, campaign);
        PreparedProgram prepared =
            prepareProgram(program.render(), managed, &sharedCache());
        EXPECT_TRUE(prepared.ok()) << "seed " << seed;
        if (!prepared.ok())
            continue;
        AnalysisReport report = analyzeModule(*prepared.module, options);
        field("seed " + std::to_string(seed));
        for (const StaticFinding &f : report.findings) {
            field(std::to_string(static_cast<int>(f.kind)));
            field(f.function);
            field(std::to_string(f.blockIndex) + ":" +
                  std::to_string(f.instIndex));
            field(std::to_string(static_cast<int>(f.confidence)));
            field(f.detail);
            field(f.pathCondition);
            field(orDash(f.offset));
            field(orDash(f.objectSize));
        }
        field("visits " + std::to_string(report.blockVisits));
        field("applied " + std::to_string(report.summariesApplied));
    }
    return hash;
}

TEST(AnalysisGolden, FuzzSeedFindingsDigest)
{
    // A change to the fixpoint's data structures or scheduling must not
    // move a single finding, block visit or applied summary; a change
    // meant to move them re-pins the constant. Any job count gives the
    // same digest.
    constexpr uint64_t kDigest = 0xf0199b8f137af936ull;
    for (unsigned jobs : {1u, 4u}) {
        uint64_t digest = fuzzSeedFindingsDigest(jobs);
        EXPECT_EQ(digest, kDigest)
            << "jobs " << jobs << ": digest 0x" << std::hex << digest;
    }
}

// ---------------------------------------------------------------------
// Compile cache routing
// ---------------------------------------------------------------------

TEST(AnalysisCache, RepeatedCompilesHitTheSharedCache)
{
    const char *src = "int main(void) { return 41 + 1; }";
    uint64_t hits_before = sharedCache().stats().hits;
    std::shared_ptr<const Module> first = moduleOf(src);
    std::shared_ptr<const Module> second = moduleOf(src);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    // The second compile of identical (source, config) must be served
    // from the cache — and hand back the same immutable module.
    EXPECT_GE(sharedCache().stats().hits, hits_before + 1);
    EXPECT_EQ(first.get(), second.get());
}

// ---------------------------------------------------------------------
// Batch-runner integration
// ---------------------------------------------------------------------

TEST(AnalysisBatch, FindingsLandInJobStats)
{
    std::vector<BatchJob> jobs;
    jobs.push_back(BatchJob::make(
        "int main(void) { int *p = 0; return *p; }",
        ToolConfig::make(ToolKind::safeSulong)));
    jobs.push_back(BatchJob::make(
        "int main(void) { return 0; }",
        ToolConfig::make(ToolKind::safeSulong)));

    AnalysisOptions analysis;
    BatchOptions options;
    options.analysis = &analysis;
    BatchReport report = runBatch(jobs, options);

    ASSERT_EQ(report.jobStats.size(), 2u);
    EXPECT_GE(report.jobStats[0].staticDefinite, 1u);
    ASSERT_FALSE(report.jobStats[0].staticFindings.empty());
    EXPECT_EQ(report.jobStats[0].staticFindings[0].kind,
              ErrorKind::nullDeref);
    EXPECT_EQ(report.jobStats[1].staticDefinite, 0u);
    EXPECT_TRUE(report.jobStats[1].staticFindings.empty());
    // The dynamic run still happened and agrees.
    EXPECT_EQ(report.results[0].bug.kind, ErrorKind::nullDeref);
    EXPECT_TRUE(report.results[1].ok());
}

TEST(AnalysisBatch, NoAnalysisByDefault)
{
    std::vector<BatchJob> jobs;
    jobs.push_back(BatchJob::make(
        "int main(void) { int *p = 0; return *p; }",
        ToolConfig::make(ToolKind::safeSulong)));
    BatchReport report = runBatch(jobs);
    ASSERT_EQ(report.jobStats.size(), 1u);
    EXPECT_TRUE(report.jobStats[0].staticFindings.empty());
    EXPECT_EQ(report.jobStats[0].staticDefinite, 0u);
}

} // namespace
} // namespace sulong
