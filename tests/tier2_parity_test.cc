/**
 * @file
 * Tier-1 vs tier-2 parity: the optimizing tier (inlining, call inline
 * caches, superinstruction fusion, redundant-check elision) must be
 * observationally identical to the plain interpreter — same stdout,
 * same stderr, same exit code, and for buggy programs the same bug
 * kind, attributed function, faulting site, and detail text. This is
 * the paper's core guarantee ("the compiler cannot optimize a bug
 * away") stated as a differential test over the whole bug corpus, the
 * benchmark programs, and targeted struct/pointer-heavy snippets.
 */

#include "test_util.h"

#include "corpus/corpus.h"
#include "tools/benchmark_programs.h"

namespace sulong
{
namespace
{

/** The tier-2 configurations that must all match pure interpretation. */
std::vector<std::pair<std::string, ToolConfig>>
tier2Variants()
{
    std::vector<std::pair<std::string, ToolConfig>> variants;

    ToolConfig eager = ToolConfig::make(ToolKind::safeSulong);
    eager.managed.compileThreshold = 0;
    eager.managed.inlineSiteMin = 0;
    variants.emplace_back("tier2-eager+inline+elision", eager);

    ToolConfig no_elision = eager;
    no_elision.managed.enableCheckElision = false;
    variants.emplace_back("tier2-eager, no check elision", no_elision);

    ToolConfig no_inline = eager;
    no_inline.managed.enableInlining = false;
    variants.emplace_back("tier2-eager, no inlining", no_inline);

    return variants;
}

void
expectParity(const std::string &label, const std::string &source,
             const std::vector<std::string> &args = {},
             const std::string &stdin_data = "")
{
    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    ExecutionResult reference =
        runUnderTool(source, tier1, args, stdin_data);
    const BugReport &bug = reference.bug;
    if (bug.kind != ErrorKind::none && bug.kind != ErrorKind::engineError) {
        EXPECT_TRUE(bug.blockIndex.has_value() && bug.instIndex.has_value())
            << label << ": memory-error report without a site";
    }

    for (const auto &[name, config] : tier2Variants()) {
        ExecutionResult result =
            runUnderTool(source, config, args, stdin_data);
        SCOPED_TRACE(label + " under " + name);
        EXPECT_EQ(result.output, reference.output);
        EXPECT_EQ(result.errOutput, reference.errOutput);
        EXPECT_EQ(result.exitCode, reference.exitCode);
        EXPECT_EQ(result.termination, reference.termination);
        EXPECT_EQ(result.bug.kind, reference.bug.kind);
        EXPECT_EQ(result.bug.function, reference.bug.function);
        EXPECT_EQ(result.bug.detail, reference.bug.detail);
        EXPECT_EQ(result.bug.blockIndex, bug.blockIndex);
        EXPECT_EQ(result.bug.instIndex, bug.instIndex);
    }
}

TEST(Tier2ParityTest, WholeBugCorpus)
{
    for (const CorpusEntry &entry : bugCorpus())
        expectParity(entry.id, entry.source, entry.args, entry.stdinData);
}

struct BenchmarkCase
{
    const char *name;
    const char *arg;
};

/** Prints name and argument, so listed test names carry no pointers. */
void
PrintTo(const BenchmarkCase &c, std::ostream *os)
{
    *os << c.name << " " << c.arg;
}

class BenchmarkParityTest : public ::testing::TestWithParam<BenchmarkCase>
{
};

TEST_P(BenchmarkParityTest, MatchesInterpreter)
{
    const auto &[name, arg] = GetParam();
    const BenchmarkProgram *program = findBenchmark(name);
    ASSERT_NE(program, nullptr) << name;
    // Reduced problem sizes: parity is about semantics, not speed.
    expectParity(program->name, program->source, {arg});
}

INSTANTIATE_TEST_SUITE_P(
    Fig16Programs, BenchmarkParityTest,
    ::testing::Values(BenchmarkCase{"fannkuchredux", "6"},
                      BenchmarkCase{"fasta", "150"},
                      BenchmarkCase{"fastaredux", "400"},
                      BenchmarkCase{"mandelbrot", "32"},
                      BenchmarkCase{"meteor", "2"},
                      BenchmarkCase{"nbody", "2000"},
                      BenchmarkCase{"spectralnorm", "24"},
                      BenchmarkCase{"whetstone", "8"},
                      BenchmarkCase{"binarytrees", "7"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Tier2ParityTest, StructFieldTrafficAndAliasing)
{
    // Field re-access, aliased stores between reads, and passing struct
    // pointers through calls: the access/resolution caches must never
    // produce a value a fresh resolve would not.
    expectParity("struct-aliasing", R"(
        struct point { int x; int y; int z; };
        static int sum(struct point *p) { return p->x + p->y + p->z; }
        int main(void) {
            struct point a = {1, 2, 3};
            struct point *alias = &a;
            int total = 0;
            for (int i = 0; i < 200; i++) {
                a.x = i;
                alias->y = i * 2;
                total += sum(&a) + a.x + alias->z;
            }
            printf("%d\n", total);
            return 0;
        }
    )");
}

TEST(Tier2ParityTest, PointerChaseThroughHeapNodes)
{
    expectParity("pointer-chase", R"(
        struct node { int value; struct node *next; };
        int main(void) {
            struct node *head = 0;
            for (int i = 0; i < 64; i++) {
                struct node *n = malloc(sizeof(struct node));
                n->value = i;
                n->next = head;
                head = n;
            }
            long sum = 0;
            for (int round = 0; round < 50; round++)
                for (struct node *p = head; p; p = p->next)
                    sum += p->value;
            printf("%ld\n", sum);
            while (head) {
                struct node *next = head->next;
                free(head);
                head = next;
            }
            return 0;
        }
    )");
}

TEST(Tier2ParityTest, ElisionNeverMasksTemporalBug)
{
    // The same slot re-derefs a pointer before and after free(): the
    // cached resolution must be re-validated, so every config reports
    // the identical use-after-free.
    expectParity("uaf-after-cached-resolve", R"(
        struct box { int a; int b; };
        int main(void) {
            struct box *p = malloc(sizeof(struct box));
            p->a = 1;
            p->b = 2;
            int s = 0;
            for (int i = 0; i < 100; i++)
                s += p->a + p->b;
            free(p);
            return s + p->a;
        }
    )");
}

TEST(Tier2ParityTest, ElisionNeverMasksSpatialBug)
{
    // Walk off the end of a heap array whose earlier accesses primed
    // the caches; the overflowing index must trap with the same report.
    expectParity("oob-after-cached-resolve", R"(
        int main(void) {
            int *a = malloc(8 * sizeof(int));
            for (int i = 0; i < 8; i++)
                a[i] = i;
            long s = 0;
            for (int i = 0; i < 9; i++)
                s += a[i];
            printf("%ld\n", s);
            return 0;
        }
    )");
}

TEST(Tier2ParityTest, UninitReadDetectionUnaffectedByElision)
{
    // Exact uninitialized-read detection rides on the same leaf checks
    // elision must preserve.
    ToolConfig tier1 = ToolConfig::make(ToolKind::safeSulong);
    tier1.managed.enableTier2 = false;
    tier1.managed.detectUninitReads = true;
    const char *src = R"(
        int main(void) {
            int a[4];
            a[0] = 1;
            a[1] = 2;
            int s = 0;
            for (int i = 0; i < 100; i++)
                s += a[i % 2];
            return s + a[3];
        }
    )";
    ExecutionResult reference = runUnderTool(src, tier1);
    ASSERT_EQ(reference.bug.kind, ErrorKind::uninitRead);

    for (auto &[name, config] : tier2Variants()) {
        ToolConfig variant = config;
        variant.managed.detectUninitReads = true;
        ExecutionResult result = runUnderTool(src, variant);
        SCOPED_TRACE(name);
        EXPECT_EQ(result.bug.kind, reference.bug.kind);
        EXPECT_EQ(result.bug.function, reference.bug.function);
        EXPECT_EQ(result.bug.detail, reference.bug.detail);
        EXPECT_EQ(result.bug.blockIndex, reference.bug.blockIndex);
        EXPECT_EQ(result.bug.instIndex, reference.bug.instIndex);
    }
}

} // namespace
} // namespace sulong
