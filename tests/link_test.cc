/**
 * @file
 * Link-equivalence tests: a program compiled against a precompiled libc
 * (CompileOptions::library) must equal the one-call compile of the libc
 * sources followed by the program — same function ids, same globals in
 * the same order with the same names, types and initializers, same IR
 * for every function the program reaches, same diagnostics — except
 * that the libc functions it does not reach keep no body.
 */

#include "test_util.h"

#include <thread>

#include "corpus/corpus.h"
#include "frontend/compiler.h"
#include "fuzz/generator.h"
#include "ir/printer.h"
#include "libc/libc_sources.h"
#include "obs/metrics.h"
#include "tools/benchmark_programs.h"

namespace sulong
{
namespace
{

const LibcVariant kVariants[] = {LibcVariant::safe,
                                 LibcVariant::nativeOptimized};

CompileResult
compileWhole(const std::string &source, LibcVariant variant)
{
    std::vector<SourceFile> sources = libcSources(variant);
    sources.push_back(SourceFile{"<input>", source});
    return compileC(sources);
}

CompileResult
compileLinked(const std::string &source, LibcVariant variant)
{
    CompileOptions options;
    options.library = &libcPrototype(variant);
    return compileC({SourceFile{"<input>", source}}, options);
}

/** The globals section of the printed module. */
std::string
printedGlobals(const Module &module)
{
    std::string text = printModule(module);
    return text.substr(0, text.find("\n\n"));
}

/**
 * Which functions of the whole-program module the program reaches: its
 * own (non-libc) bodies, everything a global initializer names, and,
 * transitively, whatever a reached body names.
 */
std::vector<bool>
reachedIn(const Module &whole)
{
    std::vector<bool> reached(whole.functions().size(), false);
    std::vector<const Function *> work;
    auto reach = [&](const Function *fn) {
        if (fn != nullptr && !reached[fn->id()]) {
            reached[fn->id()] = true;
            work.push_back(fn);
        }
    };
    auto reachInit = [&reach](const Initializer &init, auto &self) -> void {
        reach(init.function);
        for (const Initializer &elem : init.elems)
            self(elem, self);
    };
    for (const auto &fn : whole.functions())
        if (!fn->isDeclaration() && fn->sourceFile().rfind("libc/", 0) != 0)
            reach(fn.get());
    for (const auto &global : whole.globals())
        reachInit(global->init(), reachInit);
    while (!work.empty()) {
        const Function *fn = work.back();
        work.pop_back();
        for (const auto &bb : fn->blocks())
            for (const auto &inst : bb->insts())
                for (const Value *operand : inst->operands())
                    if (operand->valueKind() == ValueKind::function)
                        reach(static_cast<const Function *>(operand));
    }
    return reached;
}

/** Assert the linked compile of @p source equals the whole compile. */
void
expectLinkEquivalent(const std::string &name, const std::string &source)
{
    for (LibcVariant variant : kVariants) {
        SCOPED_TRACE(name + (variant == LibcVariant::safe ? " (safe libc)"
                                                          : " (native libc)"));
        CompileResult whole = compileWhole(source, variant);
        CompileResult linked = compileLinked(source, variant);
        ASSERT_EQ(whole.ok(), linked.ok());
        EXPECT_EQ(whole.errors, linked.errors);
        EXPECT_EQ(whole.warningCount, linked.warningCount);
        if (!whole.ok())
            continue;

        const Module &w = *whole.module;
        const Module &l = *linked.module;
        EXPECT_EQ(printedGlobals(w), printedGlobals(l));
        ASSERT_EQ(w.functions().size(), l.functions().size());
        std::vector<bool> reached = reachedIn(w);
        for (size_t id = 0; id < w.functions().size(); id++) {
            const Function &wf = *w.functions()[id];
            const Function &lf = *l.functions()[id];
            ASSERT_EQ(wf.name(), lf.name()) << "function id " << id;
            EXPECT_EQ(wf.isIntrinsic(), lf.isIntrinsic()) << wf.name();
            if (!reached[id]) {
                EXPECT_TRUE(lf.isDeclaration())
                    << wf.name() << " is linked but never reached";
                continue;
            }
            EXPECT_EQ(printFunction(wf), printFunction(lf));
            EXPECT_EQ(wf.sourceFile(), lf.sourceFile()) << wf.name();
            EXPECT_EQ(wf.numSlots(), lf.numSlots()) << wf.name();
        }
    }
}

TEST(LinkEquivalence, CorpusPrograms)
{
    for (const CorpusEntry &entry : bugCorpus())
        expectLinkEquivalent(entry.id, entry.source);
}

TEST(LinkEquivalence, BenchmarkPrograms)
{
    for (const BenchmarkProgram &program : benchmarkPrograms())
        expectLinkEquivalent(program.name, program.source);
}

void
expectFuzzSeedsLinkEquivalent(uint64_t first, uint64_t last)
{
    for (uint64_t seed = first; seed <= last; seed++) {
        expectLinkEquivalent("fuzz seed " + std::to_string(seed),
                             ProgramGenerator(seed).generate().render());
    }
}

// Seeds 1..200 in two halves, so ctest can run them side by side.
TEST(LinkEquivalence, FuzzSeeds1To100)
{
    expectFuzzSeedsLinkEquivalent(1, 100);
}

TEST(LinkEquivalence, FuzzSeeds101To200)
{
    expectFuzzSeedsLinkEquivalent(101, 200);
}

TEST(LinkEquivalence, LibcLiteralsAndStaticsKeepTheirPlaces)
{
    // A file-scope literal is created before the libc bodies' literals;
    // a body literal equal to a libc one ("(null)") shares its global.
    expectLinkEquivalent("literals", R"C(
const char *greeting = "hi";
const char *shared = "error\n";
static int counter(void) { static int n = 0; return ++n; }
int main(void) {
    const char *s = "(null)";
    printf("%s %s %s %d\n", greeting, s, shared, counter());
    return 0;
}
)C");
    expectLinkEquivalent("null literal in a body", R"C(
int main(void) { puts("(null)"); return 0; }
)C");
}

TEST(LinkEquivalence, LibcReachedThroughInitializersAndPointers)
{
    expectLinkEquivalent("function pointers", R"C(
int (*emit)(const char *) = puts;
struct ops { size_t (*len)(const char *); } table = { strlen };
int main(void) {
    int (*cmp)(const char *, const char *) = strcmp;
    emit("x");
    return (int)table.len("abc") + cmp("a", "b");
}
)C");
    expectLinkEquivalent("no libc at all", "int main(void) { return 3; }");
    expectLinkEquivalent("user-defined intrinsic", R"C(
void *malloc(unsigned long size) { return 0; }
int main(void) { return malloc(4) == 0; }
)C");
}

TEST(LinkEquivalence, DiagnosticsMatchTheParentGoldens)
{
    // Captured from the one-call libc + program compile before linking
    // existed; both variants gave the same text.
    struct Golden
    {
        const char *source;
        const char *errors;
    };
    const Golden goldens[] = {
        {"#include <string.h>\n"
         "size_t strlen(const char *s) { return 0; }\n"
         "int main(void) { return (int)strlen(\"x\"); }\n",
         "<input>:2:1: error: redefinition of function 'strlen'\n"},
        {"#include <stdio.h>\nFILE *stdout = 0;\nint main(void) { return 0; }\n",
         "<input>:2:1: error: redefinition of global 'stdout'\n"},
        {"int strlen(int);\nint main(void) { return 0; }\n",
         "<input>:1:1: error: conflicting declaration of 'strlen'\n"},
    };
    for (const Golden &golden : goldens) {
        for (LibcVariant variant : kVariants) {
            CompileResult linked = compileLinked(golden.source, variant);
            EXPECT_FALSE(linked.ok());
            EXPECT_EQ(linked.errors, golden.errors);
        }
        EXPECT_EQ(testutil::compileErrorsOf(golden.source), golden.errors);
        expectLinkEquivalent(golden.errors, golden.source);
    }
    expectLinkEquivalent("several errors in order", R"C(
int puts(int);
FILE *stdin = 0;
const char *p = "late";
int strcpy(char *d, const char *s) { return 0; }
int main(void) { return undeclared; }
)C");
}

TEST(LibcPrototype, EachVariantCompilesOncePerProcessUnderConcurrentUse)
{
    if (!obs::kObsCompiledIn)
        GTEST_SKIP() << "frontend.libc_prototypes is compiled out (MS_OBS=OFF)";
    // A fresh process, so no earlier test has built a prototype yet.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            obs::setMetricsEnabled(true);
            obs::Counter &built = obs::MetricsRegistry::global().counter(
                "frontend.libc_prototypes");
            std::vector<std::thread> threads;
            std::vector<int> exits(8, -1);
            for (int t = 0; t < 8; t++) {
                threads.emplace_back([t, &exits]() {
                    ToolConfig config = ToolConfig::make(
                        t % 2 == 0 ? ToolKind::safeSulong : ToolKind::asan,
                        0);
                    std::string source = "int main(void) { printf(\"%d\\n\", " +
                        std::to_string(t) + "); return " + std::to_string(t) +
                        "; }";
                    exits[t] = prepareProgram(source, config).run().exitCode;
                });
            }
            for (std::thread &thread : threads)
                thread.join();
            for (int t = 0; t < 8; t++)
                if (exits[t] != t)
                    std::exit(3);
            std::exit(built.value() == 2 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace sulong
