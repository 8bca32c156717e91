/**
 * @file
 * Link-equivalence tests: a program compiled against the precompiled
 * libc (CompileOptions::library) must equal the one-call compile of the
 * libc sources followed by the program — same functions, same globals
 * in the same order with the same names, types and initializers, same
 * IR for every function the program reaches, same diagnostics — except
 * that the libc functions it does not reach show no body. The program
 * is compiled once, against the safe libc's prototype; the native libc
 * is a stage of that prototype, with the prototype's function ids, and
 * the program moves onto it by copy (linkCopy). A linked module also
 * verifies, survives the O3 pipeline and runs like the whole compile.
 * Linked by reference: programs share the libc stage's own functions
 * and globals, at every pipeline level, from any thread, and never
 * change them.
 */

#include "test_util.h"

#include <thread>

#include "corpus/corpus.h"
#include "frontend/compiler.h"
#include "fuzz/generator.h"
#include "ir/clone.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "libc/libc_sources.h"
#include "obs/metrics.h"
#include "opt/passes.h"
#include "tools/benchmark_programs.h"
#include "tools/compile_cache.h"

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
compileLinked(const std::string &source)
{
    CompileOptions options;
    options.library = &libcPrototype();
    return compileC({SourceFile{"<input>", source}}, options);
}

/** @p linked moved onto @p variant's unoptimized libc stage: the module
 *  itself for the safe libc, a copy for the native one. */
std::shared_ptr<const Module>
onVariant(std::unique_ptr<Module> linked, LibcVariant variant)
{
    if (variant == LibcVariant::safe)
        return linked;
    return linkCopy(*linked, libcPrototype().stage(variant, -1));
}

/** The function of @p linked that shows @p whole_fn's name. The native
 *  libc's ids differ from its one-call compile's, where string_opt.c
 *  defines strcmp second; the names do not. */
const Function &
sameFunction(const Module &linked, const Function &whole_fn)
{
    const Function *fn = linked.findFunction(whole_fn.name());
    EXPECT_NE(fn, nullptr) << whole_fn.name();
    return fn != nullptr ? *fn : whole_fn;
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
            reach(fn);
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
        CompileResult linked = compileLinked(source);
        ASSERT_EQ(whole.ok(), linked.ok());
        EXPECT_EQ(whole.errors, linked.errors);
        EXPECT_EQ(whole.warningCount, linked.warningCount);
        if (!whole.ok())
            continue;

        const Module &w = *whole.module;
        std::shared_ptr<const Module> on_variant =
            onVariant(std::move(linked.module), variant);
        const Module &l = *on_variant;
        EXPECT_EQ(printedGlobals(w), printedGlobals(l));
        ASSERT_EQ(w.functions().size(), l.functions().size());
        std::vector<bool> reached = reachedIn(w);
        for (size_t id = 0; id < w.functions().size(); id++) {
            const Function &wf = *w.functions()[id];
            const Function &lf = sameFunction(l, wf);
            if (variant == LibcVariant::safe) {
                ASSERT_EQ(lf.id(), id) << wf.name();
            }
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
        CompileResult linked = compileLinked(golden.source);
        EXPECT_FALSE(linked.ok());
        EXPECT_EQ(linked.errors, golden.errors);
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

// A named struct, a global and a stack buffer handed to libc bodies:
// the linked module mixes the program's types with the library's.
const char *kStructProgram = R"C(
struct point { int x; int y; };

int scale = 3;

int area(struct point *p) { return p->x * p->y * scale; }

int main(void) {
    struct point p;
    p.x = 6;
    p.y = 7;
    char buf[32];
    sprintf(buf, "area=%d", area(&p));
    puts(buf);
    return area(&p) % 100;
}
)C";

TEST(LinkedModule, VerifiesCleanly)
{
    for (LibcVariant variant : kVariants) {
        CompileResult linked = compileLinked(kStructProgram);
        ASSERT_TRUE(linked.ok()) << linked.errors;
        auto issues =
            verifyModule(*onVariant(std::move(linked.module), variant));
        EXPECT_TRUE(issues.empty()) << formatIssues(issues);
    }
}

TEST(LinkedModule, OptimizedWithStructsVerifiesAndPrintsStably)
{
    CompileResult first = compileLinked(kStructProgram);
    CompileResult second = compileLinked(kStructProgram);
    ASSERT_TRUE(first.ok()) << first.errors;
    ASSERT_TRUE(second.ok()) << second.errors;
    runO3Pipeline(*first.module);
    runO3Pipeline(*second.module);
    auto issues = verifyModule(*first.module);
    EXPECT_TRUE(issues.empty()) << formatIssues(issues);
    EXPECT_EQ(printModule(*first.module), printModule(*second.module));
}

TEST(LinkedModule, ExecutesLikeTheWholeCompile)
{
    for (LibcVariant variant : kVariants) {
        CompileResult whole = compileWhole(kStructProgram, variant);
        CompileResult linked = compileLinked(kStructProgram);
        ASSERT_TRUE(whole.ok()) << whole.errors;
        ASSERT_TRUE(linked.ok()) << linked.errors;
        ManagedEngine on_whole{ManagedOptions{}};
        ManagedEngine on_linked{ManagedOptions{}};
        ExecutionResult a = on_whole.run(*whole.module, {}, "");
        ExecutionResult b = on_linked.run(
            *onVariant(std::move(linked.module), variant), {}, "");
        EXPECT_EQ(a.exitCode, 26);
        EXPECT_EQ(a.output, "area=126\n");
        EXPECT_EQ(a.exitCode, b.exitCode);
        EXPECT_EQ(a.output, b.output);
        EXPECT_EQ(a.bug.kind, b.bug.kind);
    }
}

TEST(LinkedModule, OptimizingOneLinkLeavesTheNextUnchanged)
{
    // The link shares library bodies: running the pipeline on one
    // linked module must not reach into the shared prototype.
    CompileResult before = compileLinked(kStructProgram);
    ASSERT_TRUE(before.ok()) << before.errors;
    runO3Pipeline(*before.module);
    CompileResult after = compileLinked(kStructProgram);
    ASSERT_TRUE(after.ok()) << after.errors;
    // The same link against a prototype no other module ever touched.
    LibraryPrototype untouched(libcSources);
    CompileOptions options;
    options.library = &untouched;
    CompileResult fresh =
        compileC({SourceFile{"<input>", kStructProgram}}, options);
    ASSERT_TRUE(fresh.ok()) << fresh.errors;
    EXPECT_EQ(printModule(*after.module), printModule(*fresh.module));
}

// --- Linked by reference ----------------------------------------------

const int kLevels[] = {-1, 0, 3};

/** The user-source module of @p source at @p level, as the cache has it. */
std::shared_ptr<const Module>
compileStaged(CompileCache &cache, const std::string &source,
              LibcVariant variant, int level)
{
    auto entry =
        cache.getOrCompile({SourceFile{"<input>", source}}, variant, level);
    EXPECT_TRUE(entry->ok()) << entry->errors;
    return entry->prototype;
}

TEST(LinkedStage, ProgramsShareTheLibraryAndOwnNoneOfIt)
{
    const char *first = "int main(void) { printf(\"%d\\n\", 1); return 0; }";
    const char *second = R"C(
int twice(int v) { return 2 * v; }
int main(void) { char b[8]; sprintf(b, "%d", twice(3)); puts(b); return 0; }
)C";
    CompileCache cache;
    for (LibcVariant variant : kVariants) {
        for (int level : kLevels) {
            SCOPED_TRACE("level " + std::to_string(level));
            const SharedLibrary &stage =
                libcPrototype().stage(variant, level);
            auto a = compileStaged(cache, first, variant, level);
            auto b = compileStaged(cache, second, variant, level);
            ASSERT_TRUE(a && b);
            EXPECT_EQ(a->library(), &stage);
            const Function *vformat = a->findFunction("__vformat");
            ASSERT_NE(vformat, nullptr);
            EXPECT_FALSE(vformat->isDeclaration());
            // Both programs reach the formatter: one shared object, the
            // stage's own.
            EXPECT_EQ(vformat, b->findFunction("__vformat"));
            EXPECT_EQ(vformat, stage.module().functionById(vformat->id()));
            for (const Module *program : {a.get(), b.get()}) {
                for (unsigned id = 0; id < stage.numFunctions(); id++)
                    EXPECT_FALSE(program->owns(*program->functionById(id)))
                        << program->functionById(id)->name();
                for (const auto &fn : program->ownFunctions())
                    EXPECT_EQ(fn->sourceFile(), "<input>") << fn->name();
                // Every library global is shown once, as itself; the
                // rest are the program's literals.
                size_t shown = 0;
                for (const GlobalVariable *g : program->globals()) {
                    if (stage.globalIndex(g) >= 0)
                        shown++;
                    else
                        EXPECT_EQ(g->name().rfind(".str", 0), 0u);
                }
                EXPECT_EQ(shown, stage.module().globals().size());
            }
        }
    }
}

/**
 * At each stage, the program's reached functions print as the one-call
 * whole compile run through the same pipeline prints them.
 */
void
expectStagesMatchTheWholePipeline(const std::string &name,
                                  const std::string &source)
{
    CompileCache cache;
    for (LibcVariant variant : kVariants) {
        std::vector<bool> reached;
        for (int level : kLevels) {
            SCOPED_TRACE(name + " at level " + std::to_string(level) +
                         (variant == LibcVariant::safe ? " (safe libc)"
                                                       : " (native libc)"));
            CompileResult whole = compileWhole(source, variant);
            ASSERT_TRUE(whole.ok()) << whole.errors;
            if (level < 0) // the first level: reach before any pipeline
                reached = reachedIn(*whole.module);
            if (level >= 3)
                runO3Pipeline(*whole.module);
            else if (level >= 0)
                runO0Pipeline(*whole.module);
            auto linked = compileStaged(cache, source, variant, level);
            ASSERT_TRUE(linked);
            const Module &w = *whole.module;
            EXPECT_EQ(printedGlobals(w), printedGlobals(*linked));
            ASSERT_EQ(w.functions().size(), linked->functions().size());
            for (size_t id = 0; id < w.functions().size(); id++) {
                const Function &lf =
                    sameFunction(*linked, *w.functions()[id]);
                if (reached[id])
                    EXPECT_EQ(printFunction(*w.functions()[id]),
                              printFunction(lf));
                else
                    EXPECT_TRUE(lf.isDeclaration()) << lf.name();
            }
        }
    }
}

TEST(LinkedStage, CorpusMatchesTheWholePipeline)
{
    for (const CorpusEntry &entry : bugCorpus())
        expectStagesMatchTheWholePipeline(entry.id, entry.source);
}

void
expectFuzzSeedsMatchTheWholePipeline(uint64_t first, uint64_t last)
{
    for (uint64_t seed = first; seed <= last; seed++) {
        expectStagesMatchTheWholePipeline(
            "fuzz seed " + std::to_string(seed),
            ProgramGenerator(seed).generate().render());
    }
}

// Seeds 1..100 in two halves, so ctest can run them side by side.
TEST(LinkedStage, FuzzSeeds1To50MatchTheWholePipeline)
{
    expectFuzzSeedsMatchTheWholePipeline(1, 50);
}

TEST(LinkedStage, FuzzSeeds51To100MatchTheWholePipeline)
{
    expectFuzzSeedsMatchTheWholePipeline(51, 100);
}

TEST(LinkedStage, ConcurrentProgramsMatchASerialRunAndLeaveTheStage)
{
    // Clang -O0 and Safe Sulong: the native libc's O0 stage and the safe
    // libc's prototype, each shared by every program below.
    const ToolConfig configs[] = {ToolConfig::make(ToolKind::clang, 0),
                                  ToolConfig::make(ToolKind::safeSulong, 0)};
    const SharedLibrary *stages[] = {
        &libcPrototype().stage(LibcVariant::nativeOptimized, 0),
        &libcPrototype().stage(LibcVariant::safe, -1)};
    std::vector<std::string> printedBefore;
    for (const SharedLibrary *stage : stages)
        printedBefore.push_back(printModule(stage->module()));

    const auto &corpus = bugCorpus();
    auto runAll = [&](size_t first, size_t step) {
        std::vector<std::string> outcomes;
        for (size_t i = first; i < corpus.size(); i += step) {
            for (const ToolConfig &config : configs) {
                ExecutionResult r = prepareProgram(corpus[i].source, config)
                                        .run(corpus[i].args,
                                             corpus[i].stdinData);
                outcomes.push_back(corpus[i].id + " " +
                                   std::to_string(r.exitCode) + " " +
                                   r.bug.toString() + " " + r.output);
            }
        }
        return outcomes;
    };
    std::vector<std::string> serial = runAll(0, 1);

    const size_t kThreads = 8;
    std::vector<std::vector<std::string>> parts(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; t++)
        threads.emplace_back(
            [&, t]() { parts[t] = runAll(t, kThreads); });
    for (std::thread &thread : threads)
        thread.join();
    // Reassemble in corpus order: thread t ran entries t, t + 8, ...
    std::vector<std::string> concurrent;
    size_t perEntry = std::size(configs);
    for (size_t i = 0; i < corpus.size(); i++)
        for (size_t c = 0; c < perEntry; c++)
            concurrent.push_back(
                parts[i % kThreads][(i / kThreads) * perEntry + c]);
    EXPECT_EQ(serial, concurrent);

    for (size_t s = 0; s < std::size(stages); s++)
        EXPECT_EQ(printModule(stages[s]->module()), printedBefore[s]);
}

TEST(LibcPrototype, CompilesOncePerProcessUnderConcurrentUse)
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
            obs::Counter &stages = obs::MetricsRegistry::global().counter(
                "frontend.library_stages");
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
            // One prototype for both variants; ASan -O0 adds the native
            // libc's -O0 stage, Safe Sulong runs the prototype itself.
            std::exit(built.value() == 1 && stages.value() == 1 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

// --- One prototype, variant stages, link by copy ----------------------

TEST(LibcStage, NativeStagesCarryThePrototypesIdsAndGlobals)
{
    const Module &prototype =
        libcPrototype().stage(LibcVariant::safe, -1).module();
    for (int level : kLevels) {
        SCOPED_TRACE("level " + std::to_string(level));
        const Module &native =
            libcPrototype().stage(LibcVariant::nativeOptimized, level)
                .module();
        ASSERT_EQ(native.functions().size(), prototype.functions().size());
        for (size_t id = 0; id < prototype.functions().size(); id++) {
            EXPECT_EQ(native.functions()[id]->name(),
                      prototype.functions()[id]->name());
            EXPECT_EQ(native.functions()[id]->id(), id);
        }
        ASSERT_EQ(native.globals().size(), prototype.globals().size());
        for (size_t i = 0; i < prototype.globals().size(); i++) {
            EXPECT_EQ(native.globals()[i]->name(),
                      prototype.globals()[i]->name());
            EXPECT_EQ(native.globals()[i]->valueType(),
                      prototype.globals()[i]->valueType());
        }
        // The bodies are the native libc's own, from its own file.
        const Function *strcmp_fn = native.findFunction("strcmp");
        ASSERT_NE(strcmp_fn, nullptr);
        EXPECT_EQ(strcmp_fn->sourceFile(), "libc/string_opt.c");
        EXPECT_EQ(strcmp_fn->id(), prototype.findFunction("strcmp")->id());
    }
    // Its one-call compile numbers the functions its own way: the stage
    // is aligned, not compiled in the prototype's order.
    CompileResult whole = compileC(libcSources(LibcVariant::nativeOptimized));
    ASSERT_TRUE(whole.ok()) << whole.errors;
    EXPECT_NE(whole.module->findFunction("strcmp")->id(),
              prototype.findFunction("strcmp")->id());
}

TEST(LibcStage, MismatchedStageSourcesThrow)
{
    // Each variant source list differs from the safe libc in what it
    // declares: an extra function, a function of another type, an
    // extra global, a global initialized otherwise.
    const std::pair<std::string, std::string> edits[] = {
        {"", "int __extra(void) { return 0; }\n"},
        {"int abs(int", "long abs(long"},
        {"", "int __extra_global = 1;\n"},
        {"FILE __stdin_file = {0};", "FILE __stdin_file = {7};"},
    };
    for (const auto &[from, to] : edits) {
        SCOPED_TRACE(to);
        LibraryPrototype mismatched([&](LibcVariant variant) {
            std::vector<SourceFile> sources =
                libcSources(LibcVariant::safe);
            if (variant == LibcVariant::safe)
                return sources;
            std::string &text = sources.back().text;
            if (from.empty()) {
                text += to;
            } else {
                bool edited = false;
                for (SourceFile &source : sources) {
                    size_t at = source.text.find(from);
                    if (at != std::string::npos && !edited) {
                        source.text.replace(at, from.size(), to);
                        edited = true;
                    }
                }
                EXPECT_TRUE(edited) << from;
            }
            return sources;
        });
        // The prototype itself stands; the mismatched stage is refused
        // at every level.
        EXPECT_NO_THROW(mismatched.stage(LibcVariant::safe, 0));
        for (int level : kLevels) {
            try {
                mismatched.stage(LibcVariant::nativeOptimized, level);
                ADD_FAILURE() << "level " << level << " was built";
            } catch (const InternalError &error) {
                EXPECT_NE(std::string(error.what())
                              .find("differs from its prototype"),
                          std::string::npos)
                    << error.what();
            }
        }
    }
}

TEST(LinkedStage, DerivingStagesLeavesTheFrontEndUnchanged)
{
    std::vector<std::string> sources;
    for (const CorpusEntry &entry : bugCorpus())
        sources.push_back(entry.source);
    for (uint64_t seed = 1; seed <= 20; seed++)
        sources.push_back(ProgramGenerator(seed).generate().render());
    sources.push_back(kStructProgram);
    CompileCache cache;
    for (const std::string &source : sources) {
        auto front = compileStaged(cache, source, LibcVariant::safe, -1);
        ASSERT_TRUE(front);
        std::string before = printModule(*front);
        for (LibcVariant variant : kVariants)
            for (int level : {0, 3})
                ASSERT_TRUE(compileStaged(cache, source, variant, level));
        EXPECT_EQ(printModule(*front), before);
        // The stages did not compile the program again.
        EXPECT_EQ(compileStaged(cache, source, LibcVariant::safe, -1),
                  front);
    }
}

TEST(LinkedStage, DerivedModuleOutlivesItsEvictedFrontEnd)
{
    const std::string source = kStructProgram;
    CompileCache cache;
    cache.setCapacity(1);
    auto native = compileStaged(cache, source, LibcVariant::nativeOptimized, 0);
    ASSERT_TRUE(native);
    std::string printed = printModule(*native);
    // The front-end entry is the one the cache kept; drop it.
    std::weak_ptr<const Module> front =
        compileStaged(cache, source, LibcVariant::safe, -1);
    ASSERT_FALSE(front.expired());
    compileStaged(cache, "int main(void) { return 0; }",
                  LibcVariant::safe, -1);
    // The derived module does not pin the front end's code.
    EXPECT_TRUE(front.expired());

    auto issues = verifyModule(*native);
    EXPECT_TRUE(issues.empty()) << formatIssues(issues);
    EXPECT_EQ(printModule(*native), printed);
    NativeEngine engine("Clang -O0");
    ExecutionResult result = engine.run(*native, {}, "");
    EXPECT_EQ(result.exitCode, 26);
    EXPECT_EQ(result.output, "area=126\n");
}

} // namespace
} // namespace sulong
