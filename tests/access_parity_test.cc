/**
 * @file
 * Access parity table: every kind of leaf object × every scalar access
 * class and size × the edge offsets, read and written, checked in the
 * plain interpreter and in the compiled tier (eager, with and without
 * check elision). Both tiers end in the same leaf check, whose fast path
 * (live, relaxed rules, in bounds, bytes written) is inline and whose
 * every failure falls through to the one out-of-line path that raises
 * the report; this table pins that the fast path admits exactly what
 * the full check admits: every report, site and output is the same in
 * each tier, and check elision does not move the compiled tier's step
 * count.
 *
 * One program per (leaf, storage, mode) picks its access from argv, so
 * each is compiled once per configuration and run once per cell.
 */

#include <set>

#include "test_util.h"

#include "interp/managed_engine.h"

namespace sulong
{
namespace
{

/** The object under access, and the bytes reachable from its base. */
struct Leaf
{
    const char *name;
    const char *elem;  ///< C element type; nullptr for a struct field
    const char *field; ///< struct field the base points at, or nullptr
    int bytes;         ///< object (or field) size in bytes
};

constexpr Leaf kLeaves[] = {
    {"i8", "char", nullptr, 16},
    {"i16", "short", nullptr, 16},
    {"i32", "int", nullptr, 16},
    {"i64", "long", nullptr, 16},
    {"f32", "float", nullptr, 16},
    {"f64", "double", nullptr, 16},
    {"ptr", "char *", nullptr, 16},
    {"struct.l", nullptr, "l", 8},
    {"struct.p", nullptr, "p", 8},
};

enum class Storage
{
    stack,
    heap,
    freed,
};

/** Which engine options the three tiers share. */
enum class Mode
{
    relaxed,
    strict,       ///< ManagedOptions::strictTypes
    uninitReads,  ///< ManagedOptions::detectUninitReads, object unwritten
};

/// The accesses, in `op` order: 1/2/4/8-byte integer, f32, f64 and
/// pointer class, each read then written, plus a dereference of a
/// pointer read from the object (provenance-free bits stay NULL).
struct Op
{
    int size;
    const char *name;
};

constexpr Op kOps[] = {
    {1, "i8 read"},  {1, "i8 write"},  {2, "i16 read"}, {2, "i16 write"},
    {4, "i32 read"}, {4, "i32 write"}, {8, "i64 read"}, {8, "i64 write"},
    {4, "f32 read"}, {4, "f32 write"}, {8, "f64 read"}, {8, "f64 write"},
    {8, "ptr read"}, {8, "ptr write"}, {8, "ptr deref"},
};

std::string
programFor(const Leaf &leaf, Storage storage)
{
    const bool heap = storage != Storage::stack;
    std::string decl;
    std::string init;
    std::string base;
    std::string dump;
    if (leaf.field == nullptr) {
        std::string elem = leaf.elem;
        const bool ptr = elem == "char *";
        int count = leaf.bytes / (ptr ? 8 : elem == "char" ? 1
                                  : elem == "short" ? 2
                                  : elem == "int" || elem == "float" ? 4
                                                                     : 8);
        std::string n = std::to_string(count);
        decl = heap ? elem + " *obj = malloc(" + std::to_string(leaf.bytes) +
                ");"
                    : elem + " obj[" + n + "];";
        init = "for (int i = 0; i < " + n + "; i++) obj[i] = " +
            (ptr ? "i == 0 ? (char *)&g : 0;" : "i * 3 + 1;");
        base = "(char *)obj";
        dump = "for (int i = 0; i < " + n + "; i++) printf(" +
            (ptr ? "\"%d \", obj[i] == 0);"
                 : elem == "float" || elem == "double"
                    ? "\"%f \", obj[i]);"
                    : "\"%ld \", (long)obj[i]);");
    } else {
        const char *arrow = heap ? "->" : ".";
        decl = heap ? "struct S *obj = malloc(sizeof(struct S));"
                    : "struct S obj;";
        init = std::string("obj") + arrow + "i = 1; obj" + arrow +
            "l = 2; obj" + arrow + "p = (char *)&g; obj" + arrow +
            "d = 0.5;";
        base = std::string("(char *)&obj") + arrow + leaf.field;
        dump = std::string("printf(\"%d %ld %d %f\", obj") + arrow +
            "i, obj" + arrow + "l, obj" + arrow + "p == 0, obj" + arrow +
            "d);";
    }
    std::string release;
    if (storage == Storage::freed)
        release = "free(obj);";
    return R"(
struct S { int i; long l; char *p; double d; };
int g = 7;
static long num(char *s) {
    long v = 0;
    int neg = 0;
    if (*s == '-') { neg = 1; s++; }
    while (*s) { v = v * 10 + (*s - '0'); s++; }
    return neg ? -v : v;
}
int main(int argc, char **argv) {
    long op = num(argv[1]);
    long off = num(argv[2]);
    long init = num(argv[3]);
    )" + decl + R"(
    if (init) { )" + init + R"( }
    )" + release + R"(
    char *base = )" + base + R"(;
    long sum = 0;
    double fsum = 0;
    for (int k = 0; k < 3; k++) {
        char *at = base + (k < 2 ? 0 : off);
        switch (op) {
          case 0: sum += *(char *)at; break;
          case 1: *(char *)at = (char)(k + 65); break;
          case 2: sum += *(short *)at; break;
          case 3: *(short *)at = (short)(k + 300); break;
          case 4: sum += *(int *)at; break;
          case 5: *(int *)at = k + 70000; break;
          case 6: sum += *(long *)at; break;
          case 7: *(long *)at = k + 5000000000L; break;
          case 8: fsum += *(float *)at; break;
          case 9: *(float *)at = 1.5f + k; break;
          case 10: fsum += *(double *)at; break;
          case 11: *(double *)at = 2.25 + k; break;
          case 12: sum += *(void **)at == 0; break;
          case 13: *(void **)at = &g; break;
          case 14: sum += **(char **)at; break;
        }
    }
    printf("%ld %f\n", sum, fsum);
    )" + dump + R"(
    printf("\n");
    return argc;
}
)";
}

/** One cell's observable outcome. */
struct Outcome
{
    ExecutionResult result;
    uint64_t steps = 0;
};

Outcome
runCell(PreparedProgram &prepared, const std::vector<std::string> &args)
{
    Outcome out;
    out.result = prepared.run(args);
    out.steps = dynamic_cast<ManagedEngine &>(*prepared.engine)
                    .executedSteps();
    return out;
}

ToolConfig
configFor(Mode mode, bool tier2, bool elision)
{
    ToolConfig config = ToolConfig::make(ToolKind::safeSulong);
    config.managed.enableTier2 = tier2;
    config.managed.compileThreshold = 0;
    config.managed.inlineSiteMin = 0;
    config.managed.enableCheckElision = elision;
    config.managed.strictTypes = mode == Mode::strict;
    config.managed.detectUninitReads = mode == Mode::uninitReads;
    return config;
}

/** Bug kinds the table produced, so it cannot go vacuous unnoticed. */
using KindSet = std::set<ErrorKind>;

void
checkTable(Mode mode, KindSet &seen)
{
    const std::vector<std::pair<std::string, ToolConfig>> tiers = {
        {"tier-1", configFor(mode, false, true)},
        {"tier-2 eager", configFor(mode, true, true)},
        {"tier-2 eager, no check elision", configFor(mode, true, false)},
    };
    const Storage storages[] = {Storage::stack, Storage::heap,
                                Storage::freed};
    for (const Leaf &leaf : kLeaves) {
        for (Storage storage : storages) {
            if (mode == Mode::uninitReads && storage == Storage::freed)
                continue; // a freed object has no bytes to be unwritten
            const std::string source = programFor(leaf, storage);
            std::vector<PreparedProgram> prepared;
            for (const auto &tier : tiers) {
                prepared.push_back(prepareProgram(source, tier.second));
                ASSERT_TRUE(prepared.back().ok())
                    << prepared.back().compileErrors;
            }
            for (size_t op = 0; op < std::size(kOps); op++) {
                const int size = kOps[op].size;
                // -1, the first byte, the last in-bounds access, one
                // past it, and a misaligned reinterpretation.
                const int offsets[] = {-1, 0, leaf.bytes - size,
                                       leaf.bytes - size + 1, 1};
                for (int offset : offsets) {
                    const std::vector<std::string> args = {
                        std::to_string(op), std::to_string(offset),
                        mode == Mode::uninitReads ? "0" : "1"};
                    SCOPED_TRACE(std::string(leaf.name) + " storage " +
                                 std::to_string(static_cast<int>(storage)) +
                                 ", " + kOps[op].name + " at offset " +
                                 std::to_string(offset));
                    Outcome ref = runCell(prepared[0], args);
                    seen.insert(ref.result.bug.kind);
                    uint64_t tier2_steps = 0;
                    for (size_t t = 1; t < tiers.size(); t++) {
                        SCOPED_TRACE(tiers[t].first);
                        Outcome got = runCell(prepared[t], args);
                        const BugReport &want = ref.result.bug;
                        const BugReport &bug = got.result.bug;
                        EXPECT_EQ(bug.kind, want.kind);
                        EXPECT_EQ(bug.toString(), want.toString());
                        EXPECT_EQ(bug.detail, want.detail);
                        EXPECT_EQ(bug.offset, want.offset);
                        EXPECT_EQ(bug.objectSize, want.objectSize);
                        EXPECT_EQ(bug.function, want.function);
                        EXPECT_EQ(bug.blockIndex, want.blockIndex);
                        EXPECT_EQ(bug.instIndex, want.instIndex);
                        EXPECT_EQ(got.result.output, ref.result.output);
                        EXPECT_EQ(got.result.exitCode, ref.result.exitCode);
                        // Tier-1 retires more steps by design (a fused
                        // compare+branch or a folded bool alias is one
                        // compiled op); elision must not move them.
                        if (t == 1)
                            tier2_steps = got.steps;
                        else
                            EXPECT_EQ(got.steps, tier2_steps);
                    }
                }
            }
        }
    }
}

TEST(AccessParityTest, RelaxedRules)
{
    KindSet seen;
    checkTable(Mode::relaxed, seen);
    for (ErrorKind kind : {ErrorKind::none, ErrorKind::outOfBounds,
                           ErrorKind::typeError, ErrorKind::useAfterFree,
                           ErrorKind::nullDeref})
        EXPECT_TRUE(seen.count(kind)) << errorKindName(kind);
}

TEST(AccessParityTest, StrictTypeRules)
{
    KindSet seen;
    checkTable(Mode::strict, seen);
    EXPECT_TRUE(seen.count(ErrorKind::none));
    EXPECT_TRUE(seen.count(ErrorKind::typeError));
}

TEST(AccessParityTest, UninitReads)
{
    KindSet seen;
    checkTable(Mode::uninitReads, seen);
    EXPECT_TRUE(seen.count(ErrorKind::uninitRead));
    EXPECT_TRUE(seen.count(ErrorKind::outOfBounds));
}

} // namespace
} // namespace sulong
