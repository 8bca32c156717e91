/**
 * @file
 * Bug hunting: run a C file under the whole tool matrix and compare what
 * each tool reports — the Section 4.1 workflow as a small CLI.
 *
 * Usage:
 *   bug_hunting                 # run a built-in demo program
 *   bug_hunting file.c [args]   # analyze your own mini-C program
 *
 * Flags:
 *   --analyze        also run the static analyzer before the tool matrix
 *   --analyze-only   static analysis only; exit 2 on a definite finding
 *   --no-refute      report raw abstract findings (skip the replay)
 *   --analyze-libc   analyze the linked libc too: the libc bodies the
 *                    program reaches (the others are never linked in)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "tools/compile_cache.h"
#include "tools/driver.h"

namespace
{

const char *DEMO = R"(
/* A tiny "config parser" with two planted bugs: an unterminated
 * delimiter handed to strtok (Fig. 11 style) and a use-after-free. */
#include <string.h>
#include <stdlib.h>

static char *parse_key(char *line) {
    char delim[1];
    delim[0] = '=';             /* missing NUL terminator */
    return strtok(line, delim);
}

int main(void) {
    char line[32];
    strcpy(line, "mode=fast");
    char *key = parse_key(line);
    printf("key: %s\n", key);
    return 0;
}
)";

} // namespace

int
main(int argc, char **argv)
{
    using namespace sulong;

    bool analyze_only = hasFlag(argc, argv, "analyze-only");
    bool analyze = analyze_only || hasFlag(argc, argv, "analyze");
    AnalysisOptions analysis_options = parseAnalysisFlags(argc, argv);

    std::string source = DEMO;
    std::vector<std::string> guest_args;
    const char *input_file = nullptr;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--", 2) == 0)
            continue;
        if (input_file == nullptr)
            input_file = argv[i];
        else
            guest_args.push_back(argv[i]);
    }
    if (input_file != nullptr) {
        std::ifstream file(input_file);
        if (!file) {
            std::printf("cannot open %s\n", input_file);
            return 1;
        }
        std::ostringstream buf;
        buf << file.rdbuf();
        source = buf.str();
    } else {
        std::printf("(no input file given — analyzing the built-in demo)\n\n");
    }

    // The analyzer and every tool share one cache: each pipeline stage
    // compiles once.
    CompileCache cache;
    if (analyze) {
        AnalysisReport report;
        PreparedProgram prepared = prepareProgram(
            source, ToolConfig::make(ToolKind::safeSulong), &cache);
        if (prepared.ok()) {
            analysis_options.replayArgs = guest_args;
            report = analyzeModule(*prepared.module, analysis_options);
        } else {
            report.replayOutcome = "compile error: " + prepared.compileErrors;
        }
        std::printf("static analysis:\n%s\n", report.toString().c_str());
        if (analyze_only)
            return report.definiteCount() > 0 ? 2 : 0;
        std::printf("\n");
    }

    const ToolConfig tools[] = {
        ToolConfig::make(ToolKind::safeSulong),
        ToolConfig::make(ToolKind::clang, 0),
        ToolConfig::make(ToolKind::clang, 3),
        ToolConfig::make(ToolKind::asan, 0),
        ToolConfig::make(ToolKind::asan, 3),
        ToolConfig::make(ToolKind::memcheck, 0),
        ToolConfig::make(ToolKind::memcheck, 3),
    };

    std::printf("%-13s %-8s %s\n", "tool", "exit", "report");
    for (const ToolConfig &config : tools) {
        ExecutionResult result =
            runUnderTool(source, config, guest_args, "", &cache);
        std::printf("%-13s %-8d %s\n", config.toString().c_str(),
                    result.exitCode, result.bug.toString().c_str());
    }

    std::printf("\nstdout under Safe Sulong:\n");
    ExecutionResult managed = runUnderTool(
        source, ToolConfig::make(ToolKind::safeSulong), guest_args, "",
        &cache);
    std::printf("%s", managed.output.c_str());
    return 0;
}
