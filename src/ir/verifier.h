/**
 * @file
 * Structural and type-level verifier for IR modules.
 *
 * Run after codegen, after every optimizer pipeline, and after
 * instrumentation: a malformed module would make engine differences
 * meaningless, so all producers must pass verification in tests.
 */

#ifndef MS_IR_VERIFIER_H
#define MS_IR_VERIFIER_H

#include <string>
#include <vector>

#include "ir/module.h"

namespace sulong
{

/** One verifier complaint. */
struct VerifyIssue
{
    std::string function;
    std::string message;

    std::string toString() const
    {
        return (function.empty() ? "" : "@" + function + ": ") + message;
    }
};

/**
 * Check a module. Verifies, per function definition:
 *  - every block ends in exactly one terminator and has no terminator
 *    mid-block;
 *  - operand types match opcode contracts (integer binops on matching
 *    integer types, loads from ptr, condbr on i1, ...);
 *  - branch targets belong to the same function;
 *  - call argument counts match non-varargs callee signatures;
 *  - ret matches the function return type;
 *  - slots are numbered (finalize() was run).
 *
 * Checks the module's own functions: a linked library's were verified
 * when it was built.
 *
 * @return all issues found (empty means the module is well-formed).
 */
std::vector<VerifyIssue> verifyModule(const Module &module);

/**
 * Warning-tier lint checks the static analyzer relies on but that do
 * not make a module unexecutable (so they never gate compilation):
 *  - blocks unreachable from the entry block;
 *  - instruction-result operands whose definition does not dominate the
 *    use (same-block uses must come after the definition);
 *  - stores to an alloca whose address is never loaded, never offset
 *    and never escapes (dead local stores).
 *
 * @return all lint findings (empty means the module is lint-clean).
 */
std::vector<VerifyIssue> lintModule(const Module &module);

/** Convenience wrapper: true if verifyModule() found nothing. */
bool moduleIsValid(const Module &module);

/** Render all issues, one per line. */
std::string formatIssues(const std::vector<VerifyIssue> &issues);

} // namespace sulong

#endif // MS_IR_VERIFIER_H
