/**
 * @file
 * Shared taxonomy of C memory errors detected (or missed) by the engines.
 *
 * This mirrors the bug categories of the paper's Section 2.1: spatial
 * errors (out-of-bounds), temporal errors (use-after-free), NULL
 * dereferences, and "other" errors (invalid free, double free, accesses to
 * non-existent variadic arguments). Every execution engine in this
 * repository reports bugs through this taxonomy so that the detection
 * matrix of Section 4.1 can be computed uniformly.
 */

#ifndef MS_SUPPORT_ERROR_H
#define MS_SUPPORT_ERROR_H

#include <cstdint>
#include <optional>
#include <string>

namespace sulong
{

/** Category of a detected memory error. */
enum class ErrorKind : uint8_t
{
    /// No error: normal termination.
    none,
    /// Spatial error: access outside the bounds of an object.
    outOfBounds,
    /// Temporal error: access to a freed heap object.
    useAfterFree,
    /// free() called twice on the same heap object.
    doubleFree,
    /// free() of a non-heap object or of an interior pointer.
    invalidFree,
    /// Dereference of a NULL pointer.
    nullDeref,
    /// Access to a non-existent variadic argument (format-string bugs).
    varargs,
    /// A load/store/cast that violates the (relaxed) type rules.
    typeError,
    /// Read of uninitialized memory (Memcheck-style V-bit report).
    uninitRead,
    /// Heap memory still reachable-or-not but never freed at exit
    /// (paper Section 6 future work, implemented here).
    memoryLeak,
    /// Hardware-trap analogue: access to unmapped simulated memory.
    segfault,
    /// The engine could not continue (unsupported feature, bad input).
    engineError,
};

/** Whether a faulting access was a read, a write, or a deallocation. */
enum class AccessKind : uint8_t
{
    read,
    write,
    free,
};

/** Storage class of the object involved in an error. */
enum class StorageKind : uint8_t
{
    stack,
    heap,
    global,
    /// The argv/envp region set up before main() runs (Fig. 10).
    mainArgs,
    unknown,
};

/** Direction of a spatial violation relative to the object. */
enum class BoundsDirection : uint8_t
{
    underflow,
    overflow,
    unknown,
};

/**
 * How a run ended with respect to resource governance. Everything but
 * @c normal means the harness stopped the guest, not that the guest
 * finished or tripped a memory-safety check — so resource exhaustion is
 * never conflated with ErrorKind::engineError.
 */
enum class TerminationKind : uint8_t
{
    /// Ran to completion (exit or a detected bug).
    normal,
    /// The per-run instruction budget was exhausted.
    stepLimit,
    /// The guest call-depth limit tripped (unbounded recursion).
    stackLimit,
    /// Guest heap bytes or allocation count exceeded the limit.
    heapLimit,
    /// Guest stdout/stderr output exceeded the byte limit.
    outputLimit,
    /// The wall-clock deadline expired.
    timeout,
    /// The run was cancelled cooperatively (watchdog, fail-fast drain).
    cancelled,
    /// A host-side exception escaped the job (harness bug, host OOM, or
    /// an injected fault) — the batch isolates it instead of crashing.
    hostFault,
};

/** @return a stable human-readable name, e.g. "out-of-bounds". */
const char *errorKindName(ErrorKind kind);
/** @return a stable name, e.g. "step-limit" / "host-fault". */
const char *terminationKindName(TerminationKind kind);
/** @return "read" / "write" / "free". */
const char *accessKindName(AccessKind kind);
/** @return "stack" / "heap" / "global" / "main-args" / "unknown". */
const char *storageKindName(StorageKind kind);
/** @return "underflow" / "overflow" / "unknown". */
const char *boundsDirectionName(BoundsDirection direction);

/**
 * A structured description of one detected bug.
 *
 * Produced by every engine when it aborts execution; consumed by the
 * corpus harness, the detection-matrix bench, and the report printer.
 */
struct BugReport
{
    ErrorKind kind = ErrorKind::none;
    AccessKind access = AccessKind::read;
    StorageKind storage = StorageKind::unknown;
    BoundsDirection direction = BoundsDirection::unknown;
    /// Function in which the access was executed (best effort).
    std::string function;
    /// The faulting instruction within `function`: its block index and
    /// its index within that block (StaticFinding's numbering). Set by
    /// the managed engine, once, at the innermost frame.
    std::optional<unsigned> blockIndex;
    std::optional<unsigned> instIndex;
    /// Free-form detail, e.g. "index 12 out of bounds for I32Array[10]".
    std::string detail;
    /// Byte offset of the access relative to the object start, if known.
    std::optional<int64_t> offset;
    /// Size in bytes of the object involved, if known.
    std::optional<int64_t> objectSize;

    /** Render a one-line report, e.g. for error logs. */
    std::string toString() const;
};

/** Final outcome of running a program under an engine. */
struct ExecutionResult
{
    /// Exit code of the guest program (valid when kind == none).
    int exitCode = 0;
    /// The first detected bug, if any.
    BugReport bug;
    /// How the run ended: normal, or a structured resource-governance
    /// termination (step/heap/output limit, timeout, cancellation, host
    /// fault). Non-normal terminations leave bug.kind == none.
    TerminationKind termination = TerminationKind::normal;
    /// Detail for non-normal terminations, e.g. "step limit of 100000
    /// instructions exceeded".
    std::string terminationDetail;
    /// Everything the guest wrote to stdout.
    std::string output;
    /// Everything the guest wrote to stderr.
    std::string errOutput;

    bool
    ok() const
    {
        return bug.kind == ErrorKind::none &&
               termination == TerminationKind::normal;
    }
    bool detected(ErrorKind kind) const { return bug.kind == kind; }
};

} // namespace sulong

#endif // MS_SUPPORT_ERROR_H
