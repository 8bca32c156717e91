/**
 * @file
 * Resource governance for guest execution.
 *
 * The paper's pitch is that a managed execution model survives
 * arbitrarily buggy C programs; this header makes the *harness* survive
 * them too. Every engine runs under a ResourceGuard that meters
 * interpreter steps, call depth, guest heap bytes and allocation count,
 * guest output bytes, a wall-clock deadline, and a cooperative
 * cancellation token, and converts exhaustion into a structured
 * TerminationKind instead of wedging or OOMing the host (cf.
 * "Introspection for C": limits as first-class runtime state).
 */

#ifndef MS_SUPPORT_LIMITS_H
#define MS_SUPPORT_LIMITS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "support/error.h"

namespace sulong
{

/**
 * Per-run resource limits shared by all engines. 0 always means
 * "unlimited" so a default-constructed value only keeps the two
 * protections every run needs (steps and call depth).
 */
struct ResourceLimits
{
    /// Maximum number of executed IR instructions (0 = unlimited).
    uint64_t maxSteps = 500'000'000;
    /// Maximum guest call depth. Guest calls nest host-interpreter
    /// frames, so this also protects the host stack (0 = unlimited).
    unsigned maxCallDepth = 3'000;
    /// Maximum live guest heap bytes (0 = unlimited).
    uint64_t maxHeapBytes = 0;
    /// Maximum guest heap allocations per run (0 = unlimited).
    uint64_t maxHeapAllocations = 0;
    /// Maximum bytes the guest may write to stdout+stderr combined
    /// (0 = unlimited).
    uint64_t maxOutputBytes = 0;
    /// Wall-clock budget for one run in milliseconds, checked
    /// cooperatively on the interpreter step path (0 = unlimited).
    uint64_t deadlineMs = 0;
};

/**
 * Cooperative cancellation. Copies share one flag, so a watchdog (or any
 * other thread) can cancel a run by keeping a copy of the token handed
 * to the engine; the engine polls it on the step path.
 */
class CancellationToken
{
  public:
    CancellationToken()
        : flag_(std::make_shared<std::atomic<bool>>(false))
    {}

    void cancel() { flag_->store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return flag_->load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/**
 * Raised when a ResourceGuard limit trips. Engines catch it at the
 * run() boundary and report it as ExecutionResult::termination — never
 * as a guest bug and never as ErrorKind::engineError.
 */
class ResourceExhausted
{
  public:
    ResourceExhausted(TerminationKind kind, std::string detail)
        : kind_(kind), detail_(std::move(detail))
    {}

    TerminationKind kind() const { return kind_; }
    const std::string &detail() const { return detail_; }

  private:
    TerminationKind kind_;
    std::string detail_;
};

/**
 * Per-run accounting against a ResourceLimits. One guard lives inside
 * each engine and is reset per run; the heap, the IO plumbing, and the
 * interpreter step paths all report into it.
 */
class ResourceGuard
{
  public:
    ResourceGuard() : ResourceGuard(ResourceLimits{}, CancellationToken{})
    {}
    ResourceGuard(const ResourceLimits &limits, CancellationToken token);

    /// One executed IR instruction. Checks the step limit every step and
    /// the deadline/cancellation token every few thousand steps.
    void
    onStep()
    {
        steps_++;
        if (limits_.maxSteps != 0 && steps_ > limits_.maxSteps)
            exhausted(TerminationKind::stepLimit,
                      "step limit of " + std::to_string(limits_.maxSteps) +
                          " instructions exceeded");
        if ((steps_ & interruptMask) == 1)
            checkInterrupts();
    }

    /**
     * Charge a batch of @p n instructions at once (compiled superblock
     * heads). Returns false — charging *nothing* — when the batch would
     * cross the step limit: the caller must fall back to per-step
     * accounting so the limit trips at exactly the same instruction as
     * tier-1 would trip it. Polls
     * interrupts when the batch crosses a 4096-step boundary, matching
     * onStep's cadence.
     */
    bool
    onSteps(uint64_t n)
    {
        uint64_t next = steps_ + n;
        if (limits_.maxSteps != 0 && next > limits_.maxSteps)
            return false;
        bool poll = ((steps_ ^ next) >> 12) != 0;
        steps_ = next;
        if (poll)
            checkInterrupts();
        return true;
    }

    /// Return @p n not-yet-executed instructions from a batch charged
    /// with onSteps (exception mid-superblock).
    void uncharge(uint64_t n) { steps_ -= n; }

    /// Guest call entry/exit (the host interpreter recurses with it).
    void
    enterCall()
    {
        if (limits_.maxCallDepth != 0 && ++depth_ > limits_.maxCallDepth) {
            depth_--;
            exhausted(TerminationKind::stackLimit,
                      "guest stack overflow (call depth limit of " +
                          std::to_string(limits_.maxCallDepth) + ")");
        }
    }
    void leaveCall() { depth_--; }

    /// Guest heap traffic (live bytes + total allocation count).
    void onAlloc(uint64_t bytes);
    void
    onFree(uint64_t bytes)
    {
        heapBytes_ -= bytes > heapBytes_ ? heapBytes_ : bytes;
    }

    /// Guest writes to stdout/stderr.
    void onOutput(uint64_t bytes);

    /// Deadline + cancellation poll (also called periodically by
    /// onStep); throws ResourceExhausted when either tripped.
    void checkInterrupts();

    uint64_t steps() const { return steps_; }
    unsigned depth() const { return depth_; }
    uint64_t heapBytes() const { return heapBytes_; }
    uint64_t allocationCount() const { return allocations_; }
    uint64_t outputBytes() const { return outputBytes_; }
    const ResourceLimits &limits() const { return limits_; }

  private:
    /// Poll wall clock / token once every 4096 steps: cheap enough for
    /// the hot path, frequent enough to cancel within microseconds.
    static constexpr uint64_t interruptMask = 0xFFF;

    [[noreturn]] void exhausted(TerminationKind kind, std::string detail);

    ResourceLimits limits_;
    CancellationToken token_;
    std::chrono::steady_clock::time_point deadline_;
    bool hasDeadline_ = false;
    uint64_t steps_ = 0;
    unsigned depth_ = 0;
    uint64_t heapBytes_ = 0;
    uint64_t allocations_ = 0;
    uint64_t outputBytes_ = 0;
};

} // namespace sulong

#endif // MS_SUPPORT_LIMITS_H
