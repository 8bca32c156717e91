/**
 * @file
 * The benchmark's span recorder and link-time interposition layer.
 *
 * Spans are recorded only while tracing is on (the per-layer run); the
 * end-to-end run leaves it off, so every interposed call is then a
 * direct call behind one branch (runGuardedJob also reads the clock
 * twice, for the service's busy-time rate). Spans stay in memory until the run
 * ends. Each holds its layer, start, end, parent span (the innermost
 * open span on the same thread) and item id.
 *
 * The interposed symbols are listed once, in interpose.def.
 */
#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sulong
{
class Engine;
}

namespace perfbench
{

int64_t nowNs();

void setTracing(bool on);

/// Spans outside any item (set-up) carry this id.
inline constexpr int64_t kNoItem = -1;
/// Daemon-side spans carry the daemon's job id tagged with this bit;
/// the service workload maps it back to its own item via the reply.
inline constexpr int64_t kDaemonItem = int64_t(1) << 40;

/** Item id stamped on spans opened on the calling thread. */
void setCurrentItem(int64_t item);

struct SpanRecord
{
    const char *layer = nullptr;
    int32_t parent = -1; ///< index into the span list, -1 for a root
    int64_t item = kNoItem;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** RAII span; a no-op while tracing is off. */
class Span
{
  public:
    explicit Span(const char *layer);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int32_t index_ = -1;
};

/** All spans recorded so far (closed ones; call after the run). */
std::vector<SpanRecord> takeSpans();

/** Calls per interpose.def row while tracing, in table order. */
struct RowCalls
{
    std::string id;
    std::string layer;
    uint64_t calls = 0;
};
std::vector<RowCalls> interposedCalls();

/** Instructions in modules returned by compileC, summed. */
uint64_t frontendIrInsts();
/** Findings returned by analyzeModule, summed. */
uint64_t analysisFindings();

/** Daemon-side timestamps of one job, keyed by daemon job id. */
struct DaemonJobTimes
{
    int64_t submitNs = 0; ///< AnalysisService::submit entry
    int64_t doneNs = 0;   ///< completion callback entry
};
std::map<uint64_t, DaemonJobTimes> takeDaemonTimes();

/** While tracing, prepared engines are wrapped to time run(); this
 *  returns the engine underneath (or @p engine itself). */
sulong::Engine *innerEngine(sulong::Engine *engine);

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
