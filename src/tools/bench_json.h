/**
 * @file
 * Machine-readable benchmark output: the BENCH_tier2.json/v1 schema the
 * CI perf gate consumes. Each record names the benchmark, the engine it
 * ran under, the managed-engine configuration, the nanoseconds per
 * operation, and the IR instructions retired per operation — enough to
 * compare tier-2 configurations (inlining / check elision on and off)
 * run to run without re-parsing human-oriented tables.
 */

#ifndef MS_TOOLS_BENCH_JSON_H
#define MS_TOOLS_BENCH_JSON_H

#include <cstdint>
#include <string>
#include <vector>

#include "interp/managed_engine.h"

namespace sulong
{

/** One benchmark measurement. */
struct BenchRecord
{
    /// Benchmark name, e.g. "fig16.calltower" or "micro.BM_Calls".
    std::string bench;
    /// Engine display name, e.g. "SafeSulong" or "Clang -O0".
    std::string engine;
    /// Configuration summary (see managedConfigString).
    std::string config;
    /// Nanoseconds per operation (one benchmark iteration).
    double nsPerOp = 0;
    /// IR instructions retired per operation (0 when the engine does
    /// not count steps, i.e. everything but Safe Sulong).
    uint64_t stepsPerOp = 0;
};

/** One-line summary of the tier-2 knobs, stable across runs. */
std::string managedConfigString(const ManagedOptions &options);

/**
 * Write @p records to @p path in the BENCH_tier2.json/v1 schema:
 * `{"schema": "BENCH_tier2.json/v1", "records": [...]}`.
 * @return false when the file could not be written.
 */
bool writeBenchJson(const std::string &path,
                    const std::vector<BenchRecord> &records);

} // namespace sulong

#endif // MS_TOOLS_BENCH_JSON_H
