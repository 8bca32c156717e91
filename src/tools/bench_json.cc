#include "tools/bench_json.h"

#include <cstdio>
#include <sstream>

#include "obs/json.h"

namespace sulong
{

// Bench/config strings come from user-controlled flags, so escaping
// uses the shared strict escaper (controls + non-ASCII as \u00XX)
// rather than a local identifiers-are-ASCII shortcut.
using obs::jsonEscape;

std::string
managedConfigString(const ManagedOptions &options)
{
    std::ostringstream os;
    os << "tier2=" << (options.enableTier2 ? "on" : "off")
       << " threshold=" << options.compileThreshold
       << " inlining=" << (options.enableInlining ? "on" : "off")
       << " inline-budget=" << options.inlineBudget
       << " inline-min=" << options.inlineSiteMin
       << " check-elision=" << (options.enableCheckElision ? "on" : "off");
    return os.str();
}

bool
writeBenchJson(const std::string &path,
               const std::vector<BenchRecord> &records)
{
    std::ostringstream os;
    os.precision(15);
    os << "{\n  \"schema\": \"BENCH_tier2.json/v1\",\n  \"records\": [";
    for (size_t i = 0; i < records.size(); i++) {
        const BenchRecord &r = records[i];
        os << (i ? "," : "") << "\n    {\"bench\": \"" << jsonEscape(r.bench)
           << "\", \"engine\": \"" << jsonEscape(r.engine)
           << "\", \"config\": \"" << jsonEscape(r.config)
           << "\", \"ns_per_op\": " << r.nsPerOp
           << ", \"steps_per_op\": " << r.stepsPerOp << "}";
    }
    os << "\n  ]\n}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string text = os.str();
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = written == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace sulong
