#include "analysis/finding.h"

#include <sstream>

#include "support/error.h"

namespace sulong
{

const char *
confidenceName(Confidence confidence)
{
    switch (confidence) {
      case Confidence::maybe:
        return "maybe";
      case Confidence::definite:
        return "definite";
    }
    return "invalid";
}

std::string
StaticFinding::toString() const
{
    std::ostringstream os;
    os << "[" << confidenceName(confidence) << "] "
       << errorKindName(kind) << " in " << function;
    if (loc.valid())
        os << " (" << loc.toString() << ")";
    else
        os << " (block " << blockIndex << ", inst " << instIndex << ")";
    os << ": " << detail;
    if (replayConfirmed)
        os << " [replay-confirmed]";
    if (!pathCondition.empty())
        os << "\n    under: " << pathCondition;
    return os.str();
}

unsigned
AnalysisReport::definiteCount() const
{
    unsigned n = 0;
    for (const StaticFinding &f : findings)
        if (f.confidence == Confidence::definite)
            n++;
    return n;
}

unsigned
AnalysisReport::maybeCount() const
{
    return static_cast<unsigned>(findings.size()) - definiteCount();
}

std::vector<StaticFinding>
AnalysisReport::byConfidence(Confidence confidence) const
{
    std::vector<StaticFinding> out;
    for (const StaticFinding &f : findings)
        if (f.confidence == confidence)
            out.push_back(f);
    return out;
}

std::string
AnalysisReport::toString() const
{
    std::ostringstream os;
    for (Confidence tier : {Confidence::definite, Confidence::maybe}) {
        for (const StaticFinding &f : findings)
            if (f.confidence == tier)
                os << f.toString() << "\n";
    }
    os << "analysis: " << definiteCount() << " definite, " << maybeCount()
       << " maybe across " << functionsAnalyzed << " function(s)";
    if (incomplete)
        os << " (incomplete: a fixpoint was abandoned)";
    if (replayRan)
        os << "; replay: " << replayOutcome;
    return os.str();
}

} // namespace sulong
