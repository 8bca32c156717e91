/**
 * @file
 * Whole-program call graph with Tarjan SCC condensation.
 *
 * The interprocedural layer's scheduling backbone: direct calls are
 * resolved exactly from the IR; indirect calls (through function
 * pointers) conservatively may-call every *address-taken* function whose
 * type is compatible with the call site. Tarjan's algorithm condenses
 * the graph into strongly connected components emitted callee-first
 * (bottom-up), and each SCC is assigned a depth — the longest path from
 * the leaves — so that SCCs at the same depth are pairwise unreachable
 * from one another and can be summarized in parallel.
 */

#ifndef MS_ANALYSIS_CALLGRAPH_H
#define MS_ANALYSIS_CALLGRAPH_H

#include <functional>
#include <vector>

#include "ir/module.h"

namespace sulong
{

/**
 * The may-call graph of one Module, nodes indexed by Function::id().
 * The graph covers the definitions its builder selects (the analyzer's
 * analyzable ones); every other function keeps an empty node.
 */
class CallGraph
{
  public:
    struct Node
    {
        /// The function, or null when it is not in the graph.
        const Function *fn = nullptr;
        /// Callee function ids in the graph, deduplicated, in ascending
        /// id order.
        std::vector<unsigned> callees;
        /// True when the function contains an indirect call for which no
        /// type-compatible address-taken candidate exists: the call can
        /// reach code the graph does not model.
        bool hasUnresolvedIndirect = false;
    };

    /**
     * Build the graph over the definitions of @p module that @p include
     * accepts (every definition when it is empty). Calls into functions
     * outside the graph add no edge; may-call sets and address-taken
     * marks still consider every definition of the module.
     */
    static CallGraph
    build(const Module &module,
          const std::function<bool(const Function &)> &include = {});

    const std::vector<Node> &nodes() const { return nodes_; }
    const Node &node(unsigned fn_id) const { return nodes_[fn_id]; }
    /// Node slots: one per module function, in or out of the graph.
    size_t size() const { return nodes_.size(); }
    /// Functions in the graph.
    size_t functionCount() const { return functionCount_; }

    /**
     * The functions a call instruction may invoke, in ascending id
     * order. Direct calls yield exactly the callee; indirect calls
     * yield every address-taken definition whose type is compatible
     * with the call site (argument count matching modulo varargs,
     * scalar-kind-compatible parameter and return types). An empty
     * result means the target is entirely unknown.
     */
    std::vector<const Function *> mayCall(const Instruction &call) const;

    /** True when @p fn has its address taken (stored, passed, or named
     *  in a global initializer) and may therefore be an indirect-call
     *  target. */
    bool addressTaken(const Function &fn) const
    {
        return addressTaken_[fn.id()];
    }

  private:
    const Module *module_ = nullptr;
    std::vector<Node> nodes_;
    std::vector<bool> addressTaken_;
    size_t functionCount_ = 0;
};

/** One strongly connected component of the call graph. */
struct Scc
{
    /// Member function ids, ascending.
    std::vector<unsigned> members;
    /// Longest path (in SCC-DAG edges) from a leaf SCC to this one.
    /// All SCCs of equal depth are pairwise unreachable.
    unsigned depth = 0;
    /// True for multi-member SCCs and single functions that call
    /// themselves: their summaries need a fixpoint iteration.
    bool recursive = false;
};

/** The condensation of a CallGraph, SCCs in bottom-up (callee-first)
 *  order as Tarjan emits them. Only functions in the graph are in an
 *  SCC. */
struct SccInfo
{
    static constexpr unsigned kNoScc = ~0u;

    std::vector<Scc> sccs;
    /// Function id -> index into sccs (kNoScc outside the graph).
    std::vector<unsigned> sccOf;
    /// Largest depth value present (0 for an empty graph).
    unsigned maxDepth = 0;
};

/** Condense @p graph with Tarjan's algorithm. */
SccInfo condense(const CallGraph &graph);

} // namespace sulong

#endif // MS_ANALYSIS_CALLGRAPH_H
