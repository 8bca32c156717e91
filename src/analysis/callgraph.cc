#include "analysis/callgraph.h"

#include <algorithm>

#include "ir/clone.h"
#include "ir/instruction.h"

namespace sulong
{

namespace
{

/** Scalar-kind compatibility for indirect-call candidate matching:
 *  widths are allowed to differ (mini-C promotes freely), but an int
 *  cannot stand in for a pointer or a float. */
bool
kindCompatible(const Type *a, const Type *b)
{
    if (a == nullptr || b == nullptr)
        return true;
    if (a->isVoid() || b->isVoid())
        return true;
    if (a->isInteger() && b->isInteger())
        return true;
    if (a->isFloat() && b->isFloat())
        return true;
    if (a->isPointer() && b->isPointer())
        return true;
    return a == b;
}

/** Can @p fn be the target of @p call, judged by shape alone? */
bool
callCompatible(const Instruction &call, const Function &fn)
{
    size_t args = call.numOperands() == 0 ? 0 : call.numOperands() - 1;
    const Type *fnType = fn.fnType();
    size_t params = fnType->paramTypes().size();
    if (fnType->isVarArg()) {
        if (args < params)
            return false;
    } else if (args != params) {
        return false;
    }
    for (size_t i = 0; i < params; i++) {
        if (!kindCompatible(call.operand(i + 1)->type(),
                            fnType->paramTypes()[i]))
            return false;
    }
    return kindCompatible(call.type(), fnType->returnType());
}

/** Collect every function named by @p init (transitively). */
void
collectInitFunctions(const Initializer &init, std::vector<bool> &taken)
{
    if (init.kind == Initializer::Kind::functionRef &&
        init.function != nullptr)
        taken[init.function->id()] = true;
    for (const Initializer &elem : init.elems)
        collectInitFunctions(elem, taken);
}

} // namespace

CallGraph
CallGraph::build(const Module &module,
                 const std::function<bool(const Function &)> &include)
{
    CallGraph graph;
    graph.module_ = &module;
    graph.nodes_.resize(module.functions().size());
    graph.addressTaken_.assign(module.functions().size(), false);

    for (const auto &fn : module.functions()) {
        if (fn->isDeclaration() || (include && !include(*fn)))
            continue;
        graph.nodes_[fn->id()].fn = fn;
        graph.functionCount_++;
    }

    // Address-taken pass: a function is a potential indirect-call target
    // when it appears as a non-callee operand of any instruction, or in
    // a global initializer. A linked library marked its bodies' own once.
    for (const auto &global : module.globals())
        collectInitFunctions(global->init(), graph.addressTaken_);
    if (const SharedLibrary *library = module.library()) {
        for (unsigned id = 0; id < library->numFunctions(); id++) {
            const Function *fn = module.functionById(id);
            if (fn->isDeclaration() || module.owns(*fn))
                continue;
            for (unsigned taken : library->addressTaken(id))
                graph.addressTaken_[taken] = true;
        }
    }
    for (const auto &fn : module.ownFunctions()) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                size_t first = inst->op() == Opcode::call ? 1 : 0;
                for (size_t i = first; i < inst->numOperands(); i++) {
                    const Value *operand = inst->operand(i);
                    if (operand->valueKind() != ValueKind::function)
                        continue;
                    unsigned id =
                        static_cast<const Function *>(operand)->id();
                    graph.addressTaken_[id] = true;
                }
            }
        }
    }

    // Edge pass, over the functions in the graph.
    for (const auto &fn : module.functions()) {
        Node &node = graph.nodes_[fn->id()];
        if (node.fn == nullptr)
            continue;
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->op() != Opcode::call)
                    continue;
                std::vector<const Function *> targets =
                    graph.mayCall(*inst);
                if (targets.empty() &&
                    dynamic_cast<const Function *>(
                        inst->numOperands() ? inst->operand(0)
                                            : nullptr) == nullptr)
                    node.hasUnresolvedIndirect = true;
                for (const Function *target : targets)
                    if (graph.nodes_[target->id()].fn != nullptr)
                        node.callees.push_back(target->id());
            }
        }
        std::sort(node.callees.begin(), node.callees.end());
        node.callees.erase(std::unique(node.callees.begin(),
                                       node.callees.end()),
                           node.callees.end());
    }
    return graph;
}

std::vector<const Function *>
CallGraph::mayCall(const Instruction &call) const
{
    std::vector<const Function *> out;
    if (call.numOperands() == 0)
        return out;
    const auto *direct = dynamic_cast<const Function *>(call.operand(0));
    if (direct != nullptr) {
        out.push_back(direct);
        return out;
    }
    // Indirect: every address-taken definition the call could be typed
    // against. Declarations are excluded — a summary cannot be computed
    // for them, and the analyzer havocs unknown targets anyway.
    for (const auto &fn : module_->functions()) {
        if (fn->isDeclaration() || !addressTaken_[fn->id()])
            continue;
        if (callCompatible(call, *fn))
            out.push_back(fn);
    }
    return out;
}

SccInfo
condense(const CallGraph &graph)
{
    // Iterative Tarjan. Emission order is callee-first (bottom-up),
    // which is exactly the summary-computation order.
    const size_t n = graph.size();
    SccInfo info;
    info.sccOf.assign(n, SccInfo::kNoScc);

    std::vector<unsigned> index(n, 0), lowlink(n, 0);
    std::vector<bool> visited(n, false), onStack(n, false);
    std::vector<unsigned> stack;
    unsigned counter = 0;

    struct Frame
    {
        unsigned v;
        size_t child;
    };
    std::vector<Frame> work;

    for (unsigned root = 0; root < n; root++) {
        if (visited[root] || graph.node(root).fn == nullptr)
            continue;
        work.push_back({root, 0});
        while (!work.empty()) {
            Frame &frame = work.back();
            unsigned v = frame.v;
            if (frame.child == 0) {
                visited[v] = true;
                index[v] = lowlink[v] = counter++;
                stack.push_back(v);
                onStack[v] = true;
            }
            const auto &callees = graph.node(v).callees;
            if (frame.child < callees.size()) {
                unsigned w = callees[frame.child++];
                if (!visited[w])
                    work.push_back({w, 0});
                else if (onStack[w])
                    lowlink[v] = std::min(lowlink[v], index[w]);
                continue;
            }
            if (lowlink[v] == index[v]) {
                Scc scc;
                unsigned w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    info.sccOf[w] =
                        static_cast<unsigned>(info.sccs.size());
                    scc.members.push_back(w);
                } while (w != v);
                std::sort(scc.members.begin(), scc.members.end());
                info.sccs.push_back(std::move(scc));
            }
            work.pop_back();
            if (!work.empty()) {
                Frame &parent = work.back();
                lowlink[parent.v] =
                    std::min(lowlink[parent.v], lowlink[v]);
            }
        }
    }

    // Depth + recursiveness. Tarjan emitted callees before callers, so
    // one forward pass over the emission order sees every callee SCC's
    // depth before it is needed.
    for (unsigned s = 0; s < info.sccs.size(); s++) {
        Scc &scc = info.sccs[s];
        scc.recursive = scc.members.size() > 1;
        for (unsigned member : scc.members) {
            for (unsigned callee : graph.node(member).callees) {
                unsigned calleeScc = info.sccOf[callee];
                if (calleeScc == s) {
                    scc.recursive = true;
                    continue;
                }
                scc.depth = std::max(scc.depth,
                                     info.sccs[calleeScc].depth + 1);
            }
        }
        info.maxDepth = std::max(info.maxDepth, scc.depth);
    }
    return info;
}

} // namespace sulong
