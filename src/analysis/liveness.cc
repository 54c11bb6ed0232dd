#include "analysis/liveness.hh"

#include <algorithm>
#include <vector>

#include "analysis/cfg.hh"

namespace icp
{

namespace
{

RegSet
allRegs()
{
    RegSet set;
    for (unsigned r = 0; r < num_regs; ++r)
        set.add(static_cast<Reg>(r));
    return set;
}

} // namespace

RegSet
LivenessResult::liveAt(std::size_t index) const
{
    return index < liveIn.size() ? liveIn[index] : allRegs();
}

Reg
LivenessResult::deadRegAt(std::size_t index) const
{
    const RegSet live = liveAt(index);
    for (unsigned r = 0; r < num_gp_regs; ++r) {
        const Reg reg = static_cast<Reg>(r);
        if (!live.contains(reg))
            return reg;
    }
    return Reg::none;
}

LivenessResult
computeLiveness(const Function &func, const ArchInfo &arch)
{
    // Block-local def/use summaries, by block index; each block's
    // successors are its range of func.edges, mapped to block indices.
    struct Summary
    {
        RegSet use; ///< read before any write
        RegSet def; ///< written
        bool leaves = false; ///< some path leaves the function
    };
    // The synthetic ABI: r0 return value, r1 argument, r6/r8/r9
    // callee-saved; everything else is clobbered by a call.
    RegSet callerClobbered;
    for (unsigned r = 0; r < num_gp_regs; ++r) {
        const Reg reg = static_cast<Reg>(r);
        if (reg != Reg::r6 && reg != Reg::r8 && reg != Reg::r9)
            callerClobbered.add(reg);
    }

    std::vector<Summary> summaries(func.blocks.size());
    std::vector<std::size_t> succ(func.edges.size(), Function::no_block);
    for (std::size_t b = 0; b < func.blocks.size(); ++b) {
        const Block &block = func.blocks[b];
        Summary &s = summaries[b];
        for (const auto &in : func.insnsOf(block)) {
            RegSet reads = regsRead(in, arch);
            if (isCall(in.op)) {
                reads.add(Reg::r1);
                reads.add(Reg::sp);
            }
            reads -= s.def;
            s.use |= reads;
            s.def |= regsWritten(in, arch);
            if (isCall(in.op))
                s.def |= callerClobbered;
        }
        // Live-out seed: blocks leaving the function (returns, tail
        // calls, unresolved indirect flow, edges out of the
        // function) treat everything as live.
        s.leaves = block.endsFunction || block.endsInUnresolvedIndirect ||
                   block.succs.empty();
        for (std::uint32_t e = block.succs.first;
             e < block.succs.first + block.succs.count; ++e) {
            succ[e] = func.blockIndex(func.edges[e].target);
            if (succ[e] == Function::no_block)
                s.leaves = true;
        }
    }

    // Fixpoint (reverse order helps convergence). A block not yet
    // visited contributes nothing to its predecessors' live-out.
    LivenessResult result;
    std::vector<RegSet> &live = result.liveIn;
    live.resize(summaries.size());
    bool changed = true;
    unsigned rounds = 0;
    while (changed && rounds++ < 64) {
        changed = false;
        for (std::size_t i = summaries.size(); i-- > 0;) {
            const Summary &s = summaries[i];
            const Block &block = func.blocks[i];
            RegSet in = s.leaves ? allRegs() : RegSet{};
            for (std::uint32_t e = block.succs.first;
                 e < block.succs.first + block.succs.count; ++e) {
                if (succ[e] != Function::no_block)
                    in |= live[succ[e]];
            }
            in -= s.def;
            in |= s.use;
            if (rounds == 1 || !(in == live[i])) {
                live[i] = in;
                changed = true;
            }
        }
    }
    return result;
}

} // namespace icp
