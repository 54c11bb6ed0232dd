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
LivenessResult::liveAtBlockStart(Addr block_start) const
{
    auto it = liveIn.find(block_start);
    return it == liveIn.end() ? allRegs() : it->second;
}

Reg
LivenessResult::deadRegAt(Addr block_start) const
{
    const RegSet live = liveAtBlockStart(block_start);
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
    // Block-local def/use summaries and successors, by block ordinal
    // (address order).
    struct Summary
    {
        RegSet use; ///< read before any write
        RegSet def; ///< written
        bool leaves = false; ///< some path leaves the function
        std::vector<std::size_t> succs;
    };
    // The synthetic ABI: r0 return value, r1 argument, r6/r8/r9
    // callee-saved; everything else is clobbered by a call.
    RegSet callerClobbered;
    for (unsigned r = 0; r < num_gp_regs; ++r) {
        const Reg reg = static_cast<Reg>(r);
        if (reg != Reg::r6 && reg != Reg::r8 && reg != Reg::r9)
            callerClobbered.add(reg);
    }

    std::vector<Addr> starts;
    starts.reserve(func.blocks.size());
    for (const auto &[start, block] : func.blocks)
        starts.push_back(start);
    std::vector<Summary> summaries;
    summaries.reserve(func.blocks.size());
    for (const auto &[start, block] : func.blocks) {
        Summary s;
        for (const auto &in : block.insns) {
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
        for (const auto &edge : block.succs) {
            auto it =
                std::lower_bound(starts.begin(), starts.end(), edge.target);
            if (it == starts.end() || *it != edge.target)
                s.leaves = true;
            else
                s.succs.push_back(
                    static_cast<std::size_t>(it - starts.begin()));
        }
        summaries.push_back(std::move(s));
    }

    // Fixpoint (reverse order helps convergence). A block not yet
    // visited contributes nothing to its predecessors' live-out.
    std::vector<RegSet> live(summaries.size());
    bool changed = true;
    unsigned rounds = 0;
    while (changed && rounds++ < 64) {
        changed = false;
        for (std::size_t i = summaries.size(); i-- > 0;) {
            const Summary &s = summaries[i];
            RegSet in = s.leaves ? allRegs() : RegSet{};
            for (std::size_t succ : s.succs)
                in |= live[succ];
            in -= s.def;
            in |= s.use;
            if (rounds == 1 || !(in == live[i])) {
                live[i] = in;
                changed = true;
            }
        }
    }

    LivenessResult result;
    std::size_t i = 0;
    for (const auto &[start, block] : func.blocks)
        result.liveIn.emplace_hint(result.liveIn.end(), start, live[i++]);
    return result;
}

} // namespace icp
