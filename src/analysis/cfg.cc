#include "analysis/cfg.hh"

#include <algorithm>

namespace icp
{

std::size_t
Function::blockIndex(Addr start) const
{
    auto it = std::lower_bound(
        blocks.begin(), blocks.end(), start,
        [](const Block &b, Addr a) { return b.start < a; });
    return it == blocks.end() || it->start != start
               ? no_block
               : static_cast<std::size_t>(it - blocks.begin());
}

const Block *
Function::blockAt(Addr a) const
{
    auto it = std::upper_bound(
        blocks.begin(), blocks.end(), a,
        [](Addr x, const Block &b) { return x < b.start; });
    if (it == blocks.begin())
        return nullptr;
    --it;
    return a < it->end ? &*it : nullptr;
}

Block *
Function::blockAt(Addr a)
{
    return const_cast<Block *>(
        static_cast<const Function *>(this)->blockAt(a));
}

RegSet
Function::liveAtBlockStart(Addr start) const
{
    return liveness.liveAt(blockIndex(start));
}

Reg
Function::deadRegAt(Addr start) const
{
    return liveness.deadRegAt(blockIndex(start));
}

std::set<Addr>
Function::jumpTableTargets() const
{
    std::set<Addr> targets;
    for (const auto &jt : jumpTables) {
        for (Addr t : jt.targets) {
            if (t >= entry && t < end)
                targets.insert(t);
        }
    }
    return targets;
}

unsigned
CfgModule::instrumentableFunctions() const
{
    unsigned n = 0;
    for (const auto &[addr, func] : functions) {
        if (func.instrumentable())
            ++n;
    }
    return n;
}

const FunctionSlot *
CfgModule::slotAt(Addr entry) const
{
    auto it = std::lower_bound(
        functions.begin(), functions.end(), entry,
        [](const FunctionSlot &s, Addr a) { return s.entry < a; });
    return it == functions.end() || it->entry != entry ? nullptr : &*it;
}

const Function *
CfgModule::functionAt(Addr entry) const
{
    const FunctionSlot *slot = slotAt(entry);
    return slot ? slot->fn.get() : nullptr;
}

} // namespace icp
