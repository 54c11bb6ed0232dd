#include "analysis/cfg.hh"

#include <algorithm>

namespace icp
{

const Block *
Function::blockAt(Addr a) const
{
    auto it = blocks.upper_bound(a);
    if (it == blocks.begin())
        return nullptr;
    --it;
    if (a < it->second.end)
        return &it->second;
    return nullptr;
}

Block *
Function::blockAt(Addr a)
{
    return const_cast<Block *>(
        static_cast<const Function *>(this)->blockAt(a));
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
