#include "baselines/regen_util.hh"

#include <algorithm>

namespace icp
{

std::uint64_t
rewriteRegeneratedFuncPtrs(BinaryImage &out, const CfgModule &cfg,
                           const Engine &engine)
{
    // Looked up here, after the caller added its sections: a
    // Section pointer taken before an addSection() dangles.
    Section &new_text = *out.findSection(SectionKind::text);
    const FuncPtrAnalysisResult fps = analyzeFuncPtrs(cfg);
    const RelocIndex relocs(out.relocs);
    std::uint64_t rewritten = 0;
    for (const auto &def : fps.defs) {
        const std::optional<Addr> new_value = funcPtrTarget(def, engine);
        if (!new_value)
            continue;
        if (def.kind == FuncPtrDef::Kind::dataCell) {
            patchFuncPtrCell(out, relocs, def.site, *new_value);
            ++rewritten;
            continue;
        }

        // Code definitions: patch the regenerated instructions.
        bool patched = false;
        for (Addr orig : def.defAddrs) {
            if (const std::optional<Addr> at = engine.lookupInsn(orig)) {
                patched |= patchFuncPtrInsn(out, new_text.bytes,
                                            new_text.addr, *at,
                                            *new_value);
            }
        }
        if (patched)
            ++rewritten;
    }
    return rewritten;
}

void
relocateFunctionSymbols(BinaryImage &out, const Engine &engine)
{
    std::vector<FuncSpan> spans = engine.spans();
    std::sort(spans.begin(), spans.end(),
              [](const FuncSpan &a, const FuncSpan &b) {
                  return a.entry < b.entry;
              });
    for (Symbol &sym : out.symbols) {
        if (sym.kind != Symbol::Kind::function)
            continue;
        auto it = std::lower_bound(
            spans.begin(), spans.end(), sym.addr,
            [](const FuncSpan &s, Addr a) { return s.entry < a; });
        if (it == spans.end() || it->entry != sym.addr)
            continue;
        sym.addr = it->base;
        sym.size = it->size;
    }
}

} // namespace icp
