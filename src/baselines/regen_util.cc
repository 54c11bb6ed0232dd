#include "baselines/regen_util.hh"

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

} // namespace icp
