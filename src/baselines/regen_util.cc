#include "baselines/regen_util.hh"

#include "analysis/funcptr.hh"

namespace icp
{

std::uint64_t
rewriteRegeneratedFuncPtrs(BinaryImage &out, Section &new_text,
                           const CfgModule &cfg,
                           const Engine &engine)
{
    const FuncPtrAnalysisResult fps = analyzeFuncPtrs(cfg);
    std::uint64_t rewritten = 0;

    for (const auto &def : fps.defs) {
        Addr new_value;
        if (def.delta == 0) {
            const std::optional<Addr> at =
                engine.lookupBlock(def.funcEntry);
            if (!at)
                continue;
            new_value = *at;
        } else {
            const std::optional<Addr> at = engine.lookupInsn(
                def.funcEntry + static_cast<Addr>(def.delta));
            if (!at)
                continue;
            new_value = *at - static_cast<Addr>(def.delta);
        }

        if (def.kind == FuncPtrDef::Kind::dataCell) {
            for (auto &rel : out.relocs) {
                if (rel.site == def.site)
                    rel.addend = static_cast<std::int64_t>(new_value);
            }
            std::vector<std::uint8_t> raw;
            for (unsigned b = 0; b < 8; ++b)
                raw.push_back(
                    static_cast<std::uint8_t>(new_value >> (8 * b)));
            out.writeBytes(def.site, raw);
            ++rewritten;
            continue;
        }

        // Code definitions: patch the regenerated instructions.
        bool patched = false;
        for (Addr orig : def.defAddrs) {
            if (const std::optional<Addr> at = engine.lookupInsn(orig)) {
                patched |= patchFuncPtrInsn(out, new_text.bytes,
                                            new_text.addr, *at,
                                            new_value);
            }
        }
        if (patched)
            ++rewritten;
    }
    return rewritten;
}

} // namespace icp
