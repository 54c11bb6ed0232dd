#include "baselines/boltlike.hh"

#include <algorithm>

#include "analysis/builder.hh"
#include "baselines/regen_util.hh"
#include "rewrite/engine.hh"
#include "support/logging.hh"

namespace icp
{

BoltOutcome
boltRewrite(const BinaryImage &input, BoltOperation op)
{
    BoltOutcome outcome;

    if (op == BoltOperation::reorderFunctions &&
        input.linkRelocs.empty()) {
        // Emitted even for PIE/shared objects with runtime
        // relocations present (§8.3).
        outcome.error =
            "BOLT-ERROR: function reordering only works when "
            "relocations are enabled";
        return outcome;
    }

    const CfgModule cfg = buildCfg(input, AnalysisOptions{});
    std::vector<const Function *> order;
    for (const auto &[entry, func] : cfg.functions) {
        if (!func.instrumentable()) {
            outcome.error = "cannot analyze " + func.name;
            return outcome;
        }
        order.push_back(&func);
    }
    if (op == BoltOperation::reorderFunctions)
        std::reverse(order.begin(), order.end());

    const Section *text = input.findSection(SectionKind::text);
    icp_assert(text, "no .text");

    EngineConfig config;
    config.mode = RewriteMode::funcPtr;
    config.instrBase = input.highWaterMark(4096);
    config.newRodataBase =
        config.instrBase + text->memSize * 4 + 0x10000;
    config.functionAlign = 16;
    config.blockOrder = op == BoltOperation::reorderBlocks
        ? OrderPolicy::reversed
        : OrderPolicy::original;

    Engine engine(input, config);
    BinaryImage out = input;
    Section *old_text = out.findSection(SectionKind::text);
    old_text->addr = config.instrBase;
    std::optional<std::vector<std::uint8_t>> code =
        engine.relocate(order, outcome.error);
    if (!code)
        return outcome;
    old_text->bytes = std::move(*code);
    old_text->memSize = old_text->bytes.size();
    std::optional<std::vector<std::uint8_t>> rodata =
        engine.cloneBytes(outcome.error);
    if (!rodata)
        return outcome;
    if (!rodata->empty()) {
        Section ro;
        ro.name = ".newrodata";
        ro.kind = SectionKind::newRodata;
        ro.addr = config.newRodataBase;
        ro.memSize = rodata->size();
        ro.bytes = std::move(*rodata);
        out.addSection(std::move(ro));
    }
    rewriteRegeneratedFuncPtrs(out, cfg, engine);
    relocateFunctionSymbols(out, engine);

    const std::optional<Addr> entry = engine.lookupBlock(input.entry);
    icp_assert(entry.has_value(), "entry missing");
    out.entry = *entry;

    outcome.ok = true;
    outcome.image = std::move(out);

    // The modeled metadata corruption (bad .interp): block
    // reordering broke 10 of 19 SPEC binaries in the paper's run.
    if (op == BoltOperation::reorderBlocks &&
        (input.features.cppExceptions ||
         input.features.fortranComponent)) {
        outcome.corrupted = true;
        outcome.image.entry = 0; // unloadable analog
    }
    return outcome;
}

} // namespace icp
