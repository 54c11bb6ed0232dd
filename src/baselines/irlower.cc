#include "baselines/irlower.hh"

#include "analysis/builder.hh"
#include "baselines/regen_util.hh"
#include "rewrite/engine.hh"
#include "support/logging.hh"

namespace icp
{

RewriteResult
irLowerRewrite(const BinaryImage &input,
               const InstrumentationSpec &instrumentation)
{
    RewriteResult result;

    // The documented metadata limits of the IR-lowering tools.
    if (!input.pie) {
        result.failReason = "requires PIE (runtime relocations)";
        return result;
    }
    if (input.features.cppExceptions) {
        result.failReason = "C++ exceptions unsupported";
        return result;
    }
    if (input.features.isGo) {
        result.failReason = "Go metadata and stack unwinding "
                            "unsupported";
        return result;
    }
    if (input.features.rustMetadata) {
        result.failReason = "Rust metadata unsupported";
        return result;
    }
    if (input.features.symbolVersioning) {
        result.failReason = "symbol versioning unsupported";
        return result;
    }

    const CfgModule cfg = buildCfg(input, AnalysisOptions{});
    result.stats.totalFunctions = cfg.totalFunctions();
    result.stats.instrumentableFunctions =
        cfg.instrumentableFunctions();
    result.stats.originalLoadedSize = input.loadedSize();

    // All-or-nothing: one unanalyzable function fails the binary.
    std::vector<const Function *> order;
    for (const auto &[entry, func] : cfg.functions) {
        if (!func.instrumentable()) {
            result.failReason =
                "analysis failed for function " + func.name;
            return result;
        }
        order.push_back(&func);
    }
    result.stats.instrumentedFunctions =
        static_cast<unsigned>(order.size());

    BinaryImage out = input;
    Section *old_text = out.findSection(SectionKind::text);
    icp_assert(old_text, "no .text");

    EngineConfig config;
    config.mode = RewriteMode::funcPtr;
    config.instrumentation = instrumentation;
    config.instrBase = input.highWaterMark(4096);
    config.newRodataBase = config.instrBase +
                           old_text->memSize * 4 + 0x10000;
    config.functionAlign = 4; // compacted layout (binary optimizer)

    // Remove the original code entirely; the regenerated code is
    // the new .text.
    Engine engine(input, config);
    old_text->addr = config.instrBase;
    std::optional<std::vector<std::uint8_t>> code =
        engine.relocate(order, result.failReason);
    if (!code)
        return result;
    old_text->bytes = std::move(*code);
    old_text->memSize = old_text->bytes.size();

    std::optional<std::vector<std::uint8_t>> rodata =
        engine.cloneBytes(result.failReason);
    if (!rodata)
        return result;
    if (!rodata->empty()) {
        Section ro;
        ro.name = ".newrodata";
        ro.kind = SectionKind::newRodata;
        ro.addr = config.newRodataBase;
        ro.memSize = rodata->size();
        ro.bytes = std::move(*rodata);
        out.addSection(std::move(ro));
    }

    // Rewrite every function-pointer definition (the all-rewritten
    // property that gives IR lowering its zero-overhead profile).
    result.stats.rewrittenFuncPtrs =
        rewriteRegeneratedFuncPtrs(out, cfg, engine);
    relocateFunctionSymbols(out, engine);

    // Regenerate unwind records for the new layout (BOLT-style
    // "update DWARF"; trivial here because the qualifying binaries
    // have no try ranges).
    std::vector<FdeRecord> new_fdes;
    for (const auto &fde : input.fdeRecords()) {
        const std::optional<Addr> start = engine.lookupBlock(fde.start);
        if (!start)
            continue;
        FdeRecord updated = fde;
        updated.start = *start;
        // Conservative extent: four times the original.
        updated.end = *start + (fde.end - fde.start) * 4;
        new_fdes.push_back(updated);
    }
    out.setFdeRecords(new_fdes);

    // New entry point: the relocated main.
    const std::optional<Addr> entry = engine.lookupBlock(input.entry);
    icp_assert(entry.has_value(), "entry missing");
    out.entry = *entry;

    result.stats.rewrittenLoadedSize = out.loadedSize();
    result.blockCounters = engine.blockCounters();
    result.entryCounters = engine.entryCounters();
    result.image = std::move(out);
    result.ok = true;
    return result;
}

} // namespace icp
