#include "baselines/instpatch.hh"

#include "analysis/builder.hh"
#include "binfmt/addr_map.hh"
#include "isa/assembler.hh"
#include "rewrite/scratch.hh"
#include "rewrite/trampoline.hh"
#include "sim/runtime_lib.hh"
#include "support/logging.hh"

namespace icp
{

RewriteResult
instPatchRewrite(const BinaryImage &input,
                 const InstrumentationSpec &instrumentation)
{
    RewriteResult result;
    const ArchInfo &arch = input.archInfo();
    if (arch.arch != Arch::x64) {
        result.failReason = "instruction patching is x86-64 only "
                            "(its tactics depend on the ISA, §2.2)";
        return result;
    }

    const CfgModule cfg = buildCfg(input, AnalysisOptions{});
    result.stats.totalFunctions = cfg.totalFunctions();
    result.stats.instrumentableFunctions =
        cfg.instrumentableFunctions();
    result.stats.originalLoadedSize = input.loadedSize();

    BinaryImage out = input;
    const Addr stub_base = input.highWaterMark(4096);
    Assembler as(arch, stub_base);

    struct PendingTramp
    {
        Addr block;
        std::uint64_t size;
        Assembler::Label stub;
    };
    std::vector<PendingTramp> tramps;
    std::uint32_t next_counter = 0;

    for (const auto &[entry, func] : cfg.functions) {
        if (!func.instrumentable())
            continue;
        result.stats.instrumentedFunctions++;
        for (const Block &block : func.blocks) {
            const Addr start = block.start;
            const auto stub = as.newLabel();
            as.bind(stub);

            if (instrumentation.countFunctionEntries &&
                start == func.entry) {
                const std::uint32_t id = next_counter++;
                result.entryCounters[func.entry] = id;
                as.emit(makeCallRt(
                    rtServiceImm(RtService::count, id)));
            }
            if (instrumentation.countBlocks) {
                const std::uint32_t id = next_counter++;
                result.blockCounters[start] = id;
                as.emit(makeCallRt(
                    rtServiceImm(RtService::count, id)));
            }

            // Copy the block; direct branches re-encode against
            // their original absolute targets. Control leaves the
            // stub straight back into original code.
            for (const auto &in : func.insnsOf(block))
                as.emit(in);
            const Instruction &last = func.last(block);
            const bool falls = !isControlFlow(last.op) ||
                               last.op == Opcode::JmpCond ||
                               isCall(last.op);
            if (falls)
                as.emit(makeJmp(block.end));

            tramps.push_back({start, block.size(), stub});
            result.stats.totalBlocks++;
            result.stats.cflBlocks++; // every block is a landing site
        }
    }

    Section stubs;
    stubs.name = ".instr";
    stubs.kind = SectionKind::instr;
    stubs.addr = stub_base;
    stubs.bytes = as.finalize();
    stubs.memSize = stubs.bytes.size();
    stubs.executable = true;
    out.addSection(std::move(stubs));

    // Install the entry branches. Inter-function padding serves as
    // the punning-analog scratch space.
    ScratchPool pool;
    {
        const auto funcs = input.functionSymbols();
        const Section *text = input.findSection(SectionKind::text);
        Addr cursor = text->addr;
        for (const Symbol *sym : funcs) {
            if (sym->addr > cursor)
                pool.donate(cursor, sym->addr - cursor, 1);
            cursor = std::max(cursor, sym->addr + sym->size);
        }
        if (text->end() > cursor)
            pool.donate(cursor, text->end() - cursor, 1);
    }
    TrampolineWriter writer(arch, input.tocBase, pool, true);
    std::vector<std::pair<Addr, Addr>> trap_entries;
    for (const auto &t : tramps) {
        TrampolineRequest req;
        req.at = t.block;
        req.space = t.size;
        req.target = as.labelAddr(t.stub);
        const TrampolineOut installed = writer.install(req);
        result.stats.trampolines++;
        switch (installed.kind) {
          case TrampolineKind::direct:
            result.stats.directTramps++;
            break;
          case TrampolineKind::multiHop:
            result.stats.multiHopTramps++;
            break;
          case TrampolineKind::trap:
            result.stats.trapTramps++;
            break;
          default:
            result.stats.longTramps++;
            break;
        }
        for (const auto &write : installed.writes) {
            const bool ok = out.writeBytes(write.at, write.bytes);
            icp_assert(ok, "patch write failed");
        }
        for (const auto &te : installed.trapEntries)
            trap_entries.push_back(te);
    }

    {
        AddrPairMap trap_map(trap_entries);
        Section s;
        s.name = ".trap_map";
        s.kind = SectionKind::trapMap;
        s.addr = out.highWaterMark(4096);
        s.bytes = trap_map.serialize();
        s.memSize = s.bytes.size();
        out.addSection(std::move(s));
    }

    result.stats.rewrittenLoadedSize = out.loadedSize();
    result.image = std::move(out);
    result.ok = true;
    return result;
}

} // namespace icp
