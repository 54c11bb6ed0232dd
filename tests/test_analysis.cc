/**
 * @file
 * Tests of the binary-analysis layer: CFG construction, jump-table
 * resolution on all three per-arch idioms, the gap-decoding tail
 * call heuristic, failure injection, liveness, and function-pointer
 * identification (including the Listing-1 +1 pattern).
 */

#include <functional>
#include <optional>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/builder.hh"
#include "analysis/funcptr.hh"
#include "analysis/liveness.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "isa/assembler.hh"

using namespace icp;

namespace
{

const Function &
funcByName(const CfgModule &cfg, const std::string &name)
{
    for (const auto &[entry, func] : cfg.functions) {
        if (func.name == name)
            return func;
    }
    ADD_FAILURE() << "no function " << name;
    static Function dummy;
    return dummy;
}

class CfgPerArch : public ::testing::TestWithParam<Arch>
{
};

std::string
archOnly(const ::testing::TestParamInfo<Arch> &info)
{
    switch (info.param) {
      case Arch::x64: return "x64";
      case Arch::ppc64le: return "ppc64le";
      case Arch::aarch64: return "aarch64";
    }
    return "unknown";
}

constexpr Addr text_base = 0x401000;
constexpr Addr ro_base = 0x402000;

/**
 * An image holding one function: @p emit's code at text_base, under
 * a symbol of @p size bytes (the code's length when unset), with
 * @p rodata at ro_base and, when @p tries is not empty, an .eh_frame
 * record of the function carrying those try ranges.
 */
BinaryImage
oneFunction(Arch arch, const std::function<void(Assembler &)> &emit,
            std::optional<std::uint64_t> size = std::nullopt,
            const std::vector<std::uint8_t> &rodata = {},
            const std::vector<TryRange> &tries = {})
{
    BinaryImage img;
    img.arch = arch;
    img.prefBase = 0x400000;
    img.entry = text_base;
    img.tocBase = 0x500000;

    Assembler as(ArchInfo::get(arch), text_base);
    emit(as);
    Section text;
    text.name = ".text";
    text.kind = SectionKind::text;
    text.addr = text_base;
    text.bytes = as.finalize();
    text.memSize = text.bytes.size();
    text.executable = true;
    const std::uint64_t code_size = text.bytes.size();
    img.sections.push_back(std::move(text));

    Section ro;
    ro.name = ".rodata";
    ro.kind = SectionKind::rodata;
    ro.addr = ro_base;
    ro.bytes = rodata;
    ro.memSize = std::max<std::uint64_t>(rodata.size(), 1);
    img.sections.push_back(std::move(ro));

    const std::uint64_t func_size = size.value_or(code_size);
    if (!tries.empty()) {
        Section eh;
        eh.name = ".eh_frame";
        eh.kind = SectionKind::ehFrame;
        eh.addr = 0x403000;
        img.sections.push_back(std::move(eh));
        FdeRecord fde;
        fde.start = text_base;
        fde.end = text_base + func_size;
        fde.tryRanges = tries;
        img.setFdeRecords({fde});
    }
    img.symbols.push_back(
        {"f", Symbol::Kind::function, text_base, func_size});
    return img;
}

/**
 * @p func's blocks, entry-relative: "[start,end) n=insns -> succs"
 * per block, where a successor is its offset and one letter of its
 * kind (f fall-through, t taken, c call fall-through, j jump table),
 * and flags "end" (endsFunction) and "unresolved".
 */
std::string
blockShape(const Function &func)
{
    std::ostringstream os;
    for (const Block &block : func.blocks) {
        os << "[" << block.start - func.entry << ","
           << block.end - func.entry << ") n=" << block.insns.size();
        for (const Edge &e : func.succsOf(block)) {
            static const char kinds[] = {'f', 't', 'c', 'j'};
            os << " " << e.target - func.entry
               << kinds[static_cast<int>(e.kind)];
        }
        if (block.endsFunction)
            os << " end";
        if (block.endsInUnresolvedIndirect)
            os << " unresolved";
        os << "; ";
    }
    return os.str();
}

/** The single function of @p img, built without the cache. */
Function
buildOne(const BinaryImage &img)
{
    AnalysisOptions opts;
    opts.useCache = false;
    const CfgModule cfg = buildCfg(img, opts);
    EXPECT_EQ(cfg.functions.size(), 1u);
    return cfg.functions.empty() ? Function{} : *cfg.functions[0].fn;
}

} // namespace

TEST_P(CfgPerArch, MicroCfgResolvesJumpTables)
{
    const BinaryImage img =
        compileProgram(microProfile(GetParam(), false));
    const CfgModule cfg = buildCfg(img);
    ASSERT_EQ(cfg.totalFunctions(), 6u);
    EXPECT_EQ(cfg.instrumentableFunctions(), 6u);

    const Function &sw = funcByName(cfg, "switcher");
    ASSERT_EQ(sw.jumpTables.size(), 1u);
    const JumpTable &jt = sw.jumpTables.front();
    EXPECT_EQ(jt.entryCount, 8u);
    EXPECT_EQ(jt.targets.size(), 8u);
    // Every target is a block inside the function.
    for (Addr t : jt.targets) {
        EXPECT_GE(t, sw.entry);
        EXPECT_LT(t, sw.end);
        EXPECT_NE(sw.blockIndex(t), Function::no_block) << std::hex << t;
    }
    if (GetParam() == Arch::ppc64le)
        EXPECT_TRUE(jt.embeddedInCode);
    else
        EXPECT_FALSE(jt.embeddedInCode);
    EXPECT_FALSE(jt.baseDefAddrs.empty());
}

TEST_P(CfgPerArch, IndirectTailCallHeuristic)
{
    const BinaryImage img =
        compileProgram(microProfile(GetParam(), false));

    // With the heuristic, the tail-calling worker is instrumentable.
    const CfgModule ours = buildCfg(img);
    const Function &worker = funcByName(ours, "worker");
    EXPECT_TRUE(worker.instrumentable());
    EXPECT_EQ(worker.indirectTailCalls.size(), 1u);

    // SRBI (no heuristic) marks it uninstrumentable.
    AnalysisOptions srbi;
    srbi.tailCallHeuristic = false;
    const CfgModule theirs = buildCfg(img, srbi);
    EXPECT_FALSE(funcByName(theirs, "worker").instrumentable());
}

TEST_P(CfgPerArch, LandingPadsAreBlocks)
{
    const BinaryImage img =
        compileProgram(microProfile(GetParam(), false));
    const CfgModule cfg = buildCfg(img);
    const Function &catcher = funcByName(cfg, "catcher");
    ASSERT_EQ(catcher.landingPads.size(), 1u);
    for (Addr lp : catcher.landingPads)
        EXPECT_NE(catcher.blockIndex(lp), Function::no_block);
}

TEST_P(CfgPerArch, CopiedAndMovedFunctionsUseTheirOwnArrays)
{
    // Blocks hold index ranges into their Function's arrays, never
    // pointers: a copy and a moved-to Function each resolve blocks,
    // last instructions and liveness against their own arrays, which
    // outlive the Function they came from.
    const BinaryImage img =
        compileProgram(microProfile(GetParam(), false));
    const CfgModule cfg = buildCfg(img);
    const Function &orig = funcByName(cfg, "switcher");
    ASSERT_GT(orig.blocks.size(), 4u);
    EXPECT_EQ(orig.liveness.liveIn.size(),
              ArchInfo::get(GetParam()).fixedLength ? orig.blocks.size()
                                                    : 0u);

    std::optional<Function> source = orig;
    const Function copy = *source;
    const Function moved = std::move(*source);
    source.reset();
    for (const Function *f : {&copy, &moved}) {
        SCOPED_TRACE(f == &copy ? "copy" : "moved");
        EXPECT_NE(f->insns.data(), orig.insns.data());
        EXPECT_NE(f->blocks.data(), orig.blocks.data());
        ASSERT_EQ(f->blocks.size(), orig.blocks.size());
        for (std::size_t b = 0; b < orig.blocks.size(); ++b) {
            const Block &want = orig.blocks[b];
            const Block *got = f->blockAt(want.end - 1);
            ASSERT_EQ(got, &f->blocks[b]);
            EXPECT_EQ(f->blockAt(want.start), got);
            EXPECT_EQ(f->blockIndex(want.start), b);
            const Instruction &last = f->last(*got);
            EXPECT_EQ(&last,
                      &f->insns[got->insns.first + got->insns.count - 1]);
            EXPECT_EQ(last.addr, orig.last(want).addr);
            EXPECT_EQ(last.op, orig.last(want).op);
            EXPECT_EQ(f->liveAtBlockStart(want.start),
                      orig.liveAtBlockStart(want.start));
            EXPECT_EQ(f->deadRegAt(want.start), orig.deadRegAt(want.start));
            for (const Edge &e : f->succsOf(*got))
                EXPECT_GE(&e, f->edges.data());
        }
        EXPECT_EQ(f->blockAt(orig.entry - 1), nullptr);
    }
}

TEST_P(CfgPerArch, BlocksBindAsStartAndBlock)
{
    // A loop over Function::blocks may bind each one as
    // [start, block], as over blocks keyed by start; the benchmark
    // harness counts instructions that way.
    const BinaryImage img =
        compileProgram(microProfile(GetParam(), false));
    const CfgModule cfg = buildCfg(img);
    const Function &f = funcByName(cfg, "switcher");
    std::size_t insns = 0;
    for (const auto &[start, block] : f.blocks) {
        EXPECT_EQ(start, block.start);
        insns += block.insns.size();
    }
    EXPECT_EQ(insns, f.insns.size());
}

TEST_P(CfgPerArch, LivenessFindsScratchSomewhere)
{
    const BinaryImage img =
        compileProgram(microProfile(GetParam(), false));
    const CfgModule cfg = buildCfg(img);
    const auto &arch = ArchInfo::get(GetParam());
    unsigned with_dead = 0, total = 0;
    for (const auto &[entry, func] : cfg.functions) {
        const LivenessResult live = computeLiveness(func, arch);
        for (std::size_t b = 0; b < func.blocks.size(); ++b) {
            ++total;
            if (live.deadRegAt(b) != Reg::none)
                ++with_dead;
        }
    }
    EXPECT_GT(total, 10u);
    EXPECT_GT(with_dead, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllArches, CfgPerArch,
                         ::testing::Values(Arch::x64, Arch::ppc64le,
                                           Arch::aarch64),
                         archOnly);

TEST(JumpTableFailures, HardSwitchFailsAnalysis)
{
    auto spec = microProfile(Arch::x64, false);
    spec.funcs[1].switches[0].hard = true;
    const BinaryImage img = compileProgram(spec);
    const CfgModule cfg = buildCfg(img);
    const Function &sw = funcByName(cfg, "switcher");
    EXPECT_FALSE(sw.instrumentable());
    EXPECT_EQ(sw.failure, AnalysisFailure::gapsWithRealCode);
    EXPECT_TRUE(sw.jumpTables.empty());
}

TEST(JumpTableFailures, InjectedFailureReducesCoverage)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    AnalysisOptions opts;
    opts.inject.failProb = 1.0;
    const CfgModule cfg = buildCfg(img, opts);
    EXPECT_LT(cfg.instrumentableFunctions(), cfg.totalFunctions());
}

TEST(JumpTableFailures, OverApproxClampedAtSectionEnd)
{
    // With no slack after the table, Assumption-2 trimming absorbs
    // the injected over-approximation entirely.
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    AnalysisOptions opts;
    opts.inject.overProb = 1.0;
    opts.inject.overExtra = 64;
    const CfgModule over = buildCfg(img, opts);
    const auto &jt = funcByName(over, "switcher").jumpTables.front();
    EXPECT_EQ(jt.entryCount, 8u);
}

TEST(JumpTableFailures, InjectedOverApproxAddsTargets)
{
    auto spec = microProfile(Arch::x64, false);
    spec.rodataPadding = 4096; // slack the trimming cannot use
    const BinaryImage img = compileProgram(spec);
    AnalysisOptions opts;
    opts.inject.overProb = 1.0;
    opts.inject.overExtra = 4;
    const CfgModule over = buildCfg(img, opts);
    const CfgModule base = buildCfg(img);
    const auto &jt_over =
        funcByName(over, "switcher").jumpTables.front();
    const auto &jt_base =
        funcByName(base, "switcher").jumpTables.front();
    EXPECT_GT(jt_over.entryCount, jt_base.entryCount);
    // Still instrumentable: over-approximation is tolerated.
    EXPECT_TRUE(funcByName(over, "switcher").instrumentable());
}

TEST(JumpTableFailures, InjectedUnderApproxDropsTargets)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    AnalysisOptions opts;
    opts.inject.underProb = 1.0;
    opts.inject.underCut = 3;
    const CfgModule under = buildCfg(img, opts);
    const auto &jt = funcByName(under, "switcher").jumpTables.front();
    EXPECT_EQ(jt.entryCount, 5u);
}

TEST(FuncPtrAnalysis, FindsTableCellsAndCompares)
{
    // Non-PIE: absolute data cells + code immediates.
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img);
    const auto fp = analyzeFuncPtrs(cfg);
    unsigned cells = 0, imms = 0;
    for (const auto &def : fp.defs) {
        if (def.kind == FuncPtrDef::Kind::dataCell)
            ++cells;
        else
            ++imms;
    }
    EXPECT_GT(cells, 0u);
    EXPECT_GT(imms, 0u); // the x == &f comparison's immediate
}

TEST(FuncPtrAnalysis, PieUsesRelocsAndPcRel)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, true));
    const CfgModule cfg = buildCfg(img);
    const auto fp = analyzeFuncPtrs(cfg);
    bool any_reloc = false, any_pcrel = false;
    for (const auto &def : fp.defs) {
        if (def.hasReloc)
            any_reloc = true;
        if (def.kind == FuncPtrDef::Kind::codePcRel)
            any_pcrel = true;
    }
    EXPECT_TRUE(any_reloc);
    EXPECT_TRUE(any_pcrel);
}

TEST(FuncPtrAnalysis, ListingOnePlusOneDelta)
{
    const BinaryImage img = compileProgram(dockerProfile());
    const CfgModule cfg = buildCfg(img);
    const auto fp = analyzeFuncPtrs(cfg);
    bool found_plus_one = false;
    for (const auto &def : fp.defs) {
        if (def.delta == 1)
            found_plus_one = true;
    }
    EXPECT_TRUE(found_plus_one);
    // Go vtab cells stay unclassified (the func-ptr-mode hazard).
    EXPECT_GT(fp.unclassifiedRelocs, 0u);
}

TEST(CfgSuite, SpecSuiteCoverageShape)
{
    // x64: everything instrumentable with our heuristic; SRBI loses
    // tail-call functions. ppc64le: hard switches stay failed.
    for (Arch arch : {Arch::x64, Arch::ppc64le}) {
        unsigned ours_fail = 0, srbi_fail = 0, total = 0;
        for (const auto &spec : specCpuSuite(arch, false)) {
            const BinaryImage img = compileProgram(spec);
            const CfgModule ours = buildCfg(img);
            AnalysisOptions srbi_opts;
            srbi_opts.tailCallHeuristic = false;
            const CfgModule srbi = buildCfg(img, srbi_opts);
            total += ours.totalFunctions();
            ours_fail +=
                ours.totalFunctions() - ours.instrumentableFunctions();
            srbi_fail +=
                srbi.totalFunctions() - srbi.instrumentableFunctions();
        }
        EXPECT_GE(srbi_fail, ours_fail) << archName(arch);
        if (arch == Arch::x64) {
            EXPECT_EQ(ours_fail, 0u);
            EXPECT_GT(srbi_fail, 0u);
        } else {
            EXPECT_GT(ours_fail, 0u);
        }
        EXPECT_GT(total, 500u);
    }
}

// --- Builder edge cases ----------------------------------------------------
//
// Hand-assembled functions whose blocks are pinned exactly: a leader
// no instruction starts at is dropped, never a block of its own.

TEST(BuilderEdges, BranchIntoTheMiddleOfAnInstructionDropsTheLeader)
{
    // The jcc aims two bytes into the 10-byte movimm, at a zero
    // immediate byte: nothing decodes there, so no block starts
    // there, and the taken edge keeps its target.
    const BinaryImage img = oneFunction(Arch::x64, [](Assembler &as) {
        as.emit(makeMovImm(Reg::r1, 0));
        as.emit(makeCmpImm(Reg::r1, 0));
        as.emit(makeJmpCond(Cond::eq, text_base + 2));
        as.emit(makeRet());
    });
    const Function f = buildOne(img);
    EXPECT_TRUE(f.instrumentable());
    EXPECT_EQ(blockShape(f), "[0,22) n=3 2t 22f; [22,23) n=1 end; ");
}

TEST(BuilderEdges, JumpTableTargetsMisalignedAndAtTheEnd)
{
    // aarch64 (4-byte instructions): entries 0 and 1 reach the two
    // cases, entry 2 is two bytes into case 1 and entry 3 is the
    // function's end. Neither of the last two becomes a block or a
    // jump-table edge; the table keeps all four targets.
    const Addr f0 = text_base;
    std::vector<std::uint8_t> table;
    for (Addr t : {f0 + 24, f0 + 28, f0 + 30, f0 + 32}) {
        const auto v = static_cast<std::uint32_t>(t - ro_base);
        for (int i = 0; i < 4; ++i)
            table.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    const BinaryImage img = oneFunction(
        Arch::aarch64,
        [&](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 4));
            as.emit(makeJmpCond(Cond::ge, f0 + 24));
            as.emit(makeLea(Reg::r2, ro_base));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 4, 0, true));
            as.emit(makeAdd(Reg::r3, Reg::r2));
            as.emit(makeJmpInd(Reg::r3));
            as.emit(makeRet());
            as.emit(makeRet());
        },
        std::nullopt, table);
    const Function f = buildOne(img);
    EXPECT_TRUE(f.instrumentable());
    ASSERT_EQ(f.jumpTables.size(), 1u);
    EXPECT_EQ(f.jumpTables[0].targets,
              (std::vector<Addr>{f0 + 24, f0 + 28, f0 + 30, f0 + 32}));
    EXPECT_EQ(blockShape(f), "[0,8) n=2 24t 8f; [8,24) n=4 24j 28j; "
                             "[24,28) n=1 end; [28,32) n=1 end; ");
}

TEST(BuilderEdges, JumpTableTargetSplitsADecodedBlock)
{
    // The jcc's default block (two nops and a ret) is decoded before
    // the table is resolved; entry 1 lands on its second nop. Nothing
    // new decodes there, yet the block must split at the new leader.
    const Addr dflt = text_base + 29; // after the 29-byte dispatch
    std::vector<std::uint8_t> table;
    for (Addr t : {dflt, dflt + 1}) {
        const auto v = static_cast<std::uint32_t>(t - ro_base);
        for (int i = 0; i < 4; ++i)
            table.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    const BinaryImage img = oneFunction(
        Arch::x64,
        [&](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 2));
            as.emit(makeJmpCond(Cond::ge, dflt));
            as.emit(makeLea(Reg::r2, ro_base));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 4, 0, true));
            as.emit(makeAdd(Reg::r3, Reg::r2));
            as.emit(makeJmpInd(Reg::r3));
            ASSERT_EQ(as.here(), dflt);
            as.emit(makeNop());
            as.emit(makeNop());
            as.emit(makeRet());
        },
        std::nullopt, table);
    const Function f = buildOne(img);
    EXPECT_TRUE(f.instrumentable());
    ASSERT_EQ(f.jumpTables.size(), 1u);
    EXPECT_EQ(blockShape(f), "[0,12) n=2 29t 12f; [12,29) n=4 29j 30j; "
                             "[29,30) n=1 30f; [30,32) n=2 end; ");
}

TEST(BuilderEdges, LandingPadWhereNoInstructionStarts)
{
    // Landing pads two and three bytes into a movimm: at +2 the
    // immediate's first byte (0x01) decodes as a nop, which runs
    // into a zero byte, so that pad is a one-nop block overlapping
    // the movimm; at +3 nothing decodes, so there is no block.
    const BinaryImage img = oneFunction(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeMovImm(Reg::r1, 1));
            as.emit(makeRet());
        },
        std::nullopt, {}, {{0, 10, 2}, {0, 10, 3}});
    const Function f = buildOne(img);
    EXPECT_EQ(f.landingPads,
              (std::set<Addr>{text_base + 2, text_base + 3}));
    EXPECT_EQ(blockShape(f), "[0,11) n=2 end; [2,3) n=1 3f; ");
}

TEST(BuilderEdges, LastInstructionRunningPastTheSymbol)
{
    // The symbol ends one byte into the addimm: it does not decode,
    // so the block stops after the nop and falls through to the
    // symbol's last byte.
    const BinaryImage img = oneFunction(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeNop());
            as.emit(makeAddImm(Reg::r1, 1));
            as.emit(makeRet());
        },
        2);
    const Function f = buildOne(img);
    EXPECT_EQ(f.end, text_base + 2);
    EXPECT_EQ(blockShape(f), "[0,1) n=1 1f; ");
}

TEST(BuilderEdges, ZeroSizeSymbolHasNoBlocks)
{
    const BinaryImage img = oneFunction(
        Arch::x64, [](Assembler &as) { as.emit(makeRet()); }, 0);
    const Function f = buildOne(img);
    EXPECT_EQ(f.entry, text_base);
    EXPECT_EQ(f.end, text_base);
    EXPECT_TRUE(f.blocks.empty());
    EXPECT_TRUE(f.instrumentable());
}
