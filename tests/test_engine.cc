/**
 * @file
 * Relocation-engine unit tests on hand-built functions: RA-map pair
 * recording, veneers for out-of-range returns to original space,
 * fall-through repair under block reordering, jump-table clone
 * contents, and aarch64 entry widening.
 */

#include <gtest/gtest.h>

#include "analysis/builder.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/engine.hh"

using namespace icp;

namespace
{

/** Decode the instruction stream of an engine result. */
std::vector<Instruction>
decodeAll(const ArchInfo &arch, const std::vector<std::uint8_t> &bytes,
          Addr base)
{
    std::vector<Instruction> out;
    Addr at = base;
    while (at < base + bytes.size()) {
        Instruction in;
        if (!arch.codec->decode(bytes.data() + (at - base),
                                bytes.size() - (at - base), at, in))
            break;
        out.push_back(in);
        at += in.length;
    }
    return out;
}

unsigned
countOp(const std::vector<Instruction> &insns, Opcode op)
{
    unsigned n = 0;
    for (const auto &in : insns)
        n += in.op == op;
    return n;
}

EngineConfig
baseConfig(const BinaryImage &img)
{
    EngineConfig config;
    config.mode = RewriteMode::jt;
    config.instrBase = img.highWaterMark(4096);
    config.newRodataBase = config.instrBase + 0x400000;
    return config;
}

std::vector<const Function *>
allFunctions(const CfgModule &cfg)
{
    std::vector<const Function *> all;
    for (const auto &[entry, func] : cfg.functions) {
        if (func.instrumentable())
            all.push_back(&func);
    }
    return all;
}

/** engine.relocate(@p funcs), failing the test if it cannot encode. */
std::vector<std::uint8_t>
relocated(Engine &engine, const std::vector<const Function *> &funcs)
{
    std::string error;
    std::optional<std::vector<std::uint8_t>> bytes =
        engine.relocate(funcs, error);
    if (!bytes) {
        ADD_FAILURE() << error;
        return {};
    }
    return std::move(*bytes);
}

} // namespace

TEST(Engine, RaPairsCoverCallsAndThrows)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    Engine engine(img, baseConfig(img));
    relocated(engine, allFunctions(cfg));

    // Count call sites + throw sites in the CFG; every one must
    // have an RA pair, keyed at a relocated address and mapping to
    // an original address inside the owning function.
    unsigned expected = 0;
    for (const auto &[entry, func] : cfg.functions) {
        for (const auto &in : func.insns)
            expected += isCall(in.op) || in.op == Opcode::Throw;
    }
    EXPECT_EQ(engine.raPairs().size(), expected);
    for (const auto &[reloc, orig] : engine.raPairs()) {
        EXPECT_GE(reloc, baseConfig(img).instrBase);
        EXPECT_NE(img.functionContaining(orig), nullptr);
    }
}

TEST(Engine, CallEmulationEmitsNoRaPairs)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    config.callEmulation = true;
    Engine engine(img, config);
    const std::vector<std::uint8_t> bytes =
        relocated(engine, allFunctions(cfg));
    EXPECT_TRUE(engine.raPairs().empty());

    // Emulated calls materialize return addresses pc-relatively:
    // Lea + Push replace the Call on x64.
    const auto insns =
        decodeAll(ArchInfo::get(Arch::x64), bytes, config.instrBase);
    EXPECT_EQ(countOp(insns, Opcode::Call), 0u);
    EXPECT_GT(countOp(insns, Opcode::Push), 0u);
    EXPECT_GT(countOp(insns, Opcode::ThrowRa), 0u);
    EXPECT_EQ(countOp(insns, Opcode::Throw), 0u);
}

TEST(Engine, VeneersForFarReturnsToOriginalSpace)
{
    // ppc64le with a 40 MB rodata blob: calls from .instr back to
    // non-relocated functions exceed ±32 MB and need r13 veneers.
    const auto suite = specCpuSuite(Arch::ppc64le, false);
    const BinaryImage img = compileProgram(suite[1]); // big gcc
    AnalysisOptions aopts;
    const CfgModule cfg = buildCfg(img, aopts);

    // Relocate only half the functions so cross-space calls exist.
    std::vector<const Function *> half = allFunctions(cfg);
    half.resize(std::min<std::size_t>(half.size(), 30));
    Engine engine(img, baseConfig(img));
    const auto insns = decodeAll(ArchInfo::get(Arch::ppc64le),
                                 relocated(engine, half),
                                 baseConfig(img).instrBase);
    // Veneer signature: AddisToc r13 followed by CallInd/JmpInd r13.
    bool veneer = false;
    for (std::size_t i = 0; i + 2 < insns.size(); ++i) {
        if (insns[i].op == Opcode::AddisToc &&
            insns[i].rd == Reg::r13 &&
            insns[i + 1].op == Opcode::AddImm &&
            (insns[i + 2].op == Opcode::CallInd ||
             insns[i + 2].op == Opcode::JmpInd) &&
            insns[i + 2].rs1 == Reg::r13) {
            veneer = true;
            break;
        }
    }
    EXPECT_TRUE(veneer);
}

TEST(Engine, BlockReorderRepairsFallthrough)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    config.blockOrder = OrderPolicy::reversed;
    Engine reversed(img, config);
    const auto reversed_bytes = relocated(reversed, allFunctions(cfg));
    Engine normal(img, baseConfig(img));
    const auto normal_bytes = relocated(normal, allFunctions(cfg));

    // Reversal forces explicit jumps where layout fall-through died.
    const auto &arch = ArchInfo::get(Arch::x64);
    const unsigned jumps_reversed = countOp(
        decodeAll(arch, reversed_bytes, config.instrBase), Opcode::Jmp);
    const unsigned jumps_normal = countOp(
        decodeAll(arch, normal_bytes, config.instrBase), Opcode::Jmp);
    EXPECT_GT(jumps_reversed, jumps_normal);

    // Entry blocks stay first so callers land correctly.
    for (const auto &[entry, func] : cfg.functions) {
        const std::optional<Addr> at = reversed.lookupBlock(entry);
        ASSERT_TRUE(at.has_value());
        for (const Block &block : func.blocks)
            EXPECT_GE(*reversed.lookupBlock(block.start), *at);
    }
}

TEST(Engine, CloneEntriesResolveToRelocatedBlocks)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    Engine engine(img, config);
    relocated(engine, allFunctions(cfg));
    std::string error;
    const std::vector<std::uint8_t> rodata =
        engine.cloneBytes(error).value();
    ASSERT_FALSE(engine.clones().empty());

    for (const auto &clone : engine.clones()) {
        const JumpTable &jt = clone.table;
        for (unsigned i = 0; i < jt.entryCount; ++i) {
            const Offset off = clone.cloneAddr -
                               config.newRodataBase +
                               std::uint64_t{i} * clone.entrySize;
            std::int64_t value = 0;
            for (unsigned b = clone.entrySize; b-- > 0;) {
                value = (value << 8) | rodata[off + b];
            }
            if (clone.entrySize == 4)
                value = static_cast<std::int32_t>(value);
            const Addr target = jt.base
                ? static_cast<Addr>(
                      static_cast<std::int64_t>(clone.cloneAddr) +
                      (value << jt.shift))
                : static_cast<Addr>(value);
            // Every real entry lands on a relocated block start.
            bool found = false;
            for (const auto &[orig, reloc] : engine.blockMap())
                found |= reloc == target;
            EXPECT_TRUE(found) << "entry " << i;
        }
    }
}

TEST(Engine, A64SubWordTablesWidenAndStaySigned)
{
    auto spec = microProfile(Arch::aarch64, false);
    spec.funcs[1].switches[0].entrySize = 1;
    spec.funcs[1].switches[0].cases = 4;
    const BinaryImage img = compileProgram(spec);
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    EngineConfig config = baseConfig(img);
    Engine engine(img, config);
    const auto bytes = relocated(engine, allFunctions(cfg));
    ASSERT_EQ(engine.clones().size(), 1u);
    EXPECT_TRUE(engine.clones()[0].widened);
    EXPECT_EQ(engine.clones()[0].entrySize, 4u);

    // The relocated table-entry load reads 4 signed bytes now.
    const auto insns =
        decodeAll(ArchInfo::get(Arch::aarch64), bytes, config.instrBase);
    bool widened_load = false;
    for (const auto &in : insns) {
        if (in.op == Opcode::LoadIdx && in.memSize == 4 &&
            in.signedLoad)
            widened_load = true;
    }
    EXPECT_TRUE(widened_load);
}

TEST(Engine, InsnMapCoversEveryRelocatedInstruction)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::ppc64le, false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    Engine engine(img, baseConfig(img));
    relocated(engine, allFunctions(cfg));
    for (const auto &[entry, func] : cfg.functions) {
        for (const Block &block : func.blocks) {
            for (const auto &in : func.insnsOf(block)) {
                ASSERT_TRUE(engine.lookupInsn(in.addr).has_value())
                    << std::hex << in.addr;
            }
            ASSERT_TRUE(engine.lookupBlock(block.start).has_value());
            // The block's first instruction relocates at or after
            // the block map entry (snippets come first).
            EXPECT_GE(*engine.lookupInsn(func.insnsOf(block)[0].addr),
                      *engine.lookupBlock(block.start));
        }
    }
}
