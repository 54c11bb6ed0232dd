/**
 * @file
 * CFG structural-invariant property tests, swept across every
 * workload of the suite on every ISA:
 *
 *  - blocks are disjoint and lie inside their function;
 *  - every edge targets a block start of the same function;
 *  - instruction streams tile their blocks exactly;
 *  - resolved jump-table targets are case-block starts;
 *  - bytes not covered by blocks are nop padding or embedded table
 *    data in instrumentable functions;
 *  - liveness sets are consistent with a simple transfer-function
 *    recomputation.
 */

#include <gtest/gtest.h>

#include "analysis/builder.hh"
#include "analysis/liveness.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"

using namespace icp;

namespace
{

class CfgProps : public ::testing::TestWithParam<Arch>
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

} // namespace

TEST_P(CfgProps, BlocksTileAndEdgesResolve)
{
    const auto suite = specCpuSuite(GetParam(), false);
    for (unsigned b = 0; b < suite.size(); b += 3) {
        const BinaryImage img = compileProgram(suite[b]);
        const CfgModule cfg = buildCfg(img, AnalysisOptions{});
        for (const auto &[entry, func] : cfg.functions) {
            Addr prev_end = 0;
            for (const Block &block : func.blocks) {
                const Addr start = block.start;
                // Inside the function, disjoint, ordered.
                ASSERT_GE(start, func.entry);
                ASSERT_LE(block.end, func.end);
                ASSERT_GE(start, prev_end);
                prev_end = block.end;

                // Instructions tile the block exactly.
                Addr cursor = start;
                for (const auto &in : func.insnsOf(block)) {
                    ASSERT_EQ(in.addr, cursor);
                    cursor += in.length;
                }
                ASSERT_EQ(cursor, block.end);

                // Edges target block starts of this function.
                for (const auto &edge : func.succsOf(block)) {
                    ASSERT_NE(func.blockIndex(edge.target),
                              Function::no_block)
                        << func.name << " edge to " << std::hex
                        << edge.target;
                }
            }
        }
    }
}

TEST_P(CfgProps, JumpTableTargetsAreCaseBlocks)
{
    const auto suite = specCpuSuite(GetParam(), false);
    const BinaryImage img = compileProgram(suite[1]); // switch-heavy
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    unsigned tables = 0;
    for (const auto &[entry, func] : cfg.functions) {
        for (const auto &jt : func.jumpTables) {
            ++tables;
            EXPECT_GT(jt.entryCount, 0u);
            EXPECT_EQ(jt.targets.size(), jt.entryCount);
            for (Addr t : jt.targets) {
                EXPECT_NE(func.blockIndex(t), Function::no_block)
                    << func.name << " target " << std::hex << t;
            }
            EXPECT_FALSE(jt.baseDefAddrs.empty());
            // The base defs live in the same function.
            for (Addr d : jt.baseDefAddrs) {
                EXPECT_NE(func.blockAt(d), nullptr);
            }
        }
    }
    EXPECT_GT(tables, 10u);
}

TEST_P(CfgProps, UncoveredBytesAreNopsOrTableData)
{
    const auto &arch = ArchInfo::get(GetParam());
    const auto suite = specCpuSuite(GetParam(), false);
    const BinaryImage img = compileProgram(suite[0]);
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    for (const auto &[entry, func] : cfg.functions) {
        if (!func.instrumentable())
            continue;
        // Collect covered ranges: blocks + embedded tables.
        std::vector<std::pair<Addr, Addr>> covered;
        for (const Block &block : func.blocks)
            covered.emplace_back(block.start, block.end);
        for (const auto &jt : func.jumpTables) {
            if (jt.embeddedInCode) {
                covered.emplace_back(
                    jt.tableAddr,
                    jt.tableAddr +
                        std::uint64_t{jt.entryCount} * jt.entrySize);
            }
        }
        std::sort(covered.begin(), covered.end());
        Addr cursor = func.entry;
        for (const auto &[lo, hi] : covered) {
            while (cursor < lo) {
                std::vector<std::uint8_t> bytes;
                ASSERT_TRUE(img.readBytes(cursor, arch.maxInstrLen,
                                          bytes) ||
                            img.readBytes(cursor, 1, bytes));
                Instruction in;
                ASSERT_TRUE(arch.codec->decode(
                    bytes.data(), bytes.size(), cursor, in))
                    << func.name << " gap at " << std::hex << cursor;
                ASSERT_EQ(in.op, Opcode::Nop)
                    << func.name << " gap at " << std::hex << cursor;
                cursor += in.length;
            }
            cursor = std::max(cursor, hi);
        }
    }
}

TEST_P(CfgProps, LivenessIsAFixpoint)
{
    const auto &arch = ArchInfo::get(GetParam());
    const BinaryImage img =
        compileProgram(microProfile(GetParam(), false));
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    for (const auto &[entry, func] : cfg.functions) {
        const LivenessResult live = computeLiveness(func, arch);
        for (std::size_t b = 0; b < func.blocks.size(); ++b) {
            const Block &block = func.blocks[b];
            // Recompute in = use ∪ (out − def) from scratch and
            // compare against the analysis' fixpoint.
            RegSet out;
            bool all_live = block.endsFunction ||
                            block.endsInUnresolvedIndirect ||
                            block.succs.empty();
            if (all_live) {
                for (unsigned r = 0; r < num_regs; ++r)
                    out.add(static_cast<Reg>(r));
            }
            for (const auto &edge : func.succsOf(block))
                out |= live.liveAt(func.blockIndex(edge.target));

            RegSet in = out;
            const auto insns = func.insnsOf(block);
            for (auto it = insns.rbegin(); it != insns.rend(); ++it) {
                in -= regsWritten(*it, arch);
                if (isCall(it->op)) {
                    // Calls clobber caller-saved registers.
                    for (unsigned r = 0; r < num_gp_regs; ++r) {
                        const Reg reg = static_cast<Reg>(r);
                        if (reg != Reg::r6 && reg != Reg::r8 &&
                            reg != Reg::r9)
                            in.remove(reg);
                    }
                }
                in |= regsRead(*it, arch);
                if (isCall(it->op)) {
                    in.add(Reg::r1);
                    in.add(Reg::sp);
                }
            }
            EXPECT_EQ(in.raw(), live.liveAt(b).raw())
                << func.name << " block " << std::hex << block.start;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllArches, CfgProps,
                         ::testing::Values(Arch::x64, Arch::ppc64le,
                                           Arch::aarch64),
                         archOnly);
