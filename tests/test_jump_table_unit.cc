/**
 * @file
 * Direct unit tests of the jump-table analyzer on hand-assembled
 * blocks: field-level checks of the recovered table descriptor for
 * each per-arch idiom, and the precise failure conditions (memory
 * spill, missing bound, unknown base).
 */

#include <functional>

#include <gtest/gtest.h>

#include "analysis/jump_table.hh"
#include "isa/assembler.hh"

using namespace icp;

namespace
{

constexpr Addr text_base = 0x401000;
constexpr Addr table_base = 0x402000;

/** Build a one-function image from two block emitters. */
struct TestBed
{
    BinaryImage img;
    std::vector<Instruction> guard;  ///< block ending in the bounds check
    std::vector<Instruction> jumper; ///< block ending in the indirect jump
};

TestBed
makeBed(Arch arch,
        const std::function<void(Assembler &)> &emit_guard,
        const std::function<void(Assembler &)> &emit_jumper,
        const std::vector<std::uint8_t> &table_bytes)
{
    TestBed bed;
    bed.img.arch = arch;
    bed.img.prefBase = 0x400000;
    bed.img.entry = text_base;
    bed.img.tocBase = 0x500000;

    const ArchInfo &arch_info = ArchInfo::get(arch);
    Assembler guard_as(arch_info, text_base);
    emit_guard(guard_as);
    const auto guard_bytes = guard_as.finalize();

    const Addr jumper_at = text_base + guard_bytes.size();
    Assembler jmp_as(arch_info, jumper_at);
    emit_jumper(jmp_as);
    const auto jmp_bytes = jmp_as.finalize();

    Section text;
    text.name = ".text";
    text.kind = SectionKind::text;
    text.addr = text_base;
    text.bytes = guard_bytes;
    text.bytes.insert(text.bytes.end(), jmp_bytes.begin(),
                      jmp_bytes.end());
    text.memSize = text.bytes.size();
    text.executable = true;
    bed.img.sections.push_back(std::move(text));

    Section ro;
    ro.name = ".rodata";
    ro.kind = SectionKind::rodata;
    ro.addr = table_base;
    ro.bytes = table_bytes;
    ro.memSize = ro.bytes.size();
    bed.img.sections.push_back(std::move(ro));

    // Decode the two blocks back (what the CFG builder would hand
    // the analyzer).
    auto decodeBlock = [&](Addr at, std::size_t len) {
        std::vector<Instruction> block;
        Addr cursor = at;
        while (cursor < at + len) {
            std::vector<std::uint8_t> buf;
            bed.img.readBytes(cursor, arch_info.maxInstrLen, buf) ||
                bed.img.readBytes(cursor, at + len - cursor, buf);
            Instruction in;
            EXPECT_TRUE(arch_info.codec->decode(
                buf.data(), buf.size(), cursor, in));
            block.push_back(in);
            cursor += in.length;
        }
        return block;
    };
    bed.guard = decodeBlock(text_base, guard_bytes.size());
    bed.jumper = decodeBlock(jumper_at, jmp_bytes.size());
    return bed;
}

std::vector<std::uint8_t>
words32(const std::vector<std::uint32_t> &values)
{
    std::vector<std::uint8_t> out;
    for (std::uint32_t v : values) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    return out;
}

} // namespace

TEST(JumpTableUnit, X64RelativeIdiom)
{
    const TestBed bed = makeBed(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 4));
            as.emit(makeJmpCond(Cond::ge, 0x401800));
        },
        [](Assembler &as) {
            as.emit(makeLea(Reg::r2, table_base));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 4, 0,
                                true));
            as.emit(makeAdd(Reg::r3, Reg::r2));
            as.emit(makeJmpInd(Reg::r3));
        },
        words32({0x100, 0x110, 0x120, 0x130}));

    JumpTableAnalyzer analyzer(bed.img, {});
    auto jt = analyzer.analyze(bed.jumper, bed.guard);
    ASSERT_TRUE(jt.has_value());
    EXPECT_EQ(jt->tableAddr, table_base);
    EXPECT_EQ(jt->entrySize, 4u);
    EXPECT_TRUE(jt->signedEntries);
    EXPECT_EQ(jt->shift, 0u);
    ASSERT_TRUE(jt->base.has_value());
    EXPECT_EQ(*jt->base, table_base);
    EXPECT_EQ(jt->entryCount, 4u);
    ASSERT_EQ(jt->targets.size(), 4u);
    EXPECT_EQ(jt->targets[0], table_base + 0x100);
    EXPECT_EQ(jt->targets[3], table_base + 0x130);
    EXPECT_FALSE(jt->embeddedInCode);
    ASSERT_EQ(jt->baseDefAddrs.size(), 1u); // the Lea
}

TEST(JumpTableUnit, X64AbsoluteIdiom)
{
    std::vector<std::uint8_t> table;
    for (std::uint64_t t : {0x401100ULL, 0x401140ULL}) {
        for (int i = 0; i < 8; ++i)
            table.push_back(static_cast<std::uint8_t>(t >> (8 * i)));
    }
    const TestBed bed = makeBed(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 2));
            as.emit(makeJmpCond(Cond::ge, 0x401800));
        },
        [](Assembler &as) {
            as.emit(makeMovImm(Reg::r2, table_base));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 8));
            as.emit(makeJmpInd(Reg::r3));
        },
        table);

    JumpTableAnalyzer analyzer(bed.img, {});
    auto jt = analyzer.analyze(bed.jumper, bed.guard);
    ASSERT_TRUE(jt.has_value());
    EXPECT_FALSE(jt->base.has_value()); // absolute entries
    EXPECT_EQ(jt->entrySize, 8u);
    ASSERT_EQ(jt->targets.size(), 2u);
    EXPECT_EQ(jt->targets[0], 0x401100u);
    EXPECT_EQ(jt->targets[1], 0x401140u);
}

TEST(JumpTableUnit, A64AnchorRelativeWithShift)
{
    const TestBed bed = makeBed(
        Arch::aarch64,
        [](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 3));
            as.emit(makeJmpCond(Cond::ge, 0x401800));
        },
        [](Assembler &as) {
            // adrp/add pair to the table, 2-byte unsigned entries,
            // anchor = the instruction after the jump.
            as.emit(makeAdrPage(Reg::r2, table_base));
            as.emit(makeAddImm(Reg::r2, table_base & 0xffff));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 2));
            as.emit(makeLea(Reg::r4, 0x401040)); // anchor
            as.emit(makeShlImm(Reg::r3, 2));
            as.emit(makeAdd(Reg::r3, Reg::r4));
            as.emit(makeJmpInd(Reg::r3));
        },
        {4, 0, 8, 0, 12, 0});

    JumpTableAnalyzer analyzer(bed.img, {});
    auto jt = analyzer.analyze(bed.jumper, bed.guard);
    ASSERT_TRUE(jt.has_value());
    EXPECT_EQ(jt->entrySize, 2u);
    EXPECT_EQ(jt->shift, 2u);
    ASSERT_TRUE(jt->base.has_value());
    EXPECT_EQ(*jt->base, 0x401040u); // the anchor, not the table
    ASSERT_EQ(jt->targets.size(), 3u);
    EXPECT_EQ(jt->targets[0], 0x401040u + (4u << 2));
    ASSERT_EQ(jt->baseDefAddrs.size(), 2u); // adrp + add pair
}

TEST(JumpTableUnit, SpillThroughMemoryFails)
{
    const TestBed bed = makeBed(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 4));
            as.emit(makeJmpCond(Cond::ge, 0x401800));
        },
        [](Assembler &as) {
            as.emit(makeLea(Reg::r2, table_base));
            as.emit(makeStore(Reg::sp, -16, Reg::r2));
            as.emit(makeXor(Reg::r2, Reg::r2));
            as.emit(makeLoad(Reg::r2, Reg::sp, -16)); // kills slice
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 4, 0,
                                true));
            as.emit(makeAdd(Reg::r3, Reg::r2));
            as.emit(makeJmpInd(Reg::r3));
        },
        words32({0, 0, 0, 0}));

    JumpTableAnalyzer analyzer(bed.img, {});
    EXPECT_FALSE(
        analyzer.analyze(bed.jumper, bed.guard).has_value());
}

TEST(JumpTableUnit, MissingBoundFails)
{
    const TestBed bed = makeBed(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeNop()); // no CmpImm on the index register
        },
        [](Assembler &as) {
            as.emit(makeLea(Reg::r2, table_base));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 4, 0,
                                true));
            as.emit(makeAdd(Reg::r3, Reg::r2));
            as.emit(makeJmpInd(Reg::r3));
        },
        words32({0, 0}));

    JumpTableAnalyzer analyzer(bed.img, {});
    EXPECT_FALSE(
        analyzer.analyze(bed.jumper, bed.guard).has_value());
    // And with no predecessor at all.
    EXPECT_FALSE(analyzer.analyze(bed.jumper, {}).has_value());
}

TEST(JumpTableUnit, BoundClampedAtSectionEnd)
{
    // Guard claims 64 entries but the section only holds 4.
    const TestBed bed = makeBed(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 64));
            as.emit(makeJmpCond(Cond::ge, 0x401800));
        },
        [](Assembler &as) {
            as.emit(makeLea(Reg::r2, table_base));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 4, 0,
                                true));
            as.emit(makeAdd(Reg::r3, Reg::r2));
            as.emit(makeJmpInd(Reg::r3));
        },
        words32({8, 16, 24, 32}));

    JumpTableAnalyzer analyzer(bed.img, {});
    auto jt = analyzer.analyze(bed.jumper, bed.guard);
    ASSERT_TRUE(jt.has_value());
    EXPECT_EQ(jt->entryCount, 4u); // Assumption-2 trimming
}

TEST(JumpTableUnit, IndexRegisterRedefinitionBreaksBound)
{
    // The bound compares r7, but r7 is rewritten before the block
    // ends — the association must not survive.
    const TestBed bed = makeBed(
        Arch::x64,
        [](Assembler &as) {
            as.emit(makeCmpImm(Reg::r7, 4));
            as.emit(makeMovImm(Reg::r7, 1)); // clobbers the index
            as.emit(makeJmpCond(Cond::ge, 0x401800));
        },
        [](Assembler &as) {
            as.emit(makeLea(Reg::r2, table_base));
            as.emit(makeLoadIdx(Reg::r3, Reg::r2, Reg::r7, 4, 0,
                                true));
            as.emit(makeAdd(Reg::r3, Reg::r2));
            as.emit(makeJmpInd(Reg::r3));
        },
        words32({0, 0, 0, 0}));

    JumpTableAnalyzer analyzer(bed.img, {});
    EXPECT_FALSE(
        analyzer.analyze(bed.jumper, bed.guard).has_value());
}
