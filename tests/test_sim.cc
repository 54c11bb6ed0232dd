/**
 * @file
 * Simulator tests on hand-assembled images: instruction semantics,
 * both call conventions, stack ops, memory faults, lazily mapped
 * memory, trap dispatch
 * through the runtime library, exception unwinding with landing
 * pads, PIE slides with relocations, the i-cache model, and the
 * step limit.
 */

#include <functional>

#include <gtest/gtest.h>

#include "binfmt/addr_map.hh"
#include "isa/assembler.hh"
#include "sim/loader.hh"
#include "sim/machine.hh"

using namespace icp;

namespace
{

constexpr Addr text_base = 0x401000;

/** Build a one-section image from an emission callback. */
BinaryImage
makeImage(Arch arch, const std::function<void(Assembler &)> &emit,
          std::vector<FdeRecord> fdes = {}, bool pie = false)
{
    BinaryImage img;
    img.arch = arch;
    img.pie = pie;
    img.prefBase = 0x400000;
    img.entry = text_base;
    img.tocBase = 0x600000;

    Assembler as(ArchInfo::get(arch), text_base);
    emit(as);

    Section text;
    text.name = ".text";
    text.kind = SectionKind::text;
    text.addr = text_base;
    text.bytes = as.finalize();
    text.memSize = text.bytes.size();
    text.executable = true;
    img.sections.push_back(std::move(text));

    Section data;
    data.name = ".data";
    data.kind = SectionKind::data;
    data.addr = 0x500000;
    data.memSize = 256;
    data.bytes.assign(256, 0);
    data.writable = true;
    img.sections.push_back(std::move(data));

    Section eh;
    eh.name = ".eh_frame";
    eh.kind = SectionKind::ehFrame;
    eh.addr = 0x700000;
    eh.bytes = serializeEhFrame(fdes);
    eh.memSize = eh.bytes.size();
    img.sections.push_back(std::move(eh));

    Symbol sym;
    sym.name = "main";
    sym.addr = text_base;
    sym.size = img.sections[0].memSize;
    img.symbols.push_back(sym);
    return img;
}

RunResult
runIt(const BinaryImage &img, Machine::Config cfg = Machine::Config{},
      const RuntimeLib *rt = nullptr)
{
    auto proc = loadImage(img);
    Machine machine(*proc, cfg);
    if (rt)
        machine.attachRuntimeLib(rt);
    return machine.run();
}

} // namespace

TEST(Sim, ArithmeticChecksum)
{
    for (Arch arch : all_arches) {
        const BinaryImage img = makeImage(arch, [](Assembler &as) {
            as.emitMovImm64(Reg::r0, 40);
            as.emit(makeAddImm(Reg::r0, 2));
            as.emitMovImm64(Reg::r1, 100);
            as.emit(makeXor(Reg::r0, Reg::r1));
            as.emit(makeHalt());
        });
        const RunResult r = runIt(img);
        ASSERT_TRUE(r.halted) << archName(arch);
        EXPECT_EQ(r.checksum, 42u ^ 100u) << archName(arch);
    }
}

TEST(Sim, ShiftCompareAndBranch)
{
    const BinaryImage img = makeImage(Arch::x64, [](Assembler &as) {
        const auto skip = as.newLabel();
        as.emit(makeMovImm(Reg::r0, 5));
        as.emit(makeShlImm(Reg::r0, 2));   // 20
        as.emit(makeCmpImm(Reg::r0, 20));
        as.emitToLabel(makeJmpCond(Cond::eq, 0), skip);
        as.emit(makeMovImm(Reg::r0, 0));   // skipped
        as.bind(skip);
        as.emit(makeHalt());
    });
    const RunResult r = runIt(img);
    EXPECT_EQ(r.checksum, 20u);
}

TEST(Sim, CallRetBothConventions)
{
    for (Arch arch : all_arches) {
        const BinaryImage img = makeImage(arch, [&](Assembler &as) {
            const auto callee = as.newLabel();
            as.emitToLabel(makeCall(0), callee);
            as.emit(makeAddImm(Reg::r0, 1)); // after return
            as.emit(makeHalt());
            as.bind(callee);
            as.emit(makeMovImm(Reg::r0, 10));
            as.emit(makeRet());
        });
        const RunResult r = runIt(img);
        ASSERT_TRUE(r.halted) << archName(arch);
        EXPECT_EQ(r.checksum, 11u) << archName(arch);
    }
}

TEST(Sim, PushPopX64)
{
    const BinaryImage img = makeImage(Arch::x64, [](Assembler &as) {
        as.emit(makeMovImm(Reg::r1, 77));
        as.emit(makePush(Reg::r1));
        as.emit(makePushImm(33));
        as.emit(makePop(Reg::r2));
        as.emit(makePop(Reg::r0));
        as.emit(makeAdd(Reg::r0, Reg::r2));
        as.emit(makeHalt());
    });
    EXPECT_EQ(runIt(img).checksum, 110u);
}

TEST(Sim, MemoryFaultOnUnmapped)
{
    const BinaryImage img = makeImage(Arch::x64, [](Assembler &as) {
        as.emit(makeMovImm(Reg::r1, 0x10)); // unmapped low page
        as.emit(makeLoad(Reg::r0, Reg::r1, 0));
        as.emit(makeHalt());
    });
    const RunResult r = runIt(img);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.fault, FaultKind::badMemory);
}

TEST(Sim, MappedMemoryReadsZeroUntilWritten)
{
    // A 1 TiB mapping costs nothing until written; its untouched
    // pages read as zeros, and the bytes past it still fault.
    Memory mem;
    const Addr base = 0x7000'0000'0000;
    mem.map(base, std::uint64_t{1} << 40);
    std::uint64_t v = 1;
    ASSERT_TRUE(mem.read(base + 0x123456789, 8, v));
    EXPECT_EQ(v, 0u);
    const Addr last = base + (std::uint64_t{1} << 40) - 4;
    ASSERT_TRUE(mem.write(last, 4, 0xdeadbeef));
    ASSERT_TRUE(mem.read(last, 4, v));
    EXPECT_EQ(v, 0xdeadbeefu);
    EXPECT_FALSE(mem.read(last, 8, v));
    EXPECT_FALSE(mem.isMapped(last + 4));

    // A write across the mapping's end changes nothing.
    EXPECT_FALSE(mem.write(last + 2, 4, 0x11223344));
    ASSERT_TRUE(mem.read(last, 4, v));
    EXPECT_EQ(v, 0xdeadbeefu);

    // A block copy across pages, and a peek of an untouched page.
    std::vector<std::uint8_t> block(3 * Memory::page_size + 5);
    for (std::size_t i = 0; i < block.size(); ++i)
        block[i] = static_cast<std::uint8_t>(i * 7);
    mem.writeBlock(0x1ffd, block);
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(mem.readBlock(0x1ffd, block.size(), back));
    EXPECT_EQ(back, block);
    std::size_t avail = 0;
    const std::uint8_t *p = mem.peek(base + 0x10, avail);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(avail, Memory::page_size - 0x10);
    EXPECT_EQ(p[0], 0);

    // A range that wraps the address space maps both ends.
    EXPECT_FALSE(mem.isMapped(0));
    mem.map(~Addr{0} - 0xfff, 0x3000);
    EXPECT_TRUE(mem.isMapped(~Addr{0}));
    EXPECT_TRUE(mem.isMapped(0));
    EXPECT_FALSE(mem.isMapped(0x2000 + block.size() + Memory::page_size));
}

TEST(Sim, TrapWithoutRuntimeLibFaults)
{
    const BinaryImage img = makeImage(Arch::x64, [](Assembler &as) {
        as.emit(makeTrap());
        as.emit(makeHalt());
    });
    const RunResult r = runIt(img);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.fault, FaultKind::trapUnmapped);
}

TEST(Sim, TrapDispatchThroughRuntimeLib)
{
    // trap at entry redirects to the landing code further down.
    BinaryImage img = makeImage(Arch::x64, [](Assembler &as) {
        as.emit(makeTrap());
        as.emit(makeHalt()); // skipped
        as.alignTo(16);
        as.emit(makeMovImm(Reg::r0, 9));
        as.emit(makeHalt());
    });
    const Addr target = text_base + 16;
    AddrPairMap trap_map({{text_base, target}});
    Section s;
    s.name = ".trap_map";
    s.kind = SectionKind::trapMap;
    s.addr = 0x800000;
    s.bytes = trap_map.serialize();
    s.memSize = s.bytes.size();
    img.sections.push_back(std::move(s));

    auto proc = loadImage(img);
    RuntimeLib rt(proc->module);
    Machine machine(*proc, Machine::Config{});
    machine.attachRuntimeLib(&rt);
    const RunResult r = machine.run();
    ASSERT_TRUE(r.halted) << r.describe();
    EXPECT_EQ(r.checksum, 9u);
    EXPECT_EQ(r.traps, 1u);
    // Traps are expensive by design.
    EXPECT_GT(r.cycles, CostModel{}.trap);
}

TEST(Sim, ThrowCaughtByLandingPad)
{
    // main calls thrower inside a try range; landing pad sets r0.
    std::vector<FdeRecord> fdes(2);
    BinaryImage img = makeImage(Arch::x64, [&](Assembler &as) {
        const auto thrower = as.newLabel();
        const auto lp = as.newLabel();
        const auto try_start = as.newLabel();
        // main: frame, call in try range.
        as.emit(makeAddImm(Reg::sp, -48));
        as.bind(try_start);
        as.emitToLabel(makeCall(0), thrower);
        as.emit(makeMovImm(Reg::r0, 1)); // normal path (skipped)
        as.emit(makeHalt());
        as.bind(lp);
        as.emit(makeMovImm(Reg::r0, 55));
        as.emit(makeHalt());
        as.bind(thrower);
        as.emit(makeThrow());

        fdes[0].start = text_base;
        fdes[0].end = as.labelAddr(thrower);
        fdes[0].frameSize = 48;
        fdes[0].raOnStack = true;
        fdes[0].raOffset = 48;
        fdes[0].tryRanges = {
            {as.labelAddr(try_start) - text_base,
             as.labelAddr(lp) - text_base,
             as.labelAddr(lp) - text_base}};
        fdes[1].start = as.labelAddr(thrower);
        fdes[1].end = as.labelAddr(thrower) + 4;
        fdes[1].frameSize = 0;
        fdes[1].raOnStack = true;
        fdes[1].raOffset = 0;
    });
    img.setFdeRecords(fdes);
    const RunResult r = runIt(img);
    ASSERT_TRUE(r.halted) << r.describe();
    EXPECT_EQ(r.checksum, 55u);
    EXPECT_EQ(r.exceptionsThrown, 1u);
    EXPECT_GT(r.unwindSteps, 0u);
}

TEST(Sim, UncaughtThrowFaults)
{
    std::vector<FdeRecord> fdes(1);
    BinaryImage img = makeImage(Arch::x64, [&](Assembler &as) {
        as.emit(makeThrow());
        fdes[0].start = text_base;
        fdes[0].end = text_base + 4;
        fdes[0].frameSize = 0;
        fdes[0].raOnStack = true;
        fdes[0].raOffset = 0;
    });
    img.setFdeRecords(fdes);
    const RunResult r = runIt(img);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.fault, FaultKind::uncaughtException);
}

TEST(Sim, PieSlideAppliesRelocations)
{
    BinaryImage img = makeImage(
        Arch::x64,
        [](Assembler &as) {
            // Load the relocated cell at 0x500000 and jump to it.
            as.emit(makeLea(Reg::r1, 0x500000));
            as.emit(makeLoad(Reg::r2, Reg::r1, 0));
            as.emit(makeJmpInd(Reg::r2));
            as.alignTo(16);
            as.emit(makeMovImm(Reg::r0, 123)); // jump target
            as.emit(makeHalt());
        },
        {}, /*pie=*/true);
    img.relocs.push_back(
        {0x500000, static_cast<std::int64_t>(text_base + 16)});
    const RunResult r = runIt(img);
    ASSERT_TRUE(r.halted) << r.describe();
    EXPECT_EQ(r.checksum, 123u);
}

TEST(Sim, ICacheMissesScaleWithFootprint)
{
    // A straight-line run much larger than the 32 KiB i-cache.
    const BinaryImage big = makeImage(Arch::x64, [](Assembler &as) {
        for (int i = 0; i < 60000; ++i)
            as.emit(makeNop());
        as.emit(makeHalt());
    });
    const RunResult r = runIt(big);
    ASSERT_TRUE(r.halted);
    EXPECT_GT(r.icacheMisses, 500u);

    // A tight loop stays resident after the first pass.
    const BinaryImage small = makeImage(Arch::x64, [](Assembler &as) {
        const auto loop = as.newLabel();
        as.emit(makeMovImm(Reg::r1, 20000));
        as.bind(loop);
        as.emit(makeAddImm(Reg::r1, -1));
        as.emit(makeCmpImm(Reg::r1, 0));
        as.emitToLabel(makeJmpCond(Cond::gt, 0), loop);
        as.emit(makeHalt());
    });
    const RunResult s = runIt(small);
    ASSERT_TRUE(s.halted);
    EXPECT_LT(s.icacheMisses, 10u);
    EXPECT_GT(s.icacheAccesses, 50000u);
}

TEST(Sim, StepLimit)
{
    const BinaryImage img = makeImage(Arch::x64, [](Assembler &as) {
        const auto loop = as.newLabel();
        as.bind(loop);
        as.emitToLabel(makeJmp(0), loop);
    });
    Machine::Config cfg;
    cfg.maxSteps = 1000;
    const RunResult r = runIt(img, cfg);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.fault, FaultKind::stepLimit);
}

TEST(Sim, TarRegisterBranchOnPpc)
{
    const BinaryImage img =
        makeImage(Arch::ppc64le, [](Assembler &as) {
            const auto target = as.newLabel();
            as.emitMovLabel(Reg::r3, target);
            as.emit(makeMoveToTar(Reg::r3));
            as.emit(makeJmpTar());
            as.emit(makeHalt()); // skipped
            as.bind(target);
            as.emit(makeMovImm(Reg::r0, 31));
            as.emit(makeHalt());
        });
    const RunResult r = runIt(img);
    ASSERT_TRUE(r.halted) << r.describe();
    EXPECT_EQ(r.checksum, 31u);
}

TEST(Sim, TraceHookSeesEveryInstruction)
{
    const BinaryImage img = makeImage(Arch::x64, [](Assembler &as) {
        as.emit(makeMovImm(Reg::r0, 1));
        as.emit(makeAddImm(Reg::r0, 2));
        as.emit(makeHalt());
    });
    std::vector<Opcode> seen;
    Machine::Config cfg;
    cfg.traceHook = [&](const Instruction &in) {
        seen.push_back(in.op);
    };
    auto proc = loadImage(img);
    Machine machine(*proc, cfg);
    const RunResult r = machine.run();
    ASSERT_TRUE(r.halted);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], Opcode::MovImm);
    EXPECT_EQ(seen[1], Opcode::AddImm);
    EXPECT_EQ(seen[2], Opcode::Halt);
    EXPECT_EQ(seen.size(), r.instructions);
}
