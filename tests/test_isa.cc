/**
 * @file
 * ISA-layer tests: property-style encode/decode round trips over
 * randomized instructions on all three codecs, branch-range edges,
 * assembler label/fixup resolution, and register def/use sets.
 */

#include <gtest/gtest.h>

#include "isa/arch.hh"
#include "isa/assembler.hh"
#include "isa/bytes.hh"
#include "isa/reg_usage.hh"
#include "support/random.hh"

using namespace icp;

namespace
{

class CodecPerArch : public ::testing::TestWithParam<Arch>
{
  protected:
    const ArchInfo &arch() const { return ArchInfo::get(GetParam()); }
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

Reg
gpReg(Rng &rng)
{
    return static_cast<Reg>(rng.range(0, num_gp_regs - 1));
}

/** A random instruction encodable on the given ISA. */
Instruction
randomInstruction(Rng &rng, const ArchInfo &arch, Addr at)
{
    const bool fixed = arch.fixedLength;
    for (;;) {
        switch (rng.range(0, 15)) {
          case 0: return makeNop();
          case 1: return makeAddImm(gpReg(rng),
                      static_cast<std::int64_t>(rng.range(0, 1000)) -
                          500);
          case 2: return makeMovReg(gpReg(rng), gpReg(rng));
          case 3: return makeXor(gpReg(rng), gpReg(rng));
          case 4: return makeCmpImm(gpReg(rng),
                      static_cast<std::int64_t>(rng.range(0, 100)));
          case 5:
            return makeJmp(at + 4 +
                           rng.range(0, 1 << 20) * arch.instrAlign);
          case 6:
            return makeJmpCond(
                static_cast<Cond>(rng.range(0, 5)),
                at + 4 + rng.range(0, 1 << 16) * arch.instrAlign);
          case 7:
            return makeCall(at + 4 +
                            rng.range(0, 1 << 20) * arch.instrAlign);
          case 8: return makeJmpInd(gpReg(rng));
          case 9: return makeRet();
          case 10:
            return makeLoad(gpReg(rng), Reg::sp,
                            static_cast<std::int64_t>(
                                rng.range(0, 100)) * 8);
          case 11:
            return makeStore(Reg::sp,
                             static_cast<std::int64_t>(
                                 rng.range(0, 100)) * 8,
                             gpReg(rng));
          case 12:
            return makeLoadIdx(gpReg(rng), gpReg(rng), gpReg(rng),
                               static_cast<std::uint8_t>(
                                   1u << rng.range(0, 3)),
                               0, rng.chance(0.5));
          case 13:
            if (fixed)
                return makeMovZk(gpReg(rng),
                                 static_cast<std::uint16_t>(
                                     rng.range(0, 0xffff)),
                                 static_cast<std::uint8_t>(
                                     rng.range(0, 3) * 16),
                                 rng.chance(0.5));
            return makeMovImm(gpReg(rng),
                              static_cast<std::int64_t>(rng.next()));
          case 14:
            return makeShlImm(gpReg(rng),
                              static_cast<std::uint8_t>(
                                  rng.range(0, 63)));
          case 15:
            return makeCallRt(static_cast<std::uint32_t>(
                rng.range(0, (1 << 20) - 1)));
        }
    }
}

bool
equivalent(const Instruction &a, const Instruction &b,
           const ArchInfo &arch)
{
    if (a.op != b.op)
        return false;
    if (isDirectBranch(a.op))
        return a.target == b.target && a.cond == b.cond;
    if (a.op == Opcode::Load || a.op == Opcode::Store) {
        return a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
               a.imm == b.imm;
    }
    if (a.op == Opcode::MovImm && arch.fixedLength) {
        return a.rd == b.rd && (a.imm & 0xffff) == (b.imm & 0xffff) &&
               a.movShift == b.movShift && a.movKeep == b.movKeep;
    }
    return a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
           a.imm == b.imm && a.memSize == b.memSize &&
           a.signedLoad == b.signedLoad;
}

} // namespace

TEST_P(CodecPerArch, RandomRoundTrip)
{
    Rng rng(0xabc0 + static_cast<unsigned>(GetParam()));
    const Addr at = 0x400000;
    for (int i = 0; i < 5000; ++i) {
        const Instruction in = randomInstruction(rng, arch(), at);
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(arch().codec->encode(in, at, bytes))
            << in.toString();
        ASSERT_EQ(bytes.size(), arch().codec->encodedLength(in))
            << in.toString();
        Instruction out;
        ASSERT_TRUE(arch().codec->decode(bytes.data(), bytes.size(),
                                         at, out))
            << in.toString();
        ASSERT_EQ(out.length, bytes.size()) << in.toString();
        ASSERT_TRUE(equivalent(in, out, arch()))
            << in.toString() << " vs " << out.toString();
    }
}

TEST_P(CodecPerArch, ClobberBytesDecodeIllegal)
{
    const std::uint8_t zeros[8] = {};
    const std::uint8_t ffs[8] = {0xff, 0xff, 0xff, 0xff,
                                 0xff, 0xff, 0xff, 0xff};
    Instruction out;
    EXPECT_FALSE(arch().codec->decode(zeros, 8, 0x400000, out));
    EXPECT_EQ(out.op, Opcode::Illegal);
    EXPECT_FALSE(arch().codec->decode(ffs, 8, 0x400000, out));
}

TEST_P(CodecPerArch, BranchRangeEdges)
{
    const Addr at = 0x10000000;
    auto try_encode = [&](Addr target) {
        std::vector<std::uint8_t> bytes;
        return arch().codec->encode(makeJmp(target), at, bytes);
    };
    // x64 displacements are relative to the instruction end, so
    // leave the 5-byte length as margin on that ISA.
    const std::int64_t margin =
        arch().fixedLength ? 0 : arch().directJmpLen;
    EXPECT_TRUE(try_encode(at + arch().directJmpRange - margin));
    EXPECT_TRUE(try_encode(at - arch().directJmpRange + margin));
    if (arch().fixedLength) {
        EXPECT_FALSE(
            try_encode(at + arch().directJmpRange + arch().instrAlign));
    }
}

TEST_P(CodecPerArch, UnknownConditionDecodesIllegal)
{
    // The condition is byte 1 on x64 and the high nibble of byte 1 on
    // the fixed-length ISAs; a value past Cond::ge names no condition
    // the simulator or invertCond() can act on.
    const Addr at = 0x400000;
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(arch().codec->encode(makeJmpCond(Cond::ne, at + 64), at,
                                     bytes));
    bytes[1] = arch().fixedLength
                   ? static_cast<std::uint8_t>(0x90 | (bytes[1] & 0x0f))
                   : 9;
    Instruction out;
    EXPECT_FALSE(arch().codec->decode(bytes.data(), bytes.size(), at, out));
    EXPECT_EQ(out.op, Opcode::Illegal);
}

INSTANTIATE_TEST_SUITE_P(AllArches, CodecPerArch,
                         ::testing::Values(Arch::x64, Arch::ppc64le,
                                           Arch::aarch64),
                         archOnly);

TEST(CodecFixed, OutOfRangeRegisterFieldDecodesIllegal)
{
    // Each case: one encoding and the register bytes it carries.
    // Setting any of them to 0x1f (past num_regs) must decode false,
    // never an instruction the encoder would refuse to re-encode.
    struct Case
    {
        Instruction in;
        std::vector<unsigned> regBytes;
    };
    const std::vector<Case> cases = {
        {makeAddImm(Reg::r1, 5), {1}},
        {makeMovReg(Reg::r1, Reg::r2), {1, 2}},
        {makeCmp(Reg::r1, Reg::r2), {1, 2}},
        {makeLoad(Reg::r1, Reg::r2, 8), {1, 2}},
        {makeJmpInd(Reg::r3), {1}},
        {makeMovZk(Reg::r1, 7, 0, false), {1}}, // low 5 bits: rd
    };
    for (const Arch a : {Arch::ppc64le, Arch::aarch64}) {
        const Codec &codec = *ArchInfo::get(a).codec;
        for (const Case &c : cases) {
            std::vector<std::uint8_t> bytes;
            ASSERT_TRUE(codec.encode(c.in, 0x400000, bytes))
                << c.in.toString();
            for (const unsigned at : c.regBytes) {
                std::vector<std::uint8_t> bad = bytes;
                bad[at] |= 0x1f;
                Instruction out;
                EXPECT_FALSE(
                    codec.decode(bad.data(), bad.size(), 0x400000, out))
                    << archName(a) << " " << c.in.toString()
                    << " byte " << at;
                EXPECT_EQ(out.op, Opcode::Illegal);
            }
        }
    }
}

TEST(CodecX64, UnencodableSizeOrIndexFieldDecodesIllegal)
{
    // Byte 2 of LoadSz holds only the size and sign bits; byte 2 of
    // LoadIdx also holds a four-bit index register. Anything wider
    // would decode to a size or register the encoder rejects.
    const Codec &codec = *ArchInfo::get(Arch::x64).codec;
    for (const Instruction &in :
         {makeLoadSz(Reg::r1, Reg::r2, 8, 4, false),
          makeLoadIdx(Reg::r1, Reg::r2, Reg::r3, 4)}) {
        std::vector<std::uint8_t> bytes;
        ASSERT_TRUE(codec.encode(in, 0x400000, bytes)) << in.toString();
        bytes[2] |= 0x80;
        Instruction out;
        EXPECT_FALSE(
            codec.decode(bytes.data(), bytes.size(), 0x400000, out))
            << in.toString();
        EXPECT_EQ(out.op, Opcode::Illegal);
    }
}

TEST(Assembler, LabelsResolveForwardAndBackward)
{
    const auto &arch = ArchInfo::get(Arch::x64);
    Assembler as(arch, 0x1000);
    const auto top = as.newLabel();
    const auto bottom = as.newLabel();
    as.bind(top);
    as.emitToLabel(makeJmp(0), bottom);      // forward
    as.emit(makeNop());
    as.bind(bottom);
    as.emitToLabel(makeJmpCond(Cond::eq, 0), top); // backward
    const auto bytes = as.finalize();

    Instruction in;
    ASSERT_TRUE(arch.codec->decode(bytes.data(), bytes.size(),
                                   0x1000, in));
    EXPECT_EQ(in.op, Opcode::Jmp);
    EXPECT_EQ(in.target, as.labelAddr(bottom));
    const Offset off = as.labelAddr(bottom) - 0x1000;
    ASSERT_TRUE(arch.codec->decode(bytes.data() + off,
                                   bytes.size() - off,
                                   as.labelAddr(bottom), in));
    EXPECT_EQ(in.op, Opcode::JmpCond);
    EXPECT_EQ(in.target, 0x1000u);
}

TEST(Assembler, MovImm64IsValueIndependentLengthOnFixed)
{
    const auto &arch = ArchInfo::get(Arch::aarch64);
    for (std::uint64_t v : {0ULL, 1ULL, 0xffffULL, 0x123456789abcdefULL,
                            ~0ULL}) {
        Assembler as(arch, 0x1000);
        as.emitMovImm64(Reg::r3, v);
        EXPECT_EQ(as.finalize().size(), 16u) << v;
    }
}

TEST(Assembler, TocPairComputesHa)
{
    const auto &arch = ArchInfo::get(Arch::ppc64le);
    const Addr toc = 0x500000;
    Assembler as(arch, 0x1000);
    const auto label = as.newLabel();
    as.emitAddisTocPair(Reg::r2, label, toc);
    as.emit(makeHalt());
    as.bind(label); // the pair points at this spot
    const Addr target = as.labelAddr(label);
    const auto bytes = as.finalize();

    Instruction hi, lo;
    ASSERT_TRUE(arch.codec->decode(bytes.data(), 4, 0x1000, hi));
    ASSERT_TRUE(arch.codec->decode(bytes.data() + 4, 4, 0x1004, lo));
    EXPECT_EQ(hi.op, Opcode::AddisToc);
    EXPECT_EQ(lo.op, Opcode::AddImm);
    const std::int64_t value =
        static_cast<std::int64_t>(toc) + (hi.imm << 16) + lo.imm;
    EXPECT_EQ(static_cast<Addr>(value), target);
}

TEST(Assembler, DataLabelDiffEmitsScaledEntries)
{
    const auto &arch = ArchInfo::get(Arch::aarch64);
    Assembler as(arch, 0x2000);
    const auto base = as.newLabel();
    const auto target = as.newLabel();
    as.bind(base);
    as.emit(makeNop());
    as.emit(makeNop());
    as.bind(target);
    as.emit(makeHalt());
    as.emitDataLabelDiff(target, base, 2, 2); // (8 bytes >> 2) = 2
    const auto bytes = as.finalize();
    EXPECT_EQ(getU16(bytes.data() + bytes.size() - 2), 2u);
}

TEST(RegUsage, CallAndRetConventionsDiffer)
{
    const auto &x64 = ArchInfo::get(Arch::x64);
    const auto &ppc = ArchInfo::get(Arch::ppc64le);
    const Instruction call = makeCall(0x1000);
    EXPECT_TRUE(regsWritten(call, x64).contains(Reg::sp));
    EXPECT_FALSE(regsWritten(call, x64).contains(Reg::lr));
    EXPECT_TRUE(regsWritten(call, ppc).contains(Reg::lr));

    const Instruction ret = makeRet();
    EXPECT_TRUE(regsRead(ret, ppc).contains(Reg::lr));
    EXPECT_TRUE(regsRead(ret, x64).contains(Reg::sp));
}

TEST(RegUsage, MovKeepReadsDestination)
{
    const auto &arch = ArchInfo::get(Arch::aarch64);
    EXPECT_FALSE(regsRead(makeMovZk(Reg::r3, 1, 0, false), arch)
                     .contains(Reg::r3));
    EXPECT_TRUE(regsRead(makeMovZk(Reg::r3, 1, 16, true), arch)
                    .contains(Reg::r3));
}
