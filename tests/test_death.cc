/**
 * @file
 * Death tests for the internal-invariant machinery: icp_assert /
 * icp_panic abort with a diagnostic, and the library's precondition
 * checks fire on misuse (duplicate map keys, overlapping sections,
 * double finalize, unbound labels, out-of-order streamed chunks).
 */

#include <gtest/gtest.h>

#include "binfmt/addr_map.hh"
#include "binfmt/image.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "isa/assembler.hh"
#include "support/logging.hh"

using namespace icp;

TEST(DeathTests, AssertAbortsWithMessage)
{
    EXPECT_DEATH(icp_assert(1 == 2, "math broke: %d", 42),
                 "math broke: 42");
}

TEST(DeathTests, PanicAborts)
{
    EXPECT_DEATH(icp_panic("internal bug %s", "here"),
                 "internal bug here");
}

TEST(DeathTests, DuplicateAddrMapKeys)
{
    std::vector<std::pair<Addr, Addr>> pairs = {{1, 2}, {1, 3}};
    EXPECT_DEATH(AddrPairMap{pairs}, "duplicate key");
}

TEST(DeathTests, OverlappingSectionsRejected)
{
    BinaryImage img;
    Section a;
    a.name = ".a";
    a.addr = 0x1000;
    a.memSize = 0x100;
    img.addSection(a);
    Section b;
    b.name = ".b";
    b.addr = 0x1080;
    b.memSize = 0x100;
    EXPECT_DEATH(img.addSection(b), "overlaps");
}

TEST(DeathTests, AssemblerMisuse)
{
    const auto &arch = ArchInfo::get(Arch::x64);
    {
        Assembler as(arch, 0x1000);
        as.emit(makeNop());
        as.finalize();
        EXPECT_DEATH(as.finalize(), "finalize called twice");
    }
    {
        Assembler as(arch, 0x1000);
        const auto label = as.newLabel();
        as.emitToLabel(makeJmp(0), label);
        EXPECT_DEATH(as.finalize(), "unbound");
    }
    {
        Assembler as(arch, 0x1000);
        const auto label = as.newLabel();
        as.bind(label);
        EXPECT_DEATH(as.bind(label), "already bound");
    }
}

TEST(DeathTests, FixedCodecRejectsMisalignedEncode)
{
    const auto &arch = ArchInfo::get(Arch::ppc64le);
    std::vector<std::uint8_t> out;
    EXPECT_DEATH(arch.codec->encode(makeNop(), 0x1001, out),
                 "misaligned");
}

TEST(DeathTests, StreamWriterRejectsOutOfOrderChunks)
{
    // The writer is append-only: every chunk must start where the
    // previous one ended, and the chunks must cover the payload.
    Section sec;
    sec.name = ".instr";
    sec.kind = SectionKind::instr;
    sec.addr = 0x1000;
    sec.memSize = 16;
    const std::uint8_t bytes[16] = {};
    const auto streamed = [&](auto &&feed) {
        std::vector<std::uint8_t> out;
        VectorSink sink(out);
        SbfStreamWriter writer(sink);
        writer.beginStreamedSection(sec, sizeof(bytes));
        feed(writer);
        writer.endStreamedSection();
    };
    EXPECT_DEATH(streamed([&](SbfStreamWriter &w) {
                     w.addChunk(8, bytes + 8, 8); // skips [0, 8)
                 }),
                 "streamed chunk at payload offset 8, expected 0");
    EXPECT_DEATH(streamed([&](SbfStreamWriter &w) {
                     w.addChunk(0, bytes, 8);
                     w.addChunk(4, bytes + 4, 12); // overlaps [4, 8)
                 }),
                 "streamed chunk at payload offset 4, expected 8");
    EXPECT_DEATH(streamed([&](SbfStreamWriter &w) {
                     w.addChunk(0, bytes, 8); // leaves [8, 16) unset
                 }),
                 "covers 8 of 16 bytes");
}

// --- malformed SBF containers ---------------------------------------------
//
// The aborting deserialize() names the violated validation rule, and
// the validating tryDeserialize() reports the same rule as a
// structured issue instead of dying.

TEST(DeathTests, DeserializeNamesTruncationRule)
{
    auto raw = compileProgram(microProfile(Arch::x64, false))
                   .serialize();
    raw.resize(raw.size() / 2);
    EXPECT_DEATH(BinaryImage::deserialize(raw), "sbf-truncated");
}

TEST(DeathTests, DeserializeNamesMagicRule)
{
    auto raw = compileProgram(microProfile(Arch::x64, false))
                   .serialize();
    raw[0] ^= 0xff;
    EXPECT_DEATH(BinaryImage::deserialize(raw), "sbf-magic");
}

TEST(SbfValidation, TryDeserializeReportsTruncation)
{
    auto raw = compileProgram(microProfile(Arch::x64, false))
                   .serialize();
    raw.resize(raw.size() / 2);
    std::vector<SbfIssue> issues;
    EXPECT_FALSE(BinaryImage::tryDeserialize(raw, issues));
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].rule, "sbf-truncated");
    EXPECT_GT(issues[0].offset, 0u);
}

TEST(SbfValidation, TryDeserializeReportsBadMagic)
{
    auto raw = compileProgram(microProfile(Arch::x64, false))
                   .serialize();
    raw[1] ^= 0xff;
    std::vector<SbfIssue> issues;
    EXPECT_FALSE(BinaryImage::tryDeserialize(raw, issues));
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].rule, "sbf-magic");
}

TEST(SbfValidation, TryDeserializeReportsSectionOverlap)
{
    // Bypass addSection's overlap assertion to craft a container
    // whose sections collide, as a corrupted file would.
    BinaryImage img;
    Section a;
    a.name = ".a";
    a.addr = 0x1000;
    a.memSize = 0x100;
    img.sections.push_back(a);
    Section b;
    b.name = ".b";
    b.addr = 0x1080;
    b.memSize = 0x100;
    img.sections.push_back(b);
    std::vector<SbfIssue> issues;
    EXPECT_FALSE(BinaryImage::tryDeserialize(img.serialize(), issues));
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].rule, "sbf-section-overlap");
}

TEST(SbfValidation, TryDeserializeReportsPayloadOverflow)
{
    BinaryImage img;
    Section a;
    a.name = ".a";
    a.addr = 0x1000;
    a.memSize = 0x10;
    a.bytes.assign(0x20, 0xab); // payload larger than memSize
    img.sections.push_back(a);
    std::vector<SbfIssue> issues;
    EXPECT_FALSE(BinaryImage::tryDeserialize(img.serialize(), issues));
    ASSERT_FALSE(issues.empty());
    EXPECT_EQ(issues[0].rule, "sbf-section-bounds");
}

TEST(SbfValidation, TryDeserializeRoundTripsValidImage)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::aarch64, true));
    std::vector<SbfIssue> issues;
    const auto parsed =
        BinaryImage::tryDeserialize(img.serialize(), issues);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(issues.empty());
    EXPECT_EQ(parsed->arch, img.arch);
    EXPECT_EQ(parsed->sections.size(), img.sections.size());
}
