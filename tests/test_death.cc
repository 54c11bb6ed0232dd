/**
 * @file
 * Death tests for the internal-invariant machinery: icp_assert /
 * icp_panic abort with a diagnostic, and the library's precondition
 * checks fire on misuse (duplicate map keys, overlapping sections,
 * double finalize, unbound labels, out-of-order streamed chunks),
 * while malformed SBF input is rejected with a structured issue.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "binfmt/addr_map.hh"
#include "binfmt/image.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "crafted_sbf.hh"
#include "isa/assembler.hh"
#include "rewrite/rewriter.hh"
#include "support/logging.hh"
#include "verify/diagnostics.hh"

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
// tryDeserialize is the one place that judges SBF input: a malformed
// container is a structured issue naming a registered rule, never an
// abort further down.

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

TEST(SbfValidation, CraftedContainerDefectsNameRegisteredRules)
{
    for (Arch arch : all_arches) {
        for (SbfDefect defect : all_sbf_defects) {
            const char *rule = sbfDefectRule(defect);
            if (!rule)
                continue;
            SCOPED_TRACE(std::string(archName(arch)) + " " +
                         sbfDefectName(defect));
            std::vector<SbfIssue> issues;
            EXPECT_FALSE(BinaryImage::tryDeserialize(
                craftSbf(arch, defect), issues));
            ASSERT_EQ(issues.size(), 1u);
            EXPECT_EQ(issues[0].rule, rule) << issues[0].message;
            const auto &rules = lintRules();
            EXPECT_TRUE(std::any_of(rules.begin(), rules.end(),
                                    [&](const LintRuleInfo &r) {
                                        return r.id == issues[0].rule;
                                    }));
        }
    }
}

TEST(SbfValidation, MissingTextDecodesButRewriteFails)
{
    for (Arch arch : all_arches) {
        SCOPED_TRACE(archName(arch));
        std::vector<SbfIssue> issues;
        const auto img = BinaryImage::tryDeserialize(
            craftSbf(arch, SbfDefect::noText), issues);
        ASSERT_TRUE(img);
        EXPECT_TRUE(issues.empty());
        RewriteOptions opts;
        opts.useAnalysisCache = false;
        const RewriteResult rw = rewriteBinary(*img, opts);
        EXPECT_FALSE(rw.ok);
        EXPECT_NE(rw.failReason.find(".text"), std::string::npos)
            << rw.failReason;
    }
}
