/**
 * @file
 * Loader and module tests: PIE slides with relocation application,
 * address translation round trips, stack placement, the
 * non-PIE/slide precondition, and BinaryImage::loadedValue (the
 * loader's rule evaluated from image bytes and relocation records)
 * against a simulated load.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "crafted_sbf.hh"
#include "rewrite/rewriter.hh"
#include "sim/loader.hh"
#include "sim/machine.hh"

using namespace icp;

TEST(Loader, NonPieLoadsAtPreferredBase)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    auto proc = loadImage(img);
    EXPECT_EQ(proc->module.slide, 0);
    EXPECT_EQ(proc->module.toLoaded(img.entry), img.entry);
    for (const auto &sec : img.sections) {
        if (sec.loadable && sec.memSize > 0) {
            EXPECT_TRUE(proc->mem.isMapped(sec.addr));
        }
    }
}

TEST(Loader, PieSlideTranslationRoundTrips)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, true));
    auto proc = loadImage(img);
    EXPECT_EQ(proc->module.slide, default_pie_slide);
    const Addr loaded = proc->module.toLoaded(img.entry);
    EXPECT_EQ(loaded, img.entry +
                          static_cast<Addr>(default_pie_slide));
    EXPECT_EQ(proc->module.toPref(loaded), img.entry);
}

TEST(Loader, RelocationsAreSlidden)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, true));
    ASSERT_FALSE(img.relocs.empty());
    auto proc = loadImage(img);
    for (const auto &rel : img.relocs) {
        std::uint64_t value = 0;
        ASSERT_TRUE(proc->mem.read(proc->module.toLoaded(rel.site),
                                   8, value));
        EXPECT_EQ(value,
                  static_cast<std::uint64_t>(rel.addend +
                                             proc->module.slide));
    }
}

TEST(Loader, CustomSlideHonored)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, true));
    auto proc = loadImage(img, 0x40000000);
    EXPECT_EQ(proc->module.slide, 0x40000000);
    Machine machine(*proc, Machine::Config{});
    const RunResult r = machine.run();
    EXPECT_TRUE(r.halted) << r.describe();
}

TEST(Loader, StackIsAboveTheImageAndMapped)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::ppc64le, false));
    auto proc = loadImage(img);
    EXPECT_GT(proc->stackLimit, img.highWaterMark() - 4096);
    EXPECT_GT(proc->stackTop, proc->stackLimit);
    EXPECT_TRUE(proc->mem.isMapped(proc->stackLimit));
    EXPECT_TRUE(proc->mem.isMapped(proc->stackTop - 1));
}

TEST(Loader, SameChecksumAtAnySlide)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::aarch64, true));
    std::uint64_t checksum = 0;
    for (std::int64_t slide : {std::int64_t{0}, default_pie_slide,
                               std::int64_t{0x75610000}}) {
        auto proc = loadImage(img, slide);
        Machine machine(*proc, Machine::Config{});
        const RunResult r = machine.run();
        ASSERT_TRUE(r.halted) << "slide " << slide;
        if (checksum == 0)
            checksum = r.checksum;
        else
            EXPECT_EQ(r.checksum, checksum) << "slide " << slide;
    }
}

TEST(LoaderDeath, NonPieWithSlideRejected)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    EXPECT_DEATH(loadImage(img, 0x1000), "non-PIE");
}

namespace
{

/**
 * loadedValue of each 8-byte cell at @p sites equals what the
 * simulated loader leaves at the slid address, under an index of
 * every relocation and under one filtered to the cells read (all of
 * @p sites, and the one cell alone). Every site lies in a loadable
 * section, so both readings are mapped.
 */
void
expectLoadedValuesMatch(const BinaryImage &img,
                        const std::vector<Addr> &sites)
{
    const auto proc = loadImage(img);
    const RelocIndex index(img.relocs);
    std::vector<Addr> cells = sites;
    std::sort(cells.begin(), cells.end());
    const RelocIndex near(img.relocs, cells);
    for (const Addr site : sites) {
        SCOPED_TRACE("cell 0x" + std::to_string(site));
        std::uint64_t loaded = 0;
        ASSERT_TRUE(
            proc->mem.read(proc->module.toLoaded(site), 8, loaded));
        const auto value =
            img.loadedValue(site, index, proc->module.slide);
        ASSERT_TRUE(value.has_value());
        EXPECT_EQ(*value, loaded);
        EXPECT_EQ(img.loadedValue(site, near, proc->module.slide), value);
        EXPECT_EQ(img.loadedValue(site, RelocIndex(img.relocs, {site}),
                                  proc->module.slide),
                  value);
    }
}

/** Every relocation slot of @p img. */
std::vector<Addr>
relocSites(const BinaryImage &img)
{
    std::vector<Addr> sites;
    for (const Relocation &rel : img.relocs)
        sites.push_back(rel.site);
    return sites;
}

/** A func-ptr rewrite of @p input with its manifest filled. */
RewriteResult
rewriteForLint(const BinaryImage &input)
{
    RewriteOptions opts;
    opts.mode = RewriteMode::funcPtr;
    opts.useAnalysisCache = false;
    opts.lint = true;
    return rewriteBinary(input, opts);
}

} // namespace

TEST(LoadedValue, MatchesTheSimulatedLoadOnEveryCellAndSlot)
{
    for (Arch arch : all_arches) {
        for (bool pie : {false, true}) {
            SCOPED_TRACE(std::string(archName(arch)) +
                         (pie ? " PIE" : " non-PIE"));
            const RewriteResult rw =
                rewriteForLint(compileProgram(chromiumSmallProfile(arch, pie)));
            ASSERT_TRUE(rw.ok) << rw.failReason;
            std::vector<Addr> sites = relocSites(rw.image);
            std::size_t cells = 0;
            for (const FuncPtrPatch &p : rw.manifest.funcPtrs) {
                if (p.kind == FuncPtrPatch::Kind::dataCell) {
                    sites.push_back(p.site);
                    ++cells;
                }
            }
            EXPECT_GT(cells, 0u);
            if (pie) {
                EXPECT_FALSE(rw.image.relocs.empty());
            }
            expectLoadedValuesMatch(rw.image, sites);
        }
    }
}

TEST(LoadedValue, LastRelocationWinsAtADuplicateSite)
{
    for (Arch arch : all_arches) {
        SCOPED_TRACE(archName(arch));
        BinaryImage img = compileProgram(microProfile(arch, true));
        const Addr site = duplicateFuncPtrReloc(img);
        ASSERT_NE(site, 0u);
        const RewriteResult rw = rewriteForLint(img);
        ASSERT_TRUE(rw.ok) << rw.failReason;
        expectLoadedValuesMatch(rw.image, relocSites(rw.image));

        // The duplicate, listed last, now disagrees with the first.
        img.relocs.back().addend += 0x40;
        expectLoadedValuesMatch(img, relocSites(img));
        const auto value = img.loadedValue(site, RelocIndex(img.relocs),
                                           default_pie_slide);
        EXPECT_EQ(value, static_cast<std::uint64_t>(
                             img.relocs.back().addend + default_pie_slide));
    }
}

TEST(LoadedValue, SlotOverlappingHalfACellWritesHalf)
{
    for (Arch arch : all_arches) {
        SCOPED_TRACE(archName(arch));
        BinaryImage img = compileProgram(microProfile(arch, true));
        // A relocated cell with 4 mapped bytes below it and 8 above.
        const auto it = std::find_if(
            img.relocs.begin(), img.relocs.end(),
            [&](const Relocation &rel) {
                const Section *sec = img.sectionAt(rel.site);
                return sec && rel.site >= sec->addr + 4 &&
                       rel.site + 16 <= sec->end();
            });
        ASSERT_NE(it, img.relocs.end());
        const Relocation first = *it;
        // A slot 4 bytes above a relocated cell, listed before it and
        // after it: the cell keeps its low half, and its high half
        // comes from whichever slot is listed last.
        img.relocs.insert(img.relocs.begin(),
                          Relocation{first.site + 4, 0x1122334455});
        img.relocs.push_back(Relocation{first.site + 4, 0x5566778899});
        expectLoadedValuesMatch(
            img, {first.site - 4, first.site, first.site + 4,
                  first.site + 8});
        const auto value = img.loadedValue(
            first.site, RelocIndex(img.relocs), default_pie_slide);
        const std::uint64_t own = static_cast<std::uint64_t>(
            first.addend + default_pie_slide);
        const std::uint64_t high = 0x5566778899 + default_pie_slide;
        EXPECT_EQ(value, (own & 0xffffffffu) | (high << 32));
    }
}

TEST(LoadedValue, ZeroFillPastTheFileBytes)
{
    for (Arch arch : all_arches) {
        SCOPED_TRACE(archName(arch));
        BinaryImage img = compileProgram(microProfile(arch, true));
        Section &data = *img.findSection(SectionKind::data);
        const Addr file_end = data.addr + data.bytes.size();
        data.memSize = data.bytes.size() + 64;
        // A relocation in the zero fill, and cells in it, across its
        // start, and overlapping the relocated slot.
        img.relocs.push_back(Relocation{file_end + 32, 0x12345});
        expectLoadedValuesMatch(img, {file_end - 4, file_end,
                                      file_end + 8, file_end + 28,
                                      file_end + 32, file_end + 56});
        const RelocIndex index(img.relocs);
        EXPECT_EQ(img.loadedValue(file_end + 8, index, 0), 0u);
        EXPECT_EQ(img.loadedValue(file_end + 32, index, 0), 0x12345u);
    }
}

TEST(LoadedValue, ACellPastEveryLoadableSectionIsUnmapped)
{
    // The simulator maps whole pages; loadedValue maps only
    // [addr, end()) of loadable sections, so a cell in a section's
    // page slack, or half inside a section, reads as unmapped.
    const BinaryImage img = compileProgram(microProfile(Arch::x64, true));
    const Section &data = *img.findSection(SectionKind::data);
    ASSERT_NE(data.end() % 4096, 0u);
    const RelocIndex index(img.relocs);
    EXPECT_TRUE(img.loadedValue(data.end() - 8, index, 0).has_value());
    EXPECT_FALSE(img.loadedValue(data.end() - 4, index, 0).has_value());
    EXPECT_FALSE(img.loadedValue(data.end() + 8, index, 0).has_value());
    const auto proc = loadImage(img, 0);
    std::uint64_t slack = 0;
    EXPECT_TRUE(proc->mem.read(data.end() + 8, 8, slack));
}
