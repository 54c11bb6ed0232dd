/**
 * @file
 * Binary-format tests: SBF serialization round trips, .eh_frame
 * record encoding, FDE lookup, landing-pad resolution, address-map
 * properties against a reference map, image accessors, and a seeded
 * mutation sweep over the container's validation.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include <gtest/gtest.h>

#include "binfmt/addr_map.hh"
#include "binfmt/ehframe.hh"
#include "binfmt/image.hh"
#include "binfmt/stream_writer.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "isa/bytes.hh"
#include "rewrite/rewriter.hh"
#include "sim/loader.hh"
#include "support/random.hh"

using namespace icp;

TEST(AddrPairMap, MatchesReferenceMap)
{
    Rng rng(123);
    std::map<Addr, Addr> reference;
    std::vector<std::pair<Addr, Addr>> pairs;
    for (int i = 0; i < 3000; ++i) {
        const Addr key = rng.range(0, 1 << 24);
        if (reference.count(key))
            continue;
        const Addr value = rng.next();
        reference[key] = value;
        pairs.emplace_back(key, value);
    }
    const AddrPairMap map(pairs);
    EXPECT_EQ(map.size(), reference.size());
    for (int i = 0; i < 5000; ++i) {
        const Addr probe = rng.range(0, 1 << 24);
        auto expect = reference.find(probe);
        auto got = map.lookup(probe);
        if (expect == reference.end()) {
            EXPECT_FALSE(got.has_value());
        } else {
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, expect->second);
        }
    }
}

TEST(AddrPairMap, SerializationRoundTrip)
{
    std::vector<std::pair<Addr, Addr>> pairs = {
        {0x1000, 0x2000}, {0x1008, 0x2040}, {0xffffffffffULL, 7},
    };
    const AddrPairMap map(pairs);
    const auto back = AddrPairMap::parse(map.serialize());
    ASSERT_TRUE(back);
    EXPECT_EQ(back->pairs(), map.pairs());
}

TEST(AddrPairMap, ParseRejectsMalformedBytes)
{
    const std::vector<std::uint8_t> good =
        AddrPairMap({{0x1000, 0x2000}, {0x1008, 0x2040}}).serialize();
    auto bytes = good;
    bytes.pop_back(); // truncated
    EXPECT_FALSE(AddrPairMap::parse(bytes));
    bytes = good;
    bytes.push_back(0); // trailing byte
    EXPECT_FALSE(AddrPairMap::parse(bytes));
    bytes = good;
    std::copy(good.begin() + 4, good.begin() + 12, bytes.begin() + 20);
    EXPECT_FALSE(AddrPairMap::parse(bytes)); // duplicate key
    bytes = good;
    bytes[3] = 0xff; // a count no payload can hold
    EXPECT_FALSE(AddrPairMap::parse(bytes));
    EXPECT_FALSE(AddrPairMap::parse({}));
}

TEST(EhFrame, RecordsRoundTrip)
{
    std::vector<FdeRecord> fdes(2);
    fdes[0].start = 0x1000;
    fdes[0].end = 0x1100;
    fdes[0].frameSize = 48;
    fdes[0].raOnStack = true;
    fdes[0].raOffset = 40;
    fdes[0].savesCalleeSaved = true;
    fdes[0].tryRanges = {{0x10, 0x30, 0x80}};
    fdes[1].start = 0x1100;
    fdes[1].end = 0x1180;
    fdes[1].raOnStack = false;

    const auto bytes = serializeEhFrame(fdes);
    const auto parsed = parseEhFrame(bytes);
    ASSERT_TRUE(parsed);
    const std::vector<FdeRecord> &back = *parsed;
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].start, fdes[0].start);
    EXPECT_EQ(back[0].frameSize, 48u);
    EXPECT_TRUE(back[0].savesCalleeSaved);
    ASSERT_EQ(back[0].tryRanges.size(), 1u);
    EXPECT_EQ(back[0].tryRanges[0].lpOff, 0x80u);
    EXPECT_FALSE(back[1].raOnStack);
    EXPECT_FALSE(back[1].savesCalleeSaved);

    // One record more than the bytes hold, or one byte too many,
    // does not parse.
    auto longer = bytes;
    longer[0] += 1;
    EXPECT_FALSE(parseEhFrame(longer));
    longer = bytes;
    longer.push_back(0);
    EXPECT_FALSE(parseEhFrame(longer));
}

TEST(EhFrame, IndexLookupAndLandingPads)
{
    std::vector<FdeRecord> fdes(3);
    for (int i = 0; i < 3; ++i) {
        fdes[i].start = 0x1000 + 0x100 * i;
        fdes[i].end = fdes[i].start + 0x100;
    }
    fdes[1].tryRanges = {{0x20, 0x40, 0x90}};
    const FdeIndex index(fdes);

    EXPECT_EQ(index.find(0xfff), nullptr);
    ASSERT_NE(index.find(0x1000), nullptr);
    EXPECT_EQ(index.find(0x10ff)->start, 0x1000u);
    EXPECT_EQ(index.find(0x1100)->start, 0x1100u);
    EXPECT_EQ(index.find(0x1300), nullptr);

    const FdeRecord *mid = index.find(0x1120);
    ASSERT_NE(mid, nullptr);
    EXPECT_TRUE(mid->landingPadFor(0x20).has_value());
    EXPECT_EQ(*mid->landingPadFor(0x3f), 0x90u);
    EXPECT_FALSE(mid->landingPadFor(0x40).has_value());
    EXPECT_FALSE(mid->landingPadFor(0x10).has_value());
}

/**
 * The readers that skip the records they do not need agree with the
 * full parse: coveringFdes with FdeIndex::find, for records in start
 * order and in any other, with nested extents and repeated starts;
 * parseTryRanges with the records' own try ranges.
 */
TEST(EhFrame, PartialReadersMatchTheFullParse)
{
    std::vector<FdeRecord> fdes;
    const auto add = [&](Addr start, Addr end) {
        FdeRecord fde;
        fde.start = start;
        fde.end = end;
        fde.tryRanges = {{0, 4, static_cast<Offset>(fdes.size())}};
        fdes.push_back(fde);
    };
    add(0x1000, 0x1100);
    add(0x1100, 0x1300); // holds the next one
    add(0x1180, 0x11c0);
    add(0x1400, 0x1480);
    add(0x1400, 0x1420); // a repeated start: the later one wins
    add(0x1500, 0x1500); // empty
    std::vector<Addr> pcs;
    for (Addr pc = 0xf00; pc < 0x1600; pc += 0x20)
        pcs.push_back(pc);
    for (const FdeRecord &fde : fdes)
        for (Addr d : {Addr{0}, Addr{1}})
            pcs.push_back(fde.start - d);
    std::sort(pcs.begin(), pcs.end());
    pcs.erase(std::unique(pcs.begin(), pcs.end()), pcs.end());

    for (const bool shuffled : {false, true}) {
        SCOPED_TRACE(shuffled ? "records out of order" : "in order");
        if (shuffled)
            std::reverse(fdes.begin(), fdes.begin() + 3);
        const auto bytes = serializeEhFrame(fdes);
        const FdeIndex index(fdes);
        const auto covering = coveringFdes(bytes, pcs);
        ASSERT_EQ(covering.size(), pcs.size());
        for (std::size_t i = 0; i < pcs.size(); ++i) {
            SCOPED_TRACE("pc " + std::to_string(pcs[i]));
            const FdeRecord *want = index.find(pcs[i]);
            ASSERT_EQ(covering[i].has_value(), want != nullptr);
            if (want) {
                EXPECT_EQ(covering[i]->first, want->start);
                EXPECT_EQ(covering[i]->second, want->end);
            }
        }
    }
    EXPECT_EQ(coveringFdes({}, pcs).size(), pcs.size());

    const auto tries =
        parseTryRanges(serializeEhFrame(fdes), {0x1100, 0x1400, 0x1600});
    ASSERT_TRUE(tries.has_value());
    ASSERT_EQ(tries->size(), 2u);
    EXPECT_EQ(tries->at(0x1100).front().lpOff, 1u);
    EXPECT_EQ(tries->at(0x1400).front().lpOff, 4u);
    auto longer = serializeEhFrame(fdes);
    longer.push_back(0);
    EXPECT_FALSE(parseTryRanges(longer, {0x1100}).has_value());
}

TEST(Image, SerializeRoundTripOnRealWorkload)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::ppc64le, true));
    std::vector<SbfIssue> issues;
    const auto parsed = BinaryImage::tryDeserialize(img.serialize(), issues);
    ASSERT_TRUE(parsed);
    EXPECT_TRUE(issues.empty());
    const BinaryImage &back = *parsed;
    EXPECT_EQ(back.arch, img.arch);
    EXPECT_EQ(back.pie, img.pie);
    EXPECT_EQ(back.entry, img.entry);
    EXPECT_EQ(back.tocBase, img.tocBase);
    EXPECT_EQ(back.sections.size(), img.sections.size());
    EXPECT_EQ(back.symbols.size(), img.symbols.size());
    EXPECT_EQ(back.relocs.size(), img.relocs.size());
    EXPECT_EQ(back.loadedSize(), img.loadedSize());
    EXPECT_EQ(back.serialize(), img.serialize());
}

TEST(Image, SectionAndSymbolAccessors)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    const Section *text = img.findSection(SectionKind::text);
    ASSERT_NE(text, nullptr);
    EXPECT_TRUE(text->executable);
    EXPECT_EQ(img.sectionAt(text->addr + 1), text);
    EXPECT_EQ(img.sectionAt(0x1), nullptr);

    const auto funcs = img.functionSymbols();
    ASSERT_FALSE(funcs.empty());
    for (std::size_t i = 1; i < funcs.size(); ++i)
        EXPECT_GT(funcs[i]->addr, funcs[i - 1]->addr);
    const Symbol *inside =
        img.functionContaining(funcs[0]->addr + 2);
    ASSERT_NE(inside, nullptr);
    EXPECT_EQ(inside->addr, funcs[0]->addr);
}

TEST(Image, ReadWriteBytesAndValues)
{
    BinaryImage img = compileProgram(microProfile(Arch::x64, false));
    Section *data = img.findSection(SectionKind::data);
    ASSERT_NE(data, nullptr);
    const Addr at = data->addr + 8;
    ASSERT_TRUE(img.writeBytes(at, {1, 2, 3, 4}));
    auto v = img.readValue(at, 4);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 0x04030201u);
    std::vector<std::uint8_t> raw;
    EXPECT_FALSE(img.readBytes(0x1, 4, raw)); // unmapped
}

TEST(Image, HighWaterMarkIsAboveEverySection)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::aarch64, false));
    const Addr top = img.highWaterMark();
    EXPECT_EQ(top % 4096, 0u);
    for (const auto &sec : img.sections)
        EXPECT_LE(sec.end(), top);
}

// --- streaming SBF writer ---------------------------------------------------

namespace
{

/**
 * Stream @p img through SbfStreamWriter with the .text payload fed
 * in order as @p chunk_size-byte chunks, every other section
 * materialized.
 */
std::vector<std::uint8_t>
streamWithChunkedText(const BinaryImage &img, std::size_t chunk_size)
{
    std::vector<std::uint8_t> out;
    VectorSink sink(out);
    SbfStreamWriter writer(sink);
    writer.beginImage(img);
    for (const Section &sec : img.sections) {
        if (sec.kind != SectionKind::text) {
            writer.writeSection(sec);
            continue;
        }
        writer.beginStreamedSection(sec, sec.bytes.size());
        for (std::size_t off = 0; off < sec.bytes.size();
             off += chunk_size) {
            const std::size_t len =
                std::min(chunk_size, sec.bytes.size() - off);
            writer.addChunk(off, sec.bytes.data() + off, len);
        }
        writer.endStreamedSection();
    }
    writer.finishImage(img);
    return out;
}

} // namespace

TEST(StreamWriter, InOrderChunksMatchSerialize)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, true));
    for (std::size_t chunk_size : {1u, 512u})
        EXPECT_EQ(streamWithChunkedText(img, chunk_size),
                  img.serialize())
            << chunk_size << "-byte chunks";
}

TEST(StreamWriter, FileSinkMatchesVectorSink)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    {
        FileSink sink(f);
        streamImage(img, sink);
        ASSERT_TRUE(sink.ok());
    }
    std::fflush(f);
    std::fseek(f, 0, SEEK_END);
    const long len = std::ftell(f);
    std::rewind(f);
    std::vector<std::uint8_t> from_file(
        static_cast<std::size_t>(len));
    ASSERT_EQ(std::fread(from_file.data(), 1, from_file.size(), f),
              from_file.size());
    std::fclose(f);
    EXPECT_EQ(from_file, img.serialize());
}

// --- seeded SBF mutation ----------------------------------------------------
//
// tryDeserialize is the one validation point: every mutated container
// is either rejected with an issue, or every later parser of it (the
// arch table, .eh_frame, the address maps, the loader) succeeds.

namespace
{

/** One mutable byte range of a serialized image. */
struct Region
{
    const char *name;
    std::size_t begin = 0;
    std::size_t end = 0;
    int section = -1; ///< index of the section whose payload this is
};

/** The header, section records, map payloads, symbols and relocs. */
std::vector<Region>
regionsOf(const std::vector<std::uint8_t> &raw)
{
    std::vector<Region> regions;
    ByteReader rd(raw);
    rd.u32();
    rd.u8();
    rd.u8();
    rd.u64();
    rd.u64();
    rd.u64();
    rd.str();
    for (int i = 0; i < 5; ++i)
        rd.u8();
    const std::uint32_t nsec = rd.u32();
    regions.push_back({"header", 0, rd.pos()});
    for (std::uint32_t i = 0; i < nsec; ++i) {
        const std::size_t at = rd.pos();
        rd.str();
        const auto kind = static_cast<SectionKind>(rd.u8());
        rd.u64();
        rd.u64();
        rd.u8();
        const std::uint32_t len = rd.u32();
        const std::size_t payload = rd.pos();
        rd.blob(len);
        regions.push_back({"section record", at, payload});
        if ((kind == SectionKind::ehFrame || kind == SectionKind::raMap ||
             kind == SectionKind::trapMap) &&
            len != 0)
            regions.push_back({sectionKindName(kind), payload,
                               payload + len, static_cast<int>(i)});
    }
    std::size_t at = rd.pos();
    for (std::uint32_t i = 0, n = rd.u32(); i < n; ++i) {
        rd.str();
        rd.u8();
        rd.u64();
        rd.u64();
    }
    regions.push_back({"symbols", at, rd.pos()});
    at = rd.pos();
    rd.blob(std::size_t{rd.u32()} * 16);
    regions.push_back({"relocations", at, rd.pos()});
    EXPECT_FALSE(rd.failed());
    return regions;
}

} // namespace

TEST(SbfMutation, EveryMutationIsRejectedOrUsable)
{
    unsigned rejected = 0;
    unsigned accepted = 0;
    for (Arch arch : all_arches) {
        // A rewrite output carries .eh_frame, .ra_map and .trap_map.
        RewriteOptions opts;
        opts.mode = RewriteMode::jt;
        opts.useAnalysisCache = false;
        const RewriteResult rw =
            rewriteBinary(compileProgram(microProfile(arch, true)), opts);
        ASSERT_TRUE(rw.ok) << rw.failReason;
        const std::vector<std::uint8_t> raw = rw.image.serialize();
        const std::vector<Region> regions = regionsOf(raw);
        Rng rng(0x5bf0 + static_cast<unsigned>(arch));
        for (int trial = 0; trial < 400; ++trial) {
            const Region &r = regions[rng.range(0, regions.size() - 1)];
            const std::size_t at = rng.range(r.begin, r.end - 1);
            std::vector<std::uint8_t> bytes = raw;
            std::string what = std::string(r.name) + " ";
            const std::uint64_t kind = rng.range(0, 3);
            if (kind == 0) {
                bytes.resize(at);
                what += "container cut at " + std::to_string(at);
            } else if (kind == 1 && r.section >= 0) {
                BinaryImage img = rw.image;
                Section &s = img.sections[r.section];
                s.bytes.resize(at - r.begin);
                bytes = img.serialize();
                what += "payload cut to " + std::to_string(at - r.begin);
            } else {
                for (std::uint64_t n = rng.range(1, 3); n > 0; --n) {
                    const std::size_t byte = rng.range(r.begin, r.end - 1);
                    bytes[byte] ^= 1u << rng.range(0, 7);
                    what += "flip@" + std::to_string(byte) + " ";
                }
            }
            SCOPED_TRACE(std::string(archName(arch)) + ": " + what);

            std::vector<SbfIssue> issues;
            const auto img = BinaryImage::tryDeserialize(bytes, issues);
            if (!img) {
                EXPECT_FALSE(issues.empty());
                ++rejected;
                continue;
            }
            ++accepted;
            EXPECT_TRUE(issues.empty());
            img->archInfo();
            img->fdeRecords();
            for (SectionKind kind :
                 {SectionKind::raMap, SectionKind::trapMap}) {
                const Section *s = img->findSection(kind);
                if (s && !s->bytes.empty()) {
                    EXPECT_TRUE(AddrPairMap::parse(s->bytes));
                }
            }
            // Loading allocates only the pages it writes, so any
            // memSize loads.
            EXPECT_NE(loadImage(*img), nullptr);
        }
    }
    // Both outcomes occur, so the sweep exercises both paths.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
}
