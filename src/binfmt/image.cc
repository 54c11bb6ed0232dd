#include "binfmt/image.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "binfmt/addr_map.hh"
#include "binfmt/stream_writer.hh"
#include "isa/bytes.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace icp
{

const Timer binfmt_encode_timer = Metrics::global().timer("binfmt.encode");
const Timer binfmt_decode_timer = Metrics::global().timer("binfmt.decode");

const char *
sectionKindName(SectionKind kind)
{
    switch (kind) {
      case SectionKind::text: return ".text";
      case SectionKind::rodata: return ".rodata";
      case SectionKind::data: return ".data";
      case SectionKind::bss: return ".bss";
      case SectionKind::dynsym: return ".dynsym";
      case SectionKind::dynstr: return ".dynstr";
      case SectionKind::relaDyn: return ".rela.dyn";
      case SectionKind::ehFrame: return ".eh_frame";
      case SectionKind::instr: return ".instr";
      case SectionKind::raMap: return ".ra_map";
      case SectionKind::trapMap: return ".trap_map";
      case SectionKind::newRodata: return ".newrodata";
      case SectionKind::other: return ".other";
    }
    return "?";
}

Section *
BinaryImage::findSection(const std::string &name)
{
    for (auto &s : sections) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

const Section *
BinaryImage::findSection(const std::string &name) const
{
    return const_cast<BinaryImage *>(this)->findSection(name);
}

Section *
BinaryImage::findSection(SectionKind kind)
{
    for (auto &s : sections) {
        if (s.kind == kind)
            return &s;
    }
    return nullptr;
}

const Section *
BinaryImage::findSection(SectionKind kind) const
{
    return const_cast<BinaryImage *>(this)->findSection(kind);
}

const Section *
BinaryImage::sectionAt(Addr a) const
{
    for (const auto &s : sections) {
        if (s.contains(a))
            return &s;
    }
    return nullptr;
}

Section *
BinaryImage::sectionAt(Addr a)
{
    return const_cast<Section *>(std::as_const(*this).sectionAt(a));
}

std::vector<const Symbol *>
BinaryImage::functionSymbols() const
{
    std::vector<const Symbol *> funcs;
    for (const auto &sym : symbols) {
        if (sym.kind == Symbol::Kind::function)
            funcs.push_back(&sym);
    }
    std::sort(funcs.begin(), funcs.end(),
              [](const Symbol *a, const Symbol *b) {
                  return a->addr < b->addr;
              });
    return funcs;
}

const Symbol *
BinaryImage::functionContaining(Addr a) const
{
    const Symbol *best = nullptr;
    for (const auto &sym : symbols) {
        if (sym.kind != Symbol::Kind::function)
            continue;
        if (a >= sym.addr && a < sym.addr + sym.size) {
            if (!best || sym.addr > best->addr)
                best = &sym;
        }
    }
    return best;
}

std::vector<FdeRecord>
BinaryImage::fdeRecords() const
{
    const Section *s = findSection(SectionKind::ehFrame);
    if (!s || s->bytes.empty())
        return {};
    auto fdes = parseEhFrame(s->bytes);
    icp_assert(fdes, "malformed .eh_frame");
    return std::move(*fdes);
}

void
BinaryImage::setFdeRecords(const std::vector<FdeRecord> &fdes)
{
    Section *s = findSection(SectionKind::ehFrame);
    icp_assert(s, "image has no .eh_frame");
    s->bytes = serializeEhFrame(fdes);
    s->memSize = s->bytes.size();
}

std::uint64_t
BinaryImage::loadedSize() const
{
    std::uint64_t total = 0;
    for (const auto &s : sections) {
        if (s.loadable)
            total += s.memSize;
    }
    return total;
}

std::optional<std::span<const std::uint8_t>>
BinaryImage::storedBytes(Addr addr, std::uint64_t len) const
{
    const Section *s = sectionAt(addr);
    if (!s || len > s->end() - addr)
        return std::nullopt;
    const Offset off = addr - s->addr;
    if (off >= s->bytes.size())
        return std::span<const std::uint8_t>();
    return std::span<const std::uint8_t>(
        s->bytes.data() + off,
        std::min<std::uint64_t>(len, s->bytes.size() - off));
}

bool
BinaryImage::readBytes(Addr addr, std::span<std::uint8_t> out) const
{
    const auto stored = storedBytes(addr, out.size());
    if (!stored)
        return false;
    std::copy(stored->begin(), stored->end(), out.begin());
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(stored->size()),
              out.end(), 0);
    return true;
}

bool
BinaryImage::readBytes(Addr addr, std::size_t len,
                       std::vector<std::uint8_t> &out) const
{
    // Bounds first: a symbol size is not validated against its
    // section, so an unreadable length must not be allocated.
    const Section *s = sectionAt(addr);
    if (!s || len > s->end() - addr)
        return false;
    out.resize(len);
    return readBytes(addr, std::span<std::uint8_t>(out));
}

std::optional<std::uint64_t>
BinaryImage::readValue(Addr addr, unsigned size) const
{
    std::uint8_t raw[8] = {};
    icp_assert(size <= sizeof(raw), "readValue size %u", size);
    if (!readBytes(addr, std::span<std::uint8_t>(raw, size)))
        return std::nullopt;
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
    return v;
}

std::optional<std::uint64_t>
BinaryImage::loadedValue(Addr addr, const RelocIndex &index,
                         std::int64_t slide) const
{
    std::uint8_t raw[8] = {};
    const Section *s = nullptr;
    for (unsigned i = 0; i < 8; ++i) {
        const Addr a = addr + i;
        if (!s || !s->contains(a)) {
            const auto it = std::find_if(
                sections.begin(), sections.end(),
                [a](const Section &x) {
                    return x.loadable && x.contains(a);
                });
            if (it == sections.end())
                return std::nullopt;
            s = &*it;
        }
        const Offset off = a - s->addr;
        raw[i] = off < s->bytes.size() ? s->bytes[off] : 0;
    }

    // A slot at site covers [site, site + 8): the slots that overlap
    // the cell start in [addr - 7, addr + 8). Per byte, the one
    // latest in relocation-list order wins.
    constexpr std::size_t none = ~std::size_t{0};
    std::size_t writer[8] = {none, none, none, none,
                             none, none, none, none};
    const Addr lo = addr < 7 ? 0 : addr - 7;
    for (const auto &[site, pos] : index.in(lo, addr + 8)) {
        for (unsigned i = 0; i < 8; ++i) {
            const Addr a = addr + i;
            if (a >= site && a - site < 8 &&
                (writer[i] == none || pos > writer[i]))
                writer[i] = pos;
        }
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i) {
        std::uint8_t byte = raw[i];
        if (writer[i] != none) {
            const Relocation &rel = relocs[writer[i]];
            const std::uint64_t value =
                static_cast<std::uint64_t>(rel.addend) +
                static_cast<std::uint64_t>(slide);
            byte = static_cast<std::uint8_t>(
                value >> (8 * (addr + i - rel.site)));
        }
        v |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return v;
}

bool
BinaryImage::writeBytes(Addr addr, const std::vector<std::uint8_t> &bytes)
{
    Section *s = sectionAt(addr);
    if (!s || addr + bytes.size() > s->end())
        return false;
    const Offset off = addr - s->addr;
    if (off + bytes.size() > s->bytes.size())
        s->bytes.resize(off + bytes.size(), 0);
    std::copy(bytes.begin(), bytes.end(), s->bytes.begin() + off);
    return true;
}

bool
BinaryImage::writeValue(Addr addr, std::uint64_t value, unsigned size)
{
    std::vector<std::uint8_t> raw(size);
    for (unsigned i = 0; i < size; ++i)
        raw[i] = static_cast<std::uint8_t>(value >> (8 * i));
    return writeBytes(addr, raw);
}

Addr
BinaryImage::highWaterMark(unsigned alignment) const
{
    Addr top = prefBase;
    for (const auto &s : sections)
        top = std::max(top, s.end());
    const Addr mask = alignment - 1;
    return (top + mask) & ~static_cast<Addr>(mask);
}

Section &
BinaryImage::addSection(Section section)
{
    for (const auto &s : sections) {
        const bool overlap = section.addr < s.end() &&
                             s.addr < section.end();
        icp_assert(!overlap, "section %s overlaps %s",
                   section.name.c_str(), s.name.c_str());
    }
    sections.push_back(std::move(section));
    return sections.back();
}

// --- serialization ---------------------------------------------------------

namespace
{

/** True when @p tag names an enumerator of an enum valued 0..last. */
template <typename Enum>
bool
knownTag(std::uint8_t tag, Enum last)
{
    return tag <= static_cast<std::uint8_t>(last);
}

/** True unless @p s's kind has a payload format its bytes break. */
bool
payloadParses(const Section &s)
{
    if (s.bytes.empty())
        return true;
    switch (s.kind) {
      case SectionKind::ehFrame:
        return parseEhFrame(s.bytes).has_value();
      case SectionKind::raMap:
      case SectionKind::trapMap:
        return AddrPairMap::parse(s.bytes).has_value();
      default:
        return true;
    }
}

} // namespace

std::vector<std::uint8_t>
BinaryImage::serialize() const
{
    const ScopedTimer timer(binfmt_encode_timer);
    std::vector<std::uint8_t> out;
    VectorSink sink(out);
    streamImage(*this, sink);
    return out;
}

std::optional<BinaryImage>
BinaryImage::tryDeserialize(const std::vector<std::uint8_t> &raw,
                            std::vector<SbfIssue> &issues)
{
    const ScopedTimer timer(binfmt_decode_timer);
    const std::size_t issues_before = issues.size();
    ByteReader rd(raw);
    BinaryImage img;
    // The part being decoded when a read first ran past the end.
    const char *part = "header";
    const auto enter = [&](const char *next) {
        if (!rd.failed())
            part = next;
    };

    if (rd.u32() != sbf_magic && !rd.failed()) {
        issues.push_back(
            {"sbf-magic", 0, "container does not start with SBF1"});
        return std::nullopt;
    }
    const std::uint8_t arch = rd.u8();
    img.arch = static_cast<Arch>(arch);
    img.pie = rd.u8() != 0;
    img.prefBase = rd.u64();
    img.entry = rd.u64();
    img.tocBase = rd.u64();
    img.soname = rd.str();
    img.features.cppExceptions = rd.u8();
    img.features.isGo = rd.u8();
    img.features.rustMetadata = rd.u8();
    img.features.symbolVersioning = rd.u8();
    img.features.fortranComponent = rd.u8();
    if (!rd.failed() && !knownTag(arch, Arch::aarch64)) {
        issues.push_back({"sbf-tag", 4,
                          "unknown arch tag " + std::to_string(arch)});
    }

    enter("section record");
    for (std::uint32_t i = 0, n = rd.u32(); i < n && !rd.failed(); ++i) {
        Section s;
        const std::size_t at = rd.pos();
        s.name = rd.str();
        const std::uint8_t kind = rd.u8();
        s.kind = static_cast<SectionKind>(kind);
        s.addr = rd.u64();
        s.memSize = rd.u64();
        const std::uint8_t flags = rd.u8();
        s.loadable = flags & 1;
        s.executable = flags & 2;
        s.writable = flags & 4;
        const std::uint32_t len = rd.u32();
        if (const std::uint8_t *bytes = rd.blob(len))
            s.bytes.assign(bytes, bytes + len);
        if (rd.failed())
            break;
        if (!knownTag(kind, SectionKind::other)) {
            issues.push_back({"sbf-tag", at,
                              "section " + s.name +
                                  " has unknown kind tag " +
                                  std::to_string(kind)});
        } else if (!payloadParses(s)) {
            issues.push_back({"sbf-payload", at,
                              "section " + s.name + " payload is not " +
                                  sectionKindName(s.kind) + " data"});
        }
        if (s.addr + s.memSize < s.addr) {
            issues.push_back({"sbf-section-bounds", at,
                              "section " + s.name +
                                  " address range wraps"});
        } else if (s.bytes.size() > s.memSize) {
            issues.push_back({"sbf-section-bounds", at,
                              "section " + s.name +
                                  " payload exceeds its memory size"});
        }
        for (const auto &prev : img.sections) {
            const bool overlap = s.addr < prev.end() &&
                                 prev.addr < s.addr + s.memSize;
            if (overlap) {
                issues.push_back({"sbf-section-overlap", at,
                                  "section " + s.name + " overlaps " +
                                      prev.name});
            }
        }
        img.sections.push_back(std::move(s));
    }

    enter("symbol");
    std::vector<std::size_t> symbol_offsets;
    for (std::uint32_t i = 0, n = rd.u32(); i < n && !rd.failed(); ++i) {
        Symbol sym;
        const std::size_t at = rd.pos();
        sym.name = rd.str();
        const std::uint8_t kind = rd.u8();
        sym.kind = static_cast<Symbol::Kind>(kind);
        sym.addr = rd.u64();
        sym.size = rd.u64();
        if (!rd.failed() && !knownTag(kind, Symbol::Kind::object)) {
            issues.push_back({"sbf-tag", at,
                              "symbol " + sym.name +
                                  " has unknown kind tag " +
                                  std::to_string(kind)});
        }
        symbol_offsets.push_back(at);
        img.symbols.push_back(std::move(sym));
    }

    enter("relocation");
    const std::size_t relocs_at = rd.pos() + 4;
    for (std::uint32_t i = 0, n = rd.u32(); i < n && !rd.failed(); ++i) {
        Relocation rel;
        rel.site = rd.u64();
        rel.addend = static_cast<std::int64_t>(rd.u64());
        img.relocs.push_back(rel);
    }

    enter("link relocation");
    for (std::uint32_t i = 0, n = rd.u32(); i < n && !rd.failed(); ++i) {
        LinkReloc rel;
        rel.site = rd.u64();
        rel.symbol = rd.str();
        rel.addend = static_cast<std::int64_t>(rd.u64());
        img.linkRelocs.push_back(std::move(rel));
    }

    if (rd.failed()) {
        issues.push_back({"sbf-truncated", rd.pos(),
                          std::string(part) +
                              " runs past end of container"});
        return std::nullopt;
    }

    // A function symbol lies inside one section's stored bytes, so
    // its code is always readable and never materializes zero fill.
    for (std::size_t i = 0; i < img.symbols.size(); ++i) {
        const Symbol &sym = img.symbols[i];
        if (sym.kind != Symbol::Kind::function)
            continue;
        const Section *s = img.sectionAt(sym.addr);
        if (!s) {
            issues.push_back({"sbf-symbol", symbol_offsets[i],
                              "function " + sym.name +
                                  " lies in no section"});
            continue;
        }
        const Offset off = sym.addr - s->addr;
        if (off <= s->bytes.size() && sym.size <= s->bytes.size() - off)
            continue;
        issues.push_back({"sbf-symbol", symbol_offsets[i],
                          "function " + sym.name +
                              " runs past its section's stored bytes"});
    }

    // Each relocation's 8-byte slot lies inside one loadable section:
    // a binary search over the sorted loadable ranges.
    std::vector<std::pair<Addr, Addr>> loadable;
    for (const Section &s : img.sections)
        if (s.loadable)
            loadable.emplace_back(s.addr, s.end());
    std::sort(loadable.begin(), loadable.end());
    for (std::size_t i = 0; i < img.relocs.size(); ++i) {
        const Addr site = img.relocs[i].site;
        auto it = std::upper_bound(loadable.begin(), loadable.end(),
                                   std::pair{site, ~Addr{0}});
        if (it != loadable.begin() && (--it)->second >= site &&
            it->second - site >= 8)
            continue;
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "relocation slot 0x%llx lies outside every "
                      "loadable section",
                      static_cast<unsigned long long>(site));
        issues.push_back({"sbf-reloc", relocs_at + 16 * i, msg});
    }

    if (issues.size() != issues_before)
        return std::nullopt;
    return img;
}

RelocIndex::RelocIndex(const std::vector<Relocation> &relocs)
{
    bySite_.reserve(relocs.size());
    for (std::size_t i = 0; i < relocs.size(); ++i)
        bySite_.emplace_back(relocs[i].site, i);
    std::sort(bySite_.begin(), bySite_.end());
}

RelocIndex::RelocIndex(const std::vector<Relocation> &relocs,
                       const std::vector<Addr> &cells)
{
    for (std::size_t i = 0; i < relocs.size(); ++i) {
        // A cell overlaps the slot when it starts in
        // [site - 7, site + 7].
        const Addr site = relocs[i].site;
        const Addr lo = site < 7 ? 0 : site - 7;
        const auto it = std::lower_bound(cells.begin(), cells.end(), lo);
        if (it != cells.end() && *it - lo <= site - lo + 7)
            bySite_.emplace_back(site, i);
    }
    std::sort(bySite_.begin(), bySite_.end());
}

std::span<const RelocIndex::Entry>
RelocIndex::in(Addr lo, Addr hi) const
{
    const auto first =
        std::lower_bound(bySite_.begin(), bySite_.end(), Entry{lo, 0});
    const auto last = std::lower_bound(first, bySite_.end(),
                                       Entry{std::max(lo, hi), 0});
    return {first, last};
}

} // namespace icp
