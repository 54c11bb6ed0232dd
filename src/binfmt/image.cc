#include "binfmt/image.hh"

#include <algorithm>
#include <cstring>
#include <utility>

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
    return parseEhFrame(s->bytes);
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

bool
BinaryImage::readBytes(Addr addr, std::size_t len,
                       std::vector<std::uint8_t> &out) const
{
    const Section *s = sectionAt(addr);
    if (!s || addr + len > s->end())
        return false;
    out.resize(len);
    const Offset off = addr - s->addr;
    for (std::size_t i = 0; i < len; ++i) {
        out[i] = (off + i < s->bytes.size()) ? s->bytes[off + i] : 0;
    }
    return true;
}

std::optional<std::uint64_t>
BinaryImage::readValue(Addr addr, unsigned size) const
{
    std::vector<std::uint8_t> raw;
    if (!readBytes(addr, size, raw))
        return std::nullopt;
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
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

constexpr std::uint32_t sbf_magic = 0x31464253; // "SBF1"

/**
 * Bounds-checked sequential reader over the raw blob. The first
 * out-of-range read records an sbf-truncated issue and latches the
 * failed state; subsequent reads return zeros so the caller can
 * bail out at the next checkpoint without testing every field.
 */
class SbfReader
{
  public:
    SbfReader(const std::vector<std::uint8_t> &raw,
              std::vector<SbfIssue> &issues)
        : raw_(raw), issues_(issues)
    {
    }

    bool failed() const { return failed_; }
    std::size_t pos() const { return pos_; }

    std::uint8_t
    u8()
    {
        if (!need(1, "1-byte field"))
            return 0;
        return raw_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4, "4-byte field"))
            return 0;
        const std::uint32_t v = getU32(raw_.data() + pos_);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8, "8-byte field"))
            return 0;
        const std::uint64_t v = getU64(raw_.data() + pos_);
        pos_ += 8;
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!need(len, "string payload"))
            return {};
        std::string s(
            raw_.begin() + static_cast<std::ptrdiff_t>(pos_),
            raw_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
        pos_ += len;
        return s;
    }

    std::vector<std::uint8_t>
    blob(std::uint32_t len)
    {
        if (!need(len, "section payload"))
            return {};
        std::vector<std::uint8_t> bytes(
            raw_.begin() + static_cast<std::ptrdiff_t>(pos_),
            raw_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
        pos_ += len;
        return bytes;
    }

  private:
    bool
    need(std::uint64_t len, const char *what)
    {
        if (failed_)
            return false;
        if (pos_ + len > raw_.size()) {
            failed_ = true;
            issues_.push_back(
                {"sbf-truncated", pos_,
                 std::string(what) + " runs past end of container"});
            return false;
        }
        return true;
    }

    const std::vector<std::uint8_t> &raw_;
    std::vector<SbfIssue> &issues_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

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
    BinaryImage img;
    SbfReader rd(raw, issues);

    const std::size_t magic_at = rd.pos();
    if (rd.u32() != sbf_magic) {
        if (!rd.failed()) {
            issues.push_back({"sbf-magic", magic_at,
                              "container does not start with SBF1"});
        }
        return std::nullopt;
    }
    img.arch = static_cast<Arch>(rd.u8());
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

    const std::uint32_t nsec = rd.u32();
    for (std::uint32_t i = 0; i < nsec && !rd.failed(); ++i) {
        Section s;
        const std::size_t at = rd.pos();
        s.name = rd.str();
        s.kind = static_cast<SectionKind>(rd.u8());
        s.addr = rd.u64();
        s.memSize = rd.u64();
        const std::uint8_t flags = rd.u8();
        s.loadable = flags & 1;
        s.executable = flags & 2;
        s.writable = flags & 4;
        s.bytes = rd.blob(rd.u32());
        if (rd.failed())
            break;
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

    const std::uint32_t nsym = rd.u32();
    for (std::uint32_t i = 0; i < nsym && !rd.failed(); ++i) {
        Symbol sym;
        sym.name = rd.str();
        sym.kind = static_cast<Symbol::Kind>(rd.u8());
        sym.addr = rd.u64();
        sym.size = rd.u64();
        img.symbols.push_back(std::move(sym));
    }

    const std::uint32_t nrel = rd.u32();
    for (std::uint32_t i = 0; i < nrel && !rd.failed(); ++i) {
        Relocation rel;
        rel.site = rd.u64();
        rel.addend = static_cast<std::int64_t>(rd.u64());
        img.relocs.push_back(rel);
    }

    const std::uint32_t nlrel = rd.u32();
    for (std::uint32_t i = 0; i < nlrel && !rd.failed(); ++i) {
        LinkReloc rel;
        rel.site = rd.u64();
        rel.symbol = rd.str();
        rel.addend = static_cast<std::int64_t>(rd.u64());
        img.linkRelocs.push_back(std::move(rel));
    }

    if (rd.failed() || !issues.empty())
        return std::nullopt;
    return img;
}

BinaryImage
BinaryImage::deserialize(const std::vector<std::uint8_t> &raw)
{
    std::vector<SbfIssue> issues;
    auto img = tryDeserialize(raw, issues);
    if (!img) {
        if (issues.empty())
            issues.push_back({"sbf-truncated", 0, "empty container"});
        const SbfIssue &first = issues.front();
        icp_fatal("SBF load failed: [%s] %s (offset %zu)",
                  first.rule.c_str(), first.message.c_str(),
                  first.offset);
    }
    return std::move(*img);
}

} // namespace icp
