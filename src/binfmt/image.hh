/**
 * @file
 * The SBF binary image: the unit that the synthetic compiler emits,
 * the analyses consume, the rewriters transform, and the loader maps
 * into simulated memory.
 */

#ifndef ICP_BINFMT_IMAGE_HH
#define ICP_BINFMT_IMAGE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "binfmt/ehframe.hh"
#include "binfmt/section.hh"
#include "isa/arch.hh"

namespace icp
{

/** The load slide applied to PIE images by default (0 for non-PIE). */
inline constexpr std::int64_t default_pie_slide = 0x10000000;

/**
 * Source-language / toolchain features recorded as image metadata.
 * The baseline rewriters consult these to reproduce the paper's
 * failure matrix (e.g. IR lowering fails on C++ exceptions, Rust
 * metadata, Go binaries, and symbol versioning).
 */
struct LangFeatures
{
    bool cppExceptions = false;
    bool isGo = false;
    bool rustMetadata = false;
    bool symbolVersioning = false;
    bool fortranComponent = false;

    bool operator==(const LangFeatures &) const = default;
};

/** The first four bytes of every SBF container: "SBF1". */
constexpr std::uint32_t sbf_magic = 0x31464253;

/**
 * A structured finding from SBF container validation. Rule ids:
 * "sbf-magic" (bad magic), "sbf-truncated" (field or payload runs
 * past the end of the blob), "sbf-tag" (unknown arch, section-kind
 * or symbol-kind tag), "sbf-section-bounds" (section payload larger
 * than its memory size, or address range wraps),
 * "sbf-section-overlap" (two sections share addresses),
 * "sbf-payload" (an .eh_frame, .ra_map or .trap_map payload does not
 * parse), "sbf-symbol" (a function symbol outside one section's
 * stored bytes) and "sbf-reloc" (a relocation slot
 * outside every loadable section).
 */
struct SbfIssue
{
    std::string rule;
    std::size_t offset = 0; ///< byte offset into the raw blob
    std::string message;
};

class RelocIndex;

/**
 * A complete binary: sections, symbols, relocations, unwind records,
 * and metadata. All addresses are at the preferred base; PIE images
 * may be loaded at a different base with runtime relocations applied.
 */
class BinaryImage
{
  public:
    Arch arch = Arch::x64;
    bool pie = false;

    /** Preferred (link-time) base address. */
    Addr prefBase = 0;

    /** Entry point (at preferred base). */
    Addr entry = 0;

    /** ppc64le TOC anchor value (at preferred base). */
    Addr tocBase = 0;

    std::string soname; ///< empty for executables

    std::vector<Section> sections;
    std::vector<Symbol> symbols;
    std::vector<Relocation> relocs;
    std::vector<LinkReloc> linkRelocs;
    LangFeatures features;

    // --- accessors ------------------------------------------------------

    Section *findSection(const std::string &name);
    const Section *findSection(const std::string &name) const;

    Section *findSection(SectionKind kind);
    const Section *findSection(SectionKind kind) const;

    /** The section containing address @p a, if any. */
    const Section *sectionAt(Addr a) const;
    Section *sectionAt(Addr a);

    /** All function symbols sorted by address. */
    std::vector<const Symbol *> functionSymbols() const;

    /** The function symbol whose [addr, addr+size) contains @p a. */
    const Symbol *functionContaining(Addr a) const;

    /** Parsed .eh_frame records (empty when no section). */
    std::vector<FdeRecord> fdeRecords() const;

    /** Replace the .eh_frame section contents. */
    void setFdeRecords(const std::vector<FdeRecord> &fdes);

    /**
     * Total size of loadable sections — what binutils' `size`
     * reports; the metric used for Table 3's size-increase columns.
     */
    std::uint64_t loadedSize() const;

    /**
     * The stored bytes of the @p len bytes at @p addr, in place: a
     * prefix of them, shorter than @p len when the rest lies in zero
     * fill. Nullopt unless one section holds them all.
     */
    std::optional<std::span<const std::uint8_t>>
    storedBytes(Addr addr, std::uint64_t len) const;

    /**
     * Copy the out.size() bytes at @p addr into @p out, reading zero
     * past the section's file bytes; false unless one section holds
     * them all. Allocates nothing.
     */
    bool readBytes(Addr addr, std::span<std::uint8_t> out) const;

    /** Read bytes at a preferred-base address range from sections. */
    bool readBytes(Addr addr, std::size_t len,
                   std::vector<std::uint8_t> &out) const;

    /** Read a little-endian value of @p size bytes at @p addr. */
    std::optional<std::uint64_t> readValue(Addr addr,
                                           unsigned size) const;

    /**
     * The little-endian value of the 8-byte cell at @p addr once a
     * loader has mapped this image at @p slide and applied its
     * relocations, computed without mapping anything: the section
     * bytes (zero past bytes.size()), then every relocation slot
     * overlapping the cell written with addend + slide in
     * relocation-list order, the last writer winning byte by byte.
     * @p index indexes this image's relocs. nullopt when any byte
     * lies outside every loadable section.
     */
    std::optional<std::uint64_t> loadedValue(Addr addr,
                                             const RelocIndex &index,
                                             std::int64_t slide) const;

    /** Write bytes into the containing section. */
    bool writeBytes(Addr addr, const std::vector<std::uint8_t> &bytes);

    /** Write a little-endian value of @p size bytes at @p addr. */
    bool writeValue(Addr addr, std::uint64_t value, unsigned size);

    /** First free address after all sections, rounded up. */
    Addr highWaterMark(unsigned alignment = 4096) const;

    /** Append a section; address must not overlap existing ones. */
    Section &addSection(Section section);

    // --- serialization ---------------------------------------------------

    std::vector<std::uint8_t> serialize() const;

    /**
     * The one validation point for SBF input: a malformed container
     * produces structured SbfIssue diagnostics instead of aborting.
     * Returns nullopt (with at least one issue appended) on any
     * violation. Every later parser of an image this accepted (the
     * arch table, .eh_frame, the address maps, the loader's
     * relocations) asserts only invariants that hold here.
     */
    static std::optional<BinaryImage>
    tryDeserialize(const std::vector<std::uint8_t> &raw,
                   std::vector<SbfIssue> &issues);

    const ArchInfo &archInfo() const { return ArchInfo::get(arch); }
};

/**
 * The relocations of one image ordered by site, built once per
 * operation: "which relocations sit at these addresses" is a binary
 * search instead of a scan of every relocation.
 */
class RelocIndex
{
  public:
    /** A relocation's site and its position in the indexed vector. */
    using Entry = std::pair<Addr, std::size_t>;

    explicit RelocIndex(const std::vector<Relocation> &relocs);

    /**
     * Index only the relocations whose 8-byte slot overlaps the
     * 8-byte cell at one of @p cells (ascending): enough for
     * BinaryImage::loadedValue of those cells, at one filter pass
     * over the list instead of a sort of all of it.
     */
    RelocIndex(const std::vector<Relocation> &relocs,
               const std::vector<Addr> &cells);

    /** The relocations whose site lies in [lo, hi), ordered by site,
     *  then position. */
    std::span<const Entry> in(Addr lo, Addr hi) const;

    /** The relocations at exactly @p site. */
    std::span<const Entry>
    at(Addr site) const
    {
        return in(site, site + 1);
    }

  private:
    std::vector<Entry> bySite_;
};

} // namespace icp

#endif // ICP_BINFMT_IMAGE_HH
