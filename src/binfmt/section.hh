/**
 * @file
 * Sections of the SBF (Simple Binary Format) image: the synthetic
 * stand-in for ELF used throughout this reproduction. Section roles
 * mirror the ones the paper manipulates: .text, .rodata, .data,
 * .dynsym/.dynstr/.rela_dyn (movable, reusable as scratch),
 * .eh_frame (never modified by our rewriter), and the sections a
 * rewrite adds: .instr, .ra_map, .trap_map, .newrodata.
 */

#ifndef ICP_BINFMT_SECTION_HH
#define ICP_BINFMT_SECTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/types.hh"

namespace icp
{

enum class SectionKind : std::uint8_t
{
    text,      ///< original code
    rodata,    ///< read-only data (jump tables, constants)
    data,      ///< writable data (function-pointer cells, vtabs)
    bss,       ///< zero-initialized data
    dynsym,    ///< dynamic symbols (movable)
    dynstr,    ///< dynamic strings (movable)
    relaDyn,   ///< runtime relocations (movable)
    ehFrame,   ///< unwind records; our rewriter never touches it
    instr,     ///< relocated code + instrumentation (added by rewrite)
    raMap,     ///< relocated RA -> original RA map (added by rewrite)
    trapMap,   ///< trap site -> target map (added by rewrite)
    newRodata, ///< cloned jump tables (added by rewrite)
    other,
};

/** Printable canonical name for a section kind (".text", ...). */
const char *sectionKindName(SectionKind kind);

struct Section
{
    std::string name;
    SectionKind kind = SectionKind::other;

    /** Virtual address at the image's preferred base. */
    Addr addr = 0;

    /** File contents; memSize - bytes.size() is zero fill. */
    std::vector<std::uint8_t> bytes;
    std::uint64_t memSize = 0;

    bool loadable = true;
    bool executable = false;
    bool writable = false;

    Addr end() const { return addr + memSize; }

    bool
    contains(Addr a) const
    {
        return a >= addr && a < end();
    }
};

/** A symbol; functions drive CFG construction and coverage metrics. */
struct Symbol
{
    enum class Kind : std::uint8_t { function, object };

    std::string name;
    Kind kind = Kind::function;
    Addr addr = 0;
    std::uint64_t size = 0;

    bool operator==(const Symbol &) const = default;
};

/**
 * A runtime relocation (R_*_RELATIVE analog): at load time the
 * loader writes loadBase + addend into the 8-byte slot at
 * site (site itself also slides with the load base).
 */
struct Relocation
{
    Addr site = 0;
    std::int64_t addend = 0;

    bool operator==(const Relocation &) const = default;
};

/**
 * A link-time relocation retained via the -Wl,-q analog. BOLT-style
 * function reordering requires these; they are absent by default.
 */
struct LinkReloc
{
    Addr site = 0;
    std::string symbol;
    std::int64_t addend = 0;

    bool operator==(const LinkReloc &) const = default;
};

} // namespace icp

#endif // ICP_BINFMT_SECTION_HH
