/**
 * @file
 * Crafted malformed SBF inputs shared by the validation tests: each
 * is `icp compile micro --pie` of one ISA with one or two fields
 * changed. The first three are container defects that tryDeserialize
 * rejects naming a rule, and so is hugeSymbol; the rest decode
 * cleanly but cannot be rewritten (farFallthrough only on the
 * fixed-length ISAs; the two clone defects are aarch64 bit flips).
 * duplicateFuncPtrReloc crafts a well-formed edge case instead.
 */

#ifndef ICP_TESTS_CRAFTED_SBF_HH
#define ICP_TESTS_CRAFTED_SBF_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "binfmt/image.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "isa/bytes.hh"
#include "isa/instruction.hh"

namespace icp
{

enum class SbfDefect
{
    badArch,      ///< arch byte set to 7
    ehFrameCount, ///< .eh_frame FDE count plus one
    relocSite,    ///< first relocation site set to 0xdead0000
    noText,       ///< .text kind byte set to `other`
    farSection,   ///< .rodata address plus 2^36: beyond pc-relative reach
    wrappedBranch, ///< first conditional branch retargeted below address 0
    farFallthrough, ///< .eh_frame memSize 144 MB, main cut after a call
    cloneAnchor,    ///< aarch64: a jump table's anchor is not relocated
    cloneScale,     ///< aarch64: a cloned entry is not a whole scale
    hugeSymbol,     ///< .eh_frame memSize 2^41 holding a 2^40-byte symbol
};

/** The defects that decode but make relocated code unencodable. */
inline constexpr SbfDefect unencodable_sbf_defects[] = {
    SbfDefect::wrappedBranch, SbfDefect::farFallthrough};

/**
 * The aarch64 defects that decode but leave a jump table that cannot
 * be cloned against the relocated code (jt and func-ptr mode).
 */
inline constexpr SbfDefect unclonable_sbf_defects[] = {
    SbfDefect::cloneAnchor, SbfDefect::cloneScale};

/** The defects every reader handles alike (farSection is rewrite-only). */
inline constexpr SbfDefect all_sbf_defects[] = {
    SbfDefect::badArch, SbfDefect::ehFrameCount, SbfDefect::relocSite,
    SbfDefect::noText, SbfDefect::hugeSymbol};

inline const char *
sbfDefectName(SbfDefect defect)
{
    switch (defect) {
      case SbfDefect::badArch: return "bad-arch";
      case SbfDefect::ehFrameCount: return "eh-frame-count";
      case SbfDefect::relocSite: return "reloc-site";
      case SbfDefect::noText: return "no-text";
      case SbfDefect::farSection: return "far-section";
      case SbfDefect::wrappedBranch: return "wrapped-branch";
      case SbfDefect::farFallthrough: return "far-fallthrough";
      case SbfDefect::cloneAnchor: return "clone-anchor";
      case SbfDefect::cloneScale: return "clone-scale";
      case SbfDefect::hugeSymbol: return "huge-symbol";
    }
    return "?";
}

/** The rule tryDeserialize names, or null when the file decodes. */
inline const char *
sbfDefectRule(SbfDefect defect)
{
    switch (defect) {
      case SbfDefect::badArch: return "sbf-tag";
      case SbfDefect::ehFrameCount: return "sbf-payload";
      case SbfDefect::relocSite: return "sbf-reloc";
      case SbfDefect::noText: return nullptr;
      case SbfDefect::hugeSymbol: return "sbf-symbol";
      case SbfDefect::farSection:
      case SbfDefect::wrappedBranch:
      case SbfDefect::farFallthrough:
      case SbfDefect::cloneAnchor:
      case SbfDefect::cloneScale: return nullptr;
    }
    return nullptr;
}

/**
 * The first instruction in @p img's .text at or after @p from with
 * opcode @p op, or nullopt.
 */
inline std::optional<Instruction>
findInsn(const BinaryImage &img, Addr from, Opcode op)
{
    const Section *text = img.findSection(SectionKind::text);
    const ArchInfo &arch = img.archInfo();
    Instruction in;
    for (Addr at = from; at < text->addr + text->bytes.size();
         at += in.length) {
        const std::size_t off = at - text->addr;
        if (!arch.codec->decode(text->bytes.data() + off,
                                text->bytes.size() - off, at, in))
            return std::nullopt;
        if (in.op == op)
            return in;
    }
    return std::nullopt;
}

/** The serialized micro --pie image of @p arch with @p defect. */
inline std::vector<std::uint8_t>
craftSbf(Arch arch, SbfDefect defect)
{
    BinaryImage img = compileProgram(microProfile(arch, true));
    switch (defect) {
      case SbfDefect::badArch:
        break;
      case SbfDefect::ehFrameCount: {
        std::vector<std::uint8_t> &eh =
            img.findSection(SectionKind::ehFrame)->bytes;
        std::vector<std::uint8_t> count;
        putU32(count, getU32(eh.data()) + 1);
        std::copy(count.begin(), count.end(), eh.begin());
        break;
      }
      case SbfDefect::relocSite:
        img.relocs.at(0).site = 0xdead0000;
        break;
      case SbfDefect::noText:
        img.findSection(SectionKind::text)->kind = SectionKind::other;
        break;
      case SbfDefect::farSection:
        img.findSection(SectionKind::rodata)->addr += Addr{1} << 36;
        break;
      case SbfDefect::wrappedBranch: {
        // The most negative displacement the encoding holds: the
        // decoded target wraps below zero, out of reach of .instr.
        Section *text = img.findSection(SectionKind::text);
        Instruction jcc =
            findInsn(img, text->addr, Opcode::JmpCond).value();
        jcc.target = img.archInfo().fixedLength
                         ? jcc.addr - (Addr{1} << 21)
                         : jcc.addr + jcc.length - (Addr{1} << 31);
        std::vector<std::uint8_t> bytes;
        img.archInfo().codec->encode(jcc, jcc.addr, bytes);
        std::copy(bytes.begin(), bytes.end(),
                  text->bytes.begin() +
                      static_cast<std::ptrdiff_t>(jcc.addr - text->addr));
        break;
      }
      case SbfDefect::farFallthrough: {
        // .instr lands 144 MB above .text, and main's first call now
        // ends it, so the call's fall-through leaves the function: a
        // direct jump back to original code that only x86-64 reaches.
        img.findSection(SectionKind::ehFrame)->memSize = 144u << 20;
        for (Symbol &sym : img.symbols) {
            if (sym.name != "main")
                continue;
            const Instruction call =
                findInsn(img, sym.addr, Opcode::Call).value();
            sym.size = call.addr + call.length - sym.addr;
        }
        break;
      }
      case SbfDefect::hugeSymbol: {
        // .eh_frame claims 2 TiB, and the first function symbol moves
        // into it with 1 TiB: inside the section's address range, far
        // past its stored bytes.
        Section *eh = img.findSection(SectionKind::ehFrame);
        eh->memSize = Addr{1} << 41;
        for (Symbol &sym : img.symbols) {
            if (sym.kind != Symbol::Kind::function)
                continue;
            sym.addr = eh->addr;
            sym.size = Addr{1} << 40;
            break;
        }
        break;
      }
      case SbfDefect::cloneAnchor:
      case SbfDefect::cloneScale:
        break;
    }
    std::vector<std::uint8_t> raw = img.serialize();
    // Raw bit flips found by a seeded mutation sweep of the aarch64
    // file: cloneAnchor flips .text bytes at 0x12145 and 0x122a0,
    // cloneScale a .rela.dyn byte and the .text byte at 0x1213a.
    const auto flip = [&](std::size_t at, unsigned bit) {
        raw.at(at) ^= static_cast<std::uint8_t>(1u << bit);
    };
    switch (defect) {
      case SbfDefect::badArch:
        raw[4] = 7; // right after the magic
        break;
      case SbfDefect::cloneAnchor:
        flip(684, 5);
        flip(1031, 5);
        break;
      case SbfDefect::cloneScale:
        flip(1720, 0);
        flip(673, 2);
        break;
      default:
        break;
    }
    return raw;
}

/**
 * Append a second relocation at the site of @p img's first
 * relocation that points at a function entry, with the same addend:
 * a well-formed input whose rewritten pointer cell carries two
 * relocations. Returns that site (0 when no relocation points at a
 * function entry).
 */
inline Addr
duplicateFuncPtrReloc(BinaryImage &img)
{
    for (std::size_t i = 0; i < img.relocs.size(); ++i) {
        const Relocation rel = img.relocs[i];
        const Symbol *sym =
            img.functionContaining(static_cast<Addr>(rel.addend));
        if (!sym || sym->addr != static_cast<Addr>(rel.addend))
            continue;
        img.relocs.push_back(rel);
        return rel.site;
    }
    return 0;
}

} // namespace icp

#endif // ICP_TESTS_CRAFTED_SBF_HH
