/**
 * @file
 * Two-pass label-based assembler. Every instruction has a
 * deterministic encoded length on each ISA (there is no relaxation),
 * so the first pass assigns addresses and the second pass resolves
 * label targets and emits bytes.
 */

#ifndef ICP_ISA_ASSEMBLER_HH
#define ICP_ISA_ASSEMBLER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/arch.hh"
#include "isa/instruction.hh"

namespace icp
{

/**
 * Emits a code stream for one ISA starting at a fixed address.
 * Branch/address-formation instructions may reference labels; labels
 * are bound to the current position with bind(). finalize() resolves
 * everything and returns the bytes. An address-dependent encoding
 * that fails to reach its target is reported by the finalize()
 * overload that takes an error string, and is a hard error in the
 * other (for callers that control layout and keep references in
 * range).
 */
class Assembler
{
  public:
    using Label = int;

    Assembler(const ArchInfo &arch, Addr start);

    /** Allocate a fresh unbound label. */
    Label newLabel();

    /** Make room for @p items emitted items and @p labels labels. */
    void reserve(std::size_t items, std::size_t labels);

    /** Bind @p label to the current position. */
    void bind(Label label);

    /**
     * Bind @p label to an arbitrary absolute address — used for
     * cross-function targets whose final addresses the parallel
     * relocation pipeline only knows after layout.
     */
    void bindAt(Label label, Addr addr);

    /**
     * Move the whole stream to @p new_start before finalize().
     * Encoded lengths are address-independent, so only the start
     * address and every already-bound label shift; instructions with
     * absolute targets re-encode against the new addresses during
     * finalize(). Labels bound later via bindAt() are unaffected.
     */
    void rebase(Addr new_start);

    /** Append one instruction with operands fully resolved. */
    void emit(const Instruction &in);

    /**
     * Append a branch / Lea / AdrPage whose target is @p label,
     * resolved at finalize time.
     */
    void emitToLabel(Instruction in, Label label);

    /**
     * Materialize a 64-bit constant into @p rd. On x64 this is one
     * MovImm; on the fixed ISAs it is always a 4-instruction
     * movz/movk sequence so lengths stay value-independent.
     */
    void emitMovImm64(Reg rd, std::uint64_t value);

    /** Like emitMovImm64 but the value is a label address. */
    void emitMovLabel(Reg rd, Label label);

    /**
     * ppc64le TOC pair to a label: AddisToc rd, ha(off) followed by
     * AddImm rd, lo(off) where off = label - tocBase, resolved at
     * finalize.
     */
    void emitAddisTocPair(Reg rd, Label label, Addr toc_base);

    /** Reserve a data placeholder patched at finalize via callback. */
    void emitDataLabelDiff(Label target, Label base, unsigned size,
                           unsigned shift = 0);

    /** Pad with nops to the given alignment. */
    void alignTo(unsigned alignment);

    /** Address of the next emitted byte (valid during emission). */
    Addr here() const { return start_ + cursor_; }

    Addr startAddr() const { return start_; }

    /**
     * Resolve labels and encode; callable once. nullopt when an
     * instruction or label difference cannot be encoded at its final
     * address (a branch beyond its reach); @p error then names it.
     */
    std::optional<std::vector<std::uint8_t>> finalize(std::string &error);

    /** finalize() for streams that cannot fail: a failure asserts. */
    std::vector<std::uint8_t> finalize();

    /** Address a label was bound to (valid after binding). */
    Addr labelAddr(Label label) const;

    const ArchInfo &arch() const { return arch_; }

  private:
    struct Item
    {
        enum class Kind { instr, dataDiff };
        /** How a label reference patches the instruction. */
        enum class Fixup { none, target, movChunk, tocHi, tocLo };
        Kind kind = Kind::instr;
        Fixup fixup = Fixup::none;
        Addr tocBase = 0;             // for tocHi/tocLo
        Instruction in;
        Label targetLabel = -1;       // instr with label target
        // dataDiff: value = (labelAddr(a) - labelAddr(b)) >> shift
        Label diffA = -1;
        Label diffB = -1;
        unsigned diffSize = 0;
        unsigned diffShift = 0;
        Offset offset = 0;            // assigned in pass 1 (at emit)
        unsigned length = 0;
    };

    unsigned itemLength(const Item &item) const;

    const ArchInfo &arch_;
    Addr start_;
    Offset cursor_ = 0;
    std::vector<Item> items_;
    std::vector<Addr> labels_; // invalid_addr while unbound
    bool finalized_ = false;
};

} // namespace icp

#endif // ICP_ISA_ASSEMBLER_HH
