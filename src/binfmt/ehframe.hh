/**
 * @file
 * The .eh_frame analog: frame description entries (FDEs) that tell
 * the unwinder, for any pc inside a function, where the return
 * address lives and which landing pad (if any) covers a call site.
 * Records are serialized into section bytes and parsed back by the
 * runtime unwinder, so a rewritten binary genuinely depends on the
 * *original* addresses stored here — the property that makes runtime
 * RA translation necessary.
 */

#ifndef ICP_BINFMT_EHFRAME_HH
#define ICP_BINFMT_EHFRAME_HH

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace icp
{

/** A try-range within a function mapping to a landing pad. */
struct TryRange
{
    Offset startOff; ///< inclusive, from function start
    Offset endOff;   ///< exclusive
    Offset lpOff;    ///< landing pad offset from function start
};

/** Frame description for one function, addresses at preferred base. */
struct FdeRecord
{
    Addr start = 0;
    Addr end = 0;

    /** Bytes subtracted from sp by the prologue (0 for leaves). */
    std::uint32_t frameSize = 0;

    /**
     * Where the return address lives while inside the body:
     * on the stack at [sp + raOffset] (x64 always; fixed ISAs for
     * non-leaf functions), or in the link register (fixed leaves).
     */
    bool raOnStack = true;
    std::int32_t raOffset = 0;

    /**
     * True when the standard frame saved the callee-saved registers
     * (r8 at [sp+0], r9 at [sp+8], r6 at [sp+16]); the unwinder
     * restores them while popping the frame, as DWARF CFI would.
     */
    bool savesCalleeSaved = false;

    std::vector<TryRange> tryRanges;

    /** The landing pad covering @p off, if any. */
    std::optional<Offset> landingPadFor(Offset off) const;
};

/** Serialize FDE records into .eh_frame section bytes. */
std::vector<std::uint8_t>
serializeEhFrame(const std::vector<FdeRecord> &fdes);

/**
 * Parse .eh_frame section bytes back into records; nullopt when the
 * bytes are not exactly one serialized record list.
 */
std::optional<std::vector<FdeRecord>>
parseEhFrame(const std::vector<std::uint8_t> &bytes);

/**
 * The try ranges of the FDEs in .eh_frame @p bytes that start at one
 * of @p starts (ascending), read without materializing the other
 * records. FDEs without try ranges are left out; of several at one
 * start, the last in record order wins. Nullopt when the bytes are
 * not exactly one serialized record list.
 */
std::optional<std::map<Addr, std::vector<TryRange>>>
parseTryRanges(const std::vector<std::uint8_t> &bytes,
               const std::vector<Addr> &starts);

/**
 * FDE lookup table built once per module by the unwinder: binary
 * search over [start, end) ranges sorted by start address (records
 * with one start keep their record order).
 */
class FdeIndex
{
  public:
    explicit FdeIndex(std::vector<FdeRecord> fdes);

    /** The FDE covering @p pc (preferred-base address), if any. */
    const FdeRecord *find(Addr pc) const;

    const std::vector<FdeRecord> &records() const { return fdes_; }

  private:
    std::vector<FdeRecord> fdes_; // sorted by start
};

/**
 * For each of @p pcs (ascending), the [start, end) of the FDE that
 * FdeIndex::find would return, nullopt where none covers it, read
 * from .eh_frame @p bytes without materializing a record. Records
 * laid out by start, as serializeEhFrame's callers write them, take
 * one pass and memory for @p pcs only. Asserts on bytes that
 * parseEhFrame rejects.
 */
std::vector<std::optional<std::pair<Addr, Addr>>>
coveringFdes(const std::vector<std::uint8_t> &bytes,
             const std::vector<Addr> &pcs);

} // namespace icp

#endif // ICP_BINFMT_EHFRAME_HH
