/**
 * @file
 * CFG data structures produced by binary analysis and consumed by
 * the rewriters: per-function flat arrays of basic blocks, decoded
 * instructions and typed edges, per-function jump-table results,
 * and the failure states of Figure 2 (analysis reporting failure /
 * over-approximation / under-approximation).
 */

#ifndef ICP_ANALYSIS_CFG_HH
#define ICP_ANALYSIS_CFG_HH

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/datadeps.hh"
#include "analysis/liveness.hh"
#include "binfmt/image.hh"
#include "isa/instruction.hh"

namespace icp
{

enum class EdgeKind : std::uint8_t
{
    fallthrough,
    taken,          ///< direct branch target
    callFallthrough,///< resume point after a call
    jumpTable,      ///< resolved indirect-jump target
};

struct Edge
{
    Addr target;
    EdgeKind kind;

    bool operator==(const Edge &) const = default;
};

/** A run [first, first + count) of one of a Function's arrays. */
struct IndexRange
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    bool operator==(const IndexRange &) const = default;
};

/**
 * A basic block: [start, end), its decoded instructions a range of
 * its Function's insns and its successors a range of its edges.
 * Ranges are indices, so a copied or moved Function's blocks refer
 * to that Function's own arrays. Binds as `const auto &[start,
 * block]`, block being the Block itself, so a loop over
 * Function::blocks reads like one over blocks keyed by start.
 */
struct Block
{
    Addr start = 0;
    Addr end = 0;

    IndexRange insns; ///< into Function::insns
    IndexRange succs; ///< intra-procedural successors, into Function::edges

    /** Direct call target, if the block ends in a Call. */
    std::optional<Addr> callTarget;

    /** Block ends in an unresolved indirect jump (tail call?). */
    bool endsInUnresolvedIndirect = false;

    /** Block ends in Ret / Halt / tail jump leaving the function. */
    bool endsFunction = false;

    std::uint64_t size() const { return end - start; }

    template <std::size_t I>
    const auto &
    get() const
    {
        if constexpr (I == 0)
            return start;
        else
            return *this;
    }
};

/** A resolved (or failed) jump table. */
struct JumpTable
{
    Addr jumpAddr = 0;       ///< address of the indirect jump
    Addr tableAddr = 0;      ///< first entry
    unsigned entrySize = 4;
    bool signedEntries = false;
    unsigned shift = 0;      ///< scale applied to entries (a64: 2)

    /** Entries are target-base-relative; absolute when empty. */
    std::optional<Addr> base;

    /**
     * Instruction addresses that materialize the table base —
     * the ones jump-table cloning overwrites to reference the clone.
     */
    std::vector<Addr> baseDefAddrs;

    /** Address of the table-entry load instruction. */
    Addr loadAddr = 0;

    unsigned entryCount = 0;
    std::vector<Addr> targets; ///< computed, in entry order

    /** True when the table bytes live inside .text (ppc64le). */
    bool embeddedInCode = false;

    bool operator==(const JumpTable &) const = default;
};

/** Why a function was marked uninstrumentable. */
enum class AnalysisFailure : std::uint8_t
{
    none = 0,
    jumpTableUnresolved, ///< couldn't find where a table starts (F1)
    gapsWithRealCode,    ///< unresolved jump + non-nop gaps
};

struct Function
{
    std::string name;
    Addr entry = 0;
    Addr end = 0; ///< entry + symbol size

    /**
     * The CFG as three flat arrays. blocks is sorted by start; insns
     * holds every block's instructions, block after block, each run
     * in address order; edges holds every block's successors, block
     * after block. Blocks on x86-64 may overlap (a leader inside
     * another block's run), so an instruction can appear twice.
     */
    std::vector<Block> blocks;
    std::vector<Instruction> insns;
    std::vector<Edge> edges;

    std::vector<JumpTable> jumpTables;

    /** Unresolved indirect jumps classified as tail calls. */
    std::vector<Addr> indirectTailCalls;

    AnalysisFailure failure = AnalysisFailure::none;

    /** Landing-pad block starts (from .eh_frame try ranges). */
    std::set<Addr> landingPads;

    /**
     * Analysis-cache key this function was built (or found) under;
     * 0 when caching was disabled (such a function is never
     * cached). The whole Function, with its read-set and liveness,
     * is one record under this key.
     */
    std::uint64_t cacheKey = 0;

    /**
     * Data bytes this function's analysis and clones read (jump
     * tables, constant-base data loads), finalized against the image
     * it was analyzed on, and cached with the rest of the function.
     * Cache hits keyed on code bytes are validated by re-hashing
     * these ranges, and RewriteSession::loadInput dirties a function
     * whose ranges no longer validate (DataDeps::validate) against
     * the edited image: one test for both.
     */
    DataDeps dataDeps;

    /**
     * Register liveness at every block start, one set per block
     * index, computed with the CFG on fixed-length ISAs (whose long
     * trampolines need a dead scratch register) and cached with the
     * rest of the function; empty on x86-64.
     */
    LivenessResult liveness;

    bool instrumentable() const
    {
        return failure == AnalysisFailure::none;
    }

    static constexpr std::size_t no_block = ~std::size_t{0};

    std::span<const Instruction>
    insnsOf(const Block &b) const
    {
        return {insns.data() + b.insns.first, b.insns.count};
    }

    const Instruction &
    last(const Block &b) const
    {
        return insns[b.insns.first + b.insns.count - 1];
    }

    std::span<const Edge>
    succsOf(const Block &b) const
    {
        return {edges.data() + b.succs.first, b.succs.count};
    }

    /** Index of the block starting at @p start (binary search), or
     *  no_block. */
    std::size_t blockIndex(Addr start) const;

    /** The block containing @p a (the last one starting at or
     *  before it), or null. */
    const Block *blockAt(Addr a) const;
    Block *blockAt(Addr a);

    /** Registers live at the start of the block at @p start: every
     *  register where no liveness was computed. */
    RegSet liveAtBlockStart(Addr start) const;

    /** A dead general-purpose register at the start of the block at
     *  @p start, or Reg::none when everything may be live. */
    Reg deadRegAt(Addr start) const;

    /** Blocks that are targets of resolved jump tables. */
    std::set<Addr> jumpTableTargets() const;
};

/**
 * One element of CfgModule::functions: an entry address and the
 * immutable Function analyzed there, shared with the analysis cache
 * (and with every later module built from the same cache entry).
 * Binds as `const auto &[entry, fn]`, with fn a `const Function &`.
 */
struct FunctionSlot
{
    Addr entry = 0;
    std::shared_ptr<const Function> fn;

    template <std::size_t I>
    const auto &
    get() const
    {
        if constexpr (I == 0)
            return entry;
        else
            return *fn;
    }
};

/** Whole-module analysis result. */
struct CfgModule
{
    const BinaryImage *image = nullptr;

    /** One slot per analyzed function, sorted by entry. */
    std::vector<FunctionSlot> functions;

    /** Totals for coverage reporting. */
    unsigned totalFunctions() const
    {
        return static_cast<unsigned>(functions.size());
    }
    unsigned instrumentableFunctions() const;

    /** The slot of the function entered at @p entry (binary
     *  search), or null. */
    const FunctionSlot *slotAt(Addr entry) const;

    /** The function entered at @p entry, or null. */
    const Function *functionAt(Addr entry) const;
};

} // namespace icp

template <>
struct std::tuple_size<icp::Block>
    : std::integral_constant<std::size_t, 2>
{
};

template <> struct std::tuple_element<0, icp::Block>
{
    using type = const icp::Addr;
};

template <> struct std::tuple_element<1, icp::Block>
{
    using type = const icp::Block;
};

template <>
struct std::tuple_size<icp::FunctionSlot>
    : std::integral_constant<std::size_t, 2>
{
};

template <> struct std::tuple_element<0, icp::FunctionSlot>
{
    using type = const icp::Addr;
};

template <> struct std::tuple_element<1, icp::FunctionSlot>
{
    using type = const icp::Function;
};

#endif // ICP_ANALYSIS_CFG_HH
