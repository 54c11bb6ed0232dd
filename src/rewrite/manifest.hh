/**
 * @file
 * The rewrite manifest: a structured record of every artifact the
 * rewriter emitted — trampoline patches with their byte extents,
 * cloned jump tables, rewritten function-pointer cells, donated
 * scratch ranges, and the engine's flat address maps. The static
 * soundness verifier (src/verify/) checks the rewritten image
 * against this record; the rewriter fills it when
 * RewriteOptions::lint is set.
 */

#ifndef ICP_REWRITE_MANIFEST_HH
#define ICP_REWRITE_MANIFEST_HH

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/datadeps.hh"
#include "rewrite/trampoline.hh"

namespace icp
{

/**
 * Flat (original address, relocated address) pairs sorted by
 * original address, one entry per key: the engine's block and
 * instruction maps, kept in this layout through the manifest.
 */
using AddrPairs = std::vector<std::pair<Addr, Addr>>;

/** Binary-search @p map for @p orig's relocated address. */
inline std::optional<Addr>
flatLookup(const AddrPairs &map, Addr orig)
{
    auto it = std::lower_bound(
        map.begin(), map.end(), orig,
        [](const std::pair<Addr, Addr> &p, Addr v) {
            return p.first < v;
        });
    if (it == map.end() || it->first != orig)
        return std::nullopt;
    return it->second;
}

/** One trampoline installation: where, what form, which bytes. */
struct TrampolinePatch
{
    Addr site = 0;      ///< CFL block start the trampoline replaces
    Addr funcEntry = 0; ///< containing function
    Addr target = 0;    ///< relocated destination the chain must reach
    TrampolineKind kind = TrampolineKind::trap;
    Reg scratchReg = Reg::none; ///< dead register used by long forms
    std::uint64_t space = 0;    ///< superblock bytes available at site

    /** Byte extents written, as (address, length) pairs. */
    std::vector<std::pair<Addr, std::uint64_t>> writes;

    bool operator==(const TrampolinePatch &) const = default;
};

/** One cloned jump table placed in .newrodata. */
struct JumpTableClonePatch
{
    Addr jumpAddr = 0;      ///< original indirect jump
    Addr funcEntry = 0;     ///< containing function
    Addr cloneAddr = 0;     ///< first clone entry
    unsigned entrySize = 4; ///< clone entry size (possibly widened)
    unsigned entryCount = 0;
    unsigned shift = 0;     ///< scale applied to relative entries
    bool widened = false;

    /** Original base anchor; nullopt = absolute entries. */
    std::optional<Addr> origBase;
    Addr origTableAddr = 0;
    std::vector<Addr> origTargets; ///< original targets, entry order

    bool operator==(const JumpTableClonePatch &) const = default;
};

/** One rewritten function-pointer definition. */
struct FuncPtrPatch
{
    enum class Kind : std::uint8_t
    {
        dataCell, ///< initialized 8-byte cell + runtime relocation
        codeDef,  ///< pointer materialized by instructions
    };

    Kind kind = Kind::dataCell;
    Addr site = 0;      ///< data cell address (dataCell only)
    Addr funcEntry = 0; ///< pointee function
    std::int64_t delta = 0; ///< displaced-pointer offset (§5.2)
    Addr newValue = 0;  ///< rewritten pointer value

    bool operator==(const FuncPtrPatch &) const = default;
};

/**
 * One relocated function's extent inside .instr: where the engine
 * placed it and how many bytes it emitted (excluding the alignment
 * padding that follows). Recorded so a later selective re-rewrite
 * (RewriteSession::repair) can splice a re-emitted function into the
 * previous layout and reuse every other function's bytes verbatim.
 */
struct FuncSpan
{
    Addr entry = 0;          ///< original function entry
    Addr base = 0;           ///< relocated base inside .instr
    std::uint64_t size = 0;  ///< emitted bytes (without padding)

    bool operator==(const FuncSpan &) const = default;
};

struct RewriteManifest
{
    /** False when the rewrite ran with RewriteOptions::lint off. */
    bool populated = false;

    /** Original block start -> relocated address. */
    AddrPairs blockMap;

    /** Original instruction -> relocated address. */
    AddrPairs insnMap;

    /** (relocated return address -> original return address). */
    std::vector<std::pair<Addr, Addr>> raPairs;

    std::vector<TrampolinePatch> trampolines;
    std::vector<JumpTableClonePatch> clones;
    std::vector<FuncPtrPatch> funcPtrs;

    /** Relocated function extents in emission order (§3 reuse). */
    std::vector<FuncSpan> funcSpans;

    /** Scratch ranges donated to the multi-hop pool (addr, len). */
    std::vector<std::pair<Addr, std::uint64_t>> scratchRanges;

    /** Embedded jump-table data no patch may touch ([lo, hi)). */
    std::vector<std::pair<Addr, Addr>> protectedRanges;

    /** Entries of the instrumented (relocated) functions. */
    std::set<Addr> instrumented;

    /**
     * Per-function data read-sets (function entry -> finalized
     * ranges), copied from the analyzed CFG. The datadep-* lint
     * rules audit these against a recomputation from the original
     * image. Data-edit invalidation does not read them:
     * RewriteSession::loadInput runs DataDeps::validate on the
     * session CFG's functions instead.
     */
    std::map<Addr, DataDeps> dataDeps;

    /**
     * When fault injection ran (RewriteOptions::injectDefect), the
     * id of the lint rule the planted defect must trip; empty when
     * no defect was applicable or injection was off.
     */
    std::string injectedRule;
};

} // namespace icp

#endif // ICP_REWRITE_MANIFEST_HH
