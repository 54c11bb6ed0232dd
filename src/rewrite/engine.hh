/**
 * @file
 * The code-relocation engine: translates instrumented functions into
 * the .instr section, inserting instrumentation snippets, rewriting
 * direct control flow, cloning jump tables, recording the RA map,
 * and optionally emulating calls or permuting block order (for the
 * baselines and the BOLT comparison).
 */

#ifndef ICP_REWRITE_ENGINE_HH
#define ICP_REWRITE_ENGINE_HH

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/funcptr.hh"
#include "rewrite/manifest.hh"
#include "rewrite/options.hh"

namespace icp
{

/**
 * Placement of one cloned jump table in .newrodata. Owns a copy of
 * the source table so the plan outlives the CFG it came from (the
 * sharded rewrite drops each range's CFG between passes).
 */
struct TableClone
{
    JumpTable table;
    Addr funcEntry = 0; ///< owning function
    Addr cloneAddr = 0;
    unsigned entrySize = 0; ///< possibly widened (a64 1/2 -> 4)
    bool widened = false;
};

/**
 * Previous-pass artifacts for a selective re-rewrite
 * (RewriteSession::repair): the prior manifest's function spans and
 * .instr bytes, plus the set of dirty function entries that must
 * re-emit. Functions outside the dirty set splice their previous
 * bytes verbatim.
 */
struct EngineReuse
{
    const RewriteManifest *manifest = nullptr;
    const std::vector<std::uint8_t> *instrBytes = nullptr;
    const std::set<Addr> *dirty = nullptr;

    bool
    valid() const
    {
        return manifest && manifest->populated && instrBytes &&
               dirty && !manifest->funcSpans.empty();
    }
};

struct EngineConfig
{
    RewriteMode mode = RewriteMode::funcPtr;
    bool callEmulation = false;
    InstrumentationSpec instrumentation;
    OrderPolicy blockOrder = OrderPolicy::original;

    Addr instrBase = 0;
    Addr newRodataBase = 0;

    /** Instrument findfunc/pcvalue entries with RA translation. */
    bool goRaTranslation = false;

    /** Relocated function alignment (IR lowering compacts to 4). */
    unsigned functionAlign = 16;

    /**
     * Worker threads for per-function emission (0 = hardware
     * concurrency, 1 = sequential). Output bytes are identical for
     * every value; 1 additionally skips the speculative-emission
     * machinery and emits each function directly at its final base.
     */
    unsigned threads = 1;
};

/**
 * The relocation engine, driven one function list at a time so a
 * caller never needs the whole-module CFG at once. Every list is in
 * emission order; lists arrive in ascending address order when there
 * is more than one.
 *
 *   1. plan:   plan() over every list before any layout — jump-table
 *              clones, operand substitutions, counter ids, and the
 *              relocated-block set (which decides, during emission,
 *              whether a branch targets relocated or original code).
 *   2. layout: layout() over every list — emits each function at its
 *              final base and records the flat block / instruction /
 *              return-address maps and the function spans. With
 *              @c keep the assembler streams stay alive for emit();
 *              otherwise they are dropped and emit() re-emits, which
 *              reproduces the same bytes (emission is deterministic
 *              in (function, base)).
 *   3. emit:   emit() once per span in span order — binds
 *              cross-function branches against the complete block
 *              map and returns the finalized bytes.
 *
 * relocate() runs all three over one list and returns the whole
 * .instr payload.
 */
class Engine
{
  public:
    Engine(const BinaryImage &image, const EngineConfig &config);
    ~Engine();
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    void plan(const std::vector<const Function *> &funcs);
    void layout(const std::vector<const Function *> &funcs, bool keep);

    /**
     * Selective re-rewrite: adopt @p reuse's layout for @p funcs
     * (the complete emission order), re-emitting only the dirty
     * functions at their previous bases. Returns false, leaving the
     * layout empty, when the previous layout cannot be reproduced
     * exactly (a dirty function's size, block, instruction or
     * return-address offsets changed); the caller then falls back
     * to layout().
     */
    bool layoutReused(const std::vector<const Function *> &funcs,
                      const EngineReuse &reuse);

    /**
     * Replay (RewritePass): take @p prev's complete layout, moved
     * out of it, as this engine's own — its block / instruction /
     * return-address maps, spans and counter ids — without planning
     * or laying out anything. relayout() then re-emits single
     * functions against it, and release() moves it back.
     */
    void adopt(RewriteResult &prev);

    /** Move an adopted layout into @p result's manifest and counters. */
    void release(RewriteResult &result);

    /**
     * After adopt(): plan @p func's jump-table clones from
     * @p first_clone (its first .newrodata slot) and re-emit it at
     * span @p i's base for emit(). False when it does not reproduce
     * its slice of the adopted layout.
     */
    bool relayout(std::size_t i, const Function &func, Addr first_clone);

    /**
     * Final bytes of span @p i, whose function is @p func. nullopt
     * when an instruction cannot be encoded at its final address (a
     * branch back to original code beyond its reach); @p error then
     * names it.
     */
    std::optional<std::vector<std::uint8_t>>
    emit(std::size_t i, const Function &func, std::string &error);

    /**
     * plan + layout + emit over @p funcs: the .instr payload. nullopt
     * when emit() cannot encode an instruction; @p error names it.
     */
    std::optional<std::vector<std::uint8_t>>
    relocate(const std::vector<const Function *> &funcs,
             std::string &error);

    /** The inter-span alignment padding bytes (encoded nops). */
    std::vector<std::uint8_t> paddingBytes(Addr from, Addr to) const;

    /**
     * The .newrodata payload (valid once layout is complete). nullopt
     * when a cloned entry cannot be encoded against the relocated
     * code (an anchor that was not relocated, or a distance the
     * entry's scale or width cannot hold); @p error then names the
     * table.
     */
    std::optional<std::vector<std::uint8_t>>
    cloneBytes(std::string &error) const;

    /** Relocated address of an original block start, if relocated. */
    std::optional<Addr> lookupBlock(Addr orig) const;

    /** Relocated address of an original instruction, if relocated. */
    std::optional<Addr> lookupInsn(Addr orig) const;

    const AddrPairs &blockMap() const { return blockMap_; }
    const AddrPairs &insnMap() const { return insnMap_; }

    /** (relocated RA -> original RA), emission order. */
    const AddrPairs &raPairs() const { return raPairs_; }

    /** Function extents in emission order. */
    const std::vector<FuncSpan> &spans() const { return spans_; }

    /** First address past the last laid-out span. */
    Addr layoutEnd() const { return cursor_; }

    /** Spans spliced from a previous pass by layoutReused(). */
    unsigned reusedFunctions() const { return reusedCount_; }

    const std::vector<TableClone> &clones() const { return clones_; }

    /** Counter-id maps (block start / entry -> CallRt id). */
    const std::map<Addr, std::uint32_t> &
    blockCounters() const
    {
        return blockCounters_;
    }
    const std::map<Addr, std::uint32_t> &
    entryCounters() const
    {
        return entryCounters_;
    }

  private:
    struct FuncStream;

    /** How a relocated instruction's address operand is substituted. */
    struct Subst
    {
        enum class Role : std::uint8_t
        {
            whole, ///< Lea/MovImm: replace the full target
            hi,    ///< AddisToc / AdrPage half of a pair
            lo,    ///< AddImm half of a pair
        };
        Role role = Role::whole;
        Addr newTarget = 0;
    };

    void planClones(const Function &func);
    void assignCounters(const Function &func);
    std::vector<const Block *>
    blockEmitOrder(const Function &func) const;
    FuncStream emitStream(const Function &func, Addr base) const;
    bool sliceMatches(const FuncStream &fs, const Function &func,
                      const FuncSpan &span, const AddrPairs &blocks,
                      const AddrPairs &insns, const AddrPairs &ras) const;
    bool decisionsHold(const FuncStream &fs, Addr base) const;
    void emitBlock(FuncStream &fs, const Function &func,
                   const Block &block, Addr fallthrough_next) const;
    void emitTranslated(FuncStream &fs, const Function &func,
                        const Instruction &in) const;
    std::optional<std::vector<std::uint8_t>>
    finalize(FuncStream &fs, std::string &error) const;
    bool isRelocatedBlock(Addr a) const;

    const BinaryImage &image_;
    const ArchInfo &arch_;
    EngineConfig config_;
    Addr align_ = 0;

    // Plan.
    /** Sorted block starts of every relocated function. A flat
     *  vector, not a set: at browser scale it is millions of
     *  entries, queried far more than it is built. */
    std::vector<Addr> relocatedBlocks_;
    std::vector<TableClone> clones_;
    Addr cloneCursor_ = 0;          ///< next .newrodata slot
    std::uint32_t counterNext_ = 0; ///< next instrumentation id
    std::map<Addr, Subst> substs_;  ///< per base-def instruction
    std::set<Addr> widenLoads_;     ///< widened jt entry loads
    std::map<Addr, std::uint32_t> blockCounters_;
    std::map<Addr, std::uint32_t> entryCounters_;

    // Layout.
    Addr cursor_ = 0;
    AddrPairs blockMap_;
    AddrPairs insnMap_;
    AddrPairs raPairs_;
    std::vector<FuncSpan> spans_;
    /** Kept streams by span index (layout with keep only). */
    std::vector<FuncStream> streams_;
    /** Spliced spans by span index (layoutReused only). */
    std::vector<bool> reused_;
    const std::vector<std::uint8_t> *reusedBytes_ = nullptr;
    unsigned reusedCount_ = 0;
};

/**
 * Where the function pointer @p def must point after relocation (the
 * one retargeting rule of §5.2): an entry pointer at its function's
 * relocated entry block, so entry instrumentation still runs; a
 * displaced pointer (entry + delta, Listing 1's +1) at the relocated
 * instruction at entry + delta, minus delta. nullopt when that
 * address was not relocated: the pointer stays valid as it is.
 */
std::optional<Addr> funcPtrTarget(const FuncPtrDef &def,
                                  const Engine &engine);

/**
 * Point the 8-byte data cell at @p site of @p out at @p value: the
 * cell's bytes and the addend of every relocation at @p site, so the
 * loader writes @p value whichever of them it applies last.
 * @p relocs indexes out.relocs.
 */
void patchFuncPtrCell(BinaryImage &out, const RelocIndex &relocs,
                      Addr site, Addr value);

/**
 * Re-target the function-pointer-forming instruction at @p at (a
 * Lea / MovImm / AdrPage / AddisToc / AddImm of a pointer) inside
 * @p bytes, which start at address @p base, to @p new_target.
 * False when it does not decode or re-encode at its old length.
 */
bool patchFuncPtrInsn(const BinaryImage &image,
                      std::vector<std::uint8_t> &bytes, Addr base,
                      Addr at, Addr new_target);

} // namespace icp

#endif // ICP_REWRITE_ENGINE_HH
