/**
 * @file
 * Function-pointer analysis (§5.2). Identifies function-pointer
 * definition sites — relocation-backed data cells, absolute code
 * immediates, and pc-relative address formation — and forward-slices
 * loads of those cells to catch derived pointers like the
 * entry-plus-one pattern of Listing 1.
 *
 * The safety requirement is precision: rewriting must update every
 * definition or none, so the result carries the evidence needed for
 * the rewriter to decide, and deliberately does not classify values
 * that merely look like pointers after arithmetic (the Go .vtab
 * case), reproducing the paper's func-ptr-mode failure on Go.
 */

#ifndef ICP_ANALYSIS_FUNCPTR_HH
#define ICP_ANALYSIS_FUNCPTR_HH

#include <memory>
#include <utility>
#include <vector>

#include "analysis/cfg.hh"

namespace icp
{

struct FuncPtrDef
{
    enum class Kind : std::uint8_t
    {
        dataCell,   ///< 8-byte cell in a data section
        codeImm,    ///< MovImm of a function address (non-PIE)
        codePcRel,  ///< Lea / AdrPage+AddImm / AddisToc+AddImm pair
    };

    Kind kind = Kind::dataCell;

    /** Cell address (dataCell) or first instruction (code kinds). */
    Addr site = 0;

    /** All instructions forming the value, for code kinds. */
    std::vector<Addr> defAddrs;

    /** The function whose entry the pointer references. */
    Addr funcEntry = 0;

    /**
     * Extra displacement applied to the pointer before use, found by
     * forward slicing (Listing 1's +1). The rewritten cell must make
     * relocated(entry + delta) - delta the stored value.
     */
    std::int64_t delta = 0;

    /** Backed by a relocation entry (rewrite via the reloc). */
    bool hasReloc = false;

    bool operator==(const FuncPtrDef &) const = default;
};

/**
 * What one function's code contributes to the analysis (pass 3):
 * the pointer definitions it forms, and the displacements its loads
 * apply to known cells, each as (cell, displacement) in code order.
 */
struct FunctionPtrs
{
    std::vector<FuncPtrDef> defs;
    std::vector<std::pair<Addr, std::int64_t>> deltas;

    bool operator==(const FunctionPtrs &) const = default;
};

struct FuncPtrAnalysisResult
{
    std::vector<FuncPtrDef> defs;

    /**
     * Relocation-backed cells whose targets are not recognizable
     * function addresses (e.g. Go .vtab obfuscated values). They are
     * left unrewritten; if such a cell is in fact a pointer the
     * func-ptr mode produces a broken binary — detected by the
     * strong test, as in the paper's Docker experiment.
     */
    unsigned unclassifiedRelocs = 0;
};

/**
 * The module-level half of the analysis (passes 1 and 2): the
 * function ranges of the image's symbol table and the pointer cells
 * its relocations (or, for non-PIE images, its data words) define,
 * plus the code scan of one function against them. It depends on
 * nothing else of the image, so it is immutable and can be shared by
 * a later pass over an input with the same symbols, relocations and
 * non-PIE data words: a RewritePass replay scans its dirty functions
 * with the previous pass's index (RewriteResult::funcPtrIndex).
 */
class FuncPtrIndex
{
  public:
    /** Index @p image; its cell definitions are appended to @p cells. */
    FuncPtrIndex(const BinaryImage &image, FuncPtrAnalysisResult &cells);

    /** The code scan (pass 3) of @p func alone. */
    FunctionPtrs scan(const Function &func) const;

    /** Index in the cell definitions of the cell at @p site, or null. */
    const std::size_t *cellDef(Addr site) const;

  private:
    bool isEntry(Addr a) const;
    std::optional<Addr> containing(Addr a) const;

    bool fixed_;
    Addr tocBase_;
    /** (function entry, end), sorted by entry. */
    std::vector<std::pair<Addr, Addr>> ranges_;
    /** (cell address, index in the cell definitions), by address. */
    std::vector<std::pair<Addr, std::size_t>> cellDefIdx_;
};

/**
 * Incremental form of the analysis for drivers that never hold the
 * whole-module CFG (the sharded rewriter): construction builds the
 * FuncPtrIndex; scanFunction() then contributes one function's code
 * scan at a time. Feeding every function in ascending entry order
 * yields a result identical to analyzeFuncPtrs() (which is a thin
 * wrapper over this class).
 */
class FuncPtrScanner
{
  public:
    explicit FuncPtrScanner(const BinaryImage &image);

    /** Code scan (pass 3) for one function; call in address order. */
    void scanFunction(const Function &func);

    /** The module-level index, to share with a later pass. */
    const std::shared_ptr<const FuncPtrIndex> &index() const
    {
        return index_;
    }

    /** Move the accumulated result out; the scanner is done after. */
    FuncPtrAnalysisResult take() { return std::move(result_); }

  private:
    FuncPtrAnalysisResult result_;
    std::shared_ptr<const FuncPtrIndex> index_;
};

/** Run the analysis over @p cfg. */
FuncPtrAnalysisResult analyzeFuncPtrs(const CfgModule &cfg);

} // namespace icp

#endif // ICP_ANALYSIS_FUNCPTR_HH
