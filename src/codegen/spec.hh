/**
 * @file
 * The program specification consumed by the synthetic compiler: a
 * deterministic, architecture-independent description of a workload
 * binary. Workload profiles (SPEC-like suite, libxul, docker,
 * libcuda) are just generators of these specs.
 */

#ifndef ICP_CODEGEN_SPEC_HH
#define ICP_CODEGEN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "binfmt/image.hh"
#include "isa/arch.hh"

namespace icp
{

/** A switch statement lowered to a jump table. */
struct SwitchSpec
{
    /** Number of cases; kept a power of two so the index masks. */
    unsigned cases = 4;

    /**
     * Table entry width in bytes. x64 uses 4 or 8; ppc64le 4 or 8;
     * aarch64 commonly 1 or 2 (§5.1), which forces the rewriter to
     * widen reads when cloning.
     */
    unsigned entrySize = 4;

    /**
     * Hard switches compute the table base through a stack spill,
     * which defeats the backward-slicing analysis — the
     * "analysis reporting failure" case of Figure 2.
     */
    bool hard = false;

    /**
     * Dense fall-through cases only a couple of bytes long (driver
     * style, §9): on x64 these blocks are too small for the 5-byte
     * branch, forcing naive per-block trampoline placement into
     * traps.
     */
    bool denseTiny = false;

    /**
     * The last case shares case 0's block (real compilers merge
     * identical case bodies): the table carries a duplicated target,
     * so one entry can be redirected onto another without changing
     * the function's jump-table target *set* — the edit the
     * data-dependency invalidation check pokes.
     */
    bool dupLastCase = false;
};

/** One function of the synthetic program. */
struct FuncSpec
{
    std::string name;

    /** Arithmetic operations in the body (per invocation). */
    unsigned computeOps = 8;

    /** Iterations of the body loop; 0 = straight-line. */
    unsigned loopIters = 0;

    std::vector<SwitchSpec> switches;

    /** Indices of functions called directly from the loop body. */
    std::vector<unsigned> callees;

    /**
     * Number of indirect calls through the program's function
     * pointer table per body iteration.
     */
    unsigned indirectCalls = 0;

    /** Throw an exception on odd argument values. */
    bool throwsOnOdd = false;

    /** Wrap direct calls in a try range with a landing pad. */
    bool catches = false;

    /** Direct tail call to this function index at the end. */
    int tailCallTo = -1;

    /** End with an indirect tail call through the funcptr table. */
    bool indirectTailCall = false;

    /** Publish this function's address in the funcptr table. */
    bool addressTaken = false;

    /** Function alignment in .text. */
    unsigned alignment = 16;

    /** Extra nop padding emitted after the function. */
    unsigned padding = 0;

    /**
     * Start the body with a nop — the Go runtime.goexit shape whose
     * entry+1 pointer Listing 1 exhibits.
     */
    bool leadingNop = false;

    /** Emit an x == &f comparison (func-ptr safety, §5.2). */
    bool comparesFuncPtr = false;

    /**
     * Load one 8-byte cell of the .data globals area through a
     * constant base — a data read the dependency analysis records on
     * every ISA. globalSlot picks which of the 8 cells (mod 8).
     */
    bool readsGlobal = false;
    unsigned globalSlot = 0;
};

/** A whole program. funcs[0] is main. */
struct ProgramSpec
{
    std::string name;
    Arch arch = Arch::x64;
    bool pie = false;
    LangFeatures features;

    std::vector<FuncSpec> funcs;

    /** Top-level iterations main runs its body. */
    std::uint64_t mainIterations = 1000;

    /** Inflate .rodata to push sections apart (range pressure). */
    std::uint64_t rodataPadding = 0;

    /**
     * Extra offset added to the preferred link base (0 = none).
     * Corpus binaries that share a static-library core use distinct
     * multiples of 0x10000 here, so byte-identical functions land at
     * different absolute addresses — the shape the content-addressed
     * analysis cache decodes at the asking entry on hit.
     */
    std::uint64_t baseOffset = 0;

    /**
     * Alignment of .text's base (0 = the default 4096). Corpus
     * binaries sharing code raise this to 0x10000 so differently
     * sized dynamic-linking headers cannot shift .text relative to
     * the link base.
     */
    std::uint64_t textAlign = 0;

    /**
     * Pad .text to at least this many bytes (0 = none), pinning the
     * .rodata/.data bases at a fixed distance from .text across
     * binaries whose app-specific tails differ in size — which keeps
     * the shared core's pc-relative references byte-identical.
     */
    std::uint64_t textSizeFloor = 0;

    /** Retain link-time relocations (-Wl,-q analog, for BOLT). */
    bool emitLinkRelocs = false;

    /** Go-specific constructs (§6.2, Listing 1). */
    bool goRuntime = false;     ///< emit runtime.findfunc / pcvalue
    bool goVtab = false;        ///< hidden function table (.vtab)
    bool goFuncPtrPlusOne = false; ///< the entry+1 pointer pattern

    /** Shared object instead of an executable. */
    bool sharedObject = false;
};

} // namespace icp

#endif // ICP_CODEGEN_SPEC_HH
