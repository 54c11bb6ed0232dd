/**
 * @file
 * Maps an SBF image into simulated memory and applies runtime
 * relocations — the dynamic-loader analog. PIE images are loaded at
 * a non-zero slide so that relocation handling is genuinely
 * exercised.
 */

#ifndef ICP_SIM_LOADER_HH
#define ICP_SIM_LOADER_HH

#include <cstdint>
#include <memory>

#include "binfmt/image.hh"
#include "sim/memory.hh"

namespace icp
{

/** An image mapped at a concrete base. */
struct LoadedModule
{
    const BinaryImage *image = nullptr;
    std::int64_t slide = 0;

    Addr
    toLoaded(Addr pref) const
    {
        return pref + static_cast<Addr>(slide);
    }

    Addr
    toPref(Addr loaded) const
    {
        return loaded - static_cast<Addr>(slide);
    }
};

/** A loaded process: memory, module, and the initial stack. */
struct Process
{
    Memory mem;
    LoadedModule module;
    Addr stackTop = 0;
    Addr stackLimit = 0;
};

/**
 * Load @p image into a fresh process. @p slide must be 0 for
 * non-PIE images; PIE images default to default_pie_slide.
 */
std::unique_ptr<Process> loadImage(const BinaryImage &image,
                                   std::int64_t slide = -1);

} // namespace icp

#endif // ICP_SIM_LOADER_HH
