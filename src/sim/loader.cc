#include "sim/loader.hh"

#include "support/logging.hh"

namespace icp
{

std::unique_ptr<Process>
loadImage(const BinaryImage &image, std::int64_t slide)
{
    if (slide < 0)
        slide = image.pie ? default_pie_slide : 0;
    icp_assert(image.pie || slide == 0,
               "non-PIE image cannot be loaded with a slide");

    auto proc = std::make_unique<Process>();
    proc->module.image = &image;
    proc->module.slide = slide;

    for (const auto &sec : image.sections) {
        if (!sec.loadable)
            continue;
        const Addr base = proc->module.toLoaded(sec.addr);
        proc->mem.map(base, sec.memSize);
        if (!sec.bytes.empty())
            proc->mem.writeBlock(base, sec.bytes);
    }

    // Apply runtime relocations: each 8-byte slot receives the
    // relocated value of its addend (an address at preferred base).
    for (const auto &rel : image.relocs) {
        const Addr site = proc->module.toLoaded(rel.site);
        const std::uint64_t value = static_cast<std::uint64_t>(
            rel.addend) + static_cast<std::uint64_t>(slide);
        const bool ok = proc->mem.write(site, 8, value);
        icp_assert(ok, "relocation site 0x%llx unmapped",
                   static_cast<unsigned long long>(site));
    }

    // 1 MiB stack well above the image.
    constexpr std::uint64_t stack_bytes = 1 << 20;
    const Addr stack_base =
        (proc->module.toLoaded(image.highWaterMark()) + 0xffffff) &
        ~static_cast<Addr>(0xfff);
    proc->mem.map(stack_base, stack_bytes);
    proc->stackLimit = stack_base;
    proc->stackTop = stack_base + stack_bytes;
    return proc;
}

} // namespace icp
