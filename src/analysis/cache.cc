#include "analysis/cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace icp
{

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t hash)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::optional<std::uint64_t>
fnv1aImage(const BinaryImage &image, Addr addr, std::uint64_t len,
           std::uint64_t hash)
{
    const auto stored = image.storedBytes(addr, len);
    if (!stored)
        return std::nullopt;
    hash = fnv1a(stored->data(), stored->size(), hash);
    // Zero bytes: the xor leaves the hash as it is.
    for (std::uint64_t i = stored->size(); i < len; ++i)
        hash *= 0x100000001b3ULL;
    return hash;
}

namespace
{

std::uint64_t
fnvValue(std::uint64_t v, std::uint64_t hash)
{
    std::uint8_t raw[8];
    for (unsigned i = 0; i < 8; ++i)
        raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return fnv1a(raw, sizeof(raw), hash);
}

std::uint64_t
fnvDouble(double v, std::uint64_t hash)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return fnvValue(bits, hash);
}

} // namespace

std::uint64_t
imageCacheSeed(const BinaryImage &image, const AnalysisOptions &opts)
{
    // Nothing position-dependent goes in here: no tocBase, no
    // section addresses or sizes. Analysis results are stored
    // entry-relative and decoded at the asking entry on hit, so two
    // binaries that link the same code at different layouts share
    // entries. What *does* change analysis output for identical
    // bytes is folded: architecture, PIE-ness, and every
    // analysis/injection option.
    std::uint64_t h = fnvValue(
        static_cast<std::uint64_t>(image.arch), 0xcbf29ce484222325ULL);
    h = fnvValue(image.pie ? 1 : 0, h);
    h = fnvValue(opts.tailCallHeuristic ? 1 : 0, h);
    h = fnvDouble(opts.inject.failProb, h);
    h = fnvDouble(opts.inject.overProb, h);
    h = fnvDouble(opts.inject.underProb, h);
    h = fnvValue(opts.inject.overExtra, h);
    h = fnvValue(opts.inject.underCut, h);
    h = fnvValue(opts.inject.seed, h);
    return h;
}

std::uint64_t
functionCacheKey(const BinaryImage &image, const Symbol &sym,
                 const std::vector<TryRange> &tries,
                 std::uint64_t seed)
{
    // Content-addressed: size, entry-relative try offsets, and the
    // code bytes. The entry address and symbol name are deliberately
    // not folded — the same code at a different address (or under a
    // different name in another binary) must produce the same key.
    // Jump-table data that lives outside the function is covered by
    // the recorded read-set (validated on every hit at the asking
    // entry's addresses), not by the key.
    std::uint64_t h = fnvValue(sym.size, seed);
    for (const TryRange &range : tries) {
        h = fnvValue(range.startOff, h);
        h = fnvValue(range.endOff, h);
        h = fnvValue(range.lpOff, h);
    }
    const std::optional<std::uint64_t> key =
        fnv1aImage(image, sym.addr, sym.size, h);
    icp_assert(key.has_value(), "function %s lies outside every section",
               sym.name.c_str());
    return *key;
}

AnalysisCache &
AnalysisCache::global()
{
    static AnalysisCache cache;
    return cache;
}

// findFunction lives in cache_store.cc: a hit is decoded at the
// asking symbol from a record, and the payload encoder and decoders
// are private to the store.

void
AnalysisCache::storeFunction(std::uint64_t key, Arch arch,
                             std::shared_ptr<const Function> func,
                             Addr toc_base)
{
    // Toc-relative address formation (ppc64le addis rd,r2) derives
    // targets from tocBase, not from pc: a hit at another entry is
    // only exact when the requester's tocBase shifts by the same
    // delta as the entry.
    // Record the analysis-time offset so find can enforce that.
    const bool uses_toc = std::any_of(
        func->insns.begin(), func->insns.end(),
        [](const Instruction &in) { return in.op == Opcode::AddisToc; });
    Entry entry_rec;
    entry_rec.arch = arch;
    entry_rec.origEntry = func->entry;
    entry_rec.tocDelta = static_cast<std::int64_t>(toc_base) -
                         static_cast<std::int64_t>(func->entry);
    entry_rec.usesToc = uses_toc;
    entry_rec.value = std::move(func);
    std::lock_guard<std::mutex> lock(mu_);
    entry_rec.stored = ++storeSeq_;
    functions_[key] = std::move(entry_rec);
}

AnalysisCache::Stats
AnalysisCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

// entryCount() lives in cache_store.cc: it walks the index slices.

void
AnalysisCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    functions_.clear();
    slices_.clear();
    loaded_.clear();
    stats_ = Stats{};
}

} // namespace icp
