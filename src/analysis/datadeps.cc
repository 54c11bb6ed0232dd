#include "analysis/datadeps.hh"

#include <algorithm>
#include <array>

#include "analysis/cache.hh"
#include "analysis/cfg.hh"
#include "binfmt/image.hh"
#include "support/stats.hh"

namespace icp
{

const Timer deps_compute_timer = Metrics::global().timer("deps.compute");
const Timer deps_validate_timer = Metrics::global().timer("deps.validate");

void
DataDeps::add(Addr lo, Addr hi)
{
    if (hi <= lo)
        return;
    ranges_.push_back({lo, hi, 0});
}

void
DataDeps::finalize(const BinaryImage &image)
{
    std::sort(ranges_.begin(), ranges_.end(),
              [](const DepRange &a, const DepRange &b) {
                  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
              });
    std::vector<DepRange> merged;
    for (const DepRange &r : ranges_) {
        if (!merged.empty() && r.lo <= merged.back().hi)
            merged.back().hi = std::max(merged.back().hi, r.hi);
        else
            merged.push_back(r);
    }
    for (DepRange &r : merged)
        r.hash = hashImageRange(image, r.lo, r.hi);
    ranges_ = std::move(merged);
}

bool
DataDeps::validate(const BinaryImage &image) const
{
    if (ranges_.empty())
        return true;
    const ScopedTimer timer(deps_validate_timer);
    for (const DepRange &r : ranges_)
        if (hashImageRange(image, r.lo, r.hi) != r.hash)
            return false;
    return true;
}

bool
DataDeps::overlaps(Addr lo, Addr hi) const
{
    if (hi <= lo)
        return false;
    // Ranges are sorted and disjoint, so their hi values are sorted
    // too: the only candidate is the first range ending past lo.
    auto it = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [&](const DepRange &r) { return r.hi <= lo; });
    return it != ranges_.end() && it->lo < hi;
}

bool
DataDeps::covers(Addr lo, Addr hi) const
{
    if (hi <= lo)
        return true;
    auto it = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [&](const DepRange &r) { return r.hi < hi; });
    return it != ranges_.end() && it->lo <= lo && hi <= it->hi;
}

std::uint64_t
DataDeps::totalBytes() const
{
    std::uint64_t total = 0;
    for (const DepRange &r : ranges_)
        total += r.hi - r.lo;
    return total;
}

void
DataDeps::setRanges(std::vector<DepRange> ranges)
{
    ranges_ = std::move(ranges);
}

std::uint64_t
hashImageRange(const BinaryImage &image, Addr lo, Addr hi)
{
    if (hi <= lo)
        return 0;
    return fnv1aImage(image, lo, hi - lo).value_or(0);
}

DataDeps
computeDataDeps(const Function &func, const BinaryImage &image)
{
    const ScopedTimer timer(deps_compute_timer);
    DataDeps deps;

    // 1. Jump-table extents. The slice dereferences exactly
    // [tableAddr, tableAddr + entryCount * entrySize) (and the clone
    // copies it); embedded-in-code tables live inside the function's
    // own byte range, which the cache key already covers.
    for (const JumpTable &jt : func.jumpTables) {
        if (jt.embeddedInCode)
            continue;
        deps.add(jt.tableAddr,
                 jt.tableAddr +
                     std::uint64_t{jt.entryCount} * jt.entrySize);
    }

    // 2. Constant-base data loads: function-pointer cells, literal
    // pools, globals. The same per-block constant tracking the
    // func-ptr slice uses (funcptr.cc scanFunction), reduced to the
    // question "which mapped non-executable addresses does a Load
    // with a statically-known base dereference".
    const bool fixed = image.archInfo().fixedLength;
    auto recordLoad = [&](std::uint64_t addr, unsigned size) {
        const Addr lo = addr;
        const Addr hi = addr + std::max(1u, size);
        const Section *sec = image.sectionAt(lo);
        if (!sec || !sec->loadable || sec->executable ||
            hi > sec->end())
            return;
        deps.add(lo, hi);
    };

    for (const Block &block : func.blocks) {
        struct Track
        {
            bool known = false;
            std::uint64_t c = 0;
        };
        // One slot per register, and the last for Reg::none.
        std::array<Track, num_regs + 1> regs{};
        auto get = [&](Reg r) -> Track { return regs[regSlot(r)]; };
        auto set = [&](Reg r, Track t) { regs[regSlot(r)] = t; };
        auto kill = [&](Reg r) {
            if (r != Reg::none)
                regs[regSlot(r)] = Track{};
        };

        for (const auto &in : func.insnsOf(block)) {
            switch (in.op) {
              case Opcode::MovImm: {
                if (!fixed) {
                    set(in.rd,
                        {true, static_cast<std::uint64_t>(in.imm)});
                    break;
                }
                Track t = get(in.rd);
                if (!in.movKeep) {
                    t.known = true;
                    t.c = static_cast<std::uint64_t>(in.imm & 0xffff)
                          << in.movShift;
                } else if (t.known) {
                    t.c = (t.c & ~(0xffffULL << in.movShift)) |
                          (static_cast<std::uint64_t>(in.imm & 0xffff)
                           << in.movShift);
                } else {
                    kill(in.rd);
                    break;
                }
                set(in.rd, t);
                break;
              }
              case Opcode::Lea:
              case Opcode::AdrPage:
                set(in.rd, {true, in.target});
                break;
              case Opcode::AddisToc:
                set(in.rd,
                    {true,
                     image.tocBase +
                         (static_cast<std::uint64_t>(in.imm) << 16)});
                break;
              case Opcode::AddImm: {
                Track t = get(in.rd);
                if (t.known) {
                    t.c += static_cast<std::uint64_t>(in.imm);
                    set(in.rd, t);
                } else {
                    kill(in.rd);
                }
                break;
              }
              case Opcode::Load:
              case Opcode::LoadSz: {
                const Track base = get(in.rs1);
                if (base.known)
                    recordLoad(base.c +
                                   static_cast<std::uint64_t>(in.imm),
                               in.memSize);
                kill(in.rd);
                break;
              }
              case Opcode::MovReg:
                set(in.rd, get(in.rs1));
                break;
              default:
                kill(in.rd);
                break;
            }
        }
    }

    deps.finalize(image);
    return deps;
}

} // namespace icp
