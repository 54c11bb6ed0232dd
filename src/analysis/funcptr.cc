#include "analysis/funcptr.hh"

#include <algorithm>
#include <array>

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

FuncPtrIndex::FuncPtrIndex(const BinaryImage &image,
                           FuncPtrAnalysisResult &cells)
    : fixed_(image.archInfo().fixedLength), tocBase_(image.tocBase)
{
    // Function ranges from the symbol table. CFG construction defines
    // Function::end as sym.addr + sym.size, so this is the same map
    // analyzeFuncPtrs historically built from the module CFG. The
    // symbols come sorted by address; of several at one address the
    // last wins.
    for (const Symbol *sym : image.functionSymbols()) {
        if (!ranges_.empty() && ranges_.back().first == sym->addr)
            ranges_.pop_back();
        ranges_.emplace_back(sym->addr, sym->addr + sym->size);
    }

    // 1. Relocation-backed data cells pointing at function entries.
    for (const auto &rel : image.relocs) {
        const Addr value = static_cast<Addr>(rel.addend);
        if (isEntry(value)) {
            FuncPtrDef def;
            def.kind = FuncPtrDef::Kind::dataCell;
            def.site = rel.site;
            def.funcEntry = value;
            def.hasReloc = true;
            cellDefIdx_.emplace_back(rel.site, cells.defs.size());
            cells.defs.push_back(def);
        } else if (!containing(value)) {
            // Pointer-shaped relocation to no known function — the
            // Go .vtab obfuscation lands here and stays unrewritten.
            ++cells.unclassifiedRelocs;
        }
    }

    // 2. Non-PIE images have no relocations; scan data sections for
    // 8-aligned words matching function entries exactly.
    if (!image.pie) {
        for (const auto &sec : image.sections) {
            if (sec.kind != SectionKind::data &&
                sec.kind != SectionKind::rodata)
                continue;
            for (Offset off = 0; off + 8 <= sec.bytes.size();
                 off += 8) {
                const std::uint64_t v = getU64(&sec.bytes[off]);
                if (!isEntry(v))
                    continue;
                FuncPtrDef def;
                def.kind = FuncPtrDef::Kind::dataCell;
                def.site = sec.addr + off;
                def.funcEntry = v;
                cellDefIdx_.emplace_back(def.site, cells.defs.size());
                cells.defs.push_back(def);
            }
        }
    }

    // One index per cell address, the last def there winning.
    std::stable_sort(cellDefIdx_.begin(), cellDefIdx_.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::size_t out = 0;
    for (std::size_t i = 0; i < cellDefIdx_.size(); ++i) {
        if (i + 1 < cellDefIdx_.size() &&
            cellDefIdx_[i + 1].first == cellDefIdx_[i].first)
            continue;
        cellDefIdx_[out++] = cellDefIdx_[i];
    }
    cellDefIdx_.resize(out);
}

const std::size_t *
FuncPtrIndex::cellDef(Addr site) const
{
    auto it = std::lower_bound(
        cellDefIdx_.begin(), cellDefIdx_.end(), site,
        [](const auto &p, Addr v) { return p.first < v; });
    return it == cellDefIdx_.end() || it->first != site ? nullptr
                                                        : &it->second;
}

bool
FuncPtrIndex::isEntry(Addr a) const
{
    auto it = std::lower_bound(
        ranges_.begin(), ranges_.end(), a,
        [](const auto &p, Addr v) { return p.first < v; });
    return it != ranges_.end() && it->first == a;
}

std::optional<Addr>
FuncPtrIndex::containing(Addr a) const
{
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), a,
        [](Addr v, const auto &p) { return v < p.first; });
    if (it == ranges_.begin())
        return std::nullopt;
    --it;
    if (a < it->second)
        return it->first;
    return std::nullopt;
}

// 3. Code scan: immediates and pc-relative address formation
// producing function entries; forward slice loads of known cells
// through arithmetic (Listing 1's +1).
FunctionPtrs
FuncPtrIndex::scan(const Function &func) const
{
    FunctionPtrs out;
    for (const Block &block : func.blocks) {
        struct Track
        {
            enum class Kind { none, constant, cellPtr };
            Kind kind = Kind::none;
            std::uint64_t c = 0;
            std::vector<Addr> defAddrs;
            Addr cell = 0;
        };
        // One slot per register, and the last for Reg::none.
        std::array<Track, num_regs + 1> regs;
        auto get = [&](Reg r) -> Track { return regs[regSlot(r)]; };
        auto set = [&](Reg r, Track t) { regs[regSlot(r)] = std::move(t); };
        auto kill = [&](Reg r) {
            if (r != Reg::none)
                regs[regSlot(r)] = Track{};
        };
        auto recordConstDef = [&](const Track &t,
                                  FuncPtrDef::Kind kind) {
            if (!isEntry(t.c))
                return;
            FuncPtrDef def;
            def.kind = kind;
            def.site = t.defAddrs.front();
            def.defAddrs = t.defAddrs;
            def.funcEntry = t.c;
            out.defs.push_back(def);
        };

        for (const auto &in : func.insnsOf(block)) {
            switch (in.op) {
              case Opcode::MovImm: {
                if (!fixed_) {
                    Track t;
                    t.kind = Track::Kind::constant;
                    t.c = static_cast<std::uint64_t>(in.imm);
                    t.defAddrs = {in.addr};
                    recordConstDef(t, FuncPtrDef::Kind::codeImm);
                    set(in.rd, t);
                    break;
                }
                Track t = get(in.rd);
                if (!in.movKeep) {
                    t = Track{};
                    t.kind = Track::Kind::constant;
                    t.c = static_cast<std::uint64_t>(
                              in.imm & 0xffff)
                          << in.movShift;
                    t.defAddrs = {in.addr};
                } else if (t.kind == Track::Kind::constant) {
                    t.c = (t.c & ~(0xffffULL << in.movShift)) |
                          (static_cast<std::uint64_t>(
                               in.imm & 0xffff)
                           << in.movShift);
                    t.defAddrs.push_back(in.addr);
                    if (in.movShift == 48)
                        recordConstDef(
                            t, FuncPtrDef::Kind::codeImm);
                } else {
                    kill(in.rd);
                    break;
                }
                set(in.rd, t);
                break;
              }
              case Opcode::Lea: {
                Track t;
                t.kind = Track::Kind::constant;
                t.c = in.target;
                t.defAddrs = {in.addr};
                recordConstDef(t, FuncPtrDef::Kind::codePcRel);
                set(in.rd, t);
                break;
              }
              case Opcode::AdrPage: {
                Track t;
                t.kind = Track::Kind::constant;
                t.c = in.target;
                t.defAddrs = {in.addr};
                set(in.rd, t);
                break;
              }
              case Opcode::AddisToc: {
                Track t;
                t.kind = Track::Kind::constant;
                t.c = tocBase_ +
                      (static_cast<std::uint64_t>(in.imm) << 16);
                t.defAddrs = {in.addr};
                set(in.rd, t);
                break;
              }
              case Opcode::AddImm: {
                Track t = get(in.rd);
                if (t.kind == Track::Kind::constant) {
                    t.c += static_cast<std::uint64_t>(in.imm);
                    t.defAddrs.push_back(in.addr);
                    // The completed pc-relative pair.
                    recordConstDef(t,
                                   FuncPtrDef::Kind::codePcRel);
                    set(in.rd, t);
                } else if (t.kind == Track::Kind::cellPtr) {
                    // Forward slice: a known cell's pointer gets
                    // displaced before use (Listing 1).
                    out.deltas.emplace_back(t.cell, in.imm);
                    kill(in.rd);
                } else {
                    kill(in.rd);
                }
                break;
              }
              case Opcode::Load: {
                const Track base = get(in.rs1);
                if (base.kind == Track::Kind::constant) {
                    const Addr cell =
                        base.c +
                        static_cast<std::uint64_t>(in.imm);
                    if (cellDef(cell)) {
                        Track t;
                        t.kind = Track::Kind::cellPtr;
                        t.cell = cell;
                        set(in.rd, t);
                        break;
                    }
                }
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
    return out;
}

FuncPtrScanner::FuncPtrScanner(const BinaryImage &image)
    : index_(std::make_shared<const FuncPtrIndex>(image, result_))
{
}

void
FuncPtrScanner::scanFunction(const Function &func)
{
    FunctionPtrs ptrs = index_->scan(func);
    for (FuncPtrDef &def : ptrs.defs)
        result_.defs.push_back(std::move(def));
    for (const auto &[cell, delta] : ptrs.deltas)
        result_.defs[*index_->cellDef(cell)].delta += delta;
}

FuncPtrAnalysisResult
analyzeFuncPtrs(const CfgModule &cfg)
{
    icp_assert(cfg.image, "no image");
    FuncPtrScanner scanner(*cfg.image);
    for (const auto &[entry, func] : cfg.functions) {
        (void)entry;
        scanner.scanFunction(func);
    }
    return scanner.take();
}

} // namespace icp
