#include "analysis/funcptr.hh"

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

FuncPtrScanner::FuncPtrScanner(const BinaryImage &image)
    : image_(image), fixed_(image.archInfo().fixedLength)
{
    // Function ranges from the symbol table. CFG construction defines
    // Function::end as sym.addr + sym.size, so this is the same map
    // analyzeFuncPtrs historically built from the module CFG.
    for (const Symbol *sym : image.functionSymbols())
        ranges_[sym->addr] = sym->addr + sym->size;

    // 1. Relocation-backed data cells pointing at function entries.
    for (const auto &rel : image.relocs) {
        const Addr value = static_cast<Addr>(rel.addend);
        if (isEntry(value)) {
            FuncPtrDef def;
            def.kind = FuncPtrDef::Kind::dataCell;
            def.site = rel.site;
            def.funcEntry = value;
            def.hasReloc = true;
            cellDefIdx_[rel.site] = result_.defs.size();
            result_.defs.push_back(def);
        } else if (!containing(value)) {
            // Pointer-shaped relocation to no known function — the
            // Go .vtab obfuscation lands here and stays unrewritten.
            ++result_.unclassifiedRelocs;
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
                cellDefIdx_[def.site] = result_.defs.size();
                result_.defs.push_back(def);
            }
        }
    }
}

std::optional<Addr>
FuncPtrScanner::containing(Addr a) const
{
    auto it = ranges_.upper_bound(a);
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
void
FuncPtrScanner::scanFunction(const Function &func)
{
    for (const auto &[bstart, block] : func.blocks) {
        (void)bstart;
        struct Track
        {
            enum class Kind { none, constant, cellPtr };
            Kind kind = Kind::none;
            std::uint64_t c = 0;
            std::vector<Addr> defAddrs;
            Addr cell = 0;
        };
        std::unordered_map<unsigned, Track> regs;
        auto get = [&](Reg r) -> Track {
            auto it = regs.find(static_cast<unsigned>(r));
            return it == regs.end() ? Track{} : it->second;
        };
        auto set = [&](Reg r, Track t) {
            regs[static_cast<unsigned>(r)] = std::move(t);
        };
        auto kill = [&](Reg r) {
            if (r != Reg::none)
                regs.erase(static_cast<unsigned>(r));
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
            result_.defs.push_back(def);
        };

        for (const auto &in : block.insns) {
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
                t.c = image_.tocBase +
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
                    auto idx = cellDefIdx_.find(t.cell);
                    if (idx != cellDefIdx_.end()) {
                        result_.defs[idx->second].delta += in.imm;
                    }
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
                    if (cellDefIdx_.count(cell)) {
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
