#include "analysis/jump_table.hh"

#include <unordered_map>

#include "support/logging.hh"

namespace icp
{

namespace
{

/** Abstract value tracked per register during the forward walk. */
struct AbsVal
{
    enum class Kind { unknown, constant, tableEntry };
    Kind kind = Kind::unknown;

    // constant
    std::uint64_t c = 0;
    std::vector<Addr> defAddrs;

    // tableEntry
    Addr table = 0;
    unsigned entrySize = 0;
    bool signedEntries = false;
    unsigned shift = 0;
    std::optional<Addr> base;
    std::vector<Addr> baseDefAddrs; ///< defs of the table constant
    Addr loadAddr = 0;
    Reg indexReg = Reg::none;
};

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
unitDraw(std::uint64_t seed, Addr addr, unsigned salt)
{
    return static_cast<double>(
               mix64(seed ^ addr ^ (std::uint64_t{salt} << 48)) >> 11) *
           0x1.0p-53;
}

} // namespace

JumpTableAnalyzer::JumpTableAnalyzer(const BinaryImage &image,
                                     const JumpTableFailurePlan &plan)
    : image_(image), plan_(plan)
{
}

std::optional<JumpTable>
JumpTableAnalyzer::analyze(std::span<const Instruction> block,
                           std::span<const Instruction> layout_pred) const
{
    icp_assert(!block.empty(), "empty block");
    const Instruction &jump = block.back();
    if (jump.op != Opcode::JmpInd && jump.op != Opcode::JmpTar)
        return std::nullopt;

    // Injected "analysis reporting failure" (Figure 2, left path).
    if (plan_.failProb > 0 &&
        unitDraw(plan_.seed, jump.addr, 1) < plan_.failProb) {
        return std::nullopt;
    }

    // Forward abstract interpretation over the block.
    std::unordered_map<unsigned, AbsVal> regs;
    auto get = [&](Reg r) -> AbsVal {
        auto it = regs.find(static_cast<unsigned>(r));
        return it == regs.end() ? AbsVal{} : it->second;
    };
    auto set = [&](Reg r, AbsVal v) {
        regs[static_cast<unsigned>(r)] = std::move(v);
    };
    auto setUnknown = [&](Reg r) {
        if (r != Reg::none)
            regs.erase(static_cast<unsigned>(r));
    };

    const bool fixed = image_.archInfo().fixedLength;
    for (std::size_t i = 0; i + 1 < block.size(); ++i) {
        const Instruction &in = block[i];
        switch (in.op) {
          case Opcode::MovImm: {
            if (!fixed) {
                AbsVal v;
                v.kind = AbsVal::Kind::constant;
                v.c = static_cast<std::uint64_t>(in.imm);
                v.defAddrs = {in.addr};
                set(in.rd, v);
            } else if (!in.movKeep) {
                AbsVal v;
                v.kind = AbsVal::Kind::constant;
                v.c = static_cast<std::uint64_t>(in.imm & 0xffff)
                      << in.movShift;
                v.defAddrs = {in.addr};
                set(in.rd, v);
            } else {
                AbsVal v = get(in.rd);
                if (v.kind == AbsVal::Kind::constant) {
                    v.c = (v.c & ~(0xffffULL << in.movShift)) |
                          (static_cast<std::uint64_t>(in.imm & 0xffff)
                           << in.movShift);
                    v.defAddrs.push_back(in.addr);
                    set(in.rd, v);
                } else {
                    setUnknown(in.rd);
                }
            }
            break;
          }
          case Opcode::Lea:
          case Opcode::AdrPage: {
            AbsVal v;
            v.kind = AbsVal::Kind::constant;
            v.c = in.target;
            v.defAddrs = {in.addr};
            set(in.rd, v);
            break;
          }
          case Opcode::AddisToc: {
            AbsVal v;
            v.kind = AbsVal::Kind::constant;
            v.c = image_.tocBase +
                  (static_cast<std::uint64_t>(in.imm) << 16);
            v.defAddrs = {in.addr};
            set(in.rd, v);
            break;
          }
          case Opcode::AddImm: {
            AbsVal v = get(in.rd);
            if (v.kind == AbsVal::Kind::constant) {
                v.c += static_cast<std::uint64_t>(in.imm);
                v.defAddrs.push_back(in.addr);
                set(in.rd, v);
            } else {
                setUnknown(in.rd);
            }
            break;
          }
          case Opcode::MovReg:
            set(in.rd, get(in.rs1));
            break;
          case Opcode::LoadIdx: {
            const AbsVal baseVal = get(in.rs1);
            if (baseVal.kind == AbsVal::Kind::constant &&
                in.imm == 0) {
                AbsVal v;
                v.kind = AbsVal::Kind::tableEntry;
                v.table = baseVal.c;
                v.entrySize = in.memSize;
                v.signedEntries = in.signedLoad;
                v.baseDefAddrs = baseVal.defAddrs;
                v.loadAddr = in.addr;
                v.indexReg = in.rs2;
                set(in.rd, v);
            } else {
                setUnknown(in.rd);
            }
            break;
          }
          case Opcode::ShlImm: {
            AbsVal v = get(in.rd);
            if (v.kind == AbsVal::Kind::tableEntry) {
                v.shift += static_cast<unsigned>(in.imm);
                set(in.rd, v);
            } else if (v.kind == AbsVal::Kind::constant) {
                v.c <<= in.imm;
                set(in.rd, v);
            } else {
                setUnknown(in.rd);
            }
            break;
          }
          case Opcode::Add: {
            AbsVal a = get(in.rd);
            AbsVal b = get(in.rs1);
            if (a.kind == AbsVal::Kind::tableEntry &&
                b.kind == AbsVal::Kind::constant && !a.base) {
                a.base = b.c;
                set(in.rd, a);
            } else if (a.kind == AbsVal::Kind::constant &&
                       b.kind == AbsVal::Kind::tableEntry &&
                       !b.base) {
                b.base = a.c;
                set(in.rd, b);
            } else if (a.kind == AbsVal::Kind::constant &&
                       b.kind == AbsVal::Kind::constant) {
                a.c += b.c;
                a.defAddrs.push_back(in.addr);
                set(in.rd, a);
            } else {
                setUnknown(in.rd);
            }
            break;
          }
          case Opcode::Xor:
            if (in.rd == in.rs1) {
                AbsVal v;
                v.kind = AbsVal::Kind::constant;
                v.c = 0;
                v.defAddrs = {in.addr};
                set(in.rd, v);
            } else {
                setUnknown(in.rd);
            }
            break;
          case Opcode::MoveToTar:
            set(Reg::tar, get(in.rs1));
            break;
          // Loads from memory defeat the slice (value tracking
          // through memory is out of scope, as the paper notes for
          // "values spilled to and reloaded from memory").
          case Opcode::Load:
          case Opcode::LoadSz:
          case Opcode::Pop:
            setUnknown(in.rd);
            break;
          default:
            // Any other writer invalidates its destination.
            if (in.rd != Reg::none)
                setUnknown(in.rd);
            break;
        }
    }

    const Reg jreg = jump.op == Opcode::JmpTar ? Reg::tar : jump.rs1;
    const AbsVal v = get(jreg);
    if (v.kind != AbsVal::Kind::tableEntry)
        return std::nullopt;

    // Table bound from the guard in the layout predecessor:
    // CmpImm indexReg, N ; JmpCond ge, default.
    std::optional<unsigned> bound;
    for (auto it = layout_pred.rbegin(); it != layout_pred.rend(); ++it) {
        if (it->op == Opcode::CmpImm && it->rs1 == v.indexReg) {
            if (it->imm > 0)
                bound = static_cast<unsigned>(it->imm);
            break;
        }
        // A write to the index register before the compare kills
        // the association.
        if (it->rd == v.indexReg)
            break;
    }
    if (!bound)
        return std::nullopt;

    unsigned entries = *bound;

    // Assumption 2: never run past the containing section.
    const Section *sec = image_.sectionAt(v.table);
    if (!sec)
        return std::nullopt;
    const std::uint64_t room = (sec->end() - v.table) / v.entrySize;
    entries = static_cast<unsigned>(
        std::min<std::uint64_t>(entries, room));

    // Injected extent failures (Figure 2 middle/right paths).
    if (plan_.overProb > 0 &&
        unitDraw(plan_.seed, jump.addr, 2) < plan_.overProb) {
        entries = static_cast<unsigned>(std::min<std::uint64_t>(
            entries + plan_.overExtra, room));
    }
    if (plan_.underProb > 0 &&
        unitDraw(plan_.seed, jump.addr, 3) < plan_.underProb) {
        entries = std::max(1u, entries - std::min(entries - 1,
                                                  plan_.underCut));
    }

    JumpTable jt;
    jt.jumpAddr = jump.addr;
    jt.tableAddr = v.table;
    jt.entrySize = v.entrySize;
    jt.signedEntries = v.signedEntries;
    jt.shift = v.shift;
    jt.base = v.base;
    jt.baseDefAddrs = v.baseDefAddrs;
    jt.loadAddr = v.loadAddr;
    jt.entryCount = entries;
    jt.embeddedInCode =
        sec->kind == SectionKind::text || sec->executable;

    for (unsigned i = 0; i < entries; ++i) {
        auto raw = image_.readValue(v.table + std::uint64_t{i} *
                                        v.entrySize, v.entrySize);
        if (!raw)
            return std::nullopt;
        std::int64_t value = static_cast<std::int64_t>(*raw);
        if (v.signedEntries && v.entrySize < 8) {
            const std::uint64_t m = 1ULL << (v.entrySize * 8 - 1);
            value = static_cast<std::int64_t>((*raw ^ m) - m);
        }
        const Addr target = v.base
            ? static_cast<Addr>(static_cast<std::int64_t>(*v.base) +
                                (value << v.shift))
            : static_cast<Addr>(value << v.shift);
        jt.targets.push_back(target);
    }
    return jt;
}

} // namespace icp
