#include "isa/codec_fixed.hh"

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

namespace
{

// Tag bytes. 0x00 and 0xff decode as illegal. The direct branch
// forms borrow the tag's low two bits for displacement bits [25:24],
// mirroring how real fixed-width ISAs split opcode and immediate
// fields.
enum Tag : std::uint8_t
{
    T_NOP = 0x01, T_TRAP, T_HALT, T_RET, T_THROW,
    T_JMPIND, T_CALLIND, T_JMPTAR, T_MTTAR,
    T_MOVREG, T_ADD, T_SUB, T_MUL, T_XOR, T_CMP,
    T_SHL, T_SHR,
    T_MOVZK, T_ADDIMM, T_CMPIMM, T_ADDISTOC,
    T_LEA, T_ADRP,
    T_LOAD, T_STORE, T_LOADSZ, T_STORESZ, T_LOADIDX,
    T_CALLRT, T_THROWRA,

    T_JMP_BASE = 0x40,  // 0x40..0x43
    T_CALL_BASE = 0x44, // 0x44..0x47
    T_JCC = 0x48,
};

std::uint8_t
regByte(Reg r)
{
    auto v = static_cast<std::uint8_t>(r);
    icp_assert(v < num_regs, "fixed codec: bad register");
    return v;
}

/**
 * Decode the register field @p v into @p out; false when @p v names
 * no register, so regByte() could never have encoded it.
 */
bool
regField(unsigned v, Reg &out)
{
    if (v >= num_regs)
        return false;
    out = static_cast<Reg>(v);
    return true;
}

std::uint8_t
szLog2(std::uint8_t size)
{
    switch (size) {
      case 1: return 0;
      case 2: return 1;
      case 4: return 2;
      case 8: return 3;
      default: icp_panic("bad memory size %u", size);
    }
}

} // namespace

bool
CodecFixed::opcodeSupported(Opcode op) const
{
    switch (op) {
      case Opcode::AddisToc:
      case Opcode::MoveToTar:
      case Opcode::JmpTar:
        return opts_.hasToc;
      case Opcode::Lea:
      case Opcode::AdrPage:
        return opts_.hasAdr;
      case Opcode::Push:
      case Opcode::Pop:
      case Opcode::CallIndMem:
      case Opcode::MovHi:
      case Opcode::Illegal:
        return false;
      default:
        return true;
    }
}

unsigned
CodecFixed::encodedLength(const Instruction &in) const
{
    return opcodeSupported(in.op) ? 4 : 0;
}

bool
CodecFixed::encode(const Instruction &in, Addr addr,
                   std::vector<std::uint8_t> &out) const
{
    return encodeImpl(in, addr, out, true);
}

bool
CodecFixed::encodeUnchecked(const Instruction &in, Addr addr,
                            std::vector<std::uint8_t> &out) const
{
    return encodeImpl(in, addr, out, false);
}

bool
CodecFixed::encodeImpl(const Instruction &in, Addr addr,
                       std::vector<std::uint8_t> &out,
                       bool enforce_range) const
{
    if (!opcodeSupported(in.op))
        return false;
    icp_assert(addr % 4 == 0, "fixed codec: misaligned encode at 0x%llx",
               static_cast<unsigned long long>(addr));

    auto emit3 = [&](std::uint8_t tag, std::uint8_t b1, std::uint8_t b2,
                     std::uint8_t b3) {
        putU8(out, tag);
        putU8(out, b1);
        putU8(out, b2);
        putU8(out, b3);
        return true;
    };
    auto emitRegImm16 = [&](std::uint8_t tag, Reg r, std::int64_t imm) {
        if (!fitsSigned(imm, 16))
            return false;
        putU8(out, tag);
        putU8(out, regByte(r));
        putU16(out, static_cast<std::uint16_t>(imm));
        return true;
    };

    switch (in.op) {
      case Opcode::Nop: return emit3(T_NOP, 0, 0, 0);
      case Opcode::Trap: return emit3(T_TRAP, 0, 0, 0);
      case Opcode::Halt: return emit3(T_HALT, 0, 0, 0);
      case Opcode::Ret: return emit3(T_RET, 0, 0, 0);
      case Opcode::Throw: return emit3(T_THROW, 0, 0, 0);
      case Opcode::ThrowRa: return emit3(T_THROWRA, 0, 0, 0);
      case Opcode::JmpTar: return emit3(T_JMPTAR, 0, 0, 0);

      case Opcode::JmpInd:
        return emit3(T_JMPIND, regByte(in.rs1), 0, 0);
      case Opcode::CallInd:
        return emit3(T_CALLIND, regByte(in.rs1), 0, 0);
      case Opcode::MoveToTar:
        return emit3(T_MTTAR, regByte(in.rs1), 0, 0);

      case Opcode::MovReg:
        return emit3(T_MOVREG, regByte(in.rd), regByte(in.rs1), 0);
      case Opcode::Add:
        return emit3(T_ADD, regByte(in.rd), regByte(in.rs1), 0);
      case Opcode::Sub:
        return emit3(T_SUB, regByte(in.rd), regByte(in.rs1), 0);
      case Opcode::Mul:
        return emit3(T_MUL, regByte(in.rd), regByte(in.rs1), 0);
      case Opcode::Xor:
        return emit3(T_XOR, regByte(in.rd), regByte(in.rs1), 0);
      case Opcode::Cmp:
        return emit3(T_CMP, regByte(in.rs1), regByte(in.rs2), 0);

      case Opcode::ShlImm:
        return emit3(T_SHL, regByte(in.rd),
                     static_cast<std::uint8_t>(in.imm), 0);
      case Opcode::ShrImm:
        return emit3(T_SHR, regByte(in.rd),
                     static_cast<std::uint8_t>(in.imm), 0);

      case Opcode::MovImm: {
        // movz/movk form: 16-bit chunk at half-word movShift.
        if (in.imm < 0 || in.imm > 0xffff)
            return false;
        icp_assert(in.movShift % 16 == 0 && in.movShift <= 48,
                   "bad movShift");
        const std::uint8_t b1 = static_cast<std::uint8_t>(
            regByte(in.rd) | ((in.movShift / 16) << 5) |
            (in.movKeep ? 0x80 : 0));
        putU8(out, T_MOVZK);
        putU8(out, b1);
        putU16(out, static_cast<std::uint16_t>(in.imm));
        return true;
      }

      case Opcode::AddImm:
        return emitRegImm16(T_ADDIMM, in.rd, in.imm);
      case Opcode::CmpImm:
        return emitRegImm16(T_CMPIMM, in.rs1, in.imm);
      case Opcode::AddisToc:
        return emitRegImm16(T_ADDISTOC, in.rd, in.imm);

      case Opcode::Lea: {
        // ADR: target = addr + simm16 * 4 (±128 KB, word aligned).
        const std::int64_t d = static_cast<std::int64_t>(in.target) -
                               static_cast<std::int64_t>(addr);
        if (d % 4 != 0 || !fitsSigned(d / 4, 16))
            return false;
        return emitRegImm16(T_LEA, in.rd, d / 4);
      }
      case Opcode::AdrPage: {
        // ADRP with a 64 KB granule: rd = (addr & ~0xffff) +
        // simm16 << 16. The page is chosen round-to-nearest so the
        // paired signed-16-bit AddImm always covers the remainder.
        const std::int64_t page =
            static_cast<std::int64_t>((in.target + 0x8000) >> 16) -
            static_cast<std::int64_t>(addr >> 16);
        if (!fitsSigned(page, 16))
            return false;
        return emitRegImm16(T_ADRP, in.rd, page);
      }

      case Opcode::Load:
      case Opcode::Store: {
        // disp8 scaled by 8: ±1016 bytes, 8-byte aligned.
        if (in.imm % 8 != 0 || !fitsSigned(in.imm / 8, 8))
            return false;
        const Reg data = in.op == Opcode::Load ? in.rd : in.rs2;
        return emit3(in.op == Opcode::Load ? T_LOAD : T_STORE,
                     regByte(data), regByte(in.rs1),
                     static_cast<std::uint8_t>(in.imm / 8));
      }

      case Opcode::LoadSz:
      case Opcode::StoreSz: {
        if (in.imm != 0)
            return false;
        const Reg data = in.op == Opcode::LoadSz ? in.rd : in.rs2;
        return emit3(in.op == Opcode::LoadSz ? T_LOADSZ : T_STORESZ,
                     regByte(data), regByte(in.rs1),
                     static_cast<std::uint8_t>(
                         (szLog2(in.memSize) << 1) |
                         (in.signedLoad ? 1 : 0)));
      }

      case Opcode::LoadIdx: {
        if (in.imm != 0)
            return false;
        return emit3(T_LOADIDX, regByte(in.rd), regByte(in.rs1),
                     static_cast<std::uint8_t>(
                         (regByte(in.rs2) << 3) |
                         (szLog2(in.memSize) << 1) |
                         (in.signedLoad ? 1 : 0)));
      }

      case Opcode::CallRt: {
        if (in.imm < 0 || in.imm >= (1 << 24))
            return false;
        putU8(out, T_CALLRT);
        putU8(out, static_cast<std::uint8_t>(in.imm));
        putU16(out, static_cast<std::uint16_t>(in.imm >> 8));
        return true;
      }

      case Opcode::Jmp:
      case Opcode::Call: {
        const std::int64_t d = static_cast<std::int64_t>(in.target) -
                               static_cast<std::int64_t>(addr);
        if (d % 4 != 0)
            return false;
        if (enforce_range &&
            (d < -opts_.branchRange || d > opts_.branchRange))
            return false;
        const std::int64_t words = d / 4;
        if (!fitsSigned(words, 26))
            return false;
        const std::uint32_t w = static_cast<std::uint32_t>(words) &
                                0x3ffffffu;
        const std::uint8_t base =
            in.op == Opcode::Jmp ? T_JMP_BASE : T_CALL_BASE;
        putU8(out, static_cast<std::uint8_t>(base | (w >> 24)));
        putU8(out, static_cast<std::uint8_t>(w));
        putU8(out, static_cast<std::uint8_t>(w >> 8));
        putU8(out, static_cast<std::uint8_t>(w >> 16));
        return true;
      }

      case Opcode::JmpCond: {
        const std::int64_t d = static_cast<std::int64_t>(in.target) -
                               static_cast<std::int64_t>(addr);
        if (d % 4 != 0 || !fitsSigned(d / 4, 20))
            return false;
        const std::uint32_t w = static_cast<std::uint32_t>(d / 4) &
                                0xfffffu;
        putU8(out, T_JCC);
        putU8(out, static_cast<std::uint8_t>(
                 (static_cast<std::uint8_t>(in.cond) << 4) | (w >> 16)));
        putU16(out, static_cast<std::uint16_t>(w));
        return true;
      }

      default:
        return false;
    }
}

bool
CodecFixed::decode(const std::uint8_t *bytes, std::size_t avail,
                   Addr addr, Instruction &out) const
{
    out = Instruction();
    out.addr = addr;
    out.length = 4;
    if (avail < 4 || addr % 4 != 0)
        return false;

    const std::uint8_t tag = bytes[0];

    // Direct branch forms with displacement bits in the tag.
    if ((tag & 0xfc) == T_JMP_BASE || (tag & 0xfc) == T_CALL_BASE) {
        const std::uint32_t w = (static_cast<std::uint32_t>(tag & 3)
                                 << 24) |
                                (static_cast<std::uint32_t>(bytes[3])
                                 << 16) |
                                (static_cast<std::uint32_t>(bytes[2])
                                 << 8) |
                                bytes[1];
        const std::int64_t words = signExtend(w, 26);
        out.op = (tag & 0xfc) == T_JMP_BASE ? Opcode::Jmp : Opcode::Call;
        out.target = static_cast<Addr>(
            static_cast<std::int64_t>(addr) + words * 4);
        return true;
    }

    switch (tag) {
      case T_NOP: out.op = Opcode::Nop; return true;
      case T_TRAP: out.op = Opcode::Trap; return true;
      case T_HALT: out.op = Opcode::Halt; return true;
      case T_RET: out.op = Opcode::Ret; return true;
      case T_THROW: out.op = Opcode::Throw; return true;
      case T_THROWRA: out.op = Opcode::ThrowRa; return true;
      case T_JMPTAR:
        if (!opts_.hasToc) break;
        out.op = Opcode::JmpTar;
        return true;

      case T_JMPIND:
        out.op = Opcode::JmpInd;
        if (!regField(bytes[1], out.rs1))
            break;
        return true;
      case T_CALLIND:
        out.op = Opcode::CallInd;
        if (!regField(bytes[1], out.rs1))
            break;
        return true;
      case T_MTTAR:
        if (!opts_.hasToc) break;
        out.op = Opcode::MoveToTar;
        if (!regField(bytes[1], out.rs1))
            break;
        return true;

      case T_MOVREG: case T_ADD: case T_SUB: case T_MUL: case T_XOR:
        switch (tag) {
          case T_MOVREG: out.op = Opcode::MovReg; break;
          case T_ADD: out.op = Opcode::Add; break;
          case T_SUB: out.op = Opcode::Sub; break;
          case T_MUL: out.op = Opcode::Mul; break;
          default: out.op = Opcode::Xor; break;
        }
        if (!regField(bytes[1], out.rd) ||
            !regField(bytes[2], out.rs1))
            break;
        return true;
      case T_CMP:
        out.op = Opcode::Cmp;
        if (!regField(bytes[1], out.rs1) ||
            !regField(bytes[2], out.rs2))
            break;
        return true;

      case T_SHL: case T_SHR:
        out.op = tag == T_SHL ? Opcode::ShlImm : Opcode::ShrImm;
        if (!regField(bytes[1], out.rd))
            break;
        out.imm = bytes[2];
        return true;

      case T_MOVZK:
        out.op = Opcode::MovImm;
        if (!regField(bytes[1] & 0x1f, out.rd))
            break;
        out.movShift = static_cast<std::uint8_t>(
            ((bytes[1] >> 5) & 3) * 16);
        out.movKeep = bytes[1] & 0x80;
        out.imm = getU16(bytes + 2);
        return true;

      case T_ADDIMM:
        out.op = Opcode::AddImm;
        if (!regField(bytes[1], out.rd))
            break;
        out.imm = signExtend(getU16(bytes + 2), 16);
        return true;
      case T_CMPIMM:
        out.op = Opcode::CmpImm;
        if (!regField(bytes[1], out.rs1))
            break;
        out.imm = signExtend(getU16(bytes + 2), 16);
        return true;
      case T_ADDISTOC:
        if (!opts_.hasToc) break;
        out.op = Opcode::AddisToc;
        if (!regField(bytes[1], out.rd))
            break;
        out.imm = signExtend(getU16(bytes + 2), 16);
        return true;

      case T_LEA: {
        if (!opts_.hasAdr) break;
        out.op = Opcode::Lea;
        if (!regField(bytes[1], out.rd))
            break;
        const std::int64_t words = signExtend(getU16(bytes + 2), 16);
        out.target = static_cast<Addr>(
            static_cast<std::int64_t>(addr) + words * 4);
        return true;
      }
      case T_ADRP: {
        if (!opts_.hasAdr) break;
        out.op = Opcode::AdrPage;
        if (!regField(bytes[1], out.rd))
            break;
        const std::int64_t pages = signExtend(getU16(bytes + 2), 16);
        out.target = static_cast<Addr>(
            (static_cast<std::int64_t>(addr >> 16) + pages) << 16);
        return true;
      }

      case T_LOAD: case T_STORE:
        if (tag == T_LOAD) {
            out.op = Opcode::Load;
            if (!regField(bytes[1], out.rd))
                break;
        } else {
            out.op = Opcode::Store;
            if (!regField(bytes[1], out.rs2))
                break;
        }
        if (!regField(bytes[2], out.rs1))
            break;
        out.imm = signExtend(bytes[3], 8) * 8;
        return true;

      case T_LOADSZ: case T_STORESZ:
        if (tag == T_LOADSZ) {
            out.op = Opcode::LoadSz;
            if (!regField(bytes[1], out.rd))
                break;
        } else {
            out.op = Opcode::StoreSz;
            if (!regField(bytes[1], out.rs2))
                break;
        }
        if (!regField(bytes[2], out.rs1))
            break;
        out.memSize = static_cast<std::uint8_t>(1u << ((bytes[3] >> 1) & 3));
        out.signedLoad = bytes[3] & 1;
        return true;

      case T_LOADIDX:
        out.op = Opcode::LoadIdx;
        if (!regField(bytes[1], out.rd) ||
            !regField(bytes[2], out.rs1) ||
            !regField(bytes[3] >> 3, out.rs2))
            break;
        out.memSize = static_cast<std::uint8_t>(1u << ((bytes[3] >> 1) & 3));
        out.signedLoad = bytes[3] & 1;
        return true;

      case T_CALLRT:
        out.op = Opcode::CallRt;
        out.imm = bytes[1] | (getU16(bytes + 2) << 8);
        return true;

      case T_JCC: {
        if ((bytes[1] >> 4) > static_cast<unsigned>(Cond::ge))
            break; // no such condition
        out.op = Opcode::JmpCond;
        out.cond = static_cast<Cond>(bytes[1] >> 4);
        const std::uint32_t w = (static_cast<std::uint32_t>(bytes[1] & 0xf)
                                 << 16) | getU16(bytes + 2);
        out.target = static_cast<Addr>(
            static_cast<std::int64_t>(addr) + signExtend(w, 20) * 4);
        return true;
      }

      default:
        break;
    }

    out = Instruction();
    out.addr = addr;
    out.op = Opcode::Illegal;
    out.length = 4;
    return false;
}

} // namespace icp
