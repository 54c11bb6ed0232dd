#include "isa/codec_x64.hh"

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

namespace
{

// Tag bytes of the x64-like encoding. 0x00 and 0xff decode as
// illegal, which makes common clobber patterns self-evident.
enum Tag : std::uint8_t
{
    T_NOP = 0x01, T_TRAP, T_HALT, T_RET, T_THROW,
    T_PUSH, T_POP, T_JMPIND, T_CALLIND,
    T_MOVREG, T_ADD, T_SUB, T_MUL, T_XOR, T_CMP,
    T_SHL, T_SHR,
    T_JMP8, T_JMP32, T_JCC, T_CALL, T_CALLMEM,
    T_MOVIMM, T_ADDIMM, T_CMPIMM,
    T_LOAD, T_STORE, T_LOADSZ, T_STORESZ, T_LOADIDX,
    T_LEA, T_CALLRT, T_PUSHIMM, T_THROWRA,
};

std::uint8_t
regBits(Reg r)
{
    auto v = static_cast<std::uint8_t>(r);
    icp_assert(v <= 15, "x64 codec: register %s not encodable",
               regName(r));
    return v;
}

std::uint8_t
packRegs(Reg a, Reg b)
{
    return static_cast<std::uint8_t>((regBits(a) << 4) | regBits(b));
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

Reg
unpackHi(std::uint8_t b)
{
    return static_cast<Reg>(b >> 4);
}

Reg
unpackLo(std::uint8_t b)
{
    return static_cast<Reg>(b & 0xf);
}

} // namespace

unsigned
CodecX64::encodedLength(const Instruction &in) const
{
    switch (in.op) {
      case Opcode::Nop:
      case Opcode::Trap:
      case Opcode::Halt:
      case Opcode::Ret:
      case Opcode::Throw:
      case Opcode::ThrowRa:
        return 1;
      case Opcode::Push:
      case Opcode::Pop:
      case Opcode::JmpInd:
      case Opcode::CallInd:
      case Opcode::MovReg:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Xor:
      case Opcode::Cmp:
        return 2;
      case Opcode::ShlImm:
      case Opcode::ShrImm:
        return 3;
      case Opcode::Jmp:
        return in.formHint == 1 ? 2 : 5;
      case Opcode::Call:
      case Opcode::CallRt:
        return 5;
      case Opcode::JmpCond:
      case Opcode::AddImm:
      case Opcode::CmpImm:
      case Opcode::Lea:
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::CallIndMem:
        return 6;
      case Opcode::LoadSz:
      case Opcode::StoreSz:
      case Opcode::LoadIdx:
        return 7;
      case Opcode::MovImm:
        return 10;
      case Opcode::PushImm:
        return 9;
      default:
        return 0; // MovHi, AdrPage, AddisToc, JmpTar, MoveToTar
    }
}

bool
CodecX64::encode(const Instruction &in, Addr addr,
                 std::vector<std::uint8_t> &out) const
{
    const unsigned len = encodedLength(in);
    if (len == 0)
        return false;
    // Displacements are relative to the end of the instruction.
    auto disp = [&](Addr target) {
        return static_cast<std::int64_t>(target) -
               static_cast<std::int64_t>(addr + len);
    };

    switch (in.op) {
      case Opcode::Nop: putU8(out, T_NOP); return true;
      case Opcode::Trap: putU8(out, T_TRAP); return true;
      case Opcode::Halt: putU8(out, T_HALT); return true;
      case Opcode::Ret: putU8(out, T_RET); return true;
      case Opcode::Throw: putU8(out, T_THROW); return true;
      case Opcode::ThrowRa: putU8(out, T_THROWRA); return true;

      case Opcode::Push:
        putU8(out, T_PUSH);
        putU8(out, regBits(in.rs1));
        return true;
      case Opcode::Pop:
        putU8(out, T_POP);
        putU8(out, regBits(in.rd));
        return true;
      case Opcode::JmpInd:
        putU8(out, T_JMPIND);
        putU8(out, regBits(in.rs1));
        return true;
      case Opcode::CallInd:
        putU8(out, T_CALLIND);
        putU8(out, regBits(in.rs1));
        return true;

      case Opcode::MovReg:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Xor: {
        static_assert(T_ADD == T_MOVREG + 1);
        std::uint8_t tag;
        switch (in.op) {
          case Opcode::MovReg: tag = T_MOVREG; break;
          case Opcode::Add: tag = T_ADD; break;
          case Opcode::Sub: tag = T_SUB; break;
          case Opcode::Mul: tag = T_MUL; break;
          default: tag = T_XOR; break;
        }
        putU8(out, tag);
        putU8(out, packRegs(in.rd, in.rs1));
        return true;
      }
      case Opcode::Cmp:
        putU8(out, T_CMP);
        putU8(out, packRegs(in.rs1, in.rs2));
        return true;

      case Opcode::ShlImm:
      case Opcode::ShrImm:
        putU8(out, in.op == Opcode::ShlImm ? T_SHL : T_SHR);
        putU8(out, regBits(in.rd));
        putU8(out, static_cast<std::uint8_t>(in.imm));
        return true;

      case Opcode::Jmp: {
        const std::int64_t d = disp(in.target);
        if (in.formHint == 1) {
            if (!fitsSigned(d, 8))
                return false;
            putU8(out, T_JMP8);
            putU8(out, static_cast<std::uint8_t>(d));
        } else {
            if (!fitsSigned(d, 32))
                return false;
            putU8(out, T_JMP32);
            putU32(out, static_cast<std::uint32_t>(d));
        }
        return true;
      }
      case Opcode::Call: {
        const std::int64_t d = disp(in.target);
        if (!fitsSigned(d, 32))
            return false;
        putU8(out, T_CALL);
        putU32(out, static_cast<std::uint32_t>(d));
        return true;
      }
      case Opcode::JmpCond: {
        const std::int64_t d = disp(in.target);
        if (!fitsSigned(d, 32))
            return false;
        putU8(out, T_JCC);
        putU8(out, static_cast<std::uint8_t>(in.cond));
        putU32(out, static_cast<std::uint32_t>(d));
        return true;
      }
      case Opcode::CallRt:
        putU8(out, T_CALLRT);
        putU32(out, static_cast<std::uint32_t>(in.imm));
        return true;
      case Opcode::CallIndMem:
        if (!fitsSigned(in.imm, 32))
            return false;
        putU8(out, T_CALLMEM);
        putU8(out, regBits(in.rs1));
        putU32(out, static_cast<std::uint32_t>(in.imm));
        return true;

      case Opcode::PushImm:
        putU8(out, T_PUSHIMM);
        putU64(out, static_cast<std::uint64_t>(in.imm));
        return true;
      case Opcode::MovImm:
        putU8(out, T_MOVIMM);
        putU8(out, regBits(in.rd));
        putU64(out, static_cast<std::uint64_t>(in.imm));
        return true;
      case Opcode::AddImm:
      case Opcode::CmpImm: {
        if (!fitsSigned(in.imm, 32))
            return false;
        putU8(out, in.op == Opcode::AddImm ? T_ADDIMM : T_CMPIMM);
        putU8(out, regBits(in.op == Opcode::AddImm ? in.rd : in.rs1));
        putU32(out, static_cast<std::uint32_t>(in.imm));
        return true;
      }

      case Opcode::Lea: {
        const std::int64_t d = disp(in.target);
        if (!fitsSigned(d, 32))
            return false;
        putU8(out, T_LEA);
        putU8(out, regBits(in.rd));
        putU32(out, static_cast<std::uint32_t>(d));
        return true;
      }

      case Opcode::Load:
      case Opcode::Store:
        if (!fitsSigned(in.imm, 32))
            return false;
        putU8(out, in.op == Opcode::Load ? T_LOAD : T_STORE);
        putU8(out, in.op == Opcode::Load ? packRegs(in.rd, in.rs1)
                                         : packRegs(in.rs2, in.rs1));
        putU32(out, static_cast<std::uint32_t>(in.imm));
        return true;

      case Opcode::LoadSz:
      case Opcode::StoreSz:
        if (!fitsSigned(in.imm, 32))
            return false;
        putU8(out, in.op == Opcode::LoadSz ? T_LOADSZ : T_STORESZ);
        putU8(out, in.op == Opcode::LoadSz ? packRegs(in.rd, in.rs1)
                                           : packRegs(in.rs2, in.rs1));
        putU8(out, static_cast<std::uint8_t>(
                 (szLog2(in.memSize) << 1) | (in.signedLoad ? 1 : 0)));
        putU32(out, static_cast<std::uint32_t>(in.imm));
        return true;

      case Opcode::LoadIdx:
        if (!fitsSigned(in.imm, 32))
            return false;
        putU8(out, T_LOADIDX);
        putU8(out, packRegs(in.rd, in.rs1));
        putU8(out, static_cast<std::uint8_t>(
                 (regBits(in.rs2) << 3) | (szLog2(in.memSize) << 1) |
                 (in.signedLoad ? 1 : 0)));
        putU32(out, static_cast<std::uint32_t>(in.imm));
        return true;

      default:
        return false;
    }
}

bool
CodecX64::decode(const std::uint8_t *bytes, std::size_t avail, Addr addr,
                 Instruction &out) const
{
    out = Instruction();
    out.addr = addr;
    out.length = 1;
    if (avail == 0)
        return false;

    const std::uint8_t tag = bytes[0];
    auto need = [&](unsigned n) {
        out.length = n;
        return avail >= n;
    };
    auto dispTarget = [&](std::int64_t d) {
        out.target = static_cast<Addr>(
            static_cast<std::int64_t>(addr + out.length) + d);
    };

    switch (tag) {
      case T_NOP: out.op = Opcode::Nop; return true;
      case T_TRAP: out.op = Opcode::Trap; return true;
      case T_HALT: out.op = Opcode::Halt; return true;
      case T_RET: out.op = Opcode::Ret; return true;
      case T_THROW: out.op = Opcode::Throw; return true;
      case T_THROWRA: out.op = Opcode::ThrowRa; return true;

      case T_PUSH:
        if (!need(2)) return false;
        out.op = Opcode::Push;
        out.rs1 = static_cast<Reg>(bytes[1] & 0xf);
        return true;
      case T_POP:
        if (!need(2)) return false;
        out.op = Opcode::Pop;
        out.rd = static_cast<Reg>(bytes[1] & 0xf);
        return true;
      case T_JMPIND:
        if (!need(2)) return false;
        out.op = Opcode::JmpInd;
        out.rs1 = static_cast<Reg>(bytes[1] & 0xf);
        return true;
      case T_CALLIND:
        if (!need(2)) return false;
        out.op = Opcode::CallInd;
        out.rs1 = static_cast<Reg>(bytes[1] & 0xf);
        return true;

      case T_MOVREG: case T_ADD: case T_SUB: case T_MUL: case T_XOR:
        if (!need(2)) return false;
        switch (tag) {
          case T_MOVREG: out.op = Opcode::MovReg; break;
          case T_ADD: out.op = Opcode::Add; break;
          case T_SUB: out.op = Opcode::Sub; break;
          case T_MUL: out.op = Opcode::Mul; break;
          default: out.op = Opcode::Xor; break;
        }
        out.rd = unpackHi(bytes[1]);
        out.rs1 = unpackLo(bytes[1]);
        return true;
      case T_CMP:
        if (!need(2)) return false;
        out.op = Opcode::Cmp;
        out.rs1 = unpackHi(bytes[1]);
        out.rs2 = unpackLo(bytes[1]);
        return true;

      case T_SHL: case T_SHR:
        if (!need(3)) return false;
        out.op = tag == T_SHL ? Opcode::ShlImm : Opcode::ShrImm;
        out.rd = static_cast<Reg>(bytes[1] & 0xf);
        out.imm = bytes[2];
        return true;

      case T_JMP8:
        if (!need(2)) return false;
        out.op = Opcode::Jmp;
        out.formHint = 1;
        dispTarget(signExtend(bytes[1], 8));
        return true;
      case T_JMP32:
        if (!need(5)) return false;
        out.op = Opcode::Jmp;
        dispTarget(signExtend(getU32(bytes + 1), 32));
        return true;
      case T_CALL:
        if (!need(5)) return false;
        out.op = Opcode::Call;
        dispTarget(signExtend(getU32(bytes + 1), 32));
        return true;
      case T_JCC:
        if (!need(6) || bytes[1] > static_cast<unsigned>(Cond::ge))
            return false;
        out.op = Opcode::JmpCond;
        out.cond = static_cast<Cond>(bytes[1]);
        dispTarget(signExtend(getU32(bytes + 2), 32));
        return true;
      case T_CALLRT:
        if (!need(5)) return false;
        out.op = Opcode::CallRt;
        out.imm = getU32(bytes + 1);
        return true;
      case T_CALLMEM:
        if (!need(6)) return false;
        out.op = Opcode::CallIndMem;
        out.rs1 = static_cast<Reg>(bytes[1] & 0xf);
        out.imm = signExtend(getU32(bytes + 2), 32);
        return true;

      case T_PUSHIMM:
        if (!need(9)) return false;
        out.op = Opcode::PushImm;
        out.imm = static_cast<std::int64_t>(getU64(bytes + 1));
        return true;
      case T_MOVIMM:
        if (!need(10)) return false;
        out.op = Opcode::MovImm;
        out.rd = static_cast<Reg>(bytes[1] & 0xf);
        out.imm = static_cast<std::int64_t>(getU64(bytes + 2));
        return true;
      case T_ADDIMM: case T_CMPIMM:
        if (!need(6)) return false;
        if (tag == T_ADDIMM) {
            out.op = Opcode::AddImm;
            out.rd = static_cast<Reg>(bytes[1] & 0xf);
        } else {
            out.op = Opcode::CmpImm;
            out.rs1 = static_cast<Reg>(bytes[1] & 0xf);
        }
        out.imm = signExtend(getU32(bytes + 2), 32);
        return true;

      case T_LEA:
        if (!need(6)) return false;
        out.op = Opcode::Lea;
        out.rd = static_cast<Reg>(bytes[1] & 0xf);
        dispTarget(signExtend(getU32(bytes + 2), 32));
        return true;

      case T_LOAD: case T_STORE:
        if (!need(6)) return false;
        if (tag == T_LOAD) {
            out.op = Opcode::Load;
            out.rd = unpackHi(bytes[1]);
        } else {
            out.op = Opcode::Store;
            out.rs2 = unpackHi(bytes[1]);
        }
        out.rs1 = unpackLo(bytes[1]);
        out.imm = signExtend(getU32(bytes + 2), 32);
        return true;

      case T_LOADSZ: case T_STORESZ:
        // bytes[2] holds only the size and sign bits.
        if (!need(7) || bytes[2] > 7) return false;
        if (tag == T_LOADSZ) {
            out.op = Opcode::LoadSz;
            out.rd = unpackHi(bytes[1]);
        } else {
            out.op = Opcode::StoreSz;
            out.rs2 = unpackHi(bytes[1]);
        }
        out.rs1 = unpackLo(bytes[1]);
        out.memSize = static_cast<std::uint8_t>(1u << (bytes[2] >> 1));
        out.signedLoad = bytes[2] & 1;
        out.imm = signExtend(getU32(bytes + 3), 32);
        return true;

      case T_LOADIDX:
        // The index register must fit regBits' four bits.
        if (!need(7) || (bytes[2] >> 3) > 15) return false;
        out.op = Opcode::LoadIdx;
        out.rd = unpackHi(bytes[1]);
        out.rs1 = unpackLo(bytes[1]);
        out.rs2 = static_cast<Reg>(bytes[2] >> 3);
        out.memSize = static_cast<std::uint8_t>(1u << ((bytes[2] >> 1) & 3));
        out.signedLoad = bytes[2] & 1;
        out.imm = signExtend(getU32(bytes + 3), 32);
        return true;

      default:
        out.op = Opcode::Illegal;
        out.length = 1;
        return false;
    }
}

} // namespace icp
