#include "isa/instruction.hh"

#include <cstdio>

#include "support/logging.hh"

namespace icp
{

const char *
regName(Reg r)
{
    static const char *names[num_regs] = {
        "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
        "r8", "r9", "r10", "r11", "r12", "r13",
        "sp", "lr", "toc", "tar",
    };
    if (r == Reg::none)
        return "none";
    auto idx = static_cast<unsigned>(r);
    icp_assert(idx < num_regs, "bad register %u", idx);
    return names[idx];
}

const char *
condName(Cond c)
{
    switch (c) {
      case Cond::eq: return "eq";
      case Cond::ne: return "ne";
      case Cond::lt: return "lt";
      case Cond::le: return "le";
      case Cond::gt: return "gt";
      case Cond::ge: return "ge";
      default: return "none";
    }
}

Cond
invertCond(Cond c)
{
    switch (c) {
      case Cond::eq: return Cond::ne;
      case Cond::ne: return Cond::eq;
      case Cond::lt: return Cond::ge;
      case Cond::le: return Cond::gt;
      case Cond::gt: return Cond::le;
      case Cond::ge: return Cond::lt;
      default: icp_panic("invertCond: no condition");
    }
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Illegal: return "illegal";
      case Opcode::Nop: return "nop";
      case Opcode::Trap: return "trap";
      case Opcode::Halt: return "halt";
      case Opcode::MovImm: return "movimm";
      case Opcode::MovHi: return "movhi";
      case Opcode::MovReg: return "mov";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Xor: return "xor";
      case Opcode::AddImm: return "addi";
      case Opcode::ShlImm: return "shl";
      case Opcode::ShrImm: return "shr";
      case Opcode::Cmp: return "cmp";
      case Opcode::CmpImm: return "cmpi";
      case Opcode::Load: return "ld";
      case Opcode::Store: return "st";
      case Opcode::LoadSz: return "ldsz";
      case Opcode::LoadIdx: return "ldidx";
      case Opcode::StoreSz: return "stsz";
      case Opcode::Lea: return "lea";
      case Opcode::AdrPage: return "adrp";
      case Opcode::AddisToc: return "addis";
      case Opcode::Jmp: return "jmp";
      case Opcode::JmpCond: return "jcc";
      case Opcode::Call: return "call";
      case Opcode::JmpInd: return "jmpind";
      case Opcode::CallInd: return "callind";
      case Opcode::CallIndMem: return "callmem";
      case Opcode::JmpTar: return "bctar";
      case Opcode::MoveToTar: return "mttar";
      case Opcode::Ret: return "ret";
      case Opcode::Push: return "push";
      case Opcode::PushImm: return "pushimm";
      case Opcode::Pop: return "pop";
      case Opcode::Throw: return "throw";
      case Opcode::ThrowRa: return "throwra";
      case Opcode::CallRt: return "callrt";
      default: return "???";
    }
}

bool
isDirectBranch(Opcode op)
{
    return op == Opcode::Jmp || op == Opcode::JmpCond ||
           op == Opcode::Call;
}

bool
isIndirectBranch(Opcode op)
{
    return op == Opcode::JmpInd || op == Opcode::CallInd ||
           op == Opcode::CallIndMem || op == Opcode::JmpTar ||
           op == Opcode::Ret;
}

bool
isControlFlow(Opcode op)
{
    return isDirectBranch(op) || isIndirectBranch(op) ||
           op == Opcode::Halt || op == Opcode::Trap ||
           op == Opcode::Throw || op == Opcode::ThrowRa;
}

bool
isCall(Opcode op)
{
    return op == Opcode::Call || op == Opcode::CallInd ||
           op == Opcode::CallIndMem;
}

std::string
Instruction::toString() const
{
    char buf[160];
    if (isDirectBranch(op)) {
        if (op == Opcode::JmpCond) {
            std::snprintf(buf, sizeof(buf), "%s.%s 0x%llx",
                opcodeName(op), condName(cond),
                static_cast<unsigned long long>(target));
        } else {
            std::snprintf(buf, sizeof(buf), "%s 0x%llx", opcodeName(op),
                static_cast<unsigned long long>(target));
        }
    } else if (op == Opcode::Lea || op == Opcode::AdrPage) {
        std::snprintf(buf, sizeof(buf), "%s %s, 0x%llx", opcodeName(op),
            regName(rd), static_cast<unsigned long long>(target));
    } else if (op == Opcode::LoadIdx) {
        std::snprintf(buf, sizeof(buf), "%s %s, [%s + %s*%u + %lld]%s",
            opcodeName(op), regName(rd), regName(rs1), regName(rs2),
            memSize, static_cast<long long>(imm),
            signedLoad ? " sx" : "");
    } else {
        std::snprintf(buf, sizeof(buf), "%s rd=%s rs1=%s rs2=%s imm=%lld",
            opcodeName(op), regName(rd), regName(rs1), regName(rs2),
            static_cast<long long>(imm));
    }
    return buf;
}

namespace
{

Instruction
base(Opcode op)
{
    Instruction in;
    in.op = op;
    return in;
}

} // namespace

Instruction makeNop() { return base(Opcode::Nop); }
Instruction makeTrap() { return base(Opcode::Trap); }
Instruction makeHalt() { return base(Opcode::Halt); }

Instruction
makeMovImm(Reg rd, std::int64_t imm)
{
    auto in = base(Opcode::MovImm);
    in.rd = rd;
    in.imm = imm;
    return in;
}

Instruction
makeMovZk(Reg rd, std::uint16_t imm, std::uint8_t shift, bool keep)
{
    auto in = base(Opcode::MovImm);
    in.rd = rd;
    in.imm = imm;
    in.movShift = shift;
    in.movKeep = keep;
    return in;
}

Instruction
makeMovReg(Reg rd, Reg rs)
{
    auto in = base(Opcode::MovReg);
    in.rd = rd;
    in.rs1 = rs;
    return in;
}

Instruction
makeAdd(Reg rd, Reg rs)
{
    auto in = base(Opcode::Add);
    in.rd = rd;
    in.rs1 = rs;
    return in;
}

Instruction
makeMul(Reg rd, Reg rs)
{
    auto in = base(Opcode::Mul);
    in.rd = rd;
    in.rs1 = rs;
    return in;
}

Instruction
makeXor(Reg rd, Reg rs)
{
    auto in = base(Opcode::Xor);
    in.rd = rd;
    in.rs1 = rs;
    return in;
}

Instruction
makeAddImm(Reg rd, std::int64_t imm)
{
    auto in = base(Opcode::AddImm);
    in.rd = rd;
    in.imm = imm;
    return in;
}

Instruction
makeShlImm(Reg rd, std::uint8_t amount)
{
    auto in = base(Opcode::ShlImm);
    in.rd = rd;
    in.imm = amount;
    return in;
}

Instruction
makeShrImm(Reg rd, std::uint8_t amount)
{
    auto in = base(Opcode::ShrImm);
    in.rd = rd;
    in.imm = amount;
    return in;
}

Instruction
makeCmp(Reg rs1, Reg rs2)
{
    auto in = base(Opcode::Cmp);
    in.rs1 = rs1;
    in.rs2 = rs2;
    return in;
}

Instruction
makeCmpImm(Reg rs1, std::int64_t imm)
{
    auto in = base(Opcode::CmpImm);
    in.rs1 = rs1;
    in.imm = imm;
    return in;
}

Instruction
makeLoad(Reg rd, Reg baseReg, std::int64_t disp)
{
    auto in = base(Opcode::Load);
    in.rd = rd;
    in.rs1 = baseReg;
    in.imm = disp;
    return in;
}

Instruction
makeStore(Reg baseReg, std::int64_t disp, Reg src)
{
    auto in = base(Opcode::Store);
    in.rs1 = baseReg;
    in.rs2 = src;
    in.imm = disp;
    return in;
}

Instruction
makeLoadSz(Reg rd, Reg baseReg, std::int64_t disp, std::uint8_t size,
           bool sign_extend)
{
    auto in = base(Opcode::LoadSz);
    in.rd = rd;
    in.rs1 = baseReg;
    in.imm = disp;
    in.memSize = size;
    in.signedLoad = sign_extend;
    return in;
}

Instruction
makeLoadIdx(Reg rd, Reg baseReg, Reg index, std::uint8_t size,
            std::int64_t disp, bool sign_extend)
{
    auto in = base(Opcode::LoadIdx);
    in.rd = rd;
    in.rs1 = baseReg;
    in.rs2 = index;
    in.memSize = size;
    in.imm = disp;
    in.signedLoad = sign_extend;
    return in;
}

Instruction
makeLea(Reg rd, Addr target)
{
    auto in = base(Opcode::Lea);
    in.rd = rd;
    in.target = target;
    return in;
}

Instruction
makeAdrPage(Reg rd, Addr target)
{
    auto in = base(Opcode::AdrPage);
    in.rd = rd;
    in.target = target;
    return in;
}

Instruction
makeAddisToc(Reg rd, std::int32_t hi16)
{
    auto in = base(Opcode::AddisToc);
    in.rd = rd;
    in.imm = hi16;
    return in;
}

Instruction
makeJmp(Addr target)
{
    auto in = base(Opcode::Jmp);
    in.target = target;
    return in;
}

Instruction
makeJmpCond(Cond cond, Addr target)
{
    auto in = base(Opcode::JmpCond);
    in.cond = cond;
    in.target = target;
    return in;
}

Instruction
makeCall(Addr target)
{
    auto in = base(Opcode::Call);
    in.target = target;
    return in;
}

Instruction
makeJmpInd(Reg rs)
{
    auto in = base(Opcode::JmpInd);
    in.rs1 = rs;
    return in;
}

Instruction
makeCallInd(Reg rs)
{
    auto in = base(Opcode::CallInd);
    in.rs1 = rs;
    return in;
}

Instruction
makeCallIndMem(Reg baseReg, std::int64_t disp)
{
    auto in = base(Opcode::CallIndMem);
    in.rs1 = baseReg;
    in.imm = disp;
    return in;
}

Instruction makeJmpTar() { return base(Opcode::JmpTar); }

Instruction
makeMoveToTar(Reg rs)
{
    auto in = base(Opcode::MoveToTar);
    in.rs1 = rs;
    return in;
}

Instruction makeRet() { return base(Opcode::Ret); }

Instruction
makePush(Reg rs)
{
    auto in = base(Opcode::Push);
    in.rs1 = rs;
    return in;
}

Instruction
makePushImm(std::int64_t imm)
{
    auto in = base(Opcode::PushImm);
    in.imm = imm;
    return in;
}

Instruction
makePop(Reg rd)
{
    auto in = base(Opcode::Pop);
    in.rd = rd;
    return in;
}

Instruction makeThrow() { return base(Opcode::Throw); }
Instruction makeThrowRa() { return base(Opcode::ThrowRa); }

Instruction
makeCallRt(std::uint32_t service)
{
    auto in = base(Opcode::CallRt);
    in.imm = service;
    return in;
}

} // namespace icp
