/**
 * @file
 * The decoded instruction record shared by the assembler, the
 * disassembler, the simulator, and the rewriter.
 */

#ifndef ICP_ISA_INSTRUCTION_HH
#define ICP_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/opcode.hh"
#include "isa/registers.hh"
#include "support/types.hh"

namespace icp
{

/**
 * One decoded (or to-be-encoded) instruction.
 *
 * For direct branches (Jmp/JmpCond/Call) the authoritative field is
 * @c target, the absolute destination address; the codec computes the
 * encoded displacement from the instruction address. For pc-relative
 * address formation (Lea/AdrPage) @c target holds the absolute
 * address being formed. @c imm holds plain immediates and memory
 * displacements.
 */
struct Instruction
{
    Opcode op = Opcode::Illegal;
    Reg rd = Reg::none;
    Reg rs1 = Reg::none;
    Reg rs2 = Reg::none;
    Cond cond = Cond::none;

    /** Immediate operand or memory displacement. */
    std::int64_t imm = 0;

    /** Access size in bytes for LoadSz/LoadIdx/StoreSz (1/2/4/8). */
    std::uint8_t memSize = 8;

    /** Sign-extend sized loads (relative jump-table entries). */
    bool signedLoad = false;

    /**
     * MovImm on the fixed-length ISAs is movz/movk-style: a 16-bit
     * immediate placed at half-word position movShift (0/16/32/48),
     * keeping the other bits when movKeep is set.
     */
    std::uint8_t movShift = 0;
    bool movKeep = false;

    /**
     * Encoding-form hint: 0 = canonical (x64 Jmp -> 5-byte near),
     * 1 = short form (x64 2-byte jump). Only the trampoline writer
     * requests short forms; the assembler always uses canonical
     * lengths so that code layout is deterministic.
     */
    std::uint8_t formHint = 0;

    /** Absolute target for direct branches / pc-relative addressing. */
    Addr target = invalid_addr;

    /** Address the instruction was decoded at (or will be placed). */
    Addr addr = 0;

    /** Encoded length in bytes (filled by codec). */
    std::uint32_t length = 0;

    bool valid() const { return op != Opcode::Illegal; }

    /** Human-readable disassembly, e.g. "jmp 0x4010a0". */
    std::string toString() const;
};

// --- Construction helpers -------------------------------------------------

Instruction makeNop();
Instruction makeTrap();
Instruction makeHalt();
Instruction makeMovImm(Reg rd, std::int64_t imm);
/** movz/movk-style piecewise immediate (fixed-length ISAs). */
Instruction makeMovZk(Reg rd, std::uint16_t imm, std::uint8_t shift,
                      bool keep);
Instruction makeMovReg(Reg rd, Reg rs);
Instruction makeAdd(Reg rd, Reg rs);
Instruction makeMul(Reg rd, Reg rs);
Instruction makeXor(Reg rd, Reg rs);
Instruction makeAddImm(Reg rd, std::int64_t imm);
Instruction makeShlImm(Reg rd, std::uint8_t amount);
Instruction makeShrImm(Reg rd, std::uint8_t amount);
Instruction makeCmp(Reg rs1, Reg rs2);
Instruction makeCmpImm(Reg rs1, std::int64_t imm);
Instruction makeLoad(Reg rd, Reg base, std::int64_t disp);
Instruction makeStore(Reg base, std::int64_t disp, Reg src);
Instruction makeLoadSz(Reg rd, Reg base, std::int64_t disp,
                       std::uint8_t size, bool sign_extend = false);
Instruction makeLoadIdx(Reg rd, Reg base, Reg index, std::uint8_t size,
                        std::int64_t disp = 0, bool sign_extend = false);
Instruction makeLea(Reg rd, Addr target);
Instruction makeAdrPage(Reg rd, Addr target);
Instruction makeAddisToc(Reg rd, std::int32_t hi16);
Instruction makeJmp(Addr target);
Instruction makeJmpCond(Cond cond, Addr target);
Instruction makeCall(Addr target);
Instruction makeJmpInd(Reg rs);
Instruction makeCallInd(Reg rs);
Instruction makeCallIndMem(Reg base, std::int64_t disp);
Instruction makeJmpTar();
Instruction makeMoveToTar(Reg rs);
Instruction makeRet();
Instruction makePush(Reg rs);
Instruction makePushImm(std::int64_t imm);
Instruction makePop(Reg rd);
Instruction makeThrow();
Instruction makeThrowRa();
Instruction makeCallRt(std::uint32_t service);

} // namespace icp

#endif // ICP_ISA_INSTRUCTION_HH
