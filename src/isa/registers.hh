/**
 * @file
 * Register and condition-code definitions shared by all three
 * synthetic ISAs.
 */

#ifndef ICP_ISA_REGISTERS_HH
#define ICP_ISA_REGISTERS_HH

#include <algorithm>
#include <cstdint>

namespace icp
{

/**
 * Architectural registers. r0..r13 are general purpose. sp is the
 * stack pointer. lr is the link register (ppc64le/aarch64 only; on
 * the x64-like ISA return addresses live on the stack). toc models
 * ppc64le's r2 table-of-contents base. tar models ppc64le's branch
 * target special register used by the long trampoline sequence.
 */
enum class Reg : std::uint8_t
{
    r0 = 0, r1, r2, r3, r4, r5, r6, r7,
    r8, r9, r10, r11, r12, r13,
    sp = 14,
    lr = 15,
    toc = 16,
    tar = 17,
    none = 0xff,
};

/** Number of addressable register slots in the machine state. */
inline constexpr unsigned num_regs = 18;

/**
 * Index of @p r in a table of num_regs + 1 slots: its number, and
 * the last slot for Reg::none (decoders produce no other value).
 */
inline unsigned
regSlot(Reg r)
{
    return std::min(static_cast<unsigned>(r), num_regs);
}

/** Number of general-purpose registers (r0..r13). */
inline constexpr unsigned num_gp_regs = 14;

/** Condition codes for conditional branches, set by Cmp/CmpImm. */
enum class Cond : std::uint8_t
{
    eq = 0,
    ne,
    lt,
    le,
    gt,
    ge,
    none = 0xff,
};

/** Printable register name. */
const char *regName(Reg r);

/** Printable condition name. */
const char *condName(Cond c);

/** The condition that is true exactly when c is false. */
Cond invertCond(Cond c);

} // namespace icp

#endif // ICP_ISA_REGISTERS_HH
