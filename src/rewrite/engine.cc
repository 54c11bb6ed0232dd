#include "rewrite/engine.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "isa/assembler.hh"
#include "isa/bytes.hh"
#include "codegen/compiler.hh"
#include "sim/runtime_lib.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace icp
{

namespace
{

Addr
alignUpAddr(Addr v, Addr align)
{
    return (v + align - 1) & ~(align - 1);
}

/**
 * Whether a branch from relocated address @p at back into original
 * space at @p target needs an indirect veneer. Pure in (arch, at,
 * target) so the parallel pipeline can re-check a recorded decision
 * once the final layout is known.
 */
bool
veneerNeeded(const ArchInfo &arch, Addr at, Addr target)
{
    if (!arch.fixedLength)
        return false;
    const std::int64_t d = static_cast<std::int64_t>(target) -
                           static_cast<std::int64_t>(at);
    return d < -arch.directJmpRange + 64 ||
           d > arch.directJmpRange - 64;
}

bool
byOrig(const std::pair<Addr, Addr> &a, const std::pair<Addr, Addr> &b)
{
    return a.first < b.first;
}

/**
 * Append one function's (original address, stream offset) pairs to
 * @p map at @p base, sorted among themselves. False when they do not
 * all sort after the entries already there.
 */
bool
appendSorted(AddrPairs &map,
             const std::vector<std::pair<Addr, Offset>> &offsets,
             Addr base)
{
    const std::size_t from = map.size();
    for (const auto &[orig, off] : offsets)
        map.emplace_back(orig, base + off);
    const auto first = map.begin() + static_cast<std::ptrdiff_t>(from);
    // The default block order emits ascending addresses. Only a run
    // that strictly ascends is left as it is: sorting it is the
    // identity, while equal keys could come out of std::sort in
    // another order.
    const auto descends = [](const auto &a, const auto &b) {
        return a.first >= b.first;
    };
    if (std::adjacent_find(first, map.end(), descends) != map.end())
        std::sort(first, map.end(), byOrig);
    return from == 0 || first == map.end() ||
           map[from - 1].first < first->first;
}

/**
 * Merge the run appended at [@p mid, end) into the sorted prefix of
 * @p map. On an original address recorded twice the later entry
 * wins, as a map assignment in emission order would.
 */
void
mergeAppended(AddrPairs &map, std::size_t mid)
{
    const auto m = map.begin() + static_cast<std::ptrdiff_t>(mid);
    std::stable_sort(m, map.end(), byOrig);
    std::inplace_merge(map.begin(), m, map.end(), byOrig);
    std::size_t out = 0;
    for (std::size_t i = 0; i < map.size(); ++i) {
        if (i + 1 < map.size() && map[i + 1].first == map[i].first)
            continue;
        map[out++] = map[i];
    }
    map.resize(out);
}

} // namespace

/**
 * One function's relocated code under construction. Each stream has
 * its own assembler, so streams build concurrently; every recorded
 * address is an offset from the stream start until layout assigns
 * the final base.
 */
struct Engine::FuncStream
{
    std::unique_ptr<Assembler> as;
    Addr base = 0;

    /**
     * This function's block starts, ascending (its func.blocks order):
     * the block at index i has label i, allocated first and bound
     * at emit.
     */
    std::vector<Addr> ownStarts;

    /** Labels of other functions' blocks (bound after layout). */
    std::map<Addr, Assembler::Label> externalLabels;

    /** (original block start, stream offset), emission order. */
    std::vector<std::pair<Addr, Offset>> blockOffsets;

    /** (original insn address, stream offset), emission order. */
    std::vector<std::pair<Addr, Offset>> insnOffsets;

    /** (stream offset, original RA), emission order. */
    std::vector<std::pair<Offset, Addr>> raOffsets;

    /**
     * Address-dependent instruction selections made during emission
     * (veneer-or-direct, ADR-reaches-or-widen). When every decision
     * re-validates at the final base, the stream is position-correct
     * after a plain rebase; otherwise the function re-emits at its
     * exact base.
     */
    struct Decision
    {
        bool isVeneer = false; ///< else: Lea encode check
        Offset off = 0;
        Addr target = 0;
        Instruction in;
        bool taken = false;
    };
    std::vector<Decision> decisions;

    /** Encoding buffer of the address-dependent checks. */
    std::vector<std::uint8_t> scratch;

    std::uint64_t size = 0;

    /** Label of one of this function's blocks, or -1. */
    Assembler::Label
    ownLabel(Addr block_start) const
    {
        const auto it = std::lower_bound(ownStarts.begin(),
                                         ownStarts.end(), block_start);
        return it != ownStarts.end() && *it == block_start
                   ? static_cast<Assembler::Label>(it - ownStarts.begin())
                   : -1;
    }

    /** Label of a relocated block start (own or external). */
    Assembler::Label
    labelFor(Addr block_start)
    {
        if (const Assembler::Label own = ownLabel(block_start); own >= 0)
            return own;
        auto [it, inserted] =
            externalLabels.try_emplace(block_start, -1);
        if (inserted)
            it->second = as->newLabel();
        return it->second;
    }
};

Engine::Engine(const BinaryImage &image, const EngineConfig &config)
    : image_(image), arch_(image.archInfo()), config_(config),
      align_(std::max<Addr>(config.functionAlign,
                            image.archInfo().instrAlign)),
      cloneCursor_(config.newRodataBase), cursor_(config.instrBase)
{
}

Engine::~Engine() = default;

bool
Engine::isRelocatedBlock(Addr a) const
{
    return std::binary_search(relocatedBlocks_.begin(),
                              relocatedBlocks_.end(), a);
}

void
Engine::planClones(const Function &func)
{
    if (config_.mode == RewriteMode::dir)
        return;
    for (const auto &jt : func.jumpTables) {
        TableClone clone;
        clone.table = jt;
        clone.funcEntry = func.entry;
        // Anchor-relative sub-word entries must widen to 4 bytes
        // because relocated distances can exceed (and precede)
        // the original ones (§5.1).
        clone.widened = jt.entrySize < 4;
        clone.entrySize = clone.widened ? 4 : jt.entrySize;
        cloneCursor_ = (cloneCursor_ + 7) & ~Addr{7};
        clone.cloneAddr = cloneCursor_;
        cloneCursor_ +=
            std::uint64_t{jt.entryCount} * clone.entrySize;

        // Substitutions for the base-forming instructions.
        const auto &defs = jt.baseDefAddrs;
        if (defs.size() == 1) {
            substs_[defs[0]] = {Subst::Role::whole,
                                clone.cloneAddr};
        } else if (defs.size() >= 2) {
            substs_[defs[0]] = {Subst::Role::hi, clone.cloneAddr};
            substs_[defs[1]] = {Subst::Role::lo, clone.cloneAddr};
        }
        if (clone.widened)
            widenLoads_.insert(jt.loadAddr);

        clones_.push_back(std::move(clone));
    }
}

void
Engine::assignCounters(const Function &func)
{
    for (const Block *block : blockEmitOrder(func)) {
        if (block->start == func.entry &&
            config_.instrumentation.countFunctionEntries) {
            entryCounters_[func.entry] = counterNext_++;
        }
        if (config_.instrumentation.instrumentsBlock(block->start))
            blockCounters_[block->start] = counterNext_++;
    }
}

void
Engine::plan(const std::vector<const Function *> &funcs)
{
    // Clones take .newrodata slots in ascending entry order whatever
    // the emission order; counter ids follow emission order.
    std::vector<const Function *> by_entry = funcs;
    std::sort(by_entry.begin(), by_entry.end(),
              [](const Function *a, const Function *b) {
                  return a->entry < b->entry;
              });
    for (const Function *func : by_entry)
        planClones(*func);
    for (const Function *func : funcs)
        assignCounters(*func);

    const std::size_t old = relocatedBlocks_.size();
    for (const Function *func : by_entry) {
        for (const Block &block : func->blocks)
            relocatedBlocks_.push_back(block.start);
    }
    const auto mid = relocatedBlocks_.begin() +
                     static_cast<std::ptrdiff_t>(old);
    std::sort(mid, relocatedBlocks_.end());
    std::inplace_merge(relocatedBlocks_.begin(), mid,
                       relocatedBlocks_.end());
}

void
Engine::emitTranslated(FuncStream &fs, const Function &func,
                       const Instruction &in) const
{
    Assembler &as = *fs.as;
    const Addr orig_next = in.addr + in.length;

    // Jump-table base substitution (jt/func-ptr modes).
    auto subst = substs_.find(in.addr);
    if (subst != substs_.end() &&
        config_.mode != RewriteMode::dir) {
        Instruction patched = in;
        const Addr target = subst->second.newTarget;
        switch (subst->second.role) {
          case Subst::Role::whole:
            if (in.op == Opcode::MovImm) {
                patched.imm = static_cast<std::int64_t>(target);
            } else {
                patched.target = target;
            }
            break;
          case Subst::Role::hi:
            if (in.op == Opcode::AddisToc) {
                const std::int64_t off =
                    static_cast<std::int64_t>(target) -
                    static_cast<std::int64_t>(image_.tocBase);
                patched.imm = (off + 0x8000) >> 16;
            } else { // AdrPage
                patched.op = Opcode::AdrPage;
                patched.target = target;
            }
            break;
          case Subst::Role::lo: {
            std::int64_t lo;
            if (arch_.hasToc) {
                const std::int64_t off =
                    static_cast<std::int64_t>(target) -
                    static_cast<std::int64_t>(image_.tocBase);
                lo = signExtend(static_cast<std::uint64_t>(off), 16);
            } else {
                const Addr page = ((target + 0x8000) >> 16) << 16;
                lo = static_cast<std::int64_t>(target) -
                     static_cast<std::int64_t>(page);
            }
            patched.imm = lo;
            break;
          }
        }
        as.emit(patched);
        return;
    }

    // Widened jump-table entry loads (a64 1/2-byte -> 4-byte read).
    if (widenLoads_.count(in.addr) &&
        config_.mode != RewriteMode::dir) {
        Instruction patched = in;
        patched.memSize = 4;
        patched.signedLoad = true;
        as.emit(patched);
        return;
    }

    // Materialize an original-space code address into a register in
    // a position-correct way (pc-relative / TOC-relative), as call
    // emulation must on position independent code.
    auto emitMaterializeAddr = [&](Reg rd, Addr target) {
        if (arch_.arch == Arch::x64) {
            as.emit(makeLea(rd, target));
        } else if (arch_.hasToc) {
            const std::int64_t off =
                static_cast<std::int64_t>(target) -
                static_cast<std::int64_t>(image_.tocBase);
            as.emit(makeAddisToc(rd, static_cast<std::int32_t>(
                                         (off + 0x8000) >> 16)));
            as.emit(makeAddImm(
                rd, signExtend(static_cast<std::uint64_t>(off), 16)));
        } else {
            as.emit(makeAdrPage(rd, target));
            const Addr page = ((target + 0x8000) >> 16) << 16;
            as.emit(makeAddImm(rd,
                               static_cast<std::int64_t>(target) -
                                   static_cast<std::int64_t>(page)));
        }
    };
    auto emitEmulatedRa = [&](Addr orig_ra) {
        if (arch_.hasLinkRegister) {
            emitMaterializeAddr(Reg::lr, orig_ra);
        } else {
            emitMaterializeAddr(Reg::r13, orig_ra);
            as.emit(makePush(Reg::r13));
        }
    };

    // Branches from .instr back into original space can exceed the
    // fixed-ISA direct reach (e.g. ppc64le ±32 MB with large data
    // sections); emit a veneer through r13, which the synthetic ABI
    // reserves for the rewriter. The decision depends on the
    // instruction's final address, so it is recorded for the layout
    // pass to re-validate.
    auto needsVeneer = [&](Addr target) {
        FuncStream::Decision d;
        d.isVeneer = true;
        d.off = static_cast<Offset>(as.here() - as.startAddr());
        d.target = target;
        d.taken = veneerNeeded(arch_, as.here(), target);
        fs.decisions.push_back(d);
        return d.taken;
    };
    auto emitVeneerTarget = [&](Addr target) {
        if (arch_.hasToc) {
            const std::int64_t off =
                static_cast<std::int64_t>(target) -
                static_cast<std::int64_t>(image_.tocBase);
            as.emit(makeAddisToc(
                Reg::r13,
                static_cast<std::int32_t>((off + 0x8000) >> 16)));
            as.emit(makeAddImm(
                Reg::r13,
                signExtend(static_cast<std::uint64_t>(off), 16)));
        } else {
            as.emit(makeAdrPage(Reg::r13, target));
            const Addr page = ((target + 0x8000) >> 16) << 16;
            as.emit(makeAddImm(Reg::r13,
                               static_cast<std::int64_t>(target) -
                                   static_cast<std::int64_t>(page)));
        }
    };

    switch (in.op) {
      case Opcode::Jmp: {
        if (isRelocatedBlock(in.target)) {
            as.emitToLabel(makeJmp(0), fs.labelFor(in.target));
        } else if (needsVeneer(in.target)) {
            emitVeneerTarget(in.target);
            as.emit(makeJmpInd(Reg::r13));
        } else {
            as.emit(makeJmp(in.target)); // stays in original space
        }
        return;
      }
      case Opcode::JmpCond: {
        if (isRelocatedBlock(in.target)) {
            Instruction jcc = makeJmpCond(in.cond, 0);
            as.emitToLabel(jcc, fs.labelFor(in.target));
        } else {
            as.emit(makeJmpCond(in.cond, in.target));
        }
        return;
      }
      case Opcode::Call: {
        if (config_.callEmulation) {
            // Call emulation: materialize the ORIGINAL return
            // address, then branch. Returns land in original code
            // (the fall-through CFL block's trampoline bounces).
            emitEmulatedRa(orig_next);
            if (isRelocatedBlock(in.target)) {
                as.emitToLabel(makeJmp(0), fs.labelFor(in.target));
            } else if (needsVeneer(in.target)) {
                emitVeneerTarget(in.target);
                as.emit(makeJmpInd(Reg::r13));
            } else {
                as.emit(makeJmp(in.target));
            }
        } else {
            if (isRelocatedBlock(in.target)) {
                as.emitToLabel(makeCall(0), fs.labelFor(in.target));
            } else if (needsVeneer(in.target)) {
                emitVeneerTarget(in.target);
                as.emit(makeCallInd(Reg::r13));
            } else {
                as.emit(makeCall(in.target));
            }
            fs.raOffsets.emplace_back(
                static_cast<Offset>(as.here() - as.startAddr()),
                orig_next);
        }
        return;
      }
      case Opcode::CallInd: {
        if (config_.callEmulation) {
            emitEmulatedRa(orig_next);
            as.emit(makeJmpInd(in.rs1));
        } else {
            as.emit(in);
            fs.raOffsets.emplace_back(
                static_cast<Offset>(as.here() - as.startAddr()),
                orig_next);
        }
        return;
      }
      case Opcode::CallIndMem: {
        if (config_.callEmulation) {
            // Dyninst-10.2's x64 bug reproduced (§8.1): the pushed
            // return address shifts sp, so sp-relative operands read
            // the wrong slot.
            emitEmulatedRa(orig_next);
            as.emit(makeLoad(Reg::r12, in.rs1, in.imm));
            as.emit(makeJmpInd(Reg::r12));
        } else {
            as.emit(in);
            fs.raOffsets.emplace_back(
                static_cast<Offset>(as.here() - as.startAddr()),
                orig_next);
        }
        return;
      }
      case Opcode::Throw: {
        if (config_.callEmulation) {
            // Emulate the call into the throw runtime: materialize
            // the original throw address for the unwinder.
            if (arch_.hasLinkRegister) {
                emitMaterializeAddr(Reg::r13, in.addr);
            } else {
                emitMaterializeAddr(Reg::r13, in.addr);
                as.emit(makePush(Reg::r13));
            }
            as.emit(makeThrowRa());
            return;
        }
        // The unwinder's innermost frame pc is the throw site
        // itself; map it back like a return address so the FDE
        // lookup sees original coordinates (§6).
        fs.raOffsets.emplace_back(
            static_cast<Offset>(as.here() - as.startAddr()),
            in.addr);
        as.emit(in);
        return;
      }
      case Opcode::Lea: {
        // An intra-function Lea of a block start is a jump-table
        // anchor: it must track the relocated code in jt/func-ptr
        // modes so anchor-relative clones stay consistent.
        if (config_.mode != RewriteMode::dir &&
            in.target >= func.entry && in.target < func.end &&
            isRelocatedBlock(in.target)) {
            as.emitToLabel(makeLea(in.rd, 0),
                           fs.labelFor(in.target));
            return;
        }
        // The short-range ADR form cannot reach original space from
        // .instr; widen to the adrp/add pair (same absolute value).
        // Reachability depends on the final address: recorded.
        {
            FuncStream::Decision d;
            d.off = static_cast<Offset>(as.here() - as.startAddr());
            d.in = in;
            fs.scratch.clear();
            d.taken = arch_.codec->encode(in, as.here(), fs.scratch);
            fs.decisions.push_back(d);
            if (!d.taken) {
                as.emit(makeAdrPage(in.rd, in.target));
                const Addr page = ((in.target + 0x8000) >> 16) << 16;
                as.emit(makeAddImm(
                    in.rd, static_cast<std::int64_t>(in.target) -
                               static_cast<std::int64_t>(page)));
                return;
            }
        }
        as.emit(in);
        return;
      }
      default:
        as.emit(in);
        return;
    }
}

void
Engine::emitBlock(FuncStream &fs, const Function &func,
                  const Block &block, Addr fallthrough_next) const
{
    Assembler &as = *fs.as;
    as.bind(fs.ownLabel(block.start));
    fs.blockOffsets.emplace_back(
        block.start, static_cast<Offset>(as.here() - as.startAddr()));

    // Instrumentation snippets (counter ids pre-assigned in
    // emission order by plan() so streams can emit concurrently).
    const bool is_entry = block.start == func.entry;
    if (is_entry && config_.goRaTranslation &&
        (func.name == "runtime.findfunc" ||
         func.name == "runtime.pcvalue")) {
        const unsigned slot = arch_.hasLinkRegister ? go_arg_slot_lr
                                                    : go_arg_slot_x64;
        as.emit(makeCallRt(
            rtServiceImm(RtService::raXlatStackSlot, slot)));
    }
    if (is_entry && config_.instrumentation.countFunctionEntries) {
        auto id = entryCounters_.find(func.entry);
        icp_assert(id != entryCounters_.end(),
                   "entry counter not pre-assigned");
        as.emit(makeCallRt(
            rtServiceImm(RtService::count, id->second)));
    }
    if (config_.instrumentation.instrumentsBlock(block.start)) {
        auto id = blockCounters_.find(block.start);
        icp_assert(id != blockCounters_.end(),
                   "block counter not pre-assigned");
        as.emit(makeCallRt(
            rtServiceImm(RtService::count, id->second)));
    }

    for (const auto &in : func.insnsOf(block)) {
        fs.insnOffsets.emplace_back(
            in.addr, static_cast<Offset>(as.here() - as.startAddr()));
        emitTranslated(fs, func, in);
    }

    // Preserve fall-through semantics when the next emitted block is
    // not the layout successor (block reordering, function ends).
    const Instruction &last = func.last(block);
    const bool falls = !isControlFlow(last.op) ||
                       last.op == Opcode::JmpCond ||
                       isCall(last.op);
    if (falls) {
        const Addr ft = block.end;
        if (ft != fallthrough_next) {
            if (isRelocatedBlock(ft))
                as.emitToLabel(makeJmp(0), fs.labelFor(ft));
            else
                as.emit(makeJmp(ft));
        }
    }
}
std::vector<const Block *>
Engine::blockEmitOrder(const Function &func) const
{
    std::vector<const Block *> order;
    order.reserve(func.blocks.size());
    for (const Block &block : func.blocks)
        order.push_back(&block);
    if (config_.blockOrder == OrderPolicy::reversed) {
        // Keep the entry block first (callers land there), reverse
        // the rest.
        std::reverse(order.begin(), order.end());
        auto it = std::find_if(order.begin(), order.end(),
                               [&](const Block *b) {
                                   return b->start == func.entry;
                               });
        if (it != order.end()) {
            const Block *entry = *it;
            order.erase(it);
            order.insert(order.begin(), entry);
        }
    }
    return order;
}

Engine::FuncStream
Engine::emitStream(const Function &func, Addr base) const
{
    FuncStream fs;
    fs.base = base;
    fs.as = std::make_unique<Assembler>(arch_, base);
    fs.ownStarts.reserve(func.blocks.size());
    for (const Block &block : func.blocks)
        fs.ownStarts.push_back(block.start);
    const std::size_t insns = func.insns.size();
    // Most instructions emit as one item; a block may add a jump.
    fs.as->reserve(insns + func.blocks.size(), func.blocks.size());
    fs.blockOffsets.reserve(func.blocks.size());
    fs.insnOffsets.reserve(insns);
    for (std::size_t i = 0; i < fs.ownStarts.size(); ++i)
        fs.as->newLabel();
    const std::vector<const Block *> order = blockEmitOrder(func);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const Addr next =
            i + 1 < order.size() ? order[i + 1]->start : invalid_addr;
        emitBlock(fs, func, *order[i], next);
    }
    fs.size = fs.as->here() - fs.as->startAddr();
    return fs;
}

bool
Engine::decisionsHold(const FuncStream &fs, Addr base) const
{
    std::vector<std::uint8_t> scratch;
    for (const auto &d : fs.decisions) {
        if (d.isVeneer) {
            if (veneerNeeded(arch_, base + d.off, d.target) !=
                d.taken) {
                return false;
            }
        } else {
            scratch.clear();
            if (arch_.codec->encode(d.in, base + d.off, scratch) !=
                d.taken) {
                return false;
            }
        }
    }
    return true;
}

void
Engine::layout(const std::vector<const Function *> &funcs, bool keep)
{
    // With threads, every function first emits speculatively at the
    // window base; the in-order pass below re-validates each
    // stream's recorded address-dependent decisions against its
    // final base. A stream whose decisions all hold is
    // position-correct after a rebase (lengths are
    // address-independent); a flipped decision — only possible
    // within ±window of a direct-branch range boundary — re-emits
    // that one function at its exact base. Sequentially, every
    // function emits directly at its final base. The bytes are the
    // same either way.
    const unsigned threads = effectiveThreads(config_.threads);
    std::vector<FuncStream> speculative;
    if (threads > 1 && funcs.size() > 1) {
        speculative.resize(funcs.size());
        ThreadPool::shared().parallelFor(
            funcs.size(), threads, [&](std::size_t i) {
                speculative[i] =
                    emitStream(*funcs[i], config_.instrBase);
            });
    }

    const std::size_t b0 = blockMap_.size();
    const std::size_t i0 = insnMap_.size();
    bool sorted = true;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        const Addr base = alignUpAddr(cursor_, align_);
        FuncStream fs;
        if (!speculative.empty() &&
            decisionsHold(speculative[i], base)) {
            fs = std::move(speculative[i]);
            fs.as->rebase(base);
            fs.base = base;
        } else {
            fs = emitStream(*funcs[i], base);
        }
        cursor_ = base + fs.size;
        spans_.push_back({funcs[i]->entry, base, fs.size});

        // The maps stay sorted without a global sort when functions
        // arrive in ascending address order.
        sorted &= appendSorted(blockMap_, fs.blockOffsets, base);
        sorted &= appendSorted(insnMap_, fs.insnOffsets, base);
        for (const auto &[off, orig] : fs.raOffsets)
            raPairs_.emplace_back(base + off, orig);

        if (keep) {
            streams_.resize(spans_.size());
            streams_.back() = std::move(fs);
        }
    }
    if (!sorted) {
        mergeAppended(blockMap_, b0);
        mergeAppended(insnMap_, i0);
    }
}

/**
 * Whether @p fs, @p func emitted at @p span's base, reproduces that
 * span of a complete layout: its size, and exactly the entries of
 * @p blocks and @p insns in the function's original extent and of
 * @p ras in the span. A clean function's bytes may branch to any
 * block of @p func, so equal sizes alone do not make a splice sound.
 */
bool
Engine::sliceMatches(const FuncStream &fs, const Function &func,
                     const FuncSpan &span, const AddrPairs &blocks,
                     const AddrPairs &insns, const AddrPairs &ras) const
{
    if (fs.size != span.size)
        return false;
    const auto byKey = [](const std::pair<Addr, Addr> &p, Addr v) {
        return p.first < v;
    };
    const auto same = [&](const std::vector<std::pair<Addr, Offset>> &offs,
                          const AddrPairs &map) {
        const auto lo = std::lower_bound(map.begin(), map.end(),
                                         func.entry, byKey);
        const auto hi = std::lower_bound(lo, map.end(), func.end, byKey);
        if (static_cast<std::size_t>(hi - lo) != offs.size())
            return false;
        AddrPairs mine;
        mine.reserve(offs.size());
        for (const auto &[orig, off] : offs)
            mine.emplace_back(orig, fs.base + off);
        std::sort(mine.begin(), mine.end());
        return std::equal(mine.begin(), mine.end(), lo);
    };
    if (!same(fs.blockOffsets, blocks) || !same(fs.insnOffsets, insns))
        return false;
    auto ra = std::lower_bound(ras.begin(), ras.end(), span.base, byKey);
    for (const auto &[off, orig] : fs.raOffsets) {
        if (ra == ras.end() || *ra != std::pair{fs.base + off, orig})
            return false;
        ++ra;
    }
    return ra == ras.end() || ra->first >= span.base + span.size;
}

/**
 * Selective re-rewrite: re-emit only the dirty functions at the bases
 * the previous pass recorded; every other function's bytes, and the
 * block / instruction maps and RA pairs, carry over verbatim. Each
 * dirty function must reproduce its slice of the previous layout.
 */
bool
Engine::layoutReused(const std::vector<const Function *> &funcs,
                     const EngineReuse &ru)
{
    icp_assert(spans_.empty(), "reuse needs an empty layout");
    const RewriteManifest &prev = *ru.manifest;
    const std::vector<FuncSpan> &spans = prev.funcSpans;
    if (spans.size() != funcs.size())
        return false;

    // Reused functions are byte-unchanged under the dirty-set
    // contract; each one's entry block is still looked up as a
    // containment check, so a manifest that does not cover the
    // current CFG falls back instead of producing a wrong map.
    std::vector<FuncStream> streams(funcs.size());
    std::vector<bool> reused(funcs.size(), true);
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        const Function &func = *funcs[i];
        if (spans[i].entry != func.entry ||
            spans[i].base + spans[i].size >
                config_.instrBase + ru.instrBytes->size())
            return false;
        if (!ru.dirty->count(func.entry)) {
            if (!flatLookup(prev.blockMap, func.entry))
                return false;
            continue;
        }
        streams[i] = emitStream(func, spans[i].base);
        if (!sliceMatches(streams[i], func, spans[i], prev.blockMap,
                          prev.insnMap, prev.raPairs))
            return false;
        reused[i] = false;
    }

    blockMap_ = prev.blockMap;
    insnMap_ = prev.insnMap;
    raPairs_ = prev.raPairs;
    spans_ = spans;
    cursor_ = spans.back().base + spans.back().size;
    streams_ = std::move(streams);
    reused_ = std::move(reused);
    reusedBytes_ = ru.instrBytes;
    reusedCount_ = static_cast<unsigned>(
        std::count(reused_.begin(), reused_.end(), true));
    return true;
}

void
Engine::adopt(RewriteResult &prev)
{
    icp_assert(spans_.empty(), "adopt needs an empty layout");
    RewriteManifest &m = prev.manifest;
    blockMap_ = std::move(m.blockMap);
    insnMap_ = std::move(m.insnMap);
    raPairs_ = std::move(m.raPairs);
    spans_ = std::move(m.funcSpans);
    blockCounters_ = std::move(prev.blockCounters);
    entryCounters_ = std::move(prev.entryCounters);
    relocatedBlocks_.reserve(blockMap_.size());
    for (const auto &[orig, at] : blockMap_)
        relocatedBlocks_.push_back(orig);
    cursor_ = spans_.empty() ? config_.instrBase
                             : spans_.back().base + spans_.back().size;
}

void
Engine::release(RewriteResult &result)
{
    RewriteManifest &m = result.manifest;
    m.blockMap = std::move(blockMap_);
    m.insnMap = std::move(insnMap_);
    m.raPairs = std::move(raPairs_);
    m.funcSpans = std::move(spans_);
    result.blockCounters = std::move(blockCounters_);
    result.entryCounters = std::move(entryCounters_);
}

bool
Engine::relayout(std::size_t i, const Function &func, Addr first_clone)
{
    cloneCursor_ = first_clone;
    planClones(func);
    FuncStream fs = emitStream(func, spans_[i].base);
    if (!sliceMatches(fs, func, spans_[i], blockMap_, insnMap_, raPairs_))
        return false;
    streams_.resize(spans_.size());
    streams_[i] = std::move(fs);
    return true;
}

std::optional<std::vector<std::uint8_t>>
Engine::finalize(FuncStream &fs, std::string &error) const
{
    for (const auto &[addr, label] : fs.externalLabels) {
        const std::optional<Addr> target = lookupBlock(addr);
        icp_assert(target.has_value(),
                   "external block 0x%llx not relocated",
                   static_cast<unsigned long long>(addr));
        fs.as->bindAt(label, *target);
    }
    return fs.as->finalize(error);
}

std::optional<std::vector<std::uint8_t>>
Engine::emit(std::size_t i, const Function &func, std::string &error)
{
    const FuncSpan &span = spans_[i];
    icp_assert(span.entry == func.entry, "span/function order diverged");
    std::optional<std::vector<std::uint8_t>> bytes;
    if (i < reused_.size() && reused_[i]) {
        const auto from = reusedBytes_->begin() +
            static_cast<std::ptrdiff_t>(span.base - config_.instrBase);
        icp_assert(span.base - config_.instrBase + span.size <=
                       reusedBytes_->size(),
                   "reused span outside the previous payload");
        bytes.emplace(from, from + static_cast<std::ptrdiff_t>(span.size));
    } else if (i < streams_.size() && streams_[i].as) {
        bytes = finalize(streams_[i], error);
        streams_[i] = FuncStream{};
    } else {
        FuncStream fs = emitStream(func, span.base);
        bytes = finalize(fs, error);
    }
    icp_assert(!bytes || bytes->size() == span.size,
               "emission size diverged from layout");
    return bytes;
}

std::optional<std::vector<std::uint8_t>>
Engine::relocate(const std::vector<const Function *> &funcs,
                 std::string &error)
{
    plan(funcs);
    layout(funcs, true);
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        const Addr at = config_.instrBase + out.size();
        const std::vector<std::uint8_t> pad =
            paddingBytes(at, spans_[i].base);
        out.insert(out.end(), pad.begin(), pad.end());
        const auto bytes = emit(i, *funcs[i], error);
        if (!bytes)
            return std::nullopt;
        out.insert(out.end(), bytes->begin(), bytes->end());
    }
    return out;
}

std::vector<std::uint8_t>
Engine::paddingBytes(Addr from, Addr to) const
{
    // The same bytes Assembler::alignTo produces: encoded nops.
    std::vector<std::uint8_t> out;
    Addr addr = from;
    while (addr < to) {
        const bool ok = arch_.codec->encode(makeNop(), addr, out);
        icp_assert(ok, "nop encode failed");
        addr = from + out.size();
    }
    icp_assert(addr == to, "alignment overshot");
    return out;
}

std::optional<std::vector<std::uint8_t>>
Engine::cloneBytes(std::string &error) const
{
    std::vector<std::uint8_t> out;
    for (const TableClone &clone : clones_) {
        const JumpTable &jt = clone.table;
        const auto fail = [&](const char *why, unsigned long long at) {
            char msg[160];
            std::snprintf(msg, sizeof(msg),
                          "cannot clone the jump table at 0x%llx: %s "
                          "(0x%llx)",
                          static_cast<unsigned long long>(jt.tableAddr),
                          why, at);
            error = msg;
            return std::nullopt;
        };
        for (unsigned i = 0; i < jt.entryCount; ++i) {
            std::uint64_t value = 0;
            const Addr orig_target =
                i < jt.targets.size() ? jt.targets[i] : 0;
            if (std::optional<Addr> tnew = lookupBlock(orig_target)) {
                if (!jt.base) {
                    value = *tnew;
                } else {
                    Addr base_new;
                    if (*jt.base == jt.tableAddr) {
                        base_new = clone.cloneAddr;
                    } else {
                        // Anchor-relative: the anchor moved with
                        // the code.
                        std::optional<Addr> anchor =
                            lookupBlock(*jt.base);
                        if (!anchor)
                            return fail("its anchor is not relocated",
                                        *jt.base);
                        base_new = *anchor;
                    }
                    const std::int64_t diff =
                        static_cast<std::int64_t>(*tnew) -
                        static_cast<std::int64_t>(base_new);
                    if ((diff & ((1LL << jt.shift) - 1)) != 0)
                        return fail("an entry's distance from its anchor "
                                    "is not a multiple of its scale",
                                    orig_target);
                    const std::int64_t entry = diff >> jt.shift;
                    if (clone.entrySize != 8 &&
                        !fitsSigned(entry, clone.entrySize * 8))
                        return fail("an entry's distance from its anchor "
                                    "does not fit its width",
                                    orig_target);
                    value = static_cast<std::uint64_t>(entry);
                }
            }
            // Over-approximated garbage entries keep zero; they are
            // never dereferenced at runtime (§5.1, Failure 3).
            const Offset off = clone.cloneAddr -
                               config_.newRodataBase +
                               std::uint64_t{i} * clone.entrySize;
            if (out.size() < off + clone.entrySize)
                out.resize(off + clone.entrySize, 0);
            for (unsigned b = 0; b < clone.entrySize; ++b)
                out[off + b] = static_cast<std::uint8_t>(value >> (8 * b));
        }
    }
    return out;
}

std::optional<Addr>
funcPtrTarget(const FuncPtrDef &def, const Engine &engine)
{
    if (def.delta == 0)
        return engine.lookupBlock(def.funcEntry);
    const Addr delta = static_cast<Addr>(def.delta);
    const std::optional<Addr> at = engine.lookupInsn(def.funcEntry + delta);
    if (!at)
        return std::nullopt;
    return *at - delta;
}

void
patchFuncPtrCell(BinaryImage &out, const RelocIndex &relocs, Addr site,
                 Addr value)
{
    for (const RelocIndex::Entry &rel : relocs.at(site))
        out.relocs[rel.second].addend = static_cast<std::int64_t>(value);
    out.writeValue(site, value, 8);
}

bool
patchFuncPtrInsn(const BinaryImage &image, std::vector<std::uint8_t> &bytes,
                 Addr base, Addr at, Addr new_target)
{
    const ArchInfo &arch = image.archInfo();
    const Offset off = at - base;
    if (off >= bytes.size())
        return false;
    Instruction in;
    if (!arch.codec->decode(bytes.data() + off, bytes.size() - off, at,
                            in)) {
        return false;
    }
    const std::int64_t toc_off = static_cast<std::int64_t>(new_target) -
                                 static_cast<std::int64_t>(image.tocBase);
    switch (in.op) {
      case Opcode::MovImm:
        in.imm = arch.fixedLength
            ? static_cast<std::int64_t>((new_target >> in.movShift) &
                                        0xffff)
            : static_cast<std::int64_t>(new_target);
        break;
      case Opcode::Lea:
      case Opcode::AdrPage:
        in.target = new_target;
        break;
      case Opcode::AddisToc:
        in.imm = (toc_off + 0x8000) >> 16;
        break;
      case Opcode::AddImm:
        if (arch.hasToc) {
            in.imm = signExtend(static_cast<std::uint64_t>(toc_off), 16);
        } else {
            const Addr page = ((new_target + 0x8000) >> 16) << 16;
            in.imm = static_cast<std::int64_t>(new_target) -
                     static_cast<std::int64_t>(page);
        }
        break;
      default:
        break;
    }
    std::vector<std::uint8_t> enc;
    if (!arch.codec->encode(in, at, enc) || enc.size() != in.length)
        return false;
    std::copy(enc.begin(), enc.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
}

std::optional<Addr>
Engine::lookupBlock(Addr orig) const
{
    return flatLookup(blockMap_, orig);
}

std::optional<Addr>
Engine::lookupInsn(Addr orig) const
{
    return flatLookup(insnMap_, orig);
}

} // namespace icp
