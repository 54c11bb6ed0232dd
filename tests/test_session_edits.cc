/**
 * @file
 * SessionEditSequence: seeded sequences of edits to a micro-sized
 * program fed one after the other through RewriteSession::loadInput,
 * on 3 ISAs x {jt, func-ptr} x count-blocks on/off. An immediate flip
 * keeps its function's shape, and a data byte no analysis reads
 * dirties nothing: both must replay the previous pass
 * (LoadOutcome::replayed). An edit that changes a branch target, an
 * instruction length (x86-64, whose instructions have more than one
 * length), a pointer-forming instruction or a jump-table entry that a
 * read-set covers must take the full pipeline. After every step the
 * session's output must equal a cold rewrite of the same bytes: the
 * same serialized image, the same stats but for the reuse counters,
 * the same manifest and the same counter ids; and the session's lint,
 * which re-checks only the functions the edit changed and carries the
 * rest of the previous report, must equal a full lint of the result,
 * finding for finding. SessionEditLint drives a session whose report
 * carries findings (a defect planted in one function, kept across
 * repair) through the same comparison, and SessionEditLintTraps one
 * whose clean functions' trap warnings an edit moves.
 */

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/builder.hh"
#include "analysis/funcptr.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/engine.hh"
#include "rewrite/session.hh"
#include "support/random.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

enum class EditKind
{
    flip,    ///< an AddImm immediate ^ 1: keeps the shape
    data,    ///< a data byte no analysis reads: dirties nothing
    branch,  ///< a branch retargeted into the middle of a block
    length,  ///< an instruction split into one-byte nops (x86-64)
    pointer, ///< a pointer-forming instruction aimed at another entry
    table,   ///< a jump-table entry overwritten by its neighbour
};

const char *
kindName(EditKind kind)
{
    switch (kind) {
      case EditKind::flip: return "flip";
      case EditKind::data: return "data";
      case EditKind::branch: return "branch";
      case EditKind::length: return "length";
      case EditKind::pointer: return "pointer";
      case EditKind::table: return "table";
    }
    return "?";
}

bool
writeInsn(BinaryImage &img, const Instruction &edit, unsigned length)
{
    std::vector<std::uint8_t> enc;
    return img.archInfo().codec->encode(edit, edit.addr, enc) &&
           enc.size() == length && img.writeBytes(edit.addr, enc);
}

/** Pick one of @p n candidates; false when there are none. */
bool
pick(Rng &rng, std::size_t n, std::size_t &index)
{
    if (n == 0)
        return false;
    index = static_cast<std::size_t>(rng.range(0, n - 1));
    return true;
}

/**
 * Whether an AddImm at index @p k of @p block feeds no analysis: the
 * last earlier write of its register in the block does not form an
 * address, constant or loaded value (the pointer scan and jump-table
 * slices track those), and the block neither ends in nor falls into
 * an indirect jump.
 */
bool
untracked(const Function &func, const Block &block, std::size_t k)
{
    const auto indirect = [&](const Block &b) {
        return func.last(b).op == Opcode::JmpInd ||
               func.last(b).op == Opcode::JmpTar;
    };
    if (indirect(block))
        return false;
    const Block *next = func.blockAt(block.end);
    if (next && next->start == block.end && indirect(*next))
        return false;
    const auto insns = func.insnsOf(block);
    const Reg rd = insns[k].rd;
    for (std::size_t j = k; j-- > 0;) {
        const Instruction &in = insns[j];
        if (in.rd != rd)
            continue;
        switch (in.op) {
          case Opcode::MovImm:
          case Opcode::Lea:
          case Opcode::AdrPage:
          case Opcode::AddisToc:
          case Opcode::AddImm:
          case Opcode::Load:
          case Opcode::MovReg:
            return false;
          default:
            return true;
        }
    }
    return true;
}

/** Overwrite @p in with one-byte nops; false when they do not fit. */
bool
splitIntoNops(BinaryImage &img, const Instruction &in)
{
    std::vector<std::uint8_t> nops;
    for (Addr a = in.addr; a < in.addr + in.length;
         a = in.addr + nops.size()) {
        if (!img.archInfo().codec->encode(makeNop(), a, nops))
            return false;
    }
    return nops.size() == in.length && img.writeBytes(in.addr, nops);
}

/** Apply one edit of @p kind to @p img; false when none applies. */
bool
applyEdit(BinaryImage &img, EditKind kind, Rng &rng)
{
    AnalysisOptions aopts;
    aopts.useCache = false;
    const CfgModule cfg = buildCfg(img, aopts);
    std::size_t i = 0;

    switch (kind) {
      case EditKind::flip: {
        std::vector<Instruction> sites;
        for (const auto &[entry, func] : cfg.functions) {
            for (const Block &block : func.blocks) {
                for (std::size_t k = 0; k < block.insns.size(); ++k) {
                    const Instruction &in = func.insnsOf(block)[k];
                    if (in.op == Opcode::AddImm && in.imm > 1 &&
                        untracked(func, block, k))
                        sites.push_back(in);
                }
            }
        }
        while (pick(rng, sites.size(), i)) {
            Instruction edit = sites[i];
            edit.imm ^= 1;
            if (writeInsn(img, edit, sites[i].length))
                return true;
            sites.erase(sites.begin() + static_cast<std::ptrdiff_t>(i));
        }
        return false;
      }

      case EditKind::data: {
        // .rodata bytes outside every read-set and relocation slot
        const Section *ro = img.findSection(".rodata");
        std::vector<Addr> sites;
        for (Addr a = ro ? ro->addr : 0;
             ro && a < ro->addr + ro->bytes.size(); ++a) {
            const bool read = std::any_of(
                cfg.functions.begin(), cfg.functions.end(),
                [&](const FunctionSlot &slot) {
                    return slot.fn->dataDeps.overlaps(a, a + 1);
                });
            const bool reloc = std::any_of(
                img.relocs.begin(), img.relocs.end(),
                [&](const Relocation &r) {
                    return a >= r.site && a < r.site + 8;
                });
            if (!read && !reloc)
                sites.push_back(a);
        }
        if (!pick(rng, sites.size(), i))
            return false;
        const auto old = img.readValue(sites[i], 1);
        return old && img.writeValue(sites[i], *old ^ 0x5a, 1);
      }

      case EditKind::branch: {
        // (branch, a decoded instruction inside the function that
        // starts no block)
        std::vector<std::pair<Instruction, Addr>> sites;
        for (const auto &[entry, func] : cfg.functions) {
            std::vector<Addr> inner;
            for (const Block &block : func.blocks)
                for (const Instruction &in : func.insnsOf(block).subspan(1))
                    inner.push_back(in.addr);
            for (const Block &block : func.blocks) {
                const Instruction &last = func.last(block);
                if (last.op != Opcode::JmpCond ||
                    last.target < func.entry || last.target >= func.end)
                    continue;
                for (Addr to : inner)
                    sites.emplace_back(last, to);
            }
        }
        while (pick(rng, sites.size(), i)) {
            Instruction edit = sites[i].first;
            edit.target = sites[i].second;
            if (writeInsn(img, edit, sites[i].first.length))
                return true;
            sites.erase(sites.begin() + static_cast<std::ptrdiff_t>(i));
        }
        return false;
      }

      case EditKind::length: {
        std::vector<Instruction> sites;
        for (const auto &[entry, func] : cfg.functions) {
            if (!func.instrumentable())
                continue;
            for (const Instruction &in : func.insns)
                if (in.length >= 2 && !isControlFlow(in.op))
                    sites.push_back(in);
        }
        return pick(rng, sites.size(), i) && splitIntoNops(img, sites[i]);
      }

      case EditKind::pointer: {
        const FuncPtrAnalysisResult ptrs = analyzeFuncPtrs(cfg);
        std::vector<FuncPtrDef> defs;
        for (const FuncPtrDef &def : ptrs.defs)
            if (def.kind != FuncPtrDef::Kind::dataCell)
                defs.push_back(def);
        Section *text = img.findSection(SectionKind::text);
        while (pick(rng, defs.size(), i)) {
            const FuncPtrDef def = defs[i];
            defs.erase(defs.begin() + static_cast<std::ptrdiff_t>(i));
            // Aim it at the nearest other entry it can encode.
            std::vector<Addr> entries;
            for (const auto &[entry, func] : cfg.functions)
                if (entry != def.funcEntry)
                    entries.push_back(entry);
            std::sort(entries.begin(), entries.end(),
                      [&](Addr a, Addr b) {
                          const auto da = a > def.funcEntry
                                              ? a - def.funcEntry
                                              : def.funcEntry - a;
                          const auto db = b > def.funcEntry
                                              ? b - def.funcEntry
                                              : def.funcEntry - b;
                          return da < db;
                      });
            for (Addr to : entries) {
                std::vector<std::uint8_t> bytes = text->bytes;
                bool ok = true;
                for (Addr at : def.defAddrs)
                    ok = ok && patchFuncPtrInsn(img, bytes, text->addr,
                                                at, to);
                if (ok && bytes != text->bytes) {
                    text->bytes = std::move(bytes);
                    return true;
                }
            }
        }
        return false;
      }

      case EditKind::table: {
        // (entry address, width): an entry followed by a different
        // one, under no relocation slot
        std::vector<std::pair<Addr, unsigned>> sites;
        for (const auto &[entry, func] : cfg.functions) {
            for (const JumpTable &jt : func.jumpTables) {
                for (unsigned k = 0; k + 1 < jt.entryCount; ++k) {
                    const Addr at =
                        jt.tableAddr + std::uint64_t{k} * jt.entrySize;
                    const auto a = img.readValue(at, jt.entrySize);
                    const auto b =
                        img.readValue(at + jt.entrySize, jt.entrySize);
                    const bool reloc = std::any_of(
                        img.relocs.begin(), img.relocs.end(),
                        [&](const Relocation &r) {
                            return r.site < at + 2 * jt.entrySize &&
                                   at < r.site + 8;
                        });
                    if (a && b && *a != *b && !reloc)
                        sites.emplace_back(at, jt.entrySize);
                }
            }
        }
        if (!pick(rng, sites.size(), i))
            return false;
        const auto [at, width] = sites[i];
        std::vector<std::uint8_t> donor;
        return img.readBytes(at + width, width, donor) &&
               img.writeBytes(at, donor);
      }
    }
    return false;
}

/**
 * The micro program with three more copies of every function but
 * main (not called, but analyzed and rewritten), so a sequence of
 * edits does not run out of jump tables and pointer-forming code.
 */
ProgramSpec
editedProgram(Arch arch)
{
    ProgramSpec spec = microProfile(arch, /*pie=*/true);
    spec.rodataPadding = 256; // bytes no analysis reads
    const auto n = static_cast<unsigned>(spec.funcs.size());
    for (unsigned copy = 1; copy <= 3; ++copy) {
        for (unsigned f = 1; f < n; ++f) {
            FuncSpec func = spec.funcs[f];
            func.name += '_';
            func.name += std::to_string(copy);
            for (unsigned &callee : func.callees)
                callee += callee == 0 ? 0 : copy * (n - 1);
            if (func.tailCallTo > 0)
                func.tailCallTo += static_cast<int>(copy * (n - 1));
            spec.funcs.push_back(func);
        }
    }
    return spec;
}

RewriteStats
withoutReuse(RewriteStats stats)
{
    stats.relocEmittedFunctions = 0;
    stats.relocReusedFunctions = 0;
    return stats;
}

/** The session's result after an edit against a cold rewrite. */
void
expectSameAsCold(const RewriteResult &got, const RewriteResult &cold)
{
    ASSERT_TRUE(got.ok) << got.failReason;
    EXPECT_TRUE(got.image.serialize() == cold.image.serialize());
    EXPECT_TRUE(withoutReuse(got.stats) == withoutReuse(cold.stats));
    EXPECT_EQ(got.blockCounters, cold.blockCounters);
    EXPECT_EQ(got.entryCounters, cold.entryCounters);
    const RewriteManifest &a = got.manifest;
    const RewriteManifest &b = cold.manifest;
    EXPECT_EQ(a.blockMap, b.blockMap);
    EXPECT_EQ(a.insnMap, b.insnMap);
    EXPECT_EQ(a.raPairs, b.raPairs);
    EXPECT_TRUE(a.funcSpans == b.funcSpans);
    EXPECT_TRUE(a.trampolines == b.trampolines);
    EXPECT_TRUE(a.clones == b.clones);
    EXPECT_TRUE(a.funcPtrs == b.funcPtrs);
    EXPECT_EQ(a.scratchRanges, b.scratchRanges);
    EXPECT_EQ(a.protectedRanges, b.protectedRanges);
    EXPECT_EQ(a.instrumented, b.instrumented);
    EXPECT_TRUE(a.dataDeps == b.dataDeps);
}

/**
 * The session's lint of its last result (merged with the previous
 * report) against a full lint of the same result: the same findings
 * in the same order. Returns the session's report.
 */
const LintReport &
expectLintMatchesFull(RewriteSession &session)
{
    const LintReport &merged = session.lint();
    LintOptions full;
    full.originalCfg = &session.analyze();
    const LintReport whole =
        lintRewrite(session.input(), session.lastResult(), full);
    EXPECT_TRUE(merged.findings == whole.findings)
        << "merged:\n" << merged.renderText() << "full:\n"
        << whole.renderText();
    EXPECT_TRUE(diffReports(whole, merged).functions.empty());
    // The map order a replay carried over is the one a full lint proves.
    EXPECT_EQ(merged.mapOrder, whole.mapOrder);
    return merged;
}

} // namespace

using EditParam = std::tuple<Arch, RewriteMode, bool>;

class SessionEditSequence : public ::testing::TestWithParam<EditParam>
{
};

TEST_P(SessionEditSequence, EveryStepMatchesAColdRewrite)
{
    const auto [arch, mode, count_blocks] = GetParam();
    RewriteOptions opts;
    opts.mode = mode;
    opts.instrumentation.countBlocks = count_blocks;
    opts.threads = 1;
    RewriteOptions cold_opts = opts;
    cold_opts.useAnalysisCache = false;

    BinaryImage current = compileProgram(editedProgram(arch));
    RewriteSession session(current);
    ASSERT_TRUE(session.rewrite(opts).ok);
    EXPECT_FALSE(session.lint().relintedFunctions.has_value());

    // Twenty steps, half of them shape-preserving, in a seeded
    // order. Fixed-length ISAs have one instruction length: flips
    // stand in for those edits there.
    const bool lengths = !current.archInfo().fixedLength;
    std::vector<EditKind> plan(8, EditKind::flip);
    for (const auto &[kind, n] :
         {std::pair{EditKind::data, 2}, {EditKind::branch, 3},
          {EditKind::length, 2}, {EditKind::pointer, 3},
          {EditKind::table, 2}})
        plan.insert(plan.end(), n,
                    kind == EditKind::length && !lengths ? EditKind::flip
                                                         : kind);
    Rng rng(0x5e55 + static_cast<std::uint64_t>(arch) * 31 +
            static_cast<std::uint64_t>(mode) * 7 + count_blocks);
    for (std::size_t k = plan.size(); k > 1; --k)
        std::swap(plan[k - 1], plan[rng.range(0, k - 1)]);

    std::map<EditKind, unsigned> applied;
    for (std::size_t step = 0; step < plan.size(); ++step) {
        BinaryImage next = current;
        const EditKind kind = plan[step];
        if (!applyEdit(next, kind, rng))
            continue;
        ++applied[kind];
        SCOPED_TRACE("step " + std::to_string(step) + ": " +
                     kindName(kind));

        const auto out = session.loadInput(next);
        ASSERT_TRUE(out.incremental);
        EXPECT_EQ(out.dirtyFunctions.empty(), kind == EditKind::data);
        EXPECT_EQ(out.replayed,
                  kind == EditKind::flip || kind == EditKind::data);

        const RewriteResult cold = rewriteBinary(next, cold_opts);
        ASSERT_TRUE(cold.ok) << cold.failReason;
        expectSameAsCold(session.lastResult(), cold);

        // A replay re-checks exactly the dirty functions (none after
        // an unread data edit); a re-run also those whose records
        // moved.
        const LintReport &report = expectLintMatchesFull(session);
        ASSERT_TRUE(report.relintedFunctions.has_value());
        if (out.replayed) {
            EXPECT_EQ(*report.relintedFunctions,
                      out.dirtyFunctions.size());
        } else {
            EXPECT_GE(*report.relintedFunctions,
                      out.dirtyFunctions.size());
        }
        current = std::move(next);
    }
    EXPECT_GE(applied[EditKind::flip], 6u);
    EXPECT_GE(applied[EditKind::data], 1u);
    EXPECT_GE(applied[EditKind::branch], 1u);
    EXPECT_GE(applied[EditKind::pointer], 1u);
    EXPECT_GE(applied[EditKind::table], 1u);
    if (lengths) {
        EXPECT_GE(applied[EditKind::length], 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchsModes, SessionEditSequence,
    ::testing::Combine(::testing::Values(Arch::x64, Arch::ppc64le,
                                         Arch::aarch64),
                       ::testing::Values(RewriteMode::jt,
                                         RewriteMode::funcPtr),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<EditParam> &info) {
        std::string name = std::string(archName(std::get<0>(info.param))) +
                           "_" + rewriteModeName(std::get<1>(info.param)) +
                           (std::get<2>(info.param) ? "_counters" : "");
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/**
 * A report that carries findings: a trampoline defect planted in one
 * function and kept planted across a repair (no demotion yet), then
 * a flip in another function and an unread data edit. The planted
 * function is not re-checked after the edits (its records do not
 * change), so its findings are carried; after every step the merged
 * report must equal a full lint.
 */
class SessionEditLint : public ::testing::TestWithParam<Arch>
{
};

TEST_P(SessionEditLint, CarriedFindingsMatchAFullLint)
{
    const Arch arch = GetParam();
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.threads = 1;
    opts.injectDefect = InjectDefect::trampTarget;
    BinaryImage current = compileProgram(editedProgram(arch));
    RewriteSession session(current);
    ASSERT_TRUE(session.rewrite(opts).ok);
    std::string victim;
    for (const Diagnostic &d : session.lint().findings) {
        if (d.severity == Severity::error && !d.function.empty())
            victim = d.function;
    }
    ASSERT_FALSE(victim.empty());

    opts.injectOnlyFunction = victim;
    ASSERT_TRUE(session.rewrite(opts).ok);
    ASSERT_FALSE(session.lastResult().manifest.injectedRule.empty());
    EXPECT_FALSE(expectLintMatchesFull(session).clean());

    // One repair re-plants the defect: the merged re-lint still
    // reports it.
    RewriteSession::RepairPolicy keep;
    keep.clearInjectedDefect = false;
    const auto repaired = session.repair(session.lastReport(), keep);
    EXPECT_FALSE(repaired.converged);
    EXPECT_TRUE(repaired.demotedFunctions.empty());
    {
        const LintReport &report = expectLintMatchesFull(session);
        EXPECT_GE(report.countAtLeast(Severity::error), 1u);
    }

    // Edits elsewhere: the victim's code stays as it is.
    std::optional<Symbol> victim_sym;
    for (const Symbol *sym : current.functionSymbols())
        if (sym->name == victim)
            victim_sym = *sym;
    ASSERT_TRUE(victim_sym.has_value());
    const auto victimCode = [&](const BinaryImage &img) {
        std::vector<std::uint8_t> bytes;
        EXPECT_TRUE(
            img.readBytes(victim_sym->addr, victim_sym->size, bytes));
        return bytes;
    };
    Rng rng(0x11a7 + static_cast<std::uint64_t>(arch));
    for (const EditKind kind : {EditKind::flip, EditKind::data}) {
        SCOPED_TRACE(kindName(kind));
        BinaryImage next = current;
        bool applied = false;
        for (unsigned tries = 0; !applied && tries < 16; ++tries) {
            next = current;
            applied = applyEdit(next, kind, rng) &&
                      victimCode(next) == victimCode(current);
        }
        ASSERT_TRUE(applied);
        const auto out = session.loadInput(next);
        ASSERT_TRUE(out.incremental);
        EXPECT_EQ(out.dirtyFunctions.empty(), kind == EditKind::data);
        EXPECT_EQ(out.dirtyNames.count(victim), 0u);

        const LintReport &report = expectLintMatchesFull(session);
        ASSERT_TRUE(report.relintedFunctions.has_value());
        EXPECT_LT(*report.relintedFunctions,
                  session.analyze().functions.size());
        EXPECT_GE(report.countAtLeast(Severity::error), 1u);
        const bool carried = std::any_of(
            report.findings.begin(), report.findings.end(),
            [&](const Diagnostic &d) { return d.function == victim; });
        EXPECT_TRUE(carried);
        current = std::move(next);
    }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, SessionEditLint,
                         ::testing::Values(Arch::x64, Arch::ppc64le,
                                           Arch::aarch64),
                         [](const ::testing::TestParamInfo<Arch> &info) {
                             std::string name = archName(info.param);
                             std::replace(name.begin(), name.end(), '-',
                                          '_');
                             return name;
                         });

/**
 * Trap fallbacks (no placement analysis, no multi-hop) give clean
 * functions findings of their own: a tramp-trap warning naming each
 * trap's relocated target. A jump-table or branch edit that grows a
 * function moves the functions laid out after it, and with them
 * those targets: the merged report must re-check the moved
 * functions, not carry their old warnings.
 */
TEST(SessionEditLintTraps, MovedFunctionsAreRechecked)
{
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.trampolinePlacement = false;
    opts.multiHop = false;
    opts.instrumentation.countBlocks = true;
    opts.threads = 1;
    BinaryImage current = compileProgram(editedProgram(Arch::x64));
    RewriteSession session(current);
    ASSERT_TRUE(session.rewrite(opts).ok);
    ASSERT_GT(session.lastResult().stats.trapTramps, 0u);
    EXPECT_GE(session.lint().countAtLeast(Severity::warning), 1u);

    Rng rng(0x7a95);
    unsigned moved = 0;
    for (unsigned step = 0; step < 6; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        BinaryImage next = current;
        ASSERT_TRUE(applyEdit(
            next, step % 2 ? EditKind::branch : EditKind::table, rng));
        const auto out = session.loadInput(next);
        ASSERT_TRUE(out.incremental);
        const LintReport &report = expectLintMatchesFull(session);
        ASSERT_TRUE(report.relintedFunctions.has_value());
        if (*report.relintedFunctions > out.dirtyFunctions.size())
            ++moved;
        current = std::move(next);
    }
    EXPECT_GE(moved, 1u);
}

/**
 * A dirty function that keeps its emitted size while its instruction
 * offsets move. The pipeline used to splice every other function's
 * bytes next to it on the size check alone, although a clean
 * function's bytes may hold a relocated address inside it (a branch
 * to one of its blocks, a displaced pointer to one of its
 * instructions). The codegen emits no branch into another function's
 * blocks, so this builds the nearest case it can: one instruction of
 * a relocated x86-64 function split into one-byte nops, which leaves
 * every emitted size alone. The pass must not replay, must lay out
 * every function afresh, and must equal a cold rewrite.
 */
TEST(SessionLayoutReuse, MovedInstructionsFallBackToFullLayout)
{
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.threads = 1;
    const BinaryImage base = compileProgram(editedProgram(Arch::x64));
    RewriteSession session(base);
    const RewriteResult &first = session.rewrite(opts);
    ASSERT_TRUE(first.ok) << first.failReason;
    const unsigned instrumented = first.stats.instrumentedFunctions;

    BinaryImage edited = base;
    bool split = false;
    for (const auto &[entry, func] : session.analyze().functions) {
        if (!func.instrumentable())
            continue;
        for (const Instruction &in : func.insns) {
            if (split || in.length < 2 || isControlFlow(in.op) ||
                in.op == Opcode::Lea || in.op == Opcode::MovImm)
                continue;
            split = splitIntoNops(edited, in);
        }
    }
    ASSERT_TRUE(split);

    const auto out = session.loadInput(edited);
    ASSERT_TRUE(out.incremental);
    EXPECT_FALSE(out.replayed);
    const RewriteResult &got = session.lastResult();
    ASSERT_TRUE(got.ok) << got.failReason;
    EXPECT_EQ(got.stats.relocReusedFunctions, 0u);
    EXPECT_EQ(got.stats.relocEmittedFunctions, instrumented);

    RewriteOptions cold_opts = opts;
    cold_opts.useAnalysisCache = false;
    const RewriteResult cold = rewriteBinary(edited, cold_opts);
    ASSERT_TRUE(cold.ok) << cold.failReason;
    expectSameAsCold(got, cold);
}
