/**
 * @file
 * Selective instrumentation and the §4.2 reachability-pruning
 * extension: instrument a handful of chosen blocks, prune
 * trampolines at CFL blocks that cannot reach them, and show the
 * counters agree exactly with an unpruned (fully verified) rewrite
 * while far fewer trampolines are installed.
 */

#include <gtest/gtest.h>

#include "analysis/builder.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "sim/loader.hh"
#include "sim/machine.hh"

using namespace icp;

namespace
{

RunResult
runRewritten(const BinaryImage &img)
{
    auto proc = loadImage(img);
    RuntimeLib rt(proc->module);
    Machine machine(*proc, Machine::Config{});
    machine.attachRuntimeLib(&rt);
    return machine.run();
}

/** Pick a few block addresses inside one function. */
std::set<Addr>
pickBlocks(const BinaryImage &img, const std::string &func_name,
           unsigned count)
{
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    std::set<Addr> chosen;
    for (const auto &[entry, func] : cfg.functions) {
        if (func.name != func_name)
            continue;
        for (const Block &block : func.blocks) {
            chosen.insert(block.start);
            if (chosen.size() >= count)
                break;
        }
    }
    EXPECT_EQ(chosen.size(), count);
    return chosen;
}

} // namespace

TEST(Selective, OnlyChosenBlocksGetCounters)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.instrumentation.countBlocks = true;
    opts.instrumentation.onlyBlocks = pickBlocks(img, "worker", 3);
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok);
    EXPECT_EQ(rw.blockCounters.size(), 3u);
    for (const auto &[block, id] : rw.blockCounters)
        EXPECT_TRUE(opts.instrumentation.onlyBlocks.count(block));
}

TEST(Selective, PruningDropsTrampolinesButKeepsCounts)
{
    const BinaryImage img =
        compileProgram(specCpuSuite(Arch::x64, false)[0]);
    const std::set<Addr> chosen =
        pickBlocks(img, "600.perlbench_h1", 2);

    RewriteOptions base;
    base.mode = RewriteMode::jt;
    base.instrumentation.countBlocks = true;
    base.instrumentation.onlyBlocks = chosen;

    RewriteOptions pruned = base;
    pruned.reachabilityPruning = true;

    const RewriteResult full = rewriteBinary(img, base);
    const RewriteResult lean = rewriteBinary(img, pruned);
    ASSERT_TRUE(full.ok && lean.ok);
    EXPECT_LT(lean.stats.trampolines, full.stats.trampolines / 2);

    const RunResult full_run = runRewritten(full.image);
    const RunResult lean_run = runRewritten(lean.image);
    ASSERT_TRUE(full_run.halted) << full_run.describe();
    ASSERT_TRUE(lean_run.halted) << lean_run.describe();
    EXPECT_EQ(full_run.checksum, lean_run.checksum);

    // Identical counter values: pruning never loses an execution.
    for (const auto &[block, id] : full.blockCounters) {
        auto it = lean.blockCounters.find(block);
        ASSERT_NE(it, lean.blockCounters.end());
        const std::uint64_t a =
            id < full_run.counters.size() ? full_run.counters[id]
                                          : 0;
        const std::uint64_t b =
            it->second < lean_run.counters.size()
                ? lean_run.counters[it->second]
                : 0;
        EXPECT_EQ(a, b) << std::hex << block;
        EXPECT_GT(a, 0u);
    }
    // The pruned run also bounces less.
    EXPECT_LE(lean_run.cycles, full_run.cycles);
}

TEST(Selective, EntryCountersKeptForInstrumentedCallees)
{
    // Pruning must never drop the entry trampoline of a function
    // whose entry carries a counter — calls from pruned original
    // code still migrate there.
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.instrumentation.countFunctionEntries = true;
    opts.reachabilityPruning = true;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok);

    auto gp = loadImage(img);
    Machine::Config cfg;
    cfg.recordTransferTargets = true;
    Machine golden(*gp, cfg);
    const RunResult g = golden.run();

    const RunResult r = runRewritten(rw.image);
    ASSERT_TRUE(r.halted) << r.describe();
    EXPECT_EQ(r.checksum, g.checksum);
    for (const auto &[entry, id] : rw.entryCounters) {
        const std::uint64_t counted =
            id < r.counters.size() ? r.counters[id] : 0;
        auto it = g.transferTargets.find(entry);
        const std::uint64_t native =
            it == g.transferTargets.end() ? 0 : it->second;
        EXPECT_EQ(counted, native) << std::hex << entry;
    }
}

TEST(Selective, PruningRejectsClobbering)
{
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    RewriteOptions opts;
    opts.reachabilityPruning = true;
    opts.clobberOriginal = true;
    const RewriteResult rw = rewriteBinary(img, opts);
    EXPECT_FALSE(rw.ok);
}

TEST(Selective, NoInstrumentationMeansNoTrampolines)
{
    // With empty instrumentation and pruning, nothing needs to run
    // in relocated code at all.
    const BinaryImage img =
        compileProgram(microProfile(Arch::x64, false));
    RewriteOptions opts;
    opts.mode = RewriteMode::jt;
    opts.reachabilityPruning = true;
    const RewriteResult rw = rewriteBinary(img, opts);
    ASSERT_TRUE(rw.ok);
    EXPECT_EQ(rw.stats.trampolines, 0u);
    const RunResult r = runRewritten(rw.image);
    EXPECT_TRUE(r.halted) << r.describe();
}
