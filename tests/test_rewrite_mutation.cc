/**
 * @file
 * Seeded mutation sweep of the whole rewrite pipeline: one- and
 * two-bit flips of `icp compile micro --pie` that the SBF decoder
 * accepts are rewritten in jt and func-ptr mode and linted, and,
 * when the mutant still halts within a step budget, the output is
 * simulated under the same budget. Each mutant runs in a forked
 * child, so an abort, a fault or a hang (the child's alarm) shows up
 * as a signal naming its flips instead of ending the suite. A failed
 * rewrite (ok == false), lint findings and a simulated fault are all
 * acceptable outcomes; only a signal fails the test.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "rewrite/rewriter.hh"
#include "sim/loader.hh"
#include "sim/machine.hh"
#include "sim/runtime_lib.hh"
#include "verify/lint.hh"

using namespace icp;

namespace
{

/** Accepted mutants per ISA and seed: 3 seeds give 402 per ISA. */
constexpr unsigned mutants_per_seed = 134;

/** Instructions a mutant and its rewrites may run (micro: ~23k). */
constexpr std::uint64_t step_budget = 100'000;

/** Seconds before a child that has not finished is killed. */
constexpr unsigned child_alarm_seconds = 120;

/** Run @p img for at most step_budget instructions. */
RunResult
runBounded(const BinaryImage &img, bool with_runtime)
{
    auto proc = loadImage(img);
    Machine machine(*proc, Machine::Config{});
    std::unique_ptr<RuntimeLib> rt;
    if (with_runtime) {
        rt = std::make_unique<RuntimeLib>(proc->module);
        machine.attachRuntimeLib(rt.get());
    }
    machine.start();
    return machine.runFor(step_budget);
}

/** The child's work on one accepted mutant. */
void
exerciseMutant(const BinaryImage &img)
{
    const RunResult original = runBounded(img, false);
    for (RewriteMode mode : {RewriteMode::jt, RewriteMode::funcPtr}) {
        RewriteOptions opts;
        opts.mode = mode;
        opts.threads = 1;
        opts.useAnalysisCache = false;
        const RewriteResult rw = rewriteBinary(img, opts);
        lintRewrite(img, rw, LintOptions{});
        if (rw.ok && original.halted)
            runBounded(rw.image, true);
    }
}

/**
 * Fork a child that exercises @p img; the signal that ended it, or 0
 * when it exited.
 */
int
signalOfChild(const BinaryImage &img)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::alarm(child_alarm_seconds);
        exerciseMutant(img);
        ::_exit(0);
    }
    if (pid < 0)
        return -1;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return WIFSIGNALED(status) ? WTERMSIG(status) : 0;
}

class RewriteMutation : public ::testing::TestWithParam<Arch>
{
};

TEST_P(RewriteMutation, AcceptedFlipsNeverKillTheRewriter)
{
    const Arch arch = GetParam();
    const std::vector<std::uint8_t> raw =
        compileProgram(microProfile(arch, true)).serialize();
    unsigned accepted = 0;
    for (std::uint64_t seed : {7, 11, 13}) {
        std::mt19937_64 rng(seed);
        unsigned seed_accepted = 0;
        for (unsigned trial = 0;
             seed_accepted < mutants_per_seed && trial < 50 * mutants_per_seed;
             ++trial) {
            std::vector<std::uint8_t> bytes = raw;
            std::string what = "seed " + std::to_string(seed) + ":";
            for (std::uint64_t n = 1 + rng() % 2; n > 0; --n) {
                const std::size_t at = rng() % bytes.size();
                const unsigned bit = static_cast<unsigned>(rng() % 8);
                bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
                what += " byte " + std::to_string(at) + " bit " +
                        std::to_string(bit);
            }
            std::vector<SbfIssue> issues;
            const auto img = BinaryImage::tryDeserialize(bytes, issues);
            if (!img)
                continue;
            ++seed_accepted;
            const int sig = signalOfChild(*img);
            EXPECT_EQ(sig, 0) << archName(arch) << " " << what << ": "
                              << (sig > 0 ? strsignal(sig) : "fork failed");
        }
        accepted += seed_accepted;
    }
    EXPECT_GE(accepted, 3 * mutants_per_seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllArches, RewriteMutation,
    ::testing::Values(Arch::x64, Arch::ppc64le, Arch::aarch64),
    [](const ::testing::TestParamInfo<Arch> &info) {
        std::string name = archName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
