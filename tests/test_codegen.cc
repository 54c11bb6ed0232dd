/**
 * @file
 * End-to-end tests of the synthetic compiler: every workload profile
 * compiles on every architecture, loads, runs to a clean halt, and
 * produces deterministic checksums. This is the golden-run substrate
 * every rewriting experiment builds on.
 */

#include <gtest/gtest.h>

#include "codegen/compiler.hh"
#include "codegen/workloads.hh"
#include "sim/machine.hh"

using namespace icp;

namespace
{

RunResult
runImage(const BinaryImage &img, std::uint64_t go_gc = 0)
{
    auto proc = loadImage(img);
    Machine::Config cfg;
    cfg.goGcEveryCalls = go_gc;
    Machine machine(*proc, cfg);
    return machine.run();
}

class MicroPerArch : public ::testing::TestWithParam<
                         std::tuple<Arch, bool>>
{
};

std::string
archToken(Arch arch)
{
    switch (arch) {
      case Arch::x64: return "x64";
      case Arch::ppc64le: return "ppc64le";
      case Arch::aarch64: return "aarch64";
    }
    return "unknown";
}

std::string
microName(const ::testing::TestParamInfo<std::tuple<Arch, bool>> &info)
{
    return archToken(std::get<0>(info.param)) +
           (std::get<1>(info.param) ? "_pie" : "_nopie");
}

std::string
archOnlyName(const ::testing::TestParamInfo<Arch> &info)
{
    return archToken(info.param);
}

} // namespace

TEST_P(MicroPerArch, CompilesLoadsRuns)
{
    const auto [arch, pie] = GetParam();
    const BinaryImage img = compileProgram(microProfile(arch, pie));
    EXPECT_EQ(img.arch, arch);
    EXPECT_EQ(img.pie, pie);
    ASSERT_NE(img.findSection(SectionKind::text), nullptr);
    ASSERT_NE(img.findSection(SectionKind::ehFrame), nullptr);
    EXPECT_FALSE(img.fdeRecords().empty());

    const RunResult result = runImage(img);
    EXPECT_TRUE(result.halted) << result.describe();
    EXPECT_EQ(result.fault, FaultKind::none) << result.describe();
    EXPECT_GT(result.instructions, 100u);
    EXPECT_GT(result.exceptionsThrown, 0u);
}

TEST_P(MicroPerArch, DeterministicChecksum)
{
    const auto [arch, pie] = GetParam();
    const BinaryImage img = compileProgram(microProfile(arch, pie));
    const RunResult a = runImage(img);
    const RunResult b = runImage(img);
    ASSERT_TRUE(a.halted && b.halted);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllArches, MicroPerArch,
    ::testing::Combine(::testing::Values(Arch::x64, Arch::ppc64le,
                                         Arch::aarch64),
                       ::testing::Bool()),
    microName);

class SpecSuitePerArch : public ::testing::TestWithParam<Arch>
{
};

TEST_P(SpecSuitePerArch, AllBenchmarksRunClean)
{
    const Arch arch = GetParam();
    const auto suite = specCpuSuite(arch, false);
    ASSERT_EQ(suite.size(), 19u);
    for (const auto &spec : suite) {
        const BinaryImage img = compileProgram(spec);
        const RunResult result = runImage(img);
        EXPECT_TRUE(result.halted)
            << spec.name << " on " << archName(arch) << ": "
            << result.describe();
    }
}

INSTANTIATE_TEST_SUITE_P(AllArches, SpecSuitePerArch,
                         ::testing::Values(Arch::x64, Arch::ppc64le,
                                           Arch::aarch64),
                         archOnlyName);

TEST(Workloads, DockerRunsWithGoGc)
{
    const BinaryImage img = compileProgram(dockerProfile());
    EXPECT_TRUE(img.features.isGo);
    const RunResult result = runImage(img, /*go_gc=*/64);
    EXPECT_TRUE(result.halted) << result.describe();
    EXPECT_GT(result.gcWalks, 0u);
}

TEST(Workloads, LibxulRuns)
{
    const BinaryImage img = compileProgram(libxulProfile());
    EXPECT_TRUE(img.features.rustMetadata);
    EXPECT_FALSE(img.soname.empty());
    const RunResult result = runImage(img);
    EXPECT_TRUE(result.halted) << result.describe();
}

TEST(Workloads, LibcudaRuns)
{
    const BinaryImage img = compileProgram(libcudaProfile());
    const RunResult result = runImage(img);
    EXPECT_TRUE(result.halted) << result.describe();
}

TEST(Workloads, LibcommonCorpusSharesByteIdenticalCoreAtShiftedAddresses)
{
    // The contract the cross-binary cache depends on: every core_*
    // function's code bytes are identical across the corpus while
    // its absolute address differs per binary (so a content-keyed
    // lookup hits and decodes at the asking entry). App tails and
    // main stay distinct.
    for (const Arch arch :
         {Arch::x64, Arch::aarch64, Arch::ppc64le}) {
        const auto corpus = libcommonCorpus(arch, 3);
        ASSERT_EQ(corpus.size(), 3u);
        std::vector<BinaryImage> imgs;
        for (const auto &spec : corpus) {
            imgs.push_back(compileProgram(spec));
            const RunResult result = runImage(imgs.back());
            EXPECT_TRUE(result.halted) << result.describe();
        }
        unsigned core_funcs = 0, total = 0;
        for (const Symbol *sym : imgs[0].functionSymbols()) {
            ++total;
            if (sym->name.rfind("core_", 0) != 0)
                continue;
            ++core_funcs;
            std::vector<std::uint8_t> want;
            ASSERT_TRUE(
                imgs[0].readBytes(sym->addr, sym->size, want));
            for (unsigned b = 1; b < imgs.size(); ++b) {
                const Symbol *other = nullptr;
                for (const Symbol *cand :
                     imgs[b].functionSymbols()) {
                    if (cand->name == sym->name) {
                        other = cand;
                        break;
                    }
                }
                ASSERT_NE(other, nullptr) << sym->name;
                EXPECT_NE(other->addr, sym->addr) << sym->name;
                ASSERT_EQ(other->size, sym->size) << sym->name;
                std::vector<std::uint8_t> got;
                ASSERT_TRUE(imgs[b].readBytes(other->addr,
                                              other->size, got));
                EXPECT_EQ(got, want)
                    << sym->name << " diverges on binary " << b;
            }
        }
        // The shared core is the majority of each binary.
        EXPECT_GE(core_funcs * 2, total);
    }
}

TEST(Workloads, SuiteChecksumsAreStableAcrossCompiles)
{
    // Compiling twice must produce identical images (determinism).
    const auto a = compileProgram(specCpuSuite(Arch::x64, false)[0]);
    const auto b = compileProgram(specCpuSuite(Arch::x64, false)[0]);
    EXPECT_EQ(a.serialize(), b.serialize());
}
