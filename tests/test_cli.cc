/**
 * @file
 * End-to-end tests of the `icp` command-line tool, driving the real
 * binary through compile → rewrite → run → inspect round trips.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "crafted_sbf.hh"

#ifndef ICP_CLI_PATH
#error "ICP_CLI_PATH must be defined by the build"
#endif

namespace
{

int
run(const std::string &args)
{
    const std::string cmd =
        std::string(ICP_CLI_PATH) + " " + args + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
}

/** The tool's actual exit code (run() returns the wait status). */
int
exitCode(const std::string &args)
{
    const int status = run(args);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
capture(const std::string &args)
{
    const std::string cmd = std::string(ICP_CLI_PATH) + " " + args +
                            " 2>/dev/null";
    std::string out;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return out;
    char buf[512];
    while (fgets(buf, sizeof(buf), pipe))
        out += buf;
    pclose(pipe);
    return out;
}

/** True when the tool rejects @p args with its usage text, exit 1. */
bool
usageRejected(const std::string &args)
{
    const std::string out = capture(args + " 2>&1; echo exit=$?");
    return out.find("usage:") != std::string::npos &&
           out.find("exit=1\n") != std::string::npos;
}

} // namespace

TEST(Cli, CompileRewriteRunRoundTrip)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_a.sbf"), 0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_a.sbf /tmp/icp_cli_b.sbf "
                  "--mode jt --count-blocks --clobber"),
              0);
    // Both images run; the original halts, the rewritten halts with
    // counters.
    EXPECT_EQ(run("run /tmp/icp_cli_a.sbf"), 0);
    const std::string out = capture("run /tmp/icp_cli_b.sbf");
    EXPECT_NE(out.find("halted"), std::string::npos);
    EXPECT_NE(out.find("instrumentation counters"),
              std::string::npos);
}

TEST(Cli, ChecksumsMatchAcrossRewrite)
{
    ASSERT_EQ(run("compile spec3 /tmp/icp_cli_c.sbf"), 0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_c.sbf /tmp/icp_cli_d.sbf "
                  "--mode func-ptr --clobber"),
              0);
    const std::string a = capture("run /tmp/icp_cli_c.sbf");
    const std::string b = capture("run /tmp/icp_cli_d.sbf");
    const auto checksum = [](const std::string &s) {
        const auto pos = s.find("checksum");
        return pos == std::string::npos ? std::string()
                                        : s.substr(pos, 28);
    };
    ASSERT_FALSE(checksum(a).empty());
    EXPECT_EQ(checksum(a), checksum(b));
}

TEST(Cli, PartialRewriteViaOnly)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_e.sbf"), 0);
    const std::string out =
        capture("rewrite /tmp/icp_cli_e.sbf /tmp/icp_cli_f.sbf "
                "--mode jt --only switcher,worker");
    EXPECT_NE(out.find("2/6 functions"), std::string::npos) << out;
    EXPECT_EQ(run("run /tmp/icp_cli_f.sbf"), 0);
}

TEST(Cli, InspectShowsSectionsAndDisassembly)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_g.sbf"), 0);
    const std::string out =
        capture("inspect /tmp/icp_cli_g.sbf switcher");
    EXPECT_NE(out.find(".text"), std::string::npos);
    EXPECT_NE(out.find("<switcher>"), std::string::npos);
    EXPECT_NE(out.find("jmpind"), std::string::npos);
}

TEST(Cli, GoProfileRunsWithGc)
{
    ASSERT_EQ(run("compile docker /tmp/icp_cli_h.sbf"), 0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_h.sbf /tmp/icp_cli_i.sbf "
                  "--mode jt --clobber"),
              0);
    const std::string out =
        capture("run /tmp/icp_cli_i.sbf --gc 64");
    EXPECT_NE(out.find("halted"), std::string::npos);
    EXPECT_NE(out.find("gc walks"), std::string::npos);
}

TEST(Cli, BadUsageFailsCleanly)
{
    EXPECT_NE(run(""), 0);
    EXPECT_NE(run("frobnicate"), 0);
    EXPECT_NE(run("compile nosuchprofile /tmp/x.sbf"), 0);
    EXPECT_NE(run("run /tmp/definitely_missing.sbf"), 0);
}

TEST(Cli, NumericRewriteFlagsAreStrict)
{
    // Values are decimal digits only, in range: a sign, a suffix, an
    // empty value or an overflow is a usage error (exit 1), not a
    // silently wrapped or truncated number.
    ASSERT_EQ(run("compile micro /tmp/icp_cli_num.sbf"), 0);
    const std::string rewrite =
        "rewrite /tmp/icp_cli_num.sbf /tmp/icp_cli_num_out.sbf ";
    for (const char *flag :
         {"--shards -1", "--shards=-1", "--shards 2x", "--shards +2",
          "--shards 0", "--shards=", "--shards 4294967296",
          "--threads -1", "--threads 2x", "--threads ''",
          "--cache-max-bytes -1", "--cache-max-bytes 1k",
          "--cache-max-bytes=0",
          "--cache-max-bytes 18446744073709551616", "--repair=2x",
          "--repair=0", "--repair=", "--repair=-1", "--threads=2x",
          "--mode=bogus"}) {
        EXPECT_EQ(exitCode(rewrite + flag), 1) << flag;
    }
    for (const char *flag :
         {"--shards 2", "--shards=4294967295", "--threads 0",
          "--cache-max-bytes=18446744073709551615", "--repair=1"}) {
        EXPECT_EQ(exitCode(rewrite + flag), 0) << flag;
    }
}

TEST(Cli, NumericCommandFlagsAreStrict)
{
    // The other commands parse their numbers the same way. Zero
    // keeps its meaning where it has one: no eviction cap, no
    // timeout, hardware threads, the default GC period.
    ASSERT_EQ(run("compile micro /tmp/icp_cli_numc.sbf"), 0);
    std::remove("/tmp/icp_cli_numc.icpc");
    ASSERT_EQ(run("rewrite /tmp/icp_cli_numc.sbf "
                  "/tmp/icp_cli_numc_out.sbf "
                  "--cache-file /tmp/icp_cli_numc.icpc"),
              0);
    const std::string compact = "cache compact /tmp/icp_cli_numc.icpc ";
    const std::string gc = "run /tmp/icp_cli_numc.sbf --gc ";
    // A socket in a missing directory: valid flags get as far as a
    // failed bind (exit 1 without usage), so nothing starts.
    const std::string serve = "serve /tmp/icp-cli-numc-none/s.sock ";
    const std::string client =
        "client /tmp/icp-cli-numc-none.sock ping ";
    for (const std::string &args :
         {compact + "--max-bytes 8k", compact + "--max-bytes=-1",
          compact + "--max-bytes=", gc + "-1", gc + "1x",
          serve + "--max-pending -1", serve + "--max-sessions 1x",
          serve + "--max-pending 0", serve + "--max-sessions 0",
          serve + "--session-max-bytes 0",
          serve + "--session-max-bytes 1G", serve + "--timeout-ms -1",
          serve + "--timeout-ms 2147483648", serve + "--threads +1",
          client + "--timeout-ms 5s", client + "--timeout-ms -1",
          client + "--threads 2x", client + "--mode bogus"}) {
        EXPECT_TRUE(usageRejected(args)) << args;
    }
    EXPECT_EQ(exitCode(compact + "--max-bytes 0"), 0);
    EXPECT_EQ(exitCode(gc + "0"), 0);
    EXPECT_EQ(exitCode(gc + "18446744073709551615"), 0);
    for (const std::string &args :
         {serve + "--timeout-ms 0 --max-pending 1 --max-sessions 1 "
                  "--session-max-bytes 1 --threads 0",
          client + "--timeout-ms 0"}) {
        EXPECT_EQ(exitCode(args), 1) << args;
        EXPECT_FALSE(usageRejected(args)) << args;
    }
}

TEST(CliServe, ClientRewriteMatchesOneShotForEveryFlag)
{
    // `icp client` forwards each rewrite flag as its wire field and
    // the daemon applies it through the same setter, so the served
    // output is byte-identical to `icp rewrite` with that flag.
    // Options bind when a session opens: one input copy per flag.
    const std::string sock = "/tmp/icp_cli_parity.sock";
    std::remove(sock.c_str());
    ASSERT_EQ(std::system((std::string(ICP_CLI_PATH) + " serve " + sock +
                           " > /dev/null 2>&1 &")
                              .c_str()),
              0);
    bool ready = false;
    for (int i = 0; i < 100 && !ready; ++i) {
        ready = run("client " + sock + " ping") == 0;
        if (!ready)
            usleep(50000);
    }
    EXPECT_TRUE(ready);
    const char *flags[] = {"--no-multihop", "--no-placement",
                           "--only switcher,worker", "--count-entries",
                           "--call-emulation"};
    for (std::size_t k = 0; k < std::size(flags) && ready; ++k) {
        const std::string in = "/tmp/icp_cli_parity_" + std::to_string(k);
        EXPECT_EQ(run("compile micro " + in + ".sbf"), 0);
        EXPECT_EQ(run("rewrite " + in + ".sbf " + in + "_oneshot.sbf " +
                      flags[k]),
                  0);
        EXPECT_EQ(run("client " + sock + " rewrite " + in + ".sbf " +
                      in + "_served.sbf " + flags[k]),
                  0)
            << flags[k];
        EXPECT_EQ(std::system(("cmp -s " + in + "_oneshot.sbf " + in +
                               "_served.sbf")
                                  .c_str()),
                  0)
            << flags[k];
    }
    run("client " + sock + " shutdown");
}

TEST(Cli, LintCleanImageExitsZero)
{
    // Each lint test compiles to its own path: ctest runs these in
    // parallel, and sharing a file races lint against recompilation.
    ASSERT_EQ(run("compile micro /tmp/icp_cli_lint_a.sbf --pie"), 0);
    EXPECT_EQ(exitCode("lint /tmp/icp_cli_lint_a.sbf --mode func-ptr "
                       "--count-blocks"),
              0);
    const std::string out =
        capture("lint /tmp/icp_cli_lint_a.sbf --mode func-ptr");
    EXPECT_NE(out.find("lint: clean"), std::string::npos) << out;
    EXPECT_NE(out.find("checked:"), std::string::npos);
}

TEST(Cli, LintInjectedDefectExitsTwo)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_lint_b.sbf --pie"), 0);
    EXPECT_EQ(exitCode("lint /tmp/icp_cli_lint_b.sbf --mode func-ptr "
                       "--inject tramp-target"),
              2);
    const std::string out =
        capture("lint /tmp/icp_cli_lint_b.sbf --mode func-ptr "
                "--inject tramp-target");
    EXPECT_NE(out.find("tramp-target"), std::string::npos) << out;
    EXPECT_NE(out.find("lint: FAIL"), std::string::npos);
}

TEST(Cli, LintJsonIsMachineReadable)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_lint_c.sbf --pie"), 0);
    const std::string clean =
        capture("lint /tmp/icp_cli_lint_c.sbf --mode jt --json");
    EXPECT_NE(clean.find("\"clean\": true"), std::string::npos)
        << clean;
    EXPECT_NE(clean.find("\"findings\": ["), std::string::npos);

    const std::string dirty =
        capture("lint /tmp/icp_cli_lint_c.sbf --mode jt --json "
                "--inject double-patch");
    EXPECT_NE(dirty.find("\"clean\": false"), std::string::npos);
    EXPECT_NE(dirty.find("\"rule\": \"patch-overlap\""),
              std::string::npos);
}

TEST(Cli, LintFailOnThreshold)
{
    // Trap-producing config: warnings only, so the default error
    // threshold passes and --fail-on warning fails.
    ASSERT_EQ(run("compile micro /tmp/icp_cli_trap.sbf "
                  "--arch x64 --pie"),
              0);
    const std::string args = "lint /tmp/icp_cli_trap.sbf --mode jt "
                             "--no-placement --no-multihop";
    EXPECT_EQ(exitCode(args), 0);
    EXPECT_EQ(exitCode(args + " --fail-on warning"), 2);
}

TEST(Cli, LintMalformedContainerReportsRule)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_m.sbf"), 0);
    ASSERT_EQ(std::system("head -c 50 /tmp/icp_cli_m.sbf > "
                          "/tmp/icp_cli_trunc.sbf"),
              0);
    EXPECT_EQ(exitCode("lint /tmp/icp_cli_trunc.sbf"), 2);
    const std::string out = capture("lint /tmp/icp_cli_trunc.sbf");
    EXPECT_NE(out.find("sbf-truncated"), std::string::npos) << out;

    // Non-lint commands fail with the same structured rule id.
    EXPECT_EQ(exitCode("inspect /tmp/icp_cli_trunc.sbf"), 1);
}

TEST(Cli, MalformedSbfExitsCleanlyNeverAborts)
{
    // A rejected container fails each command with its sbf-* rule:
    // exit 1, or lint's exit 2 for an error finding. A file without
    // .text decodes, so only the commands that rewrite fail on it.
    for (icp::Arch arch : icp::all_arches) {
        for (icp::SbfDefect defect : icp::all_sbf_defects) {
            const std::string path =
                std::string("/tmp/icp_cli_crafted_") +
                icp::archName(arch) + "_" + icp::sbfDefectName(defect) +
                ".sbf";
            SCOPED_TRACE(path);
            {
                const auto raw = icp::craftSbf(arch, defect);
                std::ofstream out(path, std::ios::binary);
                out.write(reinterpret_cast<const char *>(raw.data()),
                          static_cast<std::streamsize>(raw.size()));
            }
            const char *rule = icp::sbfDefectRule(defect);
            EXPECT_EQ(exitCode("rewrite " + path +
                               " /tmp/icp_cli_crafted_out.sbf"),
                      1);
            EXPECT_EQ(exitCode("lint " + path + " --mode func-ptr"), 2);
            const std::string lint =
                capture("lint " + path + " --mode func-ptr");
            EXPECT_NE(lint.find(rule ? rule : "lint-input"),
                      std::string::npos)
                << lint;
            EXPECT_EQ(exitCode("inspect " + path), rule ? 1 : 0);
            EXPECT_EQ(exitCode("run " + path), rule ? 1 : 0);
            if (rule) {
                const std::string err =
                    capture("run " + path + " 2>&1; true");
                EXPECT_NE(err.find(rule), std::string::npos) << err;
            }
            std::remove(path.c_str());
        }
    }

    // An x64 file relabelled as a fixed-length ISA decodes, but its
    // code bytes carry register fields that ISA cannot encode. The
    // decoder rejects them as illegal instructions, so every command
    // exits 0 or 1 instead of asserting in the encoder.
    for (icp::Arch arch : {icp::Arch::ppc64le, icp::Arch::aarch64}) {
        const std::string path = std::string("/tmp/icp_cli_x64_as_") +
                                 icp::archName(arch) + ".sbf";
        SCOPED_TRACE(path);
        {
            auto raw = icp::compileProgram(
                           icp::microProfile(icp::Arch::x64, true))
                           .serialize();
            raw[4] = static_cast<std::uint8_t>(arch);
            std::ofstream out(path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(raw.data()),
                      static_cast<std::streamsize>(raw.size()));
        }
        for (const std::string &cmd :
             {"rewrite " + path + " /tmp/icp_cli_crafted_out.sbf --mode jt",
              "lint " + path + " --mode func-ptr", "inspect " + path,
              "run " + path}) {
            const int code = exitCode(cmd);
            EXPECT_TRUE(code == 0 || code == 1) << cmd << " -> " << code;
        }
        std::remove(path.c_str());
    }

    // A section moved out of pc-relative reach of .text decodes, but
    // the relocated code could not reach it: the rewrite is rejected
    // naming the cause. Each ISA aborted at its own site before
    // (x64: an adrp widening in the assembler; aarch64: the adrp of a
    // long trampoline; ppc64le: the TOC reach of a long trampoline).
    for (icp::Arch arch : icp::all_arches) {
        const std::string path = std::string("/tmp/icp_cli_far_") +
                                 icp::archName(arch) + ".sbf";
        SCOPED_TRACE(path);
        {
            const auto raw =
                icp::craftSbf(arch, icp::SbfDefect::farSection);
            std::ofstream out(path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(raw.data()),
                      static_cast<std::streamsize>(raw.size()));
        }
        for (const char *mode : {"jt", "func-ptr"}) {
            const std::string cmd = "rewrite " + path +
                " /tmp/icp_cli_crafted_out.sbf --mode " + mode;
            EXPECT_EQ(exitCode(cmd), 1) << cmd;
            const std::string err = capture(cmd + " 2>&1; true");
            EXPECT_NE(err.find("pc-relative reach"), std::string::npos)
                << err;
        }
        const std::string lint_cmd = "lint " + path + " --mode func-ptr";
        EXPECT_EQ(exitCode(lint_cmd), 2);
        const std::string lint = capture(lint_cmd);
        EXPECT_NE(lint.find("pc-relative reach"), std::string::npos)
            << lint;
        for (const std::string &cmd : {"inspect " + path, "run " + path}) {
            const int code = exitCode(cmd);
            EXPECT_TRUE(code == 0 || code == 1) << cmd << " -> " << code;
        }
        std::remove(path.c_str());
    }

    // A branch from .instr back to original code that its encoding
    // cannot reach: a decoded target below zero, or a fall-through
    // 144 MB away (beyond the fixed-length ISAs' direct reach). The
    // rewrite fails naming the branch, and lint reports lint-input.
    for (icp::Arch arch : icp::all_arches) {
        for (icp::SbfDefect defect : icp::unencodable_sbf_defects) {
            const std::string path =
                std::string("/tmp/icp_cli_crafted_") +
                icp::archName(arch) + "_" + icp::sbfDefectName(defect) +
                ".sbf";
            SCOPED_TRACE(path);
            {
                const auto raw = icp::craftSbf(arch, defect);
                std::ofstream out(path, std::ios::binary);
                out.write(reinterpret_cast<const char *>(raw.data()),
                          static_cast<std::streamsize>(raw.size()));
            }
            const bool fails = defect == icp::SbfDefect::wrappedBranch ||
                               arch != icp::Arch::x64;
            for (const char *mode : {"jt", "func-ptr"}) {
                const std::string cmd = "rewrite " + path +
                    " /tmp/icp_cli_crafted_out.sbf --mode " + mode;
                EXPECT_EQ(exitCode(cmd), fails ? 1 : 0) << cmd;
                if (fails) {
                    const std::string err = capture(cmd + " 2>&1; true");
                    EXPECT_NE(err.find("beyond its reach"),
                              std::string::npos)
                        << err;
                }
            }
            const std::string lint_cmd =
                "lint " + path + " --mode func-ptr";
            EXPECT_EQ(exitCode(lint_cmd), fails ? 2 : 0);
            if (fails) {
                const std::string lint = capture(lint_cmd);
                EXPECT_NE(lint.find("lint-input"), std::string::npos)
                    << lint;
            }
            for (const std::string &cmd :
                 {"inspect " + path, "run " + path}) {
                const int code = exitCode(cmd);
                EXPECT_TRUE(code == 0 || code == 1)
                    << cmd << " -> " << code;
            }
            std::remove(path.c_str());
        }
    }

    // A jump table that a bit flip left unclonable against the
    // relocated code (an anchor that is not relocated, an entry that
    // is not a whole scale from it): the rewrite fails naming the
    // table, and lint reports lint-input.
    for (icp::SbfDefect defect : icp::unclonable_sbf_defects) {
        const std::string path = std::string("/tmp/icp_cli_crafted_") +
                                 icp::sbfDefectName(defect) + ".sbf";
        SCOPED_TRACE(path);
        {
            const auto raw = icp::craftSbf(icp::Arch::aarch64, defect);
            std::ofstream out(path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(raw.data()),
                      static_cast<std::streamsize>(raw.size()));
        }
        for (const char *mode : {"jt", "func-ptr"}) {
            const std::string cmd = "rewrite " + path +
                " /tmp/icp_cli_crafted_out.sbf --mode " + mode;
            EXPECT_EQ(exitCode(cmd), 1) << cmd;
            const std::string err = capture(cmd + " 2>&1; true");
            EXPECT_NE(err.find("cannot clone the jump table"),
                      std::string::npos)
                << err;
        }
        const std::string lint_cmd = "lint " + path + " --mode func-ptr";
        EXPECT_EQ(exitCode(lint_cmd), 2);
        const std::string lint = capture(lint_cmd);
        EXPECT_NE(lint.find("lint-input"), std::string::npos) << lint;
        std::remove(path.c_str());
    }

    // A function symbol whose size (2^40) runs far past its section
    // is rejected (sbf-symbol) before anything reads its bytes.
    {
        const std::string path = "/tmp/icp_cli_huge_symbol.sbf";
        {
            icp::BinaryImage img = icp::compileProgram(
                icp::microProfile(icp::Arch::x64, true));
            const auto it = std::find_if(
                img.symbols.begin(), img.symbols.end(),
                [](const icp::Symbol &sym) {
                    return sym.kind == icp::Symbol::Kind::function;
                });
            ASSERT_NE(it, img.symbols.end());
            it->size = std::uint64_t{1} << 40;
            const auto raw = img.serialize();
            std::ofstream out(path, std::ios::binary);
            out.write(reinterpret_cast<const char *>(raw.data()),
                      static_cast<std::streamsize>(raw.size()));
        }
        for (const std::string &cmd :
             {"rewrite " + path + " /tmp/icp_cli_crafted_out.sbf --mode jt",
              "rewrite " + path +
                  " /tmp/icp_cli_crafted_out.sbf --mode func-ptr",
              "inspect " + path, "run " + path}) {
            const int code = exitCode(cmd);
            EXPECT_TRUE(code == 0 || code == 1) << cmd << " -> " << code;
        }
        const int lint = exitCode("lint " + path + " --mode func-ptr");
        EXPECT_TRUE(lint == 0 || lint == 2) << "lint -> " << lint;
        std::remove(path.c_str());
    }
}

TEST(Cli, RewriteWithLintGate)
{
    ASSERT_EQ(run("compile spec1 /tmp/icp_cli_rl.sbf"), 0);
    EXPECT_EQ(exitCode("rewrite /tmp/icp_cli_rl.sbf "
                       "/tmp/icp_cli_rl_out.sbf --mode jt --lint"),
              0);
    const std::string out =
        capture("rewrite /tmp/icp_cli_rl.sbf /tmp/icp_cli_rl_out.sbf "
                "--mode jt --lint");
    EXPECT_NE(out.find("lint: clean"), std::string::npos) << out;
}

TEST(Cli, LintRulesListsRegistry)
{
    const std::string out = capture("lint --rules");
    EXPECT_NE(out.find("tramp-target"), std::string::npos);
    EXPECT_NE(out.find("jt-clone-bounds"), std::string::npos);
    EXPECT_NE(out.find("addr-map-round-trip"), std::string::npos);
}

TEST(Cli, RewriteRepairFixesInjectedDefect)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_rep.sbf --pie"), 0);
    // Without repair, the injected defect gates the rewrite.
    EXPECT_EQ(exitCode("rewrite /tmp/icp_cli_rep.sbf "
                       "/tmp/icp_cli_rep_out.sbf --mode func-ptr "
                       "--count-blocks --inject tramp-chain --lint"),
              2);
    // --repair loops rewrite -> lint -> repair to a clean image.
    const std::string args =
        "rewrite /tmp/icp_cli_rep.sbf /tmp/icp_cli_rep_out.sbf "
        "--mode func-ptr --count-blocks --inject tramp-chain "
        "--lint --repair";
    EXPECT_EQ(exitCode(args), 0);
    const std::string out = capture(args);
    EXPECT_NE(out.find("repair:"), std::string::npos) << out;
    EXPECT_NE(out.find("converged"), std::string::npos) << out;
    EXPECT_NE(out.find("lint: clean"), std::string::npos) << out;
    // The repaired output lints clean through the session path too.
    EXPECT_EQ(exitCode("rewrite /tmp/icp_cli_rep.sbf "
                       "/tmp/icp_cli_rep2_out.sbf --mode func-ptr "
                       "--count-blocks --repair=3"),
              0);
}

TEST(Cli, LintDiffReportsRegressions)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_diff_a.sbf --pie"), 0);
    ASSERT_EQ(run("compile micro /tmp/icp_cli_diff_b.sbf --pie"), 0);
    // Identical inputs diff clean, text and JSON.
    const std::string args = "lint --diff /tmp/icp_cli_diff_a.sbf "
                             "/tmp/icp_cli_diff_b.sbf --mode jt";
    EXPECT_EQ(exitCode(args), 0);
    const std::string out = capture(args);
    EXPECT_NE(out.find("lint-diff: 0 new"), std::string::npos)
        << out;
    const std::string json = capture(args + " --json");
    EXPECT_NE(json.find("\"new_errors\": 0"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"functions\": ["), std::string::npos);

    // Unreadable inputs are operational errors, not findings.
    EXPECT_EQ(exitCode("lint --diff /tmp/icp_cli_diff_a.sbf "
                       "/tmp/icp_cli_nonexistent.sbf"),
              1);
}

TEST(Cli, LintTimingShowsStageSplit)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_lt.sbf --pie"), 0);
    const std::string out = capture(
        "lint /tmp/icp_cli_lt.sbf --mode func-ptr --count-blocks "
        "--threads 2 --timing");
    EXPECT_NE(out.find("lint.chains"), std::string::npos) << out;
    EXPECT_NE(out.find("lint.ptrs"), std::string::npos) << out;
}

TEST(CliCacheFile, WarmRunReportsReuseAndMatchesColdOutput)
{
    std::remove("/tmp/icp_cli_cache.icpc");
    ASSERT_EQ(run("compile micro /tmp/icp_cli_cf.sbf"), 0);
    const std::string cold = capture(
        "rewrite /tmp/icp_cli_cf.sbf /tmp/icp_cli_cf_out1.sbf "
        "--cache-file /tmp/icp_cli_cache.icpc");
    EXPECT_NE(cold.find("analysis cache:"), std::string::npos)
        << cold;

    // Second invocation = fresh process: everything reused from disk.
    const std::string warm = capture(
        "rewrite /tmp/icp_cli_cf.sbf /tmp/icp_cli_cf_out2.sbf "
        "--cache-file=/tmp/icp_cli_cache.icpc");
    EXPECT_NE(warm.find(" reused (100.0%)"), std::string::npos)
        << warm;

    EXPECT_EQ(exitCode("run /tmp/icp_cli_cf_out1.sbf"), 0);
    const int cmp = std::system(
        "cmp -s /tmp/icp_cli_cf_out1.sbf /tmp/icp_cli_cf_out2.sbf");
    EXPECT_EQ(WEXITSTATUS(cmp), 0)
        << "warm-cache rewrite output differs from cold";
}

TEST(CliCacheFile, CorruptCacheFileDegradesToColdRun)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_cc.sbf"), 0);
    ASSERT_EQ(std::system("head -c 200 /dev/urandom > "
                          "/tmp/icp_cli_corrupt.icpc"),
              0);
    EXPECT_EQ(exitCode("rewrite /tmp/icp_cli_cc.sbf "
                       "/tmp/icp_cli_cc_out.sbf "
                       "--cache-file /tmp/icp_cli_corrupt.icpc"),
              0);
    ASSERT_EQ(run("compile micro /tmp/icp_cli_cc2.sbf"), 0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_cc2.sbf "
                  "/tmp/icp_cli_cc_ref.sbf"),
              0);
    const int cmp = std::system(
        "cmp -s /tmp/icp_cli_cc_out.sbf /tmp/icp_cli_cc_ref.sbf");
    EXPECT_EQ(WEXITSTATUS(cmp), 0)
        << "corrupt cache changed the rewrite output";
}

TEST(CliCacheFile, ConcurrentWritersWithDisjointSetsMerge)
{
    // Two processes race their saves into one cache file; the
    // advisory lock + merge-on-save must leave both entry sets
    // loadable and the file verifiably intact.
    std::remove("/tmp/icp_cli_ccw.icpc");
    ASSERT_EQ(run("compile micro /tmp/icp_cli_ccw_a.sbf"), 0);
    ASSERT_EQ(run("compile spec1 /tmp/icp_cli_ccw_b.sbf"), 0);
    const std::string both =
        std::string("( ") + ICP_CLI_PATH +
        " rewrite /tmp/icp_cli_ccw_a.sbf /tmp/icp_cli_ccw_a1.sbf "
        "--cache-file /tmp/icp_cli_ccw.icpc & " +
        ICP_CLI_PATH +
        " rewrite /tmp/icp_cli_ccw_b.sbf /tmp/icp_cli_ccw_b1.sbf "
        "--cache-file /tmp/icp_cli_ccw.icpc & wait ) "
        "> /dev/null 2>&1";
    ASSERT_EQ(std::system(both.c_str()), 0);

    EXPECT_EQ(exitCode("cache verify /tmp/icp_cli_ccw.icpc"), 0);

    // Both shards' entries are loadable: each warm rerun reuses
    // everything and reproduces its cold output.
    const std::string warm_a = capture(
        "rewrite /tmp/icp_cli_ccw_a.sbf /tmp/icp_cli_ccw_a2.sbf "
        "--cache-file /tmp/icp_cli_ccw.icpc");
    EXPECT_NE(warm_a.find(" reused (100.0%)"), std::string::npos)
        << warm_a;
    const std::string warm_b = capture(
        "rewrite /tmp/icp_cli_ccw_b.sbf /tmp/icp_cli_ccw_b2.sbf "
        "--cache-file /tmp/icp_cli_ccw.icpc");
    EXPECT_NE(warm_b.find(" reused (100.0%)"), std::string::npos)
        << warm_b;
    EXPECT_EQ(WEXITSTATUS(std::system(
                  "cmp -s /tmp/icp_cli_ccw_a1.sbf "
                  "/tmp/icp_cli_ccw_a2.sbf")),
              0);
    EXPECT_EQ(WEXITSTATUS(std::system(
                  "cmp -s /tmp/icp_cli_ccw_b1.sbf "
                  "/tmp/icp_cli_ccw_b2.sbf")),
              0);
}

TEST(CliCacheFile, ConcurrentWritersWithOverlappingSetsMerge)
{
    // Same workload from two processes at once: identical keys race,
    // the winner's entries land, and nothing corrupts.
    std::remove("/tmp/icp_cli_cow.icpc");
    ASSERT_EQ(run("compile micro /tmp/icp_cli_cow.sbf"), 0);
    const std::string both =
        std::string("( ") + ICP_CLI_PATH +
        " rewrite /tmp/icp_cli_cow.sbf /tmp/icp_cli_cow_1.sbf "
        "--cache-file /tmp/icp_cli_cow.icpc & " +
        ICP_CLI_PATH +
        " rewrite /tmp/icp_cli_cow.sbf /tmp/icp_cli_cow_2.sbf "
        "--cache-file /tmp/icp_cli_cow.icpc & wait ) "
        "> /dev/null 2>&1";
    ASSERT_EQ(std::system(both.c_str()), 0);

    EXPECT_EQ(exitCode("cache verify /tmp/icp_cli_cow.icpc"), 0);
    const std::string warm = capture(
        "rewrite /tmp/icp_cli_cow.sbf /tmp/icp_cli_cow_3.sbf "
        "--cache-file /tmp/icp_cli_cow.icpc");
    EXPECT_NE(warm.find(" reused (100.0%)"), std::string::npos)
        << warm;
    EXPECT_EQ(WEXITSTATUS(std::system(
                  "cmp -s /tmp/icp_cli_cow_1.sbf "
                  "/tmp/icp_cli_cow_3.sbf")),
              0);
}

TEST(Cli, SharedMultiIsaCacheFileLintsClean)
{
    // One cache file shared by a fleet of ISAs: the other ISA's
    // entries are never read, so a clean rewrite lints clean.
    std::remove("/tmp/icp_cli_shared.icpc");
    ASSERT_EQ(run("compile chromium-small /tmp/icp_cli_shared_a.sbf "
                  "--arch aarch64 --pie"),
              0);
    ASSERT_EQ(run("compile libxul /tmp/icp_cli_shared_x.sbf --pie"), 0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_shared_a.sbf "
                  "/tmp/icp_cli_shared_a1.sbf --mode jt "
                  "--cache-file /tmp/icp_cli_shared.icpc"),
              0);
    const std::string lint = "lint /tmp/icp_cli_shared_x.sbf --mode jt "
                             "--cache-file /tmp/icp_cli_shared.icpc "
                             "--fail-on warning";
    EXPECT_EQ(exitCode(lint), 0) << capture(lint);
    // Again, now that the file holds both ISAs' entries.
    EXPECT_EQ(exitCode(lint), 0) << capture(lint);
    const std::string info =
        capture("cache info /tmp/icp_cli_shared.icpc");
    EXPECT_NE(info.find("per ISA: x86-64 "), std::string::npos) << info;
    EXPECT_EQ(info.find("x86-64 0 "), std::string::npos) << info;
    EXPECT_EQ(info.find("aarch64 0\n"), std::string::npos) << info;
}

TEST(CliCache, InfoVerifyCompactRoundTrip)
{
    std::remove("/tmp/icp_cli_cmd.icpc");
    ASSERT_EQ(run("compile micro /tmp/icp_cli_cmd_a.sbf"), 0);
    ASSERT_EQ(run("compile spec1 /tmp/icp_cli_cmd_b.sbf"), 0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_cmd_a.sbf "
                  "/tmp/icp_cli_cmd_a1.sbf "
                  "--cache-file /tmp/icp_cli_cmd.icpc"),
              0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_cmd_b.sbf "
                  "/tmp/icp_cli_cmd_b1.sbf "
                  "--cache-file /tmp/icp_cli_cmd.icpc"),
              0);

    const std::string info = capture("cache info /tmp/icp_cli_cmd.icpc");
    EXPECT_NE(info.find("v8"), std::string::npos) << info;
    EXPECT_NE(info.find("2 segments"), std::string::npos) << info;
    // The entry count and the sharing stats are part of the output
    // contract.
    EXPECT_NE(info.find("function:"), std::string::npos) << info;
    // Read-sets and liveness live inside function records: no kind
    // of their own.
    EXPECT_EQ(info.find("liveness:"), std::string::npos) << info;
    EXPECT_EQ(info.find("data read-set:"), std::string::npos) << info;
    EXPECT_NE(info.find("distinct keys"), std::string::npos) << info;
    EXPECT_NE(info.find("per ISA: x86-64 "), std::string::npos) << info;
    EXPECT_EQ(exitCode("cache verify /tmp/icp_cli_cmd.icpc"), 0);

    const std::string compacted = capture(
        "cache compact /tmp/icp_cli_cmd.icpc --max-bytes 8192");
    EXPECT_NE(compacted.find("evicted"), std::string::npos)
        << compacted;
    const std::string after =
        capture("cache info /tmp/icp_cli_cmd.icpc");
    EXPECT_NE(after.find("1 segment"), std::string::npos) << after;
    EXPECT_EQ(exitCode("cache verify /tmp/icp_cli_cmd.icpc"), 0);

    // Operational errors: missing file and bad actions are both
    // exit 1 (usage goes to stderr; exit 2 is reserved for lint's
    // findings-reached-fail-on contract).
    EXPECT_EQ(exitCode("cache info /tmp/definitely_missing.icpc"), 1);
    EXPECT_EQ(exitCode("cache frobnicate /tmp/icp_cli_cmd.icpc"), 1);
}

TEST(CliCache, RewriteHonorsCacheMaxBytes)
{
    std::remove("/tmp/icp_cli_cap.icpc");
    ASSERT_EQ(run("compile micro /tmp/icp_cli_cap_a.sbf"), 0);
    ASSERT_EQ(run("compile spec1 /tmp/icp_cli_cap_b.sbf"), 0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_cap_a.sbf "
                  "/tmp/icp_cli_cap_a1.sbf "
                  "--cache-file /tmp/icp_cli_cap.icpc"),
              0);
    ASSERT_EQ(run("rewrite /tmp/icp_cli_cap_b.sbf "
                  "/tmp/icp_cli_cap_b1.sbf "
                  "--cache-file /tmp/icp_cli_cap.icpc "
                  "--cache-max-bytes 8192"),
              0);
    const std::string info =
        capture("cache info /tmp/icp_cli_cap.icpc");
    EXPECT_NE(info.find("v8"), std::string::npos) << info;
    // The capped save compacted the file back under the limit.
    struct stat st;
    ASSERT_EQ(stat("/tmp/icp_cli_cap.icpc", &st), 0);
    EXPECT_LE(st.st_size, 8192);
    EXPECT_EQ(exitCode("cache verify /tmp/icp_cli_cap.icpc"), 0);
}

TEST(CliLintBaseline, DiffAgainstSavedJsonReport)
{
    ASSERT_EQ(run("compile micro /tmp/icp_cli_lb.sbf"), 0);
    const std::string report =
        capture("lint /tmp/icp_cli_lb.sbf --json");
    ASSERT_FALSE(report.empty());
    {
        FILE *f = fopen("/tmp/icp_cli_lb_baseline.json", "w");
        ASSERT_NE(f, nullptr);
        fputs(report.c_str(), f);
        fclose(f);
    }

    // Same input vs its own saved report: no regressions, exit 0.
    EXPECT_EQ(exitCode("lint --diff /tmp/icp_cli_lb_baseline.json "
                       "/tmp/icp_cli_lb.sbf"),
              0);

    // A planted defect must regress against the baseline: exit 2.
    EXPECT_EQ(exitCode("lint --diff /tmp/icp_cli_lb_baseline.json "
                       "/tmp/icp_cli_lb.sbf --inject tramp-target"),
              2);

    // Garbage baseline is an operational error: exit 1.
    ASSERT_EQ(std::system("echo '{\"nope\": 1}' > "
                          "/tmp/icp_cli_lb_bad.json"),
              0);
    EXPECT_EQ(exitCode("lint --diff /tmp/icp_cli_lb_bad.json "
                       "/tmp/icp_cli_lb.sbf"),
              1);
}
