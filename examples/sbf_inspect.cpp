/**
 * @file
 * An objdump-like inspector for SBF images, exercising the on-disk
 * format: compiles a workload, serializes it to a file, reloads it,
 * and prints section headers, symbols, relocations, and a CFG-aware
 * disassembly of one function (blocks, edges, resolved jump
 * tables).
 *
 * Usage: ./build/examples/sbf_inspect [function-name]
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/builder.hh"
#include "codegen/compiler.hh"
#include "codegen/workloads.hh"

using namespace icp;

int
main(int argc, char **argv)
{
    const std::string wanted = argc > 1 ? argv[1] : "switcher";

    // Round-trip through the serialized format like a real tool
    // reading a file from disk would.
    const BinaryImage built =
        compileProgram(microProfile(Arch::x64, false));
    const auto raw = built.serialize();
    {
        std::ofstream out("/tmp/icp_inspect.sbf",
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(raw.data()),
                  static_cast<std::streamsize>(raw.size()));
    }
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in("/tmp/icp_inspect.sbf", std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::vector<SbfIssue> issues;
    const auto parsed = BinaryImage::tryDeserialize(bytes, issues);
    if (!parsed) {
        std::fprintf(stderr, "[%s] %s\n", issues.front().rule.c_str(),
                     issues.front().message.c_str());
        return 1;
    }
    const BinaryImage &img = *parsed;

    std::printf("SBF image: arch=%s %s entry=0x%llx loaded=%llu "
                "bytes\n\n",
                archName(img.arch), img.pie ? "PIE" : "no-PIE",
                static_cast<unsigned long long>(img.entry),
                static_cast<unsigned long long>(img.loadedSize()));

    std::printf("sections:\n");
    for (const auto &sec : img.sections) {
        std::printf("  %-12s 0x%08llx size %-8llu %s%s%s\n",
                    sec.name.c_str(),
                    static_cast<unsigned long long>(sec.addr),
                    static_cast<unsigned long long>(sec.memSize),
                    sec.loadable ? "L" : "-",
                    sec.executable ? "X" : "-",
                    sec.writable ? "W" : "-");
    }

    std::printf("\nfunction symbols:\n");
    for (const Symbol *sym : img.functionSymbols()) {
        std::printf("  0x%08llx %-6llu %s\n",
                    static_cast<unsigned long long>(sym->addr),
                    static_cast<unsigned long long>(sym->size),
                    sym->name.c_str());
    }

    std::printf("\nrelocations: %zu runtime, %zu link-time\n",
                img.relocs.size(), img.linkRelocs.size());

    // CFG-aware disassembly of the requested function.
    const CfgModule cfg = buildCfg(img, AnalysisOptions{});
    for (const auto &[entry, func] : cfg.functions) {
        if (func.name != wanted)
            continue;
        std::printf("\n<%s> [0x%llx, 0x%llx) — %zu blocks, %zu jump "
                    "tables%s\n",
                    func.name.c_str(),
                    static_cast<unsigned long long>(func.entry),
                    static_cast<unsigned long long>(func.end),
                    func.blocks.size(), func.jumpTables.size(),
                    func.instrumentable() ? ""
                                          : " [analysis FAILED]");
        for (const Block &block : func.blocks) {
            std::printf(" block 0x%llx:\n",
                        static_cast<unsigned long long>(block.start));
            for (const auto &in : func.insnsOf(block)) {
                std::printf("   %08llx  %s\n",
                            static_cast<unsigned long long>(in.addr),
                            in.toString().c_str());
            }
            for (const auto &edge : func.succsOf(block)) {
                std::printf("   -> 0x%llx%s\n",
                            static_cast<unsigned long long>(
                                edge.target),
                            edge.kind == EdgeKind::jumpTable
                                ? " (jump table)"
                                : "");
            }
        }
        for (const auto &jt : func.jumpTables) {
            std::printf(" jump table @0x%llx: %u entries x %uB%s\n",
                        static_cast<unsigned long long>(
                            jt.tableAddr),
                        jt.entryCount, jt.entrySize,
                        jt.embeddedInCode ? " (embedded in code)"
                                          : "");
        }
        return 0;
    }
    std::fprintf(stderr, "no function named %s\n", wanted.c_str());
    return 1;
}
