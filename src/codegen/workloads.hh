/**
 * @file
 * Workload-profile generators: deterministic ProgramSpecs whose
 * feature mixes stand in for the paper's evaluation subjects —
 * the 19 SPEC CPU 2017 benchmarks, Firefox's libxul.so, the Docker
 * (Go) executable, and Nvidia's libcuda.so driver (§8, §9).
 */

#ifndef ICP_CODEGEN_WORKLOADS_HH
#define ICP_CODEGEN_WORKLOADS_HH

#include <vector>

#include "codegen/spec.hh"

namespace icp
{

/**
 * The 19-benchmark SPEC-CPU-2017-like suite (627.cam4 is excluded,
 * as in the paper). Feature mixes per benchmark: gcc-like programs
 * are switch-heavy, C++-like ones throw and catch exceptions and
 * make virtual-style indirect calls, Fortran-like ones are loop and
 * arithmetic heavy with little indirect control flow.
 *
 * @param arch target ISA
 * @param pie  position independent (the paper's default runs use
 *             -no-pie; the Egalito comparison needs -pie)
 */
std::vector<ProgramSpec> specCpuSuite(Arch arch, bool pie);

/** Names of the benchmarks in suite order. */
std::vector<std::string> specCpuNames();

/** Firefox libxul.so analog: huge shared library, Rust metadata. */
ProgramSpec libxulProfile();

/** Docker analog: Go PIE with vtab, +1 pointers, GC unwinding. */
ProgramSpec dockerProfile();

/** libcuda.so analog: many tiny functions, dense tiny switches. */
ProgramSpec libcudaProfile();

/** A small fully featured program for tests and the quickstart. */
ProgramSpec microProfile(Arch arch, bool pie);

/**
 * Chrome analog: a browser-scale corpus of component-shaped function
 * clusters (renderer, net, gpu, ... as address-contiguous groups)
 * with per-component dispatch jump tables, cross-component calls
 * into other clusters' leaf pools, and address-taken callback sets.
 * Built with -fno-exceptions like the real thing. ~120k functions;
 * use with --shards to keep rewriting inside a bounded-memory
 * ceiling.
 */
ProgramSpec chromiumProfile();

/** Scaled-down chromium corpus (~1200 funcs) for tests and CI. */
ProgramSpec chromiumSmallProfile(Arch arch, bool pie);

/**
 * Shared-library corpus: @p count binaries that all link the same
 * static-lib core (~60% of each binary's functions, byte-identical
 * across the corpus) at different link addresses, each with a
 * distinct app-specific tail. The layout knobs (ProgramSpec
 * baseOffset / textAlign / textSizeFloor) pin every section at a
 * fixed distance from the link base, so a core function's code
 * bytes — including its pc-relative references to core callees and
 * its jump tables at the head of .rodata — are identical in every
 * binary while its absolute address differs per binary. That is the
 * cross-binary shape the content-addressed analysis cache serves
 * by decoding each hit at the asking entry: rewriting binary B
 * against a cache primed by binary A re-uses every core function's
 * analysis.
 */
std::vector<ProgramSpec> libcommonCorpus(Arch arch,
                                         unsigned count = 4);

} // namespace icp

#endif // ICP_CODEGEN_WORKLOADS_HH
