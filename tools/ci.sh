#!/bin/sh
# CI entry point: maps one workflow job onto the matching
# tools/check.sh leg(s), so the GitHub matrix and a local
# `tools/check.sh` run exercise byte-for-byte the same commands.
#
#   tools/ci.sh release        release build + full ctest
#   tools/ci.sh asan           ASan+UBSan suites + repair smoke
#   tools/ci.sh tsan           TSan parallel-pipeline tests
#   tools/ci.sh lint-baseline  lint --diff against the saved baseline
#   tools/ci.sh warm-cache     on-disk AnalysisCache round-trip smoke
#   tools/ci.sh cache-v2       concurrent-writer merge + verify +
#                              compaction size-cap smoke
#   tools/ci.sh cross-binary   content-addressed cross-binary cache
#                              smoke: second libcommon binary >= 50%
#                              analysis reuse via hits decoded at
#                              its own entries, byte-identical to
#                              its cold rewrite
#   tools/ci.sh sharded        range-bounded --shards rewrite smoke:
#                              byte identity, lint, cache-file
#                              rejection, timing, RSS
#   tools/ci.sh serve          hot-session daemon smoke: lifecycle via
#                              `icp client`, warm-hit + byte-identity
#                              asserts, SIGKILL restart pass
#   tools/ci.sh datadeps       SessionDataDeps data-edit tests plus the
#                              per-ISA datadep-* lint-rule inject matrix
#   tools/ci.sh tidy           clang-tidy over src/ + tools/ (skips
#                              cleanly when clang-tidy is absent)
#   tools/ci.sh bench-selftest the repository benchmark's self-tests
#   tools/ci.sh all            every leg (what check.sh runs bare)
#
#   tools/ci.sh regen-lint-baseline
#       rebuild tests/data/lint_baseline.json from the current tree
#       (run after intentionally changing lint findings, then commit)
#   tools/ci.sh regen-rewrite-digests
#       rebuild tests/data/rewrite_digests.txt, the golden output
#       digests (run after intentionally changing rewrite output,
#       then commit)
#
# ICP_CI_JOBS overrides the parallelism (default: nproc).

set -u

cd "$(dirname "$0")/.."

job="${1:-all}"
jobs="${ICP_CI_JOBS:-$(nproc)}"

regen_lint_baseline() {
    cmake -B build -S . >/dev/null &&
    cmake --build build -j "$jobs" --target icp_cli >/dev/null ||
        return 1
    dir="$(mktemp -d)"
    ./build/tools/icp compile micro "$dir/micro.sbf" --pie &&
    ./build/tools/icp lint "$dir/micro.sbf" \
        --mode func-ptr --count-blocks --json \
        > tests/data/lint_baseline.json
    status=$?
    rm -rf "$dir"
    [ $status -eq 0 ] && echo "wrote tests/data/lint_baseline.json"
    return $status
}

regen_rewrite_digests() {
    cmake -B build -S . >/dev/null &&
    cmake --build build -j "$jobs" --target rewrite_digests >/dev/null &&
    ./build/tests/rewrite_digests --write tests/data/rewrite_digests.txt
}

case "$job" in
    release|asan|tsan|lint-baseline|warm-cache|cache-v2|cross-binary|sharded|serve|datadeps|tidy|bench-selftest)
        exec tools/check.sh "$jobs" "$job"
        ;;
    all)
        exec tools/check.sh "$jobs"
        ;;
    regen-lint-baseline)
        regen_lint_baseline
        ;;
    regen-rewrite-digests)
        regen_rewrite_digests
        ;;
    *)
        echo "ci.sh: unknown job '$job'" >&2
        echo "jobs: release asan tsan lint-baseline warm-cache" \
             "cache-v2 cross-binary sharded serve datadeps tidy" \
             "bench-selftest all regen-lint-baseline" \
             "regen-rewrite-digests" >&2
        exit 64
        ;;
esac
