#!/bin/sh
# Full pre-merge check, split into named legs:
#
#   tsan           ThreadSanitizer build + parallel determinism tests
#                  (the pipeline's concurrency is only exercised with
#                  >= 2 requested threads, which TSan then observes)
#                  and the serve daemon tests (worker pool, drain,
#                  and an in-place one-function edit followed by a
#                  lint that re-checks only the edited function)
#   asan           Address+UBSanitizer build + the memory-heavy suites
#                  (rewriter, verifier, binfmt, engine, session, cache
#                  store, sharded rewrite, serve daemon, the
#                  regenerating baselines, which share the rewriter's
#                  function-pointer retargeter, the simulator and
#                  loader, whose lazily mapped memory the binfmt
#                  mutation sweep loads, the rewrite mutation
#                  sweep, which rewrites, lints and runs bit-flipped
#                  inputs in forked children, and the session edit
#                  sequences, which replay or re-run a rewrite per
#                  edit and compare each step with a cold rewrite
#                  and each merged lint with a full one, the
#                  analysis, CFG-property and jump-table unit suites,
#                  which drive the CFG builder's offset-indexed table
#                  over hand-assembled edge cases and compiled
#                  corpora, the data-deps suite, whose cache round
#                  trip looks up a read-set at other bytes and must
#                  miss, and the selective-instrumentation suite,
#                  whose reachability pruning walks every block's
#                  range of its Function's edge array; CfgReuse,
#                  which keeps a module's Functions across passes,
#                  runs in the session suites above) and the
#                  repair-loop CLI smoke; the
#                  allocation guard (test_alloc_guard) stays out, as
#                  it replaces the operator new that ASan owns
#   release        plain release build + the complete ctest suite
#   lint-baseline  lint the canonical input against the checked-in
#                  report (tests/data/lint_baseline.json): any new
#                  finding fails with exit 2
#   warm-cache     chromium-small on x64, aarch64 and ppc64le, each
#                  rewritten twice against one shared on-disk
#                  AnalysisCache (--cache-file): every second,
#                  fresh-process run must reuse 100% of function
#                  analyses, produce byte-identical output, and leave
#                  the cache file untouched (delta save finds nothing
#                  to append); `icp cache verify` must then pass
#   cache-v2       cache store v2 smoke: two concurrent classic
#                  rewrites merge into one cache file, `icp cache
#                  verify` finds it clean, `icp cache compact
#                  --max-bytes` / `--cache-max-bytes` enforce the
#                  size cap, and an x86-64 lint against a file primed
#                  with aarch64 entries is clean at --fail-on warning
#   sharded        range-bounded rewrite smoke: the chromium-small
#                  corpus through `icp rewrite --shards 1`, `2` and
#                  `4` must be byte-identical to the classic path and
#                  lint clean; the `--shards 2` run must show its
#                  in-memory analysis in the `cfg` timing stage and
#                  report at most half the classic run's peak RSS
#                  (range mode's whole reason to exist), both
#                  --threads 1 timing tables must add up to their
#                  wall row, and `--shards 2 --cache-file F` must
#                  exit 1 without creating F
#   cross-binary   content-addressed sharing smoke: two libcommon
#                  corpus binaries (same static-lib core, different
#                  link bases) rewritten through one shared
#                  --cache-file; the second must reuse >= 50% of its
#                  function analyses as cross-binary hits, stay
#                  byte-identical to its cold rewrite, and leave a
#                  verifiable cache file
#   serve          hot-session daemon smoke: background `icp serve`,
#                  drive open -> rewrite -> edited rewrite -> lint ->
#                  shutdown through `icp client`, assert byte identity
#                  with one-shot rewrites and a warm session hit on
#                  the second rewrite, a flagged client rewrite equal
#                  to its one-shot, and `--mode bogus` exiting 1 (its
#                  "edit" swaps the input for another program, which
#                  resets the session: the incremental edit -> lint
#                  path is test_serve's, run in tier-1 and in the
#                  asan and tsan legs); a
#                  second pass SIGKILLs the daemon mid-session and
#                  asserts the stale socket and lock files don't
#                  wedge a restart
#   datadeps       data-dependency smoke: the release build's
#                  `test_session --gtest_filter='*SessionDataDeps*'`
#                  (unread-data and jump-table edits through
#                  loadInput on micro and chromium-small, 3 ISAs:
#                  expected dirty set, byte identity with a cold
#                  rewrite, lint clean); then on every ISA each
#                  datadep-* lint rule must fire under --inject at its
#                  severity, and the clean binary must stay lint-clean
#   tidy           clang-tidy over src/ + tools/ using the exported
#                  compilation database; skipped (PASS) when
#                  clang-tidy is not installed
#   bench-selftest the repository benchmark's self-tests
#                  (`python3 icpbench/selftest.py`: same seed, same
#                  plan and counts; every BENCHMARK.json metric
#                  printed on every workload)
#
# Unlike a `set -e` script, every requested leg runs even when an
# earlier one fails; the per-leg PASS/FAIL summary and the aggregate
# exit code report all of them.
#
# Usage: tools/check.sh [jobs] [leg...]   (default: nproc, all legs)
# The ICP_CACHE_FILE env var relocates the warm-cache leg's cache
# file (CI points it into the actions-cache directory).

set -u

cd "$(dirname "$0")/.."

jobs=""
legs=""
for arg in "$@"; do
    case "$arg" in
        [0-9]*) jobs="$arg" ;;
        *) legs="$legs $arg" ;;
    esac
done
jobs="${jobs:-$(nproc)}"
legs="${legs:-tsan asan release lint-baseline warm-cache cache-v2 cross-binary sharded serve datadeps tidy bench-selftest}"

# Compiler launcher: use ccache when available (CI restores its
# directory between runs), invisible otherwise.
launcher=""
if command -v ccache >/dev/null 2>&1; then
    launcher="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

leg_tsan() {
    echo "== ThreadSanitizer build (build-tsan/) =="
    cmake -B build-tsan -S . $launcher \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" &&
    cmake --build build-tsan -j "$jobs" --target test_parallel test_serve &&
    echo "== TSan: parallel pipeline tests ==" &&
    ./build-tsan/tests/test_parallel &&
    echo "== TSan: serve daemon tests ==" &&
    ./build-tsan/tests/test_serve
}

leg_asan() {
    echo "== Address+UBSanitizer build (build-asan/) =="
    cmake -B build-asan -S . $launcher \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" &&
    cmake --build build-asan -j "$jobs" \
        --target test_lint test_rewrite test_binfmt test_engine \
                 test_session test_cache_store test_shard test_serve \
                 test_baselines test_sim test_loader \
                 test_rewrite_mutation test_session_edits \
                 test_analysis test_cfg_properties test_jump_table_unit \
                 test_datadeps test_selective icp_cli &&
    echo "== ASan+UBSan: rewriter / verifier / binfmt / session / cache / shard / serve / baseline / simulator / loader / rewrite mutation / session edit / analysis / data-deps / selective tests ==" &&
    ./build-asan/tests/test_lint &&
    ./build-asan/tests/test_rewrite &&
    ./build-asan/tests/test_binfmt &&
    ./build-asan/tests/test_engine &&
    ./build-asan/tests/test_session &&
    ./build-asan/tests/test_cache_store &&
    ./build-asan/tests/test_shard &&
    ./build-asan/tests/test_serve &&
    ./build-asan/tests/test_baselines &&
    ./build-asan/tests/test_sim &&
    ./build-asan/tests/test_loader &&
    ./build-asan/tests/test_rewrite_mutation &&
    ./build-asan/tests/test_session_edits &&
    ./build-asan/tests/test_analysis &&
    ./build-asan/tests/test_cfg_properties &&
    ./build-asan/tests/test_jump_table_unit &&
    ./build-asan/tests/test_datadeps &&
    ./build-asan/tests/test_selective &&
    echo "== ASan+UBSan: repair-loop smoke (inject -> repair -> lint) ==" &&
    smoke_dir="$(mktemp -d)" &&
    ./build-asan/tools/icp compile micro "$smoke_dir/in.sbf" --pie &&
    ./build-asan/tools/icp rewrite "$smoke_dir/in.sbf" \
        "$smoke_dir/out.sbf" --mode func-ptr --count-blocks \
        --inject tramp-chain --lint --repair
    status=$?
    rm -rf "${smoke_dir:-}"
    return $status
}

leg_release() {
    echo "== Release build (build/) =="
    cmake -B build -S . $launcher &&
    cmake --build build -j "$jobs" &&
    echo "== Release: full test suite ==" &&
    (cd build && ctest --output-on-failure -j "$jobs")
}

build_cli() {
    cmake -B build -S . $launcher >/dev/null &&
    cmake --build build -j "$jobs" --target icp_cli >/dev/null
}

leg_lint_baseline() {
    echo "== Lint baseline gate (tests/data/lint_baseline.json) =="
    build_cli || return 1
    dir="$(mktemp -d)"
    ./build/tools/icp compile micro "$dir/micro.sbf" --pie &&
    ./build/tools/icp lint --diff tests/data/lint_baseline.json \
        "$dir/micro.sbf" --mode func-ptr --count-blocks \
        --fail-on info
    status=$?
    rm -rf "$dir"
    if [ $status -eq 2 ]; then
        echo "lint regressions against the saved baseline" \
             "(regenerate with tools/ci.sh regen-lint-baseline" \
             "if intended)"
    fi
    return $status
}

leg_warm_cache() {
    echo "== Warm-cache smoke (--cache-file round trip, every ISA) =="
    build_cli || return 1
    dir="$(mktemp -d)"
    cache="${ICP_CACHE_FILE:-$dir/analysis-cache.icpc}"
    mkdir -p "$(dirname "$cache")"
    status=$?
    # One cache file serves all three ISAs: each ISA's second,
    # fresh-process run must find its whole slice there.
    for arch in x64 aarch64 ppc64le; do
        [ $status -eq 0 ] || break
        ./build/tools/icp compile chromium-small "$dir/in.sbf" \
            --arch "$arch" --pie &&
        ./build/tools/icp rewrite "$dir/in.sbf" "$dir/cold.sbf" \
            --cache-file "$cache" &&
        stamp_before="$(stat -c '%Y %s' "$cache")" &&
        ./build/tools/icp rewrite "$dir/in.sbf" "$dir/warm.sbf" \
            --cache-file "$cache" | tee "$dir/warm.log" &&
        grep -q " reused (100.0%)" "$dir/warm.log" &&
        cmp "$dir/cold.sbf" "$dir/warm.sbf" &&
        stamp_after="$(stat -c '%Y %s' "$cache")" &&
        [ "$stamp_before" = "$stamp_after" ] &&
        echo "$arch warm run: full reuse, byte-identical output," \
             "cache file untouched"
        status=$?
    done
    [ $status -eq 0 ] &&
    ./build/tools/icp cache verify "$cache" &&
    echo "shared cache file verifies clean"
    status=$?
    rm -rf "$dir"
    return $status
}

leg_cache_v2() {
    echo "== Cache store v2 smoke (merge / verify / compact) =="
    build_cli || return 1
    dir="$(mktemp -d)"
    cache="$dir/shared.icpc"
    # Two writers race on one cache file; flock + merge-on-save must
    # leave a clean file holding both shards.
    ./build/tools/icp compile micro "$dir/a.sbf" --pie &&
    ./build/tools/icp compile spec1 "$dir/b.sbf" --pie &&
    {
        ./build/tools/icp rewrite "$dir/a.sbf" "$dir/a_out.sbf" \
            --cache-file "$cache" &
        pid_a=$!
        ./build/tools/icp rewrite "$dir/b.sbf" "$dir/b_out.sbf" \
            --cache-file "$cache" &
        pid_b=$!
        # A bare `wait` always exits 0; wait on each pid so a failed
        # background rewrite fails the leg.
        wait "$pid_a" && wait "$pid_b"
    } &&
    ./build/tools/icp cache verify "$cache" &&
    ./build/tools/icp rewrite "$dir/a.sbf" "$dir/a_warm.sbf" \
        --cache-file "$cache" | grep -q " reused (100.0%)" &&
    ./build/tools/icp rewrite "$dir/b.sbf" "$dir/b_warm.sbf" \
        --cache-file "$cache" | grep -q " reused (100.0%)" &&
    cmp "$dir/a_out.sbf" "$dir/a_warm.sbf" &&
    cmp "$dir/b_out.sbf" "$dir/b_warm.sbf" &&
    echo "concurrent writers merged: clean file, both warm" &&
    # Compaction honors the byte cap, and the rewrite flag applies
    # the same cap automatically.
    ./build/tools/icp cache compact "$cache" --max-bytes 8192 &&
    [ "$(stat -c '%s' "$cache")" -le 8192 ] &&
    ./build/tools/icp cache verify "$cache" &&
    ./build/tools/icp rewrite "$dir/b.sbf" "$dir/b_cap.sbf" \
        --cache-file "$cache" --cache-max-bytes 8192 &&
    [ "$(stat -c '%s' "$cache")" -le 8192 ] &&
    echo "compaction: size cap enforced, file still clean" &&
    # One file shared across ISAs: the aarch64 entries are never read
    # by the x86-64 lint, so a clean rewrite lints clean.
    ./build/tools/icp compile chromium-small "$dir/cs.sbf" \
        --arch aarch64 --pie &&
    ./build/tools/icp compile libxul "$dir/xul.sbf" --pie &&
    ./build/tools/icp rewrite "$dir/cs.sbf" "$dir/cs_out.sbf" \
        --mode jt --cache-file "$dir/multi.icpc" &&
    ./build/tools/icp lint "$dir/xul.sbf" --mode jt \
        --cache-file "$dir/multi.icpc" --fail-on warning &&
    ./build/tools/icp cache verify "$dir/multi.icpc" &&
    echo "shared multi-ISA cache file: lint clean, file clean"
    status=$?
    rm -rf "$dir"
    return $status
}

leg_cross_binary() {
    echo "== Cross-binary cache smoke (libcommon corpus, shared --cache-file) =="
    build_cli || return 1
    dir="$(mktemp -d)"
    cache="$dir/shared.icpc"
    ./build/tools/icp compile libcommon0 "$dir/a.sbf" &&
    ./build/tools/icp compile libcommon1 "$dir/b.sbf" &&
    # Cold ground truth for the second binary: no cache anywhere.
    ./build/tools/icp rewrite "$dir/b.sbf" "$dir/b_cold.sbf" &&
    # Prime the shared file with the first binary...
    ./build/tools/icp rewrite "$dir/a.sbf" "$dir/a_out.sbf" \
        --cache-file "$cache" &&
    # ...then rewrite the second against it. The binaries share only
    # their static-lib core, at different link bases: the >= 50%
    # analysis reuse below is possible only if content-addressed
    # keys hit across binaries and each hit, decoded at b's own
    # entry, keeps the output byte-identical to the cold run.
    ./build/tools/icp rewrite "$dir/b.sbf" "$dir/b_warm.sbf" \
        --cache-file "$cache" --timing | tee "$dir/warm.log" &&
    pct="$(sed -n 's/.*reused (\([0-9.]*\)%).*/\1/p' "$dir/warm.log")" &&
    [ -n "$pct" ] &&
    awk "BEGIN{exit !($pct >= 50)}" &&
    cross="$(awk '$1 == "cache.cross_hits" {print $2}' "$dir/warm.log")" &&
    [ -n "$cross" ] && [ "$cross" -gt 0 ] &&
    cmp "$dir/b_cold.sbf" "$dir/b_warm.sbf" &&
    ./build/tools/icp cache verify "$cache" &&
    echo "cross-binary: ${pct}% reuse, $cross cross hits," \
         "byte-identical to cold, cache clean"
    status=$?
    rm -rf "$dir"
    return $status
}

# On one thread the --timing spans never overlap: the ms rows plus
# (unattributed) must add up to wall, within 0.001 ms of rounding per
# row.
timing_adds_up() {
    awk '/^  [^ ]+ +-?[0-9.]+ ms$/ {
             if ($1 == "wall") wall = $2; else { sum += $2; n++ }
         }
         END {
             d = sum - wall; if (d < 0) d = -d
             exit !(wall > 0 && d <= 0.001 * (n + 1))
         }' "$1"
}

leg_sharded() {
    echo "== Sharded rewrite smoke (chromium-small, --shards 1, 2 and 4) =="
    build_cli || return 1
    dir="$(mktemp -d)"
    cache="$dir/shards.icpc"
    ./build/tools/icp compile chromium-small "$dir/in.sbf" --pie &&
    # The RSS pair runs on one thread: each extra worker's malloc
    # arena keeps its own high-water mark, a per-thread constant
    # that is not the range bound under test. The --shards 1 and 4
    # runs keep the default thread count, so the cmps below also
    # cover thread-count determinism.
    ./build/tools/icp rewrite "$dir/in.sbf" "$dir/classic.sbf" \
        --mode jt --threads 1 --timing | tee "$dir/classic.log" &&
    ./build/tools/icp rewrite "$dir/in.sbf" "$dir/sharded.sbf" \
        --mode jt --threads 1 --shards 2 --timing |
        tee "$dir/sharded.log" &&
    cmp "$dir/classic.sbf" "$dir/sharded.sbf" &&
    ./build/tools/icp rewrite "$dir/in.sbf" "$dir/one.sbf" \
        --mode jt --shards 1 >/dev/null &&
    cmp "$dir/classic.sbf" "$dir/one.sbf" &&
    ./build/tools/icp rewrite "$dir/in.sbf" "$dir/four.sbf" \
        --mode jt --shards 4 >/dev/null &&
    cmp "$dir/classic.sbf" "$dir/four.sbf" &&
    echo "--shards 1, 2 and 4 output byte-identical to classic" &&
    grep -q "^shard 1:" "$dir/sharded.log" &&
    # The --shards 2 run analyzes in memory, so its timing table
    # attributes that work to the cfg stage.
    cfg_ms="$(awk '$1 == "cfg" {print $2}' "$dir/sharded.log")" &&
    [ -n "$cfg_ms" ] && awk "BEGIN{exit !($cfg_ms > 0)}" &&
    echo "--shards 2: cfg stage $cfg_ms ms" &&
    timing_adds_up "$dir/classic.log" &&
    timing_adds_up "$dir/sharded.log" &&
    echo "--threads 1 timing rows + (unattributed) = wall" &&
    ./build/tools/icp lint "$dir/in.sbf" --mode jt \
        --fail-on error &&
    # More than one range takes no cache file: exit 1, and neither
    # the cache file nor the output is left behind.
    {
        ./build/tools/icp rewrite "$dir/in.sbf" "$dir/rejected.sbf" \
            --mode jt --shards 2 --cache-file "$cache" >/dev/null 2>&1
        [ $? -eq 1 ]
    } &&
    [ ! -e "$cache" ] && [ ! -e "$cache.lock" ] &&
    [ ! -e "$dir/rejected.sbf" ] &&
    echo "--shards 2 --cache-file rejected, no file created" &&
    # The whole point of range mode: the sharded run's peak RSS must
    # be at most half the materializing classic run's.
    classic_rss="$(awk '/peak-rss/{print $2}' "$dir/classic.log")" &&
    sharded_rss="$(awk '/peak-rss/{print $2}' "$dir/sharded.log")" &&
    [ -n "$classic_rss" ] && [ -n "$sharded_rss" ] &&
    [ $((sharded_rss * 2)) -le "$classic_rss" ] &&
    echo "peak RSS: sharded $sharded_rss <= classic $classic_rss / 2"
    status=$?
    rm -rf "$dir"
    return $status
}

# Poll a daemon's socket with `icp client ping` until it answers
# (readiness, not a fixed sleep). Fails after ~5s.
serve_wait_ready() {
    sock="$1"
    i=0
    while [ "$i" -lt 50 ]; do
        if ./build/tools/icp client "$sock" ping >/dev/null 2>&1; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    echo "serve: daemon on $sock never became ready"
    return 1
}

leg_serve() {
    echo "== Serve daemon smoke (icp serve / icp client round trip) =="
    build_cli || return 1
    dir="$(mktemp -d)"
    sock="$dir/serve.sock"
    status=1
    # Ground truths: one-shot rewrites of the original and the edited
    # input, produced without any daemon in the picture.
    if ./build/tools/icp compile micro "$dir/in.sbf" --pie &&
       ./build/tools/icp compile spec1 "$dir/edit.sbf" --pie &&
       ./build/tools/icp rewrite "$dir/in.sbf" "$dir/oneshot.sbf" &&
       cp "$dir/edit.sbf" "$dir/edit_in.sbf" &&
       ./build/tools/icp rewrite "$dir/edit_in.sbf" \
           "$dir/oneshot_edit.sbf" &&
       ./build/tools/icp compile micro "$dir/flags.sbf" --pie &&
       ./build/tools/icp rewrite "$dir/flags.sbf" \
           "$dir/oneshot_flags.sbf" --no-multihop --count-entries
    then
        # Pass 1: full session lifecycle against one daemon, ending in
        # a graceful shutdown whose exit status we actually collect.
        ./build/tools/icp serve "$sock" &
        srv=$!
        if serve_wait_ready "$sock" &&
           ./build/tools/icp client "$sock" open "$dir/in.sbf" &&
           ./build/tools/icp client "$sock" rewrite "$dir/in.sbf" \
               "$dir/served.sbf" &&
           cmp "$dir/oneshot.sbf" "$dir/served.sbf" &&
           ./build/tools/icp client "$sock" rewrite "$dir/in.sbf" \
               "$dir/served2.sbf" | tee "$dir/warm.log" &&
           grep -q "warm=1" "$dir/warm.log" &&
           cmp "$dir/oneshot.sbf" "$dir/served2.sbf" &&
           echo "serve: second rewrite warm, byte-identical" &&
           # Edit the binary on disk; the resident session must notice
           # the stamp change and still match the one-shot answer.
           cp "$dir/edit.sbf" "$dir/in.sbf" &&
           ./build/tools/icp client "$sock" rewrite "$dir/in.sbf" \
               "$dir/served_edit.sbf" | tee "$dir/edit.log" &&
           grep -q "warm=1" "$dir/edit.log" &&
           cmp "$dir/oneshot_edit.sbf" "$dir/served_edit.sbf" &&
           echo "serve: edited rewrite warm, byte-identical" &&
           ./build/tools/icp client "$sock" lint "$dir/in.sbf" \
               --fail-on error &&
           # Rewrite flags travel as fields: same bytes as one-shot.
           ./build/tools/icp client "$sock" rewrite "$dir/flags.sbf" \
               "$dir/served_flags.sbf" --no-multihop --count-entries &&
           cmp "$dir/oneshot_flags.sbf" "$dir/served_flags.sbf" &&
           echo "serve: flagged rewrite byte-identical" &&
           { ./build/tools/icp client "$sock" open "$dir/flags.sbf" \
                 --mode bogus 2>/dev/null; [ $? -eq 1 ]; } &&
           ./build/tools/icp client "$sock" shutdown &&
           wait "$srv"
        then
            echo "serve: lifecycle pass clean (daemon exit 0)"
            status=0
        else
            kill "$srv" 2>/dev/null
            wait "$srv" 2>/dev/null
        fi
    fi
    # Pass 2: SIGKILL the daemon mid-session. The abandoned socket and
    # lock files must not wedge a restart on the same path.
    if [ $status -eq 0 ]; then
        status=1
        ./build/tools/icp serve "$sock" &
        srv=$!
        if serve_wait_ready "$sock" &&
           ./build/tools/icp client "$sock" open "$dir/in.sbf"
        then
            kill -9 "$srv"
            wait "$srv" 2>/dev/null
            [ -S "$sock" ] || echo "serve: note: socket already gone"
            ./build/tools/icp serve "$sock" &
            srv=$!
            if serve_wait_ready "$sock" &&
               ./build/tools/icp client "$sock" rewrite "$dir/in.sbf" \
                   "$dir/served_restart.sbf" &&
               cmp "$dir/oneshot_edit.sbf" "$dir/served_restart.sbf" &&
               ./build/tools/icp client "$sock" shutdown &&
               wait "$srv"
            then
                echo "serve: SIGKILL restart pass clean"
                status=0
            else
                kill "$srv" 2>/dev/null
                wait "$srv" 2>/dev/null
            fi
        else
            kill -9 "$srv" 2>/dev/null
            wait "$srv" 2>/dev/null
        fi
    fi
    rm -rf "$dir"
    return $status
}

leg_datadeps() {
    echo "== Data-dependency smoke (SessionDataDeps + inject matrix) =="
    build_cli || return 1
    status=0
    # Data edits through RewriteSession::loadInput: an unread byte
    # re-analyzes and re-emits nothing, a jump-table entry dirties
    # exactly its readers, and both stay byte-identical to a cold
    # rewrite.
    if ! cmake --build build -j "$jobs" --target test_session \
            >/dev/null ||
       ! ./build/tests/test_session \
            --gtest_filter='*SessionDataDeps*' --gtest_brief=1; then
        echo "datadeps: SessionDataDeps failed"
        status=1
    fi
    dir="$(mktemp -d)"
    for arch in x64 aarch64 ppc64le; do
        in="$dir/in-$arch.sbf"
        if ! ./build/tools/icp compile chromium-small "$in" \
                --pie --arch "$arch"; then
            status=1
            continue
        fi
        # Each datadep rule fires under injection at its severity:
        # missing/stale are errors, overbroad is a warning only.
        for defect in dep-missing dep-stale; do
            if ./build/tools/icp lint "$in" --inject "$defect" \
                    --fail-on error >/dev/null 2>&1; then
                echo "datadeps: --inject $defect not an error ($arch)"
                status=1
            fi
        done
        if ! ./build/tools/icp lint "$in" --inject dep-overbroad \
                --fail-on error >/dev/null 2>&1; then
            echo "datadeps: dep-overbroad escalated past warning ($arch)"
            status=1
        fi
        if ./build/tools/icp lint "$in" --inject dep-overbroad \
                --fail-on warning >/dev/null 2>&1; then
            echo "datadeps: --inject dep-overbroad not a warning ($arch)"
            status=1
        fi
        # ...and without injection the binary stays clean.
        if ! ./build/tools/icp lint "$in" --fail-on warning \
                >/dev/null; then
            echo "datadeps: clean binary not lint-clean ($arch)"
            status=1
        fi
    done
    rm -rf "$dir"
    [ $status -eq 0 ] &&
    echo "deps checks: data edits splice, rules fire, clean stays clean"
    return $status
}

leg_tidy() {
    echo "== clang-tidy (src/ + tools/, .clang-tidy config) =="
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed; leg skipped"
        return 0
    fi
    build_cli || return 1
    clang-tidy -p build --quiet \
        $(git ls-files 'src/*.cc' 'tools/*.cc')
}

leg_bench_selftest() {
    echo "== Benchmark self-tests (icpbench/selftest.py) =="
    python3 icpbench/selftest.py
}

summary=""
failed=0
for leg in $legs; do
    fn="leg_$(echo "$leg" | tr - _)"
    if ! command -v "$fn" >/dev/null 2>&1 && ! type "$fn" >/dev/null 2>&1; then
        echo "check.sh: unknown leg '$leg'" >&2
        summary="$summary
  $leg: UNKNOWN"
        failed=1
        continue
    fi
    echo ""
    echo "=== leg: $leg ==="
    if "$fn"; then
        summary="$summary
  $leg: PASS"
    else
        summary="$summary
  $leg: FAIL"
        failed=1
    fi
done

echo ""
echo "== check.sh summary ==$summary"
if [ $failed -ne 0 ]; then
    echo "== check.sh: FAILURES =="
    exit 1
fi
echo "== check.sh: all green =="
