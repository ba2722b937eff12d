#!/usr/bin/env bash
# Bit-identity gate for the seeded experiment outputs.
#
# Runs each seeded bench binary in a scratch directory, normalizes
# the volatile parts of its output (wall-clock timings and host
# worker counts), and diffs the result against the committed golden
# copies under tests/golden/. Any difference means a change altered
# the simulated results — the optimisation work this repo does on the
# hot path must keep every one of these outputs bit-identical.
#
# Usage: check_golden.sh BUILD_BENCH_DIR [GOLDEN_DIR] [--repeat N]
#   BUILD_BENCH_DIR  directory holding the built bench binaries
#   GOLDEN_DIR       defaults to <repo>/tests/golden
#   --repeat N       run the whole check up to N times (a soak for
#                    rare differences); stop after the first failing
#                    run
#
# A failing case's output directory, with its diffs, is kept under
# BUILD_BENCH_DIR/../golden_failures/CASE (cleared at the start of
# each invocation) and its path printed.
#
# Refresh the goldens after an intentional behaviour change with:
#   tools/check_golden.sh build/bench --refresh

set -u

here="$(cd "$(dirname "$0")" && pwd)"
repo="$(dirname "$here")"

usage="usage: check_golden.sh BUILD_BENCH_DIR [GOLDEN_DIR] [--repeat N]"
refresh=0
repeat=1
args=()
while [ $# -gt 0 ]; do
    case "$1" in
      --refresh) refresh=1 ;;
      --repeat)
        repeat="${2:-}"
        shift
        if ! [ "$repeat" -ge 1 ] 2>/dev/null; then
            echo "check_golden: --repeat needs a count >= 1" >&2
            exit 2
        fi
        ;;
      *) args+=("$1") ;;
    esac
    shift
done

bench_dir="${args[0]:?$usage}"
golden_dir="${args[1]:-$repo/tests/golden}"
bench_dir="$(cd "$bench_dir" && pwd)"
kept="$(dirname "$bench_dir")/golden_failures"
rm -rf "$kept"

BENCHES="fig02_latency_cdf table01_scenarios fig06_07_reception \
fig08_accuracy_vs_rate fig09_noise_accuracy fig10_error_correction \
fig11_multibit_symbols ablation_protocols ablation_mitigations \
ablation_detection"

# Strip the fields that legitimately differ between runs/machines:
# wall-clock seconds and the worker count, in both the stdout
# summaries and the BENCH_*.json envelopes.
normalize() {
    sed -e '/s wall on [0-9]* worker/d' \
        -e '/^ *"wall_seconds":/d' \
        -e '/^ *"jobs":/d' "$1"
}

status=0
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# Keep a failing case's output directory (and its diffs) for reading.
keep() {
    local name="$1" out="$2"
    mkdir -p "$kept"
    rm -rf "${kept:?}/$name"
    cp -r "$out" "$kept/$name"
    echo "check_golden: $name output kept in $kept/$name" >&2
}

# Refresh or diff every file a run left in its scratch directory.
settle() {
    local name="$1" out="$2"
    if [ "$refresh" -eq 1 ]; then
        mkdir -p "$golden_dir/$name"
        for f in "$out"/*; do
            normalize "$f" > "$golden_dir/$name/$(basename "$f")"
        done
        echo "check_golden: refreshed $name"
        return
    fi
    local failed=0
    for f in "$out"/*; do
        local base gold
        base="$(basename "$f")"
        gold="$golden_dir/$name/$base"
        if [ ! -f "$gold" ]; then
            echo "check_golden: missing golden $name/$base" >&2
            failed=1
            continue
        fi
        if ! diff -u "$gold" <(normalize "$f") \
            > "$scratch/$name.$base.diff" 2>&1; then
            echo "check_golden: $name/$base DIFFERS from golden:" >&2
            cat "$scratch/$name.$base.diff" >&2
            mv "$scratch/$name.$base.diff" "$out/$base.diff"
            failed=1
        fi
    done
    if [ "$failed" -eq 1 ]; then
        keep "$name" "$out"
        status=1
    fi
}

# Run one seeded case in its own scratch directory and settle it:
#   run_case NAME STEM COMMAND [ARGS...] [-- STEM COMMAND [ARGS...]]...
# Each "--"-separated step runs COMMAND there, writing its combined
# stdout/stderr to STEM.txt; the files it writes itself (BENCH_*.json
# and the like) are settled too. The first failing step fails the
# case.
run_case() {
    local name="$1" out="$scratch/$1"
    shift
    rm -rf "$out"
    mkdir -p "$out"
    while [ $# -gt 0 ]; do
        local stem="$1" cmd=()
        shift
        while [ $# -gt 0 ] && [ "$1" != "--" ]; do
            cmd+=("$1")
            shift
        done
        [ $# -gt 0 ] && shift
        if ! (cd "$out" && "${cmd[@]}" > "$stem.txt" 2>&1); then
            echo "check_golden: $name FAILED to run" >&2
            keep "$name" "$out"
            status=1
            return
        fi
    done
    settle "$name" "$out"
}

# Every seeded case, once.
check_all() {
    # Always run single-worker: results are bit-identical for any worker
    # count (tested elsewhere); one worker keeps this check reproducible
    # on loaded CI machines.
    for bench in $BENCHES; do
        run_case "$bench" stdout "$bench_dir/$bench" --jobs 1 --quiet
    done

    cli="$bench_dir/../tools/cohersim"

    # The CLI's run-health report is seeded and deterministic too: pin
    # both the rendered report and the JSON timeseries document.
    run_case report_health stdout "$cli" report --preset health-quick \
        --jobs 1 --json REPORT_health.json

    # The multi-tenant path: pin the fleet-quick CLI transmit and the
    # quick fleet-scaling sweep (its BENCH_fleet.json must be
    # bit-identical at any --jobs; CI and the tests exercise other worker
    # counts, this gate pins the content).
    run_case fleet_quick stdout "$cli" transmit --preset fleet-quick \
        -- sweep_stdout "$bench_dir/fleet_scaling" --quick --jobs 1 --quiet

    # The PHY channel stack: pin the phy-quick CLI transmit (hamming-soft
    # end to end), a CLI transmit through the paper's parity+NACK chain
    # (phy.profile legacy-parity) and the quick parity-vs-FEC comparison
    # (its BENCH_phy.json must be bit-identical at any --jobs).
    run_case phy_quick stdout "$cli" transmit --preset phy-quick \
        -- parity_stdout "$cli" transmit --phy.profile legacy-parity \
        --message "GUARANTEED DELIVERY" \
        -- bench_stdout "$bench_dir/phy_comparison" --quick --jobs 1 --quiet

    # The defense matrix: pin the quick grid (Table I row 4 against every
    # defense column — §VIII-E mitigations plus the randomized caches).
    # Four workers must match the same golden: each cell's calibration
    # warnings print with its result, in cell order.
    for jobs in 1 4; do
        run_case defense_quick stdout "$bench_dir/defense_matrix" --quick \
            --jobs "$jobs" --quiet
    done

    # The leakage-vector plugins: pin the quick vector matrix (all four
    # vectors on a quiet machine, with the cross-vector CC-Hunter
    # trackers) and one CLI transmit through a non-coherence vector
    # preset.
    run_case vectors_quick stdout "$cli" transmit --preset lru-quick \
        -- bench_stdout "$bench_dir/vector_matrix" --quick --jobs 1 --quiet

    # The config layer: pin the field listing and resolved manifests
    # that move every choice field off its default. phy.profile runs
    # only on the coherence vector, so the non-default vectors get
    # dumps of their own.
    run_case config_fields fields "$cli" info --fields \
        -- dump_pagefault "$cli" info --dump-config pagefault.json \
        --system.flavor moesi --system.lookup snoop \
        --mem.replacement srrip --mem.inclusivity exclusive \
        --mem.llc_index mirage --channel.vector pagefault \
        --channel.scenario RExclc-LSharedb --channel.sharing ksm \
        --channel.defense ksm-guard \
        -- dump_phy "$cli" info --dump-config phy.json \
        --phy.profile hamming-hard --system.flavor mesif \
        --mem.replacement plru --mem.inclusivity nine \
        --mem.llc_index xor-fold --channel.scenario 2 \
        --channel.defense targeted-noise \
        -- dump_2bit "$cli" info --dump-config 2bit.json \
        --channel.vector coherence-2bit --mem.replacement random \
        --mem.llc_index remap --channel.scenario 6 \
        --channel.defense llc-notify
}

for ((run = 1; run <= repeat; run++)); do
    check_all
    if [ "$status" -ne 0 ]; then
        echo "check_golden: run $run of $repeat differs" >&2
        break
    fi
done

if [ "$refresh" -eq 1 ]; then
    echo "check_golden: goldens written to $golden_dir"
elif [ "$status" -eq 0 ]; then
    echo "check_golden: all seeded experiment outputs bit-identical"
else
    echo "check_golden: FAILED — seeded outputs changed" >&2
fi
exit "$status"
