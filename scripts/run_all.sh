#!/usr/bin/env bash
# Rebuild everything, run the test suite, and regenerate every table,
# figure, ablation and extension result into results/.
#
#   scripts/run_all.sh [--jobs N] [--sim-threads N] [--resume]
#                      [--distributed [N]]
#
# --jobs N shards the campaign-style benches (figure5_energy,
# figure6_time, robustness_faults, robustness_seeds) across N host
# threads. Their output is byte-identical to a serial run, so N only
# affects wall time.
#
# --sim-threads N drives each individual simulation through the
# conservative PDES engine with N worker threads (docs/PERFORMANCE.md,
# "Parallel simulation (PDES)"). Like --jobs, results are
# byte-identical at any N.
#
# --distributed [N] runs the campaign benches through the distributed
# work queue instead: each bench binary runs once as the daemon
# (--serve) and N worker processes (default 3) lease points from it
# over a unix socket, with a shared content-addressed result cache
# under results/.cache/. Output stays byte-identical to a serial run
# at any worker count (docs/ROBUSTNESS.md, "Distributed campaigns").
#
# --resume continues an interrupted invocation: partial results/ are
# kept, campaign benches skip the points already in their result
# stores under results/.journal/, and the regenerated artifacts are
# byte-identical to an uninterrupted run. Campaign failures no longer
# zero out the sweep: each campaign writes a failure manifest
# (results/<bench>.manifest.json) with one repro command per failed
# point.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=1
SIM_THREADS=1
RESUME=0
DISTRIBUTED=0
WORKERS=3
while [ $# -gt 0 ]; do
    case "$1" in
        --jobs)   JOBS="$2"; shift 2 ;;
        --jobs=*) JOBS="${1#--jobs=}"; shift ;;
        --sim-threads)   SIM_THREADS="$2"; shift 2 ;;
        --sim-threads=*) SIM_THREADS="${1#--sim-threads=}"; shift ;;
        --resume) RESUME=1; shift ;;
        --distributed)
            DISTRIBUTED=1; shift
            case "${1:-}" in [0-9]*) WORKERS="$1"; shift ;; esac ;;
        --distributed=*) DISTRIBUTED=1; WORKERS="${1#--distributed=}"; shift ;;
        *)
            echo "usage: $0 [--jobs N] [--sim-threads N] [--resume]" \
                 "[--distributed [N]]" >&2
            exit 2 ;;
    esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results results/.journal

# Supervised campaign benches: stored (resumable), final artifact
# emitted by atomic rename, failure manifest on any failed point.
campaign_args() {
    local name="$1"
    local args="--jobs $JOBS --sim-threads $SIM_THREADS"
    args="$args --journal results/.journal/$name"
    args="$args --out results/$name.json"
    args="$args --manifest results/$name.manifest.json"
    [ "$RESUME" = 1 ] && args="$args --resume"
    echo "$args"
}

# Distributed mode: the bench binary itself is the daemon (it owns
# the result stores, aggregation and rendering); N copies of the same
# binary lease points from it as workers. The unix socket lives in a
# private tmpdir so concurrent invocations cannot collide.
run_distributed() {
    local name="$1"; shift
    local sockdir sock rc=0
    sockdir=$(mktemp -d)
    sock="unix:$sockdir/$name.sock"
    mkdir -p results/.cache
    # shellcheck disable=SC2046,SC2086
    "build/bench/$name" $(campaign_args "$name") \
        --serve "$sock" --cache results/.cache \
        | tee "results/$name.txt" &
    local daemon=$!
    local pids=()
    for i in $(seq 1 "$WORKERS"); do
        "build/bench/$name" --worker "$sock" --worker-name "w$i" \
            >/dev/null 2>&1 &
        pids+=($!)
    done
    wait "$daemon" || rc=$?
    wait "${pids[@]}" || true
    rm -rf "$sockdir"
    return "$rc"
}

for b in build/bench/*; do
    [ -x "$b" ] || continue
    name=$(basename "$b")
    echo "== $name"
    case "$name" in
        micro_primitives)
            "$b" --benchmark_min_time=0.1 | tee "results/$name.txt" ;;
        figure5_energy|figure6_time|robustness_faults|robustness_seeds)
            if [ "$DISTRIBUTED" = 1 ]; then
                run_distributed "$name"
            else
                # shellcheck disable=SC2046
                "$b" $(campaign_args "$name") | tee "results/$name.txt"
            fi ;;
        *)
            "$b" | tee "results/$name.txt" ;;
    esac
done

echo "All outputs in results/."
