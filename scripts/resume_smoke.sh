#!/usr/bin/env bash
# Resume-equivalence smoke test (docs/ROBUSTNESS.md, "Supervised
# campaigns"): interrupt a journaled fault campaign once its result
# store holds its first point, resume it, and require the resumed
# final artifact to be byte-identical to an uninterrupted run's.
#
#   scripts/resume_smoke.sh [BENCH_BINARY] [WORKDIR]
#
# Defaults: build/bench/robustness_faults, a fresh temp directory.
# The full campaign (384 points) runs on one worker, so the SIGINT
# lands with most points still to run. Exit 0 when the interrupted
# run exits 130 with only part of the points stored and the resumed
# artifact matches; non-zero (with the diff and the store kept for
# inspection) otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${1:-build/bench/robustness_faults}"
WORK="${2:-$(mktemp -d)}"
mkdir -p "$WORK"

[ -x "$BENCH" ] || { echo "resume_smoke: $BENCH not built" >&2; exit 2; }

stored() {
    find "$WORK/store" -name '*.tbr' 2>/dev/null | wc -l
}

echo "== straight run (reference artifact)"
"$BENCH" --jobs 1 --out "$WORK/straight.json" \
    > "$WORK/straight.stdout" 2> "$WORK/straight.stderr"
POINTS=$(grep -o '"points": [0-9]*' "$WORK/straight.stdout" |
         grep -o '[0-9]*$')

echo "== interrupted run (SIGINT after the first stored point)"
rm -rf "$WORK/store" "$WORK/resumed.json"
set +e
"$BENCH" --jobs 1 --journal "$WORK/store" --out "$WORK/resumed.json" \
    > "$WORK/interrupted.stdout" 2> "$WORK/interrupted.stderr" &
PID=$!
while [ "$(stored)" -eq 0 ] && kill -0 "$PID" 2>/dev/null; do
    sleep 0.01
done
kill -INT "$PID" 2>/dev/null
wait "$PID"
RC=$?
set -e
STORED=$(stored)
echo "   interrupted rc=$RC, stored points=$STORED of $POINTS"
if [ "$RC" -ne 130 ] || [ "$STORED" -eq 0 ] ||
   [ "$STORED" -ge "$POINTS" ]; then
    echo "FAIL: expected rc=130 with 0 < stored < $POINTS" >&2
    echo "workdir kept: $WORK" >&2
    exit 1
fi

echo "== resumed run"
"$BENCH" --jobs 1 --journal "$WORK/store" --resume \
    --out "$WORK/resumed.json" \
    > "$WORK/resumed.stdout" 2> "$WORK/resumed.stderr"
grep '"kind": "supervisor"' "$WORK/resumed.stdout" || true

echo "== diff (straight vs resumed artifact)"
if ! cmp "$WORK/straight.json" "$WORK/resumed.json"; then
    echo "FAIL: resumed artifact differs from straight run" >&2
    diff -u "$WORK/straight.json" "$WORK/resumed.json" | head -40 >&2
    echo "workdir kept: $WORK" >&2
    exit 1
fi
echo "PASS: resumed artifact byte-identical ($WORK)"
