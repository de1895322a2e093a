#!/usr/bin/env bash
# Determinism self-check of the benchmark at smoke size: for each workload,
# two invocations with the same seed must print the same determinism record
# (verdict digest, witness digest and the registry counters of the
# verification pass), and each must finish correct.
#
# Run from the repository root:  bash verdictbench/selfcheck.sh [seed]
set -euo pipefail

seed="${1:-7}"
run() {
    cargo run --release --quiet --offline --manifest-path verdictbench/Cargo.toml -- \
        --workload "$1" --seed "$seed" --seconds 1 --trace 1
}

status=0
for workload in fig1_audit generated_planning monitor_stream; do
    first="$(run "$workload")"
    second="$(run "$workload")"
    for output in "$first" "$second"; do
        if ! tail -n 1 <<<"$output" | grep -q '"correct":true'; then
            echo "$workload: run was not correct" >&2
            status=1
        fi
    done
    if [ "$(grep '"determinism"' <<<"$first")" = "$(grep '"determinism"' <<<"$second")" ]; then
        echo "$workload: deterministic"
    else
        echo "$workload: determinism records differ" >&2
        diff <(grep '"determinism"' <<<"$first") <(grep '"determinism"' <<<"$second") >&2 || true
        status=1
    fi
done
exit "$status"
