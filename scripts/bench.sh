#!/usr/bin/env bash
# Performance record: runs the repo benchmark (the BENCHMARK.json command)
# once per workload, untraced, seed 0, 5 s each, and appends one line per
# workload to results/BENCH_trajectory.jsonl from that run's `metric` lines.
#
# The benchmark itself is the harness (benchmark/README.md explains the
# workloads, the reference-speed seconds and the bounds); this script only
# keeps a dated record of its readings.
set -euo pipefail
cd "$(dirname "$0")/.."

# The workload names, in BENCHMARK.json order.
workloads=$(awk '/"workloads"/ { on = 1 }
                 on && /"name"/ { gsub(/[",]/, "", $2); print $2 }
                 on && /^  \]/ { exit }' BENCHMARK.json)

sha=$(git describe --always --dirty 2>/dev/null || echo unknown)
date_iso=$(date -u +%Y-%m-%dT%H:%M:%SZ)
cores=$(nproc 2>/dev/null || echo 1)

cargo build --release -q -p ftdircmp-serve --bin ftdircmp-serve
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
traj=results/BENCH_trajectory.jsonl
tmp=$(mktemp results/.BENCH_trajectory.XXXXXX)
if [ -f "$traj" ]; then cat "$traj" > "$tmp"; fi

for w in $workloads; do
    echo "== $w (seed 0, 5 s) =="
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 0 --seconds 5 --trace 0 > "$out/$w.txt"
    grep -E '^(metric|sim_fingerprint|failed_share) ' "$out/$w.txt"
    metrics=$(awk '$1 == "metric" { printf "%s\"%s\": %s", sep, $2, $3; sep = ", " }' "$out/$w.txt")
    fingerprint=$(awk '$1 == "sim_fingerprint" { print $2 }' "$out/$w.txt")
    line=$(printf '{"git_sha": "%s", "date": "%s", "cores": %s, "workload": "%s", "seed": 0, "seconds": 5, "sim_fingerprint": "%s", "metrics": {%s}}' \
        "$sha" "$date_iso" "$cores" "$w" "$fingerprint" "$metrics")
    # An empty extraction would otherwise poison the file.
    if ! printf '%s\n' "$line" | ./target/release/ftdircmp-serve json-check; then
        echo "ERROR: refusing to append malformed trajectory line: $line" >&2
        rm -f "$tmp"
        exit 1
    fi
    printf '%s\n' "$line" >> "$tmp"
done
# tmp + mv: a crash mid-run never leaves a torn trailing line.
mv "$tmp" "$traj"
echo "appended $(echo "$workloads" | wc -w) lines to $traj"
