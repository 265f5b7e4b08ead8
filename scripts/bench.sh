#!/usr/bin/env bash
# Simulator performance benchmarks:
#   1. criterion microbenches (events/sec of the engine itself);
#   2. a fixed fig3 campaign: classic sequential reference (--jobs 1),
#      checkpoint-fork sequential, and checkpoint-fork parallel, emitting
#      results/BENCH_campaign.json with wall time and throughput;
#   3. a correlated-fault campaign (link flaps + region bursts, the
#      fault_domains bin) emitting results/BENCH_faults.json;
#   4. the repo benchmark's daemon workload (BENCHMARK.json command,
#      serve-small-jobs, 5 s): one-unit jobs per second through
#      ftdircmp-serve;
#   5. trajectory datapoints (fig3, fault-domain and daemon) appended to
#      results/BENCH_trajectory.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${SEEDS:-3}"
# Default to all CPUs, but at least 2 so the threaded path is exercised
# even on a single-core host (expect the >=2x speedup on >=4 cores).
cpus=$(nproc 2>/dev/null || echo 4)
JOBS="${JOBS:-$(( cpus > 2 ? cpus : 2 ))}"
mkdir -p results

# Seconds since the epoch, sub-second where the shell provides it.
# `date +%s.%N` is GNU-only (BSD date prints a literal "N"); bash 5's
# $EPOCHREALTIME is portable across platforms, with whole seconds as the
# fallback. Some locales render EPOCHREALTIME with a decimal comma.
now_s() {
    if [ -n "${EPOCHREALTIME:-}" ]; then
        echo "${EPOCHREALTIME/,/.}"
    else
        date +%s
    fi
}

echo "== criterion: simulator microbenches =="
cargo bench -q -p ftdircmp-bench --bench simulator

echo
echo "== fig3 campaign, classic sequential reference (--jobs 1, seeds=$SEEDS) =="
cargo build --release -q -p ftdircmp-bench --bin fig3_execution_time
cargo build --release -q -p ftdircmp-serve --bin ftdircmp-serve
t0=$(now_s)
./target/release/fig3_execution_time --seeds "$SEEDS" --jobs 1 \
    --bench-json results/BENCH_campaign_seq.json > results/fig3_seq.txt
t1=$(now_s)
seq_wall=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b - a}')
echo "classic sequential wall: ${seq_wall}s"

echo
echo "== fig3 campaign, checkpoint-fork sequential (--jobs 1) =="
./target/release/fig3_execution_time --seeds "$SEEDS" --jobs 1 --warmup-checkpoint \
    --bench-json results/BENCH_campaign_ckpt_seq.json > results/fig3_ckpt_seq.txt
echo
echo "== fig3 campaign, checkpoint-fork parallel (--jobs $JOBS) =="
t0=$(now_s)
./target/release/fig3_execution_time --seeds "$SEEDS" --jobs "$JOBS" --warmup-checkpoint \
    --bench-json results/BENCH_campaign.json > results/fig3_par.txt
t1=$(now_s)
par_wall=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b - a}')
echo "checkpoint-fork parallel wall: ${par_wall}s"

# Byte-compare checkpoint-fork output across --jobs, ignoring only the line
# that names the (deliberately different) json destination. Checkpoint mode
# gates faults behind the shared warmup, so it is compared against its own
# sequential reference, not the classic run (DESIGN.md §8).
if ! cmp -s <(grep -v '^(wrote ' results/fig3_ckpt_seq.txt) \
            <(grep -v '^(wrote ' results/fig3_par.txt); then
    echo "ERROR: checkpoint-fork parallel output differs from its sequential reference" >&2
    diff results/fig3_ckpt_seq.txt results/fig3_par.txt >&2 || true
    exit 1
fi
echo "checkpoint-fork parallel output is byte-identical to sequential."

speedup=$(awk -v s="$seq_wall" -v p="$par_wall" 'BEGIN{printf "%.2f", s / p}')
echo
echo "campaign speedup over classic sequential at $JOBS jobs: ${speedup}x"
echo "throughput summary (checkpoint-fork parallel run):"
cat results/BENCH_campaign.json

echo
echo "== correlated-fault campaign (flap durations x burst radii, --jobs $JOBS) =="
cargo build --release -q -p ftdircmp-bench --bin fault_domains
./target/release/fault_domains --seeds "$SEEDS" --jobs "$JOBS" \
    --bench-json results/BENCH_faults.json > results/fault_domains.txt
echo "throughput summary (correlated-fault run):"
cat results/BENCH_faults.json

echo
echo "== daemon: one-unit jobs through ftdircmp-serve (repo benchmark, serve-small-jobs, 5 s) =="
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload serve-small-jobs --seed 0 --seconds 5 --trace 0 > results/BENCH_serve.txt
grep '^metric ' results/BENCH_serve.txt

# Append trajectory datapoints (one per campaign cell) so perf over time is
# greppable from the repo. Each line is validated as JSON first (an empty
# sed extraction would otherwise poison the file), and the append goes
# through a tmp file + mv so a crash mid-write can never leave a torn
# trailing line.
git_sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
date_iso=$(date -u +%Y-%m-%dT%H:%M:%SZ)
traj_line() { # $1 = campaign label, $2 = bench json file
    local eps cps
    eps=$(sed -n 's/.*"events_per_second": \([0-9]*\).*/\1/p' "$2")
    cps=$(sed -n 's/.*"simulated_cycles_per_second": \([0-9]*\).*/\1/p' "$2")
    printf '{"git_sha": "%s", "date": "%s", "campaign": "%s", "jobs": %s, "events_per_second": %s, "cycles_per_second": %s}' \
        "$git_sha" "$date_iso" "$1" "$JOBS" "$eps" "$cps"
}
serve_line() { # $1 = output of the benchmark's serve-small-jobs run
    local ups wall
    ups=$(awk '$1 == "metric" && $2 == "units_per_s" {print $3}' "$1")
    wall=$(awk '$1 == "metric" && $2 == "wall_s" {print $3}' "$1")
    printf '{"git_sha": "%s", "date": "%s", "campaign": "serve_small_jobs", "units_per_second": %s, "wall_s": %s}' \
        "$git_sha" "$date_iso" "$ups" "$wall"
}
traj=results/BENCH_trajectory.jsonl
tmp=$(mktemp results/.BENCH_trajectory.XXXXXX)
if [ -f "$traj" ]; then cat "$traj" > "$tmp"; fi
for line in "$(traj_line fig3 results/BENCH_campaign.json)" \
            "$(traj_line fault_domains results/BENCH_faults.json)" \
            "$(serve_line results/BENCH_serve.txt)"; do
    if ! printf '%s\n' "$line" | ./target/release/ftdircmp-serve json-check; then
        echo "ERROR: refusing to append malformed trajectory line: $line" >&2
        rm -f "$tmp"
        exit 1
    fi
    printf '%s\n' "$line" >> "$tmp"
done
mv "$tmp" "$traj"
echo "appended fig3, fault_domains and serve_small_jobs datapoints to results/BENCH_trajectory.jsonl"
