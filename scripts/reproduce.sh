#!/usr/bin/env bash
# Regenerates every table, figure, ablation and extension of the paper's
# evaluation into results/NAME.txt (see EXPERIMENTS.md for the shapes).
# With --check, regenerates into a temporary directory instead and exits
# non-zero, naming each stale file, if any differs from results/.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
    "") out=results ;;
    --check) out=$(mktemp -d) && trap 'rm -rf "$out"' EXIT ;;
    *) echo "usage: $0 [--check]" >&2 && exit 2 ;;
esac
cargo run --release -q -p ftdircmp-bench -- all --out "$out"
[ "$out" = results ] && exit 0
stale=0
for file in "$out"/*.txt; do
    committed=results/$(basename "$file")
    diff -u "$committed" "$file" || { echo "stale: $committed" >&2 && stale=1; }
done
exit "$stale"
