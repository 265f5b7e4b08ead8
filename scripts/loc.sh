#!/usr/bin/env bash
# Non-test line counts of the Rust sources.
#
# For every file under crates/*/src and src (test-only files *_tests.rs
# and testharness.rs left out) it counts the non-blank lines before the
# file's test module: the first `#[cfg(test)]` whose next non-blank line
# opens a module body (`mod tests {`) or names a module file
# (`#[path = "..."]`). A `#[cfg(test)]` on a field, a method, an import or
# a `mod name;` declaration does not end the count. Comment lines count.
#
# Prints "<count> <file>" per file, sorted by path, then "<total> total".
#
# Usage: scripts/loc.sh [REPO_ROOT]
#   REPO_ROOT defaults to the repository holding this script; pass another
#   checkout to compare two trees.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

find crates/*/src src -name '*.rs' ! -name '*_tests.rs' ! -name testharness.rs |
    LC_ALL=C sort |
    while read -r file; do
        awk -v file="$file" '
            /^[[:space:]]*$/ { next }
            pending {
                if ($0 ~ /^[[:space:]]*#\[path/ ||
                    $0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_0-9]+[[:space:]]*\{/) {
                    stopped = 1
                    exit
                }
                pending = 0
                n++
            }
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
            { n++ }
            END { if (pending && !stopped) n++; printf "%d %s\n", n, file }
        ' "$file"
    done |
    awk '{ print; total += $1 } END { printf "%d total\n", total }'
