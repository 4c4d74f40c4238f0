#!/usr/bin/env sh
# Non-test Rust lines per crate: code, comment and blank lines over
# crates/*/src/**/*.rs. A file is counted up to its first column-0
# `#[cfg(test)]`, the line that opens its test module; a line whose
# first non-blank characters are `//` is a comment.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: the repo this script is in)
set -eu
cd "${1:-$(dirname "$0")/..}"
for dir in crates/*/; do
    printf '%s ' "$(basename "$dir")"
    find "${dir}src" -name '*.rs' -exec awk '
        FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        tests { next }
        /^[ \t]*$/ { blank++; next }
        /^[ \t]*\/\// { comment++; next }
        { code++ }
        END { print code + 0, comment + 0, blank + 0 }' {} +
done | awk '
    BEGIN { printf "%-12s %7s %8s %7s\n", "crate", "code", "comment", "blank" }
    { printf "%-12s %7d %8d %7d\n", $1, $2, $3, $4; c += $2; m += $3; b += $4 }
    END { printf "%-12s %7d %8d %7d\n", "total", c, m, b }'
