#!/usr/bin/env sh
# Non-test Rust lines per crate: code, comment and blank lines over
# crates/*/src/**/*.rs. A file is counted up to its first column-0
# `#[cfg(test)]`, the line that opens its test module; a line whose
# first non-blank characters are `//` is a comment.
#
# Usage: scripts/loc.sh [GIT_REV]
#
# With GIT_REV, each count is followed by its change since that
# revision. The revision is unpacked with `git archive` into a
# temporary directory; the worktree is never touched.
#
# Code budget: with GIT_REV, when ISSUE.md at the repo root holds a
# line `Code budget: ≤ +N` or `≤ -N` (or `<= +N` / `<= -N`), the script
# prints `code budget: ±X of <= ±N` and exits 1 if the workspace total
# of code lines changed by more than the signed budget since GIT_REV
# (with `-N`: shrank by fewer than N lines), printing the overrun.
set -eu
cd "$(dirname "$0")/.."

# Prints `crate code comment blank` per crate of the tree at $1.
count() {
    for dir in "$1"/crates/*/; do
        printf '%s ' "$(basename "$dir")"
        find "${dir}src" -name '*.rs' -exec awk '
            FNR == 1 { tests = 0 }
            /^#\[cfg\(test\)\]/ { tests = 1 }
            tests { next }
            /^[ \t]*$/ { blank++; next }
            /^[ \t]*\/\// { comment++; next }
            { code++ }
            END { print code + 0, comment + 0, blank + 0 }' {} +
    done
}

base=
budget=
if [ $# -gt 0 ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$1" crates | tar -xf - -C "$tmp"
    base=$tmp/counts
    count "$tmp" >"$base"
    if [ -f ISSUE.md ]; then
        budget=$(sed -nE 's/.*Code budget: *(≤|<=) *([+-][0-9]+).*/\2/p' ISSUE.md | head -n 1)
    fi
fi

count . | awk -v base="$base" -v budget="$budget" '
    BEGIN {
        while (base != "" && (getline line < base) > 0) {
            split(line, f, " ")
            old[f[1]] = f[2] " " f[3] " " f[4]
        }
        printf "%-12s %7s%s %8s%s %7s%s\n", "crate", "code", d("±"), "comment", d("±"), "blank", d("±")
    }
    function d(s) { return base == "" ? "" : sprintf(" %6s", s) }
    function row(name, c, m, b, oc, om, ob) {
        printf "%-12s %7d%s %8d%s %7d%s\n", name, c, d(sprintf("%+d", c - oc)),
            m, d(sprintf("%+d", m - om)), b, d(sprintf("%+d", b - ob))
    }
    {
        split(old[$1], o, " ")
        row($1, $2, $3, $4, o[1], o[2], o[3])
        for (i = 1; i <= 3; i++) { t[i] += $(i + 1); p[i] += o[i] }
    }
    END {
        row("total", t[1], t[2], t[3], p[1], p[2], p[3])
        if (budget == "") exit
        grown = t[1] - p[1]
        printf "code budget: %+d of <= %+d\n", grown, budget
        if (grown > budget + 0) {
            printf "code budget exceeded by %d lines\n", grown - budget
            exit 1
        }
    }'
