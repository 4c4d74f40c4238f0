#!/usr/bin/env sh
# Every `unsafe` block, `unsafe impl` and `unsafe fn` under
# crates/*/src, as file:line, and the count per file.
#
# Usage: scripts/unsafe.sh [GIT_REV]
#
# Fails when a site lacks its justification: an `unsafe` block or
# `unsafe impl` needs a `// SAFETY:` comment in the comment block
# directly above its line, an `unsafe fn` a `# Safety` section in its
# doc comment (attributes may sit between). With GIT_REV, each file's
# count is followed by its change since that revision, unpacked with
# `git archive` into a temporary directory; the worktree is never
# touched.
set -eu
cd "$(dirname "$0")/.."

# Prints `file:line:ok|missing` per site of the tree at $1, paths
# relative to it.
sites() {
    (cd "$1" && find crates/*/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { safety = 0; doc = 0 }
        /^[ \t]*\/\/\// { if ($0 ~ /# Safety/) doc = 1; next }
        /^[ \t]*\/\// { if ($0 ~ /SAFETY:/) safety = 1; next }
        /^[ \t]*#\[/ { next }
        /(^|[^[:alnum:]_])unsafe[ \t]*(\{|impl[^[:alnum:]_]|fn[^[:alnum:]_])/ {
            ok = ($0 ~ /unsafe[ \t]*fn/) ? doc : safety
            printf "%s:%d:%s\n", FILENAME, FNR, ok ? "ok" : "missing"
        }
        { safety = 0; doc = 0 }')
}

# Prints `file count` per file with a site.
per_file() {
    cut -d: -f1 | sort | uniq -c | awk '{ print $2, $1 }'
}

now=$(mktemp)
tmp=
trap 'rm -rf "$now" ${tmp:+"$tmp"}' EXIT
sites . >"$now"

base=
if [ $# -gt 0 ]; then
    tmp=$(mktemp -d)
    git archive "$1" crates | tar -xf - -C "$tmp"
    base=$tmp/counts
    sites "$tmp" | per_file >"$base"
fi

awk -F: '{ print $1 ":" $2 ($3 == "ok" ? "" : "  <- no SAFETY comment / # Safety doc") }' "$now"
echo
per_file <"$now" | awk -v base="$base" '
    BEGIN {
        while (base != "" && (getline line < base) > 0) {
            split(line, f, " ")
            old[f[1]] = f[2]
        }
        printf "%-36s %5s%s\n", "file", "sites", base == "" ? "" : sprintf(" %6s", "±")
    }
    function row(name, n, o) {
        printf "%-36s %5d%s\n", name, n, base == "" ? "" : sprintf(" %+6d", n - o)
    }
    {
        row($1, $2, old[$1]); seen[$1] = 1; total += $2; oldtotal += old[$1]
    }
    END {
        for (name in old) if (!seen[name]) { row(name, 0, old[name]); oldtotal += old[name] }
        row("total", total, oldtotal)
    }'

if grep -q ':missing$' "$now"; then
    echo "unsafe sites without a SAFETY comment (or # Safety doc):" >&2
    grep ':missing$' "$now" >&2
    exit 1
fi
