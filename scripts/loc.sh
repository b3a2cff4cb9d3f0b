#!/usr/bin/env bash
# Prints, per crate, the two size numbers ROADMAP item 3 asks every PR to
# track: non-test Rust code lines and `pub` item count.
#
#   code lines = lines of every .rs file above its first `#[cfg(test)]`,
#                blank and comment-only lines skipped, `tests/` directories
#                excluded (benches, bins and examples count);
#   pub items  = `pub fn|struct|enum|trait|type|const|static|mod|use` lines in
#                that same region (`pub(crate)` and pub fields do not count).
#
# Usage: scripts/loc.sh [repo-root]        (bash + awk only; prints a table)
set -euo pipefail
shopt -s globstar nullglob

cd "${1:-$(dirname "$0")/..}"

count() { # count <label> <dir>... -> "label code_lines pub_items"
    local label="$1" files=() dir file
    shift
    for dir in "$@"; do
        for file in "$dir"/**/*.rs; do
            [[ "$file" == */tests/* || "$file" == */target/* ]] || files+=("$file")
        done
    done
    awk -v label="$label" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { lines++ }
        /^[[:space:]]*pub[[:space:]]+(unsafe[[:space:]]+|async[[:space:]]+)?(fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { pubs++ }
        END { printf "%s %d %d\n", label, lines, pubs }
    ' "${files[@]}" /dev/null
}

{
    count "selfheal(root)" src examples
    for dir in crates/* crates/shims/*; do
        [ -f "$dir/Cargo.toml" ] && count "$dir" "$dir"
    done
} | awk '
    BEGIN { printf "%-24s %10s %10s\n", "crate", "code_lines", "pub_items" }
    { printf "%-24s %10d %10d\n", $1, $2, $3; lines += $2; pubs += $3 }
    END { printf "%-24s %10d %10d\n", "workspace", lines, pubs }
'
