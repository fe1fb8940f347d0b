#!/usr/bin/env bash
# Retired names stay retired: checks each row of ci/retired.tsv (kind,
# pattern, paths, the number of the change that retired it, reason)
# against the tree this script sits in. By kind:
#   name     `grep -rnE PATTERN PATHS` finds nothing;
#   surface  `BIN ARGS...` (PATTERN; `{arch}` is a small archdef and `{db}`
#            an empty directory) exits non-zero with `usage: BIN` on stderr;
#   code     `pilint model models/lenet.json --allow CODE` exits non-zero
#            naming `unknown lint code CODE`.
# `#` lines are comments and `-` is no paths. A malformed or empty table
# fails before any check; then every failing row is named. Usage: ci/retired.sh
set -euo pipefail
cd "$(dirname "$0")/.."
table=ci/retired.tsv

awk -F'\t' '
    /^#/ { next }
    {
        if (NF != 5) why = "want 5 tab-separated columns, got " NF
        else if ($1 !~ /^(name|surface|code)$/) why = "unknown kind \"" $1 "\""
        else if ($2 !~ /[^ ]/) why = "empty pattern"
        else if ($1 == "name" && $3 !~ /[^ -]/) why = "a name row needs paths"
        else if ($4 !~ /^[0-9]+$/) why = "retiring change \"" $4 "\" is not a number"
        else if ($5 !~ /[^ ]/) why = "empty reason"
        else { rows++; next }
        print FILENAME ":" FNR ": " why
        status = 1
    }
    END { if (!rows) print FILENAME ": no rows"; exit status || !rows }' "$table" \
    || { echo "$table is malformed"; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf 'network smoke\ninput 1x16x16\nconv c kernel=3 out=4\nfc f out=8\n' > "$tmp/arch.txt"
mkdir "$tmp/db"
failed=0

# The rows of one kind, as `pattern<TAB>paths`.
rows() { awk -F'\t' -v kind="$1" '$1 == kind { print $2 "\t" $3 }' "$table"; }

# Fails the row unless `BIN ARGS...` ($2...) exits non-zero with $1 on stderr.
refuses() {
    local want="$1" err
    if err="$(cargo run --release --quiet --bin "$2" -- "${@:3}" 2>&1 >/dev/null </dev/null)"; then
        echo "retired, yet accepted: ${*:2}"; failed=1
    elif ! grep -qF -- "$want" <<<"$err"; then
        echo "'${*:2}' rejected without '$want': $err"; failed=1
    fi
}

while IFS=$'\t' read -r pattern paths; do
    found=0
    grep -rnE -- "$pattern" $paths || found=$?
    [ "$found" -eq 1 ] || { echo "retired name /$pattern/ under $paths (grep exit $found)"; failed=1; }
done < <(rows name)

while IFS=$'\t' read -r command _; do
    command="${command//\{arch\}/$tmp/arch.txt}"
    read -ra argv <<<"${command//\{db\}/$tmp/db}"
    refuses "usage: ${argv[0]}" "${argv[@]}"
done < <(rows surface)

while IFS=$'\t' read -r code _; do
    refuses "unknown lint code $code" pilint model models/lenet.json --allow "$code"
done < <(rows code)

[ "$failed" -eq 0 ] || { echo "a retired name in $table is back"; exit 1; }
echo "    $(grep -vc '^#' "$table") retired names, surfaces and lint codes stay retired"
