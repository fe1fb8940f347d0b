#!/usr/bin/env bash
# Product line count: the number ROADMAP.md and CHANGES.md quote. Every
# `*.rs` under crates/ + src/ + vendor/ that is not in a `tests/`
# directory, cut at the file's first `#[cfg(test)]`, minus blank lines and
# `//` comment lines (doc comments included).
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src vendor -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { total++ }
        END { print total }'
