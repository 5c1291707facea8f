#!/usr/bin/env bash
# Non-test line count, the number every simplicity PR quotes: for each
# *.rs file under the given directories, the lines before the first
# column-0 `#[cfg(test)]` (the whole file when there is none), per file
# and in total.
#
# Usage:
#   scripts/lines.sh                     # crates/core/src
#   scripts/lines.sh crates/sim/src crates/core/src/paxos
set -euo pipefail
cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- crates/core/src
find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    function flush() { if (file != "") printf "%6d %s\n", n, file }
    FNR == 1 { flush(); file = FILENAME; n = 0; skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++; total++ }
    END { flush(); printf "%6d total\n", total }'
