#!/usr/bin/env bash
# Non-test Rust lines, by the rule every line count in ROADMAP.md and
# CHANGES.md uses: each line of each `.rs` file under `crates/*/src` and
# under any `examples/` directory, down to (not including) the
# `#[cfg(test)]` that opens the file's trailing `mod tests`. Blank lines and
# comments count; a file with no such module counts whole.
#
#   scripts/loc.sh            # one line per directory, then the total
#   scripts/loc.sh FILE...    # those files only, one line each
set -euo pipefail
cd "$(dirname "$0")/.."

# "<lines> <file>" for each file named
nontest() {
  awk 'FNR == 1 && NR > 1 { print (cut ? cut : n), name }
       FNR == 1 { name = FILENAME; n = 0; cut = 0; prev = "" }
       { n++; if (prev ~ /^#\[cfg\(test\)\]/ && $0 ~ /^mod tests/) cut = n - 2; prev = $0 }
       END { if (NR) print (cut ? cut : n), name }' "$@"
}

if [ $# -gt 0 ]; then
  nontest "$@"
  exit 0
fi

total=0
for dir in crates/*/src crates/*/examples examples; do
  [ -d "$dir" ] || continue
  mapfile -t files < <(find "$dir" -name '*.rs' | sort)
  [ ${#files[@]} -gt 0 ] || continue
  lines=$(nontest "${files[@]}" | awk '{ s += $1 } END { print s }')
  printf '%6d  %s\n' "$lines" "$dir"
  total=$((total + lines))
done
printf '%6d  total\n' "$total"
