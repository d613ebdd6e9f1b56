#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every .rs file, the lines above its
# first `#[cfg(test)]` / `#[cfg(all(test…` line (the whole file when it has
# none), and none of a file its parent declares `#[cfg(test)] mod x;`.
# Blank lines and comments count — deleting them is not a reduction.
#
#   scripts/loc.sh                 one row per crates/*/src, plus the root src/
#   scripts/loc.sh --json          the same as one JSON object, for diffing
#   scripts/loc.sh PATH...         one row per given directory or file instead
set -euo pipefail
cd "$(dirname "$0")/.."

json=0
paths=()
for a in "$@"; do
  case "$a" in
    --json) json=1 ;;
    *) paths+=("$a") ;;
  esac
done
if [ ${#paths[@]} -eq 0 ]; then
  paths=(crates/*/src src)
fi

# Files their parent declares as `#[cfg(test)] mod x;` (or `x/mod.rs`): test
# code from the first line.
test_files() {
  find "$1" -type f -name '*.rs' | sort | xargs -r awk '
    FNR == 1 {
      dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
      stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
      if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
      gated = 0
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1 }
    gated && /^[[:space:]]*(#\[cfg\(test\)\][[:space:]]*)?(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/ {
      name = $0; sub(/[[:space:]]*;.*$/, "", name); sub(/^.*mod[[:space:]]+/, "", name)
      print dir "/" name ".rs"; print dir "/" name "/mod.rs"
    }
    !/^[[:space:]]*#\[/ { gated = 0 }'
}

count() { # lines above the first test-module marker, summed over .rs files
  find "$1" -type f -name '*.rs' | sort | { grep -vxF -f <(test_files "$1") || true; } |
    xargs -r awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\((test\)|all\(test)/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
rows=()
for p in "${paths[@]}"; do
  [ -e "$p" ] || { echo "loc.sh: no such path: $p" >&2; exit 1; }
  n="$(count "$p")"
  total=$((total + n))
  rows+=("$n"$'\t'"$p")
done

if [ "$json" -eq 1 ]; then
  printf '{\n'
  for r in "${rows[@]}"; do
    printf '  "%s": %s,\n' "${r#*$'\t'}" "${r%%$'\t'*}"
  done
  printf '  "total": %s\n}\n' "$total"
else
  printf '%8s  %s\n' "non-test" "path"
  for r in "${rows[@]}"; do
    printf '%8s  %s\n' "${r%%$'\t'*}" "${r#*$'\t'}"
  done
  printf '%8s  %s\n' "$total" "total"
fi
