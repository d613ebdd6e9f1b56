# Sourced (from the repository root) by scripts/ci.sh and scripts/regen_all.sh.
#
# One probe decides how every cargo call of the sourcing script reaches the
# one third-party crate (`bytes`): if cargo resolves the workspace from what
# is already on this machine (registry cache, vendor directory), nothing is
# added; if not, every call runs `--offline` with the stand-in in
# scripts/offline/bytes patched over it. The probe itself never touches the
# network, so it answers "cached?", not "reachable?" — on a connected
# machine with an empty cache, run `cargo fetch` once to build against the
# real crate. Sets REGISTRY (what to print) and REGISTRY_FLAGS, and wraps
# `cargo`. (`${a[@]+"${a[@]}"}`: an empty array under `set -u` is an error
# before bash 4.4.)
REGISTRY_FLAGS=()
if command cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
  REGISTRY="cached"
else
  REGISTRY_FLAGS=(--offline --config "patch.crates-io.bytes.path=\"$PWD/scripts/offline/bytes\"")
  REGISTRY="not cached, bytes patched from scripts/offline/bytes"
fi
cargo() {
  local sub="$1"
  shift
  case "$sub" in
    fmt) command cargo fmt "$@" ;; # resolves nothing
    *) command cargo "$sub" ${REGISTRY_FLAGS[@]+"${REGISTRY_FLAGS[@]}"} "$@" ;;
  esac
}
