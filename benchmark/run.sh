#!/usr/bin/env bash
# One command for the end-to-end benchmark: build the harness from source,
# then run it. Every argument goes to the harness unchanged (see README.md):
#
#   benchmark/run.sh                         all workloads, untraced then traced
#   benchmark/run.sh --aa                    two full sets back to back, A/A table
#   benchmark/run.sh --workload churn --seed 7 --seconds 15 --trace 0
#
# Builds with cargo when the registry resolves, otherwise with raw rustc
# against the dependency stubs vendored in offline/stubs/. Build output goes
# to stderr and to ${CARGO_TARGET_DIR:-benchmark/target}; results go to
# stdout and benchmark/out/. Nothing outside the checkout is written.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
cd "$ROOT"

die() { echo "benchmark/run.sh: $*" >&2; exit 1; }

[[ -f Cargo.toml && -d crates ]] ||
    die "no crates/ beside benchmark/: the harness builds the load balancer from this checkout's source"

TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
[[ "$TARGET" = /* ]] || TARGET="$ROOT/$TARGET"
export CARGO_TARGET_DIR="$TARGET"
STAGE="$TARGET/hermes-e2e"
BIN="$STAGE/hermes-e2e"
mkdir -p "$STAGE" "$HERE/out"

# Rebuild only when a source file is newer than the staged binary.
stale() {
    [[ -x "$BIN" && -f "$STAGE/build_mode" ]] || return 0
    [[ -n "$(find Cargo.toml crates benchmark/Cargo.toml benchmark/src benchmark/offline \
        -type f -newer "$BIN" -print -quit)" ]]
}

build_cargo() {
    local flag
    for flag in --offline ""; do
        if cargo build --release $flag --manifest-path benchmark/Cargo.toml >&2; then
            cp "$TARGET/release/hermes-e2e" "$BIN"
            echo cargo >"$STAGE/build_mode"
            return 0
        fi
    done
    return 1
}

# --- raw-rustc fallback ------------------------------------------------------
# Same sources, same opt-level as cargo's release profile; third-party crates
# come from offline/stubs/, and each workspace crate's --extern list is read
# from its own Cargo.toml, so a manifest change needs no edit here.
R="$STAGE/rlibs"
EDITION="$(sed -n 's/^edition *= *"\(.*\)"/\1/p' Cargo.toml | head -n1)"
declare -A BUILT=()

rs() { rustc --edition "${EDITION:-2021}" --cap-lints allow "$@" >&2; }

lib_of() { echo "$R/lib${1//-/_}.rlib"; }

# Path of a workspace member, from the root manifest's [workspace.dependencies].
crate_dir() { sed -n "s/^$1 *= *{ *path *= *\"\([^\"]*\)\".*/\1/p" Cargo.toml | head -n1; }

# Names under [dependencies] in a manifest.
dep_names() {
    awk '/^\[dependencies\]/ {on = 1; next} /^\[/ {on = 0}
         on && /^[A-Za-z0-9_-]+/ {sub(/[ .=].*/, ""); print}' "$1"
}

build_stubs() {
    local st=benchmark/offline/stubs
    rs -O --crate-type proc-macro --crate-name serde_derive $st/serde_derive.rs --out-dir "$R"
    rs -O --crate-type lib --crate-name serde $st/serde.rs \
        --extern serde_derive="$R/libserde_derive.so" -o "$(lib_of serde)"
    rs -O --crate-type lib --crate-name serde_json $st/serde_json.rs \
        --extern serde="$(lib_of serde)" -L "$R" -o "$(lib_of serde_json)"
    local s
    for s in parking_lot crossbeam rand bytes; do
        rs -O --crate-type lib --crate-name $s $st/$s.rs -o "$(lib_of $s)"
    done
}

externs_for() { # manifest -> EXTERNS array, building each dependency first
    EXTERNS=()
    local d
    for d in $(dep_names "$1"); do
        build_crate "$d"
        EXTERNS+=(--extern "${d//-/_}=$(lib_of "$d")")
    done
}

build_crate() {
    local name=$1 dir
    [[ -z "${BUILT[$name]:-}" ]] || return 0
    BUILT[$name]=1
    dir="$(crate_dir "$name")"
    if [[ -z "$dir" ]]; then
        [[ -f "$(lib_of "$name")" ]] || die "no offline stub for third-party crate '$name'"
        return 0
    fi
    local EXTERNS
    externs_for "$dir/Cargo.toml"
    echo "   rustc $name" >&2
    rs -C opt-level=3 --crate-type lib --crate-name "${name//-/_}" "$dir/src/lib.rs" \
        "${EXTERNS[@]}" -L "$R" -o "$(lib_of "$name")"
}

build_rustc() {
    rm -rf "$R" && mkdir -p "$R"
    build_stubs
    local EXTERNS
    externs_for benchmark/Cargo.toml
    echo "   rustc hermes-e2e" >&2
    rs -C opt-level=3 --crate-type bin --crate-name hermes_e2e benchmark/src/main.rs \
        "${EXTERNS[@]}" -L "$R" -o "$BIN"
    echo rustc-stubs >"$STAGE/build_mode"
}

if stale; then
    echo "building the harness into $TARGET" >&2
    rm -f "$BIN" "$STAGE/build_mode"
    if ! build_cargo 2>"$STAGE/cargo.log"; then
        echo "cargo could not build (see $STAGE/cargo.log); falling back to rustc + stubs" >&2
        build_rustc
    fi
fi

HERMES_E2E_BUILD_MODE="$(cat "$STAGE/build_mode")"
HERMES_E2E_RUSTC="$(rustc -V)"
HERMES_E2E_COMMIT="$(git -C "$ROOT" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
HERMES_E2E_OUT="$HERE/out"
export HERMES_E2E_BUILD_MODE HERMES_E2E_RUSTC HERMES_E2E_COMMIT HERMES_E2E_OUT
exec "$BIN" "$@"
