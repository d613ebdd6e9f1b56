#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, tests.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every lane is opened with `step`; a lane that cannot run on this host says
# `skip` instead of passing silently. The table printed on exit lists each
# lane as ran, SKIP (with the reason) or FAILED, so a green run shows what it
# did not check.
LANES=()
lane=""
lane_status=""
close_lane() {
  [ -z "$lane" ] || LANES+=("$lane_status"$'\t'"$lane")
  lane=""
}
step() {
  close_lane
  lane="$1"
  lane_status="ran"
  echo "==> $1"
}
skip() {
  lane_status="SKIP"
  lane="$lane: $1"
  echo "SKIP: $1"
}
# A gate lane: `gate <cargo run arguments naming one hermes-bench gate binary>`
# runs it with --smoke (which never writes). Each gate compares two things the
# binary measures itself, in alternation; none reads a file, and none is
# retried. A gate that FAILED is recorded and the lanes after it still run;
# the script exits non-zero after the summary. A check the binary could not
# make on this host (its table says SKIP) becomes a SKIP row of its own.
FAILED_GATES=0
gate() {
  local log row name="$lane"
  log="$(mktemp)"
  if ! cargo run --release -q -p hermes-bench "$@" -- --smoke 2>&1 | tee "$log"; then
    lane_status="FAILED"
    FAILED_GATES=$((FAILED_GATES + 1))
  fi
  close_lane
  while IFS= read -r row; do
    LANES+=("SKIP"$'\t'"$name: $(echo "$row" | sed -E 's/^  SKIP +//; s/  +/: /')")
  done < <(grep -E '^  SKIP ' "$log" || true)
  rm -f "$log"
}
# Steering tests: `steering <cargo test arguments>` runs tests that need
# bpf(2). Each prints `SKIP: bpf(2) refused (<errno>)` and returns where the
# kernel refuses it; those are not passes, so they become one SKIP row of the
# open lane, with the count and the reason.
steering() {
  local log name="$lane" n
  log="$(mktemp)"
  cargo test --release -q "$@" -- --nocapture 2>&1 | tee "$log"
  # (Not anchored: under -q a progress dot can precede the line.)
  n="$(grep -c 'SKIP: bpf(2) refused' "$log" || true)"
  if [ "$n" -gt 0 ]; then
    LANES+=("SKIP"$'\t'"${name%% (*}: $n steering test(s): $(grep -m1 -o 'bpf(2) refused.*' "$log")")
  fi
  rm -f "$log"
}
summary() {
  [ "$1" -eq 0 ] || lane_status="FAILED"
  close_lane
  printf '\n%-7s %s\n' "status" "lane"
  local l
  for l in "${LANES[@]}"; do
    printf '%-7s %s\n' "${l%%$'\t'*}" "${l#*$'\t'}"
  done
  # Non-test lines per crate, so the LOC figures CHANGES.md quotes can be
  # reproduced from any CI log.
  echo
  scripts/loc.sh || true
}
trap 'summary $?' EXIT

# One probe decides how every `cargo <subcommand> ...` below reaches the one
# third-party crate; see scripts/registry.sh.
. scripts/registry.sh
step "registry: $REGISTRY"

step "kernel dispatch: probing"
# Which mode the load balancers will run in on this host: `ebpf` when the
# kernel loads and attaches the dispatch program, `hash-only (<reason>)` when
# it refuses bpf(2) (no CAP_BPF + CAP_NET_ADMIN, no CONFIG_BPF_SYSCALL). The
# steering tests in the relay-reactor lane run either way and report SKIPs.
# (A host that has bpf(2) and turns the program down is neither: the probe
# panics, this row reads "probe did not run", and the steering lane fails.)
mode="$(cargo test -q -p hermes-ebpf --test kernel_verifier probe_prints_the_dispatch_mode -- --nocapture 2>/dev/null |
  sed -n 's/^kernel dispatch: //p' | head -n1 || true)"
lane="kernel dispatch: ${mode:-probe did not run}"
echo "$lane"

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --workspace --release

step "cargo build --release --features trace (flight recorder compiled in)"
# The trace feature must never rot: both feature states build release.
cargo build --workspace --release --features trace

step "cargo test"
cargo test --workspace -q

step "bench targets run (every benches/*.rs body once)"
# The five `harness = false` bench mains time nothing unless started by
# `cargo bench`; started this way each of their bodies runs once, so a
# bench that panics fails CI.
cargo test --release -q -p hermes-bench --benches

step "ebpf soundness (analyzer soundness; checked interpreter vs native oracle)"
# What is left to trust in userspace: a program `analyze` accepts never
# traps on the checked interpreter, whatever the maps hold, and batched
# runs equal single ones; the two shipped programs, run by that
# interpreter, decide as core's native oracles do — flat against
# ConnDispatcher at group sizes 1, 2, 3, 17 and 64 with the degenerate
# bitmaps, grouped against GroupedConnDispatcher over swept shapes and
# bitmaps, single-shot and batched; and under full bitmaps both grouped
# planes give every worker of every group its even share (level 2 scales
# the bits level 1 did not use). (The kernel's execution of the same program
# is checked against this interpreter in the relay-reactor lane's steering
# tests.)
cargo test --release -q -p hermes-ebpf --test soundness

step "dispatch-plane counters (each SYN counted once, no redirect counted)"
# A Hermes run with degradation on, flat and two-group, must end with
# dispatch.directed + dispatch.fallback == sim.syns == the Fig. 14 split:
# the counters are tallied in one place (HermesState::tally), which
# degradation re-homing bypasses. Needs the recorder compiled in.
cargo test --release -q -p hermes-simnet --features trace --test dispatch_counters

step "scheduler kernel (differential vs literal Algorithm 1, zero allocations)"
# One scheduler read path, two proofs here: the mask kernel agrees with a
# per-id f64 Algorithm 1 on every table shape and stage order; a counting
# global allocator sees no allocation across 10 000 loop-resident passes
# (schedule, schedule_group, schedule_and_sync). The third — whole simulator
# runs reproduce the decision sums recorded before the kernel was fused — is
# golden_fingerprint, which runs once per feature state: in "cargo test"
# above and with the recorder compiled in below.
cargo test --release -q -p hermes-core --test sched_differential
cargo test --release -q -p hermes-core --test no_alloc
cargo test --release -q -p hermes-core --features trace --test no_alloc

step "event merge (pop_before model, scripted/live tie-break; both feature states; golden fingerprints with trace)"
# Scripted arrivals are streamed from the sorted workload and merged with
# the live event queue. Three proofs that the merge is the order one queue
# gave: both engines' `pop_before` against a sorted-Vec model (with the
# clock-clamp and strict-limit traps as named schedules); the tie-break
# rule, the sealed-workload panics and the live-only queue population on
# the simulator itself; and whole runs of every shape (Case 1 and Case 3
# traffic, faults, probes, two groups, reuseport and exclusive) against
# constants recorded before the change — with the recorder compiled in
# here; "cargo test" above ran them without it.
cargo test --release -q -p hermes-simnet --lib event_queue
cargo test --release -q -p hermes-simnet --lib sim::tests
cargo test --release -q -p hermes-simnet --features trace --lib event_queue
cargo test --release -q -p hermes-simnet --features trace --lib sim::tests
cargo test --release -q -p hermes-simnet --features trace --test golden_fingerprint

step "simnet_throughput --smoke (event-engine and per-loop Hermes tax gates)"
# Gates, each the median of 16 alternating rounds: Case 1 heavy under Hermes
# costs <= 2.3x its wall time under reuseport (the per-loop tax: WST hooks,
# Algorithm 1, bitmap sync, Algorithm 2; ~1.9x today, 2.65x before the fused
# scheduler kernel); the timer wheel costs <= 1.0x the binary heap's wall time
# on Case 3 medium (~0.9x today); both engines process the same number of
# events and hold the same peak pending count.
gate --bin simnet_throughput

step "fleet-determinism (merge-order independence of the device pool)"
# The fleet parallelism safety argument: the same seed at threads ∈
# {1, 2, 8} yields byte-identical cluster reports for every dispatch
# mode, mixed-mode clusters, fault schedules, pool-side workload
# generation, and oversubscribed pools. Device count, not thread count,
# determines the output bytes.
cargo test --release -q -p hermes-simnet --test fleet_determinism

step "fleet_throughput --smoke (fleet determinism, memory and pool gates)"
# Gates over 24 devices run serially and through the pool at 4 threads, 6
# alternating rounds: every pass produces the same fleet fingerprint
# (determinism re-checked at bench scale); no device's connection-table arena
# exceeds 8 MiB; the pool delivers >= 0.8x the serial loop's events/sec (a
# floor a host of any size can show). The >= 2x scaling check at 4 threads
# needs >= 4 cores and is a SKIP row below on a smaller host. The >= 1 M
# live-connection floor belongs to the full 363-device run.
gate --bin fleet_throughput

step "backend-churn consistency (versioned tables under drain + flap)"
# The backend data plane's acceptance property, on the crate that owns
# `resolve` and on the relay that ships. hermes-backend: 12k admissions ride
# out a rolling drain plus a backend flap on a scripted clock with zero
# misroutes (no resolve leaves a still-serving pinned backend) and zero
# expired versions; a steady pool, a drain-everything script and one backend
# `Slow` displace nothing. RelayLb on sockets: the same script compressed
# under >= 2 000 short connections from four clients — every one greeted and
# echoed, none greeted by a backend that was out when it connected, no failed
# connect, and the relays held open across the script keep their peer.
cargo test --release -q -p hermes-backend --test churn
cargo test --release -q -p hermes-lb --lib rolling_drain_and_flap_under_connection_churn_misroute_nothing

step "relay-reactor (epoll reactor + splice data plane suite, both feature states)"
# The relay engine: the raw-syscall reactor module (epoll/eventfd/pipe/
# splice contracts, accept4 and the nonblocking connect in both address
# families), half-close in all three orders, slow-reader backpressure
# through bounded pipes and — pinned to the copy path — through the
# scratch buffer alone, splice demotion byte recovery, the size-adaptive
# store (bulk moves to splice after its first scratch-full, a 64 B echo
# never touches a pipe), the per-wakeup I/O budget (<= 3 calls per
# direction-move, none on a direction the kernel did not name), the
# event-driven connect (a never-answering candidate stalls neither its
# worker's established relays nor the retry), the WST row showing
# readiness events while they are pending, the idle-CPU property (zero
# pump passes across an idle second), and the late-table-version
# per_backend clamp, the nine socket calls a connection costs beyond its
# pumps, and a listener's backlog served (not reset) at shutdown. The suite
# is Linux-only by cfg, not by self-skip. Both filters run with trace on
# too so the RelayWakeup/SpliceBytes/AcceptBurst instrumentation never rots
# in either feature state. Then the accept path's own tests, in whichever
# dispatch mode the host offers (first row of this table): the kernel's
# verifier against `analyze` and the shipped program at every group size;
# kernel placements against the DispatchPlane oracle on the hashes the
# program recorded, the kernel's run count against the program's own two
# counters, a 4-worker LB steering 64 connections around a worker a
# trickling client holds, and the hash-only mode under a thread that dropped
# its capabilities; 50 start/shutdown cycles leaving no fd and no mapping,
# and fd exhaustion neither spinning a worker nor stalling its relays.
cargo test --release -q -p hermes-lb reactor
cargo test --release -q -p hermes-lb relay
cargo test --release -q -p hermes-lb --features trace reactor
cargo test --release -q -p hermes-lb --features trace relay
steering -p hermes-ebpf --test kernel_verifier
steering -p hermes-lb --test kernel_dispatch
steering -p hermes-lb --test fds

step "table5 (Table 5 on RelayLb: the attached program's run_time_ns, zero failed connections)"
# The paper's Table 5 where the paper takes it: three paced loads through a
# 4-worker RelayLb, the Dispatcher column from the kernel's own counters
# under BPF_ENABLE_STATS (held by this binary alone, while it runs). Exits 1
# on a failed connection, or when the program is attached and its run count
# is not the LB's directed + fallback; where bpf(2) is refused the column
# reads `n/a (hash-only: <errno>)`, which is a SKIP row, and the run passes.
log="$(mktemp)"
cargo run --release -q -p hermes-bench --bin table5 2>&1 | tee "$log"
if grep -q 'n/a (hash-only' "$log"; then
  LANES+=("SKIP"$'\t'"table5: Dispatcher column: $(grep -m1 -o 'n/a (hash-only.*))' "$log")")
fi
rm -f "$log"

step "trace determinism (simulation byte-identical with recorder on/off)"
# Tracing is an observer, never an actor: the simnet report must not
# change when the flight recorder runs, and the recorded stream must be
# reproducible run-over-run (sim-time stamps, no wall clock).
cargo test --release -q -p hermes-simnet --features trace --test trace_determinism

step "trace_overhead --smoke --features trace (flight-recorder producer cost)"
# Gates, each the median of 8 alternating rounds against the same loop without
# the macro, with nothing reading the rings while the clock runs: one recorded
# event costs the producer <= 14 ns, one runtime-disabled event <= 3 ns, and
# every event emitted was drained with none dropped. The figure beside a
# concurrent drainer is printed and gates nothing.
gate --features trace --bin trace_overhead

step "trace_overhead --smoke (feature off: records nothing, costs nothing)"
# Gates: the same macros compiled out cost <= 3 ns over the plain loop (timer
# noise) and the recorder holds no event afterwards.
gate --bin trace_overhead

step "aarch64 cross-check (kernel.rs SYS_BPF arms + reactor packed-struct lane)"
# `bpf(2)`'s number is per architecture (`kernel.rs`'s SYS_BPF arms), so the
# raw-syscall module must typecheck on a second 64-bit target or a cfg
# regression hides on x86 hosts. hermes-lb rides along because the
# reactor's EpollEvent layout is also arch-conditional (packed on x86-64
# only), and its socket FFI (accept4, socket, connect, the bytewise
# sockaddr) must typecheck against a second architecture's C ABI types.
if rustup target list --installed 2>/dev/null | grep -q '^aarch64-unknown-linux-gnu$'; then
  cargo check --target aarch64-unknown-linux-gnu -p hermes-ebpf
  cargo check --target aarch64-unknown-linux-gnu -p hermes-lb
else
  skip "aarch64-unknown-linux-gnu target absent (install: rustup target add aarch64-unknown-linux-gnu)"
fi

step "undocumented-unsafe grep gate"
# Every `unsafe` block must carry a `// SAFETY:` comment within the three
# lines above it: the reactor's epoll/splice/socket FFI and kernel.rs's
# bpf(2)/mmap calls. (Clippy's undocumented_unsafe_blocks deny backs this
# up; the grep also catches cfg'd-out blocks clippy never expands.)
bad=0
while IFS=: read -r file line _; do
  start=$((line > 3 ? line - 3 : 1))
  if ! sed -n "${start},${line}p" "$file" | grep -q "SAFETY:"; then
    echo "unsafe block without a SAFETY comment: $file:$line"
    bad=1
  fi
done < <(grep -rn --include='*.rs' -E '(^|[^a-zA-Z0-9_"])unsafe[[:space:]]*(\{|fn|impl)' crates/ src/ 2>/dev/null || true)
[ "$bad" -eq 0 ] || { echo "undocumented unsafe gate failed"; exit 1; }

step "miri (nightly): lock-free ring / selmap under the interpreter"
# Scoped to the concurrency-bearing modules: full-workspace miri would take
# hours and trips on FFI-free but slow seeded-case suites. Skipped tests
# (documented, not silent):
#   - ring::tests::concurrent_producer_consumer_loses_nothing — 100k-op
#     stress loop; minutes under the interpreter, and the loom lane covers
#     the same protocol exhaustively at small scale.
if rustup run nightly cargo miri --version >/dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" rustup run nightly cargo miri test ${REGISTRY_FLAGS[@]+"${REGISTRY_FLAGS[@]}"} \
    -p hermes-trace --lib ring -- --skip concurrent_producer_consumer_loses_nothing
  MIRIFLAGS="-Zmiri-disable-isolation" rustup run nightly cargo miri test ${REGISTRY_FLAGS[@]+"${REGISTRY_FLAGS[@]}"} \
    -p hermes-core --lib selmap
else
  skip "miri unavailable (install: rustup component add miri --toolchain nightly)"
fi

step "thread sanitizer (nightly): trace + core test suites"
# TSan needs -Zbuild-std (instrumented std), which needs rust-src.
host="$(rustc -vV | sed -n 's/^host: //p')"
if rustup run nightly rustc --print sysroot >/dev/null 2>&1 \
   && [ -d "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library" ]; then
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    rustup run nightly cargo test ${REGISTRY_FLAGS[@]+"${REGISTRY_FLAGS[@]}"} -Zbuild-std --target "$host" \
    -p hermes-trace -p hermes-core --lib -q
else
  skip "nightly rust-src unavailable (install: rustup component add rust-src --toolchain nightly)"
fi

step "loom model checking: SPSC trace ring + SelMap elision"
# The loom tests live behind cfg(loom) in crates/trace/src/ring.rs and
# crates/core/src/selmap.rs. Loom is not a workspace dependency (the
# dependency-closure lane below refuses it, so the wiring cannot be
# committed), and this lane runs only when it has been wired up locally:
# add `loom = "0.7"` to [dependencies] of hermes-trace and hermes-core,
# then re-run this script.
if grep -q '^loom' crates/trace/Cargo.toml crates/core/Cargo.toml 2>/dev/null; then
  RUSTFLAGS="--cfg loom" cargo test -p hermes-trace --lib --release loom_
  RUSTFLAGS="--cfg loom" cargo test -p hermes-core --lib --release loom_
else
  skip "loom not wired up (add loom = \"0.7\" to hermes-trace and hermes-core [dependencies])"
fi

step "dependency closure (std, the workspace, and bytes)"
# The build's trust argument: nothing from outside this repository is
# compiled in except `bytes`, and only hermes-lb names it. A second
# third-party crate in any manifest, used or not, fails here — including
# a locally wired `loom`, which is why this lane comes after that one.
outside="$(cargo tree --workspace -e normal,dev,build --prefix none |
  awk -v root="$PWD" 'NF && !index($0, "(" root "/crates/") && !index($0, "(" root ")") { print $1 }' |
  sort -u | tr '\n' ' ')"
[ "$outside" = "bytes " ] || { echo "packages from outside the workspace: $outside(want: bytes)"; exit 1; }
named="$(grep -lE '^bytes\b' Cargo.toml crates/*/Cargo.toml | tr '\n' ' ')"
[ "$named" = "Cargo.toml crates/lb/Cargo.toml " ] || { echo "bytes is named by: $named"; exit 1; }
# The simulator places through hermes-core's native oracle and nothing of
# the bytecode substrate: a second implementation of dispatch beside it
# would come back in through this edge.
sim_tree="$(cargo tree -p hermes-simnet -e normal,dev,build --prefix none)"
case "$sim_tree" in *hermes-ebpf*) echo "hermes-simnet depends on hermes-ebpf"; exit 1 ;; esac
# Nor does it model the relay: backend selection is tested on hermes-backend
# and on hermes-lb's sockets (the backend-churn lane), not on a simulated copy.
case "$sim_tree" in *hermes-backend*) echo "hermes-simnet depends on hermes-backend"; exit 1 ;; esac

close_lane
[ "$FAILED_GATES" -eq 0 ] || { echo "$FAILED_GATES gate lane(s) FAILED."; exit 1; }
echo "CI gate passed."
