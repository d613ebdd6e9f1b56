#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, tests.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
# The workspace has no third-party dependency, so nothing here needs the
# network: a registry crate that comes back fails its first cargo call,
# even on a connected machine.
export CARGO_NET_OFFLINE=true

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

step "cargo build --release --locked (the committed Cargo.lock is current)"
cargo build --workspace --release --locked

step "cargo test"
cargo test --workspace -q

step "bench targets run (every benches/*.rs body once)"
# The five `harness = false` bench mains time nothing unless started by
# `cargo bench`; started this way each of their bodies runs once, so a
# bench that panics fails CI.
cargo test --release -q -p hermes-bench --benches

step "cache_locality example (Appendix C: a DIP&Dport level 1 pins each tenant to one group)"
# The example builds each group from the flat plane's parts and asserts what
# it prints: at every group count each tenant touches exactly one group,
# where the 4-tuple hash would spray it across several.
cargo run --release -q --example cache_locality

step "ebpf soundness (the kernel-encoding interpreter total; the bytes that ship pinned and, run by it, equal to the native oracle at every group count)"
# What is left to trust in userspace, with no admission in front of it: the
# checked interpreter runs kernel `struct bpf_insn` and is total — every
# generated program, whatever the maps hold, exits within its own length or
# traps with a named Trap, never a panic, and every trap occurs in the
# sweep. It traps what the kernel's verifier refuses at load: a pc that
# leaves the program or lands inside an ld_imm64, a taken back-edge, an
# unknown opcode or helper, a read of a register or of stack bytes never
# written, an access out of its region or misaligned, a context access other
# than the 4-byte read of `hash`, a lookup result used before its null
# check, pointer arithmetic other than ± a scalar, a write to R10 and a
# helper argument of the wrong type; and, stricter than the verifier, a
# store into the read-only bitmap words. The program (DispatchProgram::build,
# where one group is the flat program) is the bytes the kernel loads:
# `the_shipped_bytes_are_pinned` holds them byte for byte at 1x4, 1x8, 1x64
# and 2x64 (map fds relocated to stand-ins). Run by the interpreter it
# decides as core's native oracle, ConnDispatcher, does — at one group at
# group sizes 1, 2, 3, 17 and 64 with the degenerate bitmaps, at any group
# count over swept shapes and bitmaps; and
# under full bitmaps both planes give every worker of every group its even
# share (level 2 scales the bits level 1 did not use).
# (The kernel's verifier admits what ships, and its execution of the same
# bytes is checked against this interpreter, in the relay-reactor lane's
# steering tests.)
cargo test --release -q -p hermes-ebpf --lib the_shipped_bytes_are_pinned
cargo test --release -q -p hermes-ebpf --test soundness

step "scheduler kernel (differential vs literal Algorithm 1, zero allocations)"
# One scheduler read path, two proofs here: the mask kernel agrees with a
# per-id f64 Algorithm 1 on every table shape and stage order; a counting
# global allocator sees no allocation across 10 000 loop-resident passes
# (Scheduler::schedule, WorkerSession::schedule_and_sync). The third —
# whole simulator runs reproduce the decision sums recorded before the
# kernel was fused — is golden_fingerprint, which runs in "cargo test"
# above, and with the recorder recording in the trace-determinism lane.
# no_alloc counts with recording switched off and again switched on. With
# recording on, two workers scheduling at once each trace every pass on
# their own lane (a ring has one producer) and lose nothing.
cargo test --release -q -p hermes-core --test sched_differential
cargo test --release -q -p hermes-core --test no_alloc
cargo test --release -q -p hermes-core --test sched_lanes

step "workload stream (recorded streams of every generator, row layout, skip = sample's stream, top-bits Zipf guide = binary search, request extents)"
# Every simulated number starts here. The sim_case1 input (Case 1 heavy, seed
# 42, 2 016 205 connections) sums to the constants recorded when the results
# were made, and every generator (each case at a short horizon, the
# region mix, the surge) to a field-by-field fingerprint of its stream:
# arrival, flow hash, tenant and linger of each connection, offset, service
# and event count of each request. A connection row is 16 B: arrival (48
# bits) and tenant (16) in one word, with no bleed between them at either
# field's extreme, a 4-byte script, and the flow's kernel hash (computed
# once from the 4-tuple, which the row does not keep; the hash sums prove it
# is the tuple's). Dport, linger and events per request are held once per
# tenant: `push` files a row's Dport under its tenant and refuses a second
# one; an arrival past 2^48 - 1 ns is refused, naming the workload, also
# when a surge wave's shift carries it there. A request row is 16 B. A script of one
# request at offset 0 below 2^31 ns is written straight into its row and
# never passes through the tables, so the sim_case1 input's tables are
# empty; any other script is a run (start, count) of the request table,
# which generation reserves for exactly those scripts.
# Every generator's scripts read back the requests of a copy that holds them
# all in the table, so do two shifted surge waves, a compressed replay and a
# thinned load, and each script keeps its form through `seal` and
# `compress`. A request's size is skipped, not drawn: every distribution's
# `skip` leaves the RNG where `sample` does (skip_leaves_the_stream_where_
# sample_does), and the inline rounding of request counts is `f64::round`
# bit for bit. The Zipf draw enters a guide at the raw draw's top bits and
# returns the rank the binary search of the cumulative weights returns, at
# both ends, both sides of every guide-bucket edge and rank boundary and
# over 10^6 draws (zipf_top_bits_guide_equals_the_binary_search); no draw
# lands past the last rank, and the guide stays within 256 KiB. Per-device
# streams reach the simulator through `cluster::run_fleet_with`, whose unit
# tests live in hermes-simnet.
cargo test --release -q -p hermes-workload
cargo test --release -q -p hermes-simnet --lib cluster

step "event queue and merge (calendar tiers and seams against a sorted-Vec model, scripted/live tie-break)"
# Scripted arrivals are streamed from the sorted workload and merged with
# the live event queue. Three proofs that the merge is the order one queue
# gave: the calendar queue's push, pop and `pop_before` against a
# sorted-Vec model (with its bucket, period and tier seams, a tie carried
# from the heap into the near ring, and the clock-clamp and strict-limit
# traps as named schedules); the tie-break rule, the sealed-workload
# panics and the live-only queue population on the simulator itself; and
# whole runs of every shape (Case 1 and Case 3 traffic, faults, probes,
# degradation, reuseport and exclusive) against constants recorded before
# the change — golden_fingerprint, which "cargo test" above ran with the
# recorder switched off and the trace-determinism lane runs with it
# recording.
cargo test --release -q -p hermes-simnet --lib event_queue
cargo test --release -q -p hermes-simnet --lib sim::tests

step "simnet_throughput --smoke (per-loop Hermes tax gate)"
# One gate, the median of 16 alternating rounds: Case 1 heavy under Hermes
# costs <= 2.3x its wall time under reuseport (the per-loop tax: WST hooks,
# Algorithm 1, bitmap sync, Algorithm 2; ~2.0x today, 2.65x before the
# fused scheduler kernel).
gate --bin simnet_throughput

step "fleet-determinism (merge-order independence of the device pool)"
# The fleet parallelism safety argument for `run_fleet_with`, the one fleet
# path: the same seed at threads ∈ {1, 2, 8} yields byte-identical cluster
# reports for every dispatch mode, mixed-mode clusters, fault schedules,
# pool-side workload generation, and oversubscribed pools. Device count,
# not thread count, determines the output bytes.
cargo test --release -q -p hermes-simnet --test fleet_determinism

step "fleet_throughput --smoke (fleet determinism, memory and pool gates)"
# Gates over 24 devices run serially and through the pool at 4 threads, 6
# alternating rounds: every pass produces the same fleet fingerprint
# (determinism re-checked at bench scale); no device's connection table (a
# ring of 12 B slots over the connections in flight; `memory_bytes` is its
# peak capacity) exceeds 256 KiB, which a table sized by the whole workload
# would; the pool delivers >= 0.8x the serial loop's events/sec (a
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

step "relay-reactor (epoll reactor + splice data plane suite, traced lifecycle events; stall guards x40)"
# The relay engine: the raw-syscall reactor module (epoll/eventfd/pipe/
# splice contracts, accept4 and the nonblocking connect in both address
# families), half-close in all three orders, slow-reader backpressure
# through bounded pipes and — pinned to the copy path — through the
# scratch buffer alone, splice demotion byte recovery, the size-adaptive
# store (bulk moves to splice after its first scratch-full, a 64 B echo
# never touches a pipe), the per-wakeup I/O budget (exactly 2 calls and no
# EAGAIN per direction-move, none on a direction the kernel did not name),
# a TCP urgent byte relayed in band, the
# event-driven connect (a never-answering candidate stalls neither its
# worker's established relays nor the retry), the WST row showing
# readiness events while they are pending (one connection accepted per
# report of the listener), the idle-CPU property (zero pump passes across
# an idle second), three socket
# calls a connection no longer pays (TCP_NODELAY on the client leg,
# SO_ERROR after a writable connect, a second shutdown), a client leg
# that asks for write edges only once a flush into it blocks, and a
# listener's backlog served (not reset) at shutdown. The suite
# is Linux-only by cfg, not by self-skip. The `relay` filter also takes in
# tests/trace_events.rs: a 4-worker RelayLb recording over 200 connections
# traces one AcceptBurst per accept, one ConnOpen and one ConnClose per
# relayed connection and its RelayWakeups, each on the worker's own lane,
# and drops nothing. Then four stall guards, 40 times each. Three guard
# the drain rule: a short copy-path read ends a
# direction's reading except behind a pending urgent mark, behind a
# pending FIN, and on the splice path. The fourth guards the client leg's
# write edges: a `churn` connection never asks for them, and a download
# to a client that stops reading for 200 ms asks once and still arrives
# whole. A wrong rule or a lost edge fails as a stall, not as a wrong
# byte, and a stall can be rare, so one pass proves little; each test
# fails on the first run that exceeds its time bound (1 s, 1 s, 5 s per
# download, 5 s per read).
# Then the accept path's own tests, in whichever
# dispatch mode the host offers (first row of this table): the kernel's
# verifier admitting the shipped program at every group size, at one group
# and at 2x64, 3x5 and 4x16, and refusing three malformed ones with its own
# log; kernel placements against a ReuseportGroup on the checked
# interpreter, on the hashes the program recorded, at 8 listeners and at
# 96 (two groups of 48, where ConnDispatcher names the same outcome,
# fallbacks stay in their level-1 group and every listener is
# reached), the kernel's run count against the program's own two counters,
# a 4-worker LB steering 64 connections around a worker a trickling client
# holds, a 128-worker RelayLb echoing 500 connections through both groups,
# and the hash-only mode under a thread that dropped its capabilities; 50
# start/shutdown cycles at 4 workers and 3 at 128 leaving no fd and no
# mapping, and fd exhaustion neither spinning a worker nor stalling its
# relays.
cargo test --release -q -p hermes-lb reactor
cargo test --release -q -p hermes-lb relay
stall_guards=(
  relay::tests::an_urgent_mark_strands_no_bytes
  relay::tests::data_and_fin_in_one_burst_half_close_at_once
  relay::tests::splice_downloads_never_stop_at_a_short_move
  relay::tests::client_legs_watch_write_edges_only_once_a_flush_blocks
)
for _ in $(seq 40); do
  cargo test --release -q -p hermes-lb --lib -- --exact "${stall_guards[@]}"
done
steering -p hermes-ebpf --test kernel_verifier
steering -p hermes-lb --test kernel_dispatch
steering -p hermes-lb --test fds

step "held worker under contention (a_held_worker_is_steered_around x20 beside two busy loops)"
# The steering test waits for the word the program reads to leave the held
# worker out, then expects all 64 connections served by the free workers. A
# loaded host stretches every wait in it, so it runs 20 times here while two
# busy-loop child processes of this lane compete for the host's CPUs (two
# on the reference host). Nothing else changes: no cgroup, priority or
# affinity. The children die with the lane's subshell, however it exits.
# Every run must pass; the lane prints the count.
if [ "$mode" != ebpf ]; then
  skip "the test steers through the attached program (kernel dispatch: ${mode:-probe did not run})"
else
  (
    spin() { while :; do :; done; }
    spin &
    a=$!
    spin &
    b=$!
    log="$(mktemp)"
    trap 'kill "$a" "$b" 2>/dev/null || true; rm -f "$log"' EXIT
    trap 'exit 130' INT TERM
    passes=0
    for _ in $(seq 20); do
      if cargo test --release -q -p hermes-lb --test kernel_dispatch -- --exact \
        a_held_worker_is_steered_around >"$log" 2>&1; then
        passes=$((passes + 1))
      else
        cat "$log"
      fi
    done
    echo "a_held_worker_is_steered_around: $passes/20 passed beside two busy loops"
    [ "$passes" -eq 20 ]
  )
fi

step "repro (every simulated exhibit prints its results/<name>.txt byte for byte)"
# The names come from `repro` itself, so an exhibit added there is checked
# here. Every exhibit but table5 (the next lane: real sockets, host-dependent
# figures) is a deterministic simulation or model: any difference from the
# committed file fails the lane, after every exhibit has been compared.
names="$(cargo run --release -q -p hermes-bench --bin repro)"
differ=()
for name in $names; do
  [ "$name" = table5 ] && continue
  echo "--- $name"
  cargo run --release -q -p hermes-bench --bin repro -- "$name" | diff -u "results/$name.txt" - ||
    differ+=("$name")
done
[ ${#differ[@]} -eq 0 ] || { echo "differ from results/: ${differ[*]}"; exit 1; }

step "table5 (Table 5 on RelayLb: the attached program's run_time_ns, zero failed connections)"
# The paper's Table 5 where the paper takes it: three paced loads through a
# 4-worker RelayLb, the Dispatcher column from the kernel's own counters
# under BPF_ENABLE_STATS (held by this binary alone, while it runs). Exits 1
# on a failed connection, or when the program is attached and its run count
# is not the LB's directed + fallback; where bpf(2) is refused the column
# reads `n/a (hash-only: <errno>)`, which is a SKIP row, and the run passes.
log="$(mktemp)"
cargo run --release -q -p hermes-bench --bin repro -- table5 2>&1 | tee "$log"
if grep -q 'n/a (hash-only' "$log"; then
  LANES+=("SKIP"$'\t'"table5: Dispatcher column: $(grep -m1 -o 'n/a (hash-only.*))' "$log")")
fi
rm -f "$log"

step "trace determinism (simulation byte-identical with recorder on/off; whole-run goldens while recording)"
# Tracing is an observer, never an actor: the simnet report must not
# change when the flight recorder records, every golden_fingerprint run
# reproduces its recorded figures while recording, and the recorded stream
# must be reproducible run-over-run (sim-time stamps, no wall clock).
cargo test --release -q -p hermes-simnet --test trace_determinism

step "trace_overhead --smoke (flight-recorder producer cost, recording and switched off)"
# Gates, each the median of 8 alternating rounds against the same loop without
# the macro, with nothing reading the rings while the clock runs: one recorded
# event costs the producer <= 14 ns, one switched-off event <= 3 ns, every
# event emitted was drained with none dropped, and a switched-off pass left
# no record. The figure beside a concurrent drainer is printed and gates
# nothing.
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

step "miri (nightly): lock-free trace ring under the interpreter"
# Scoped to the ring's own unit tests (`ring::tests`): full-workspace miri
# would take hours and trips on FFI-free but slow seeded-case suites, and
# the interleaving checker's schedule sweeps (`ring::models`, the next
# lane's) start two threads for each of hundreds of schedules. Skipped
# tests (documented, not silent):
#   - ring::tests::concurrent_producer_consumer_loses_nothing — 100k-op
#     stress loop; minutes under the interpreter, and the checker's models
#     cover the same protocol under every schedule at small scale.
if rustup run nightly cargo miri --version >/dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" rustup run nightly cargo miri test \
    -p hermes-trace --lib ring::tests -- --skip concurrent_producer_consumer_loses_nothing
else
  skip "miri unavailable (install: rustup component add miri --toolchain nightly)"
fi

step "thread sanitizer (nightly): trace + core test suites"
# TSan needs -Zbuild-std (instrumented std), which needs rust-src. The
# interleaving checker's sweeps (`models::`, and its own tests, `check::`)
# run one thread at a time and are the next lane's; the ring's and the
# recorder's stress tests, which race for real, stay in.
host="$(rustc -vV | sed -n 's/^host: //p')"
if rustup run nightly rustc --print sysroot >/dev/null 2>&1 \
   && [ -d "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library" ]; then
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    rustup run nightly cargo test -Zbuild-std --target "$host" \
    -p hermes-trace -p hermes-core --lib -q -- --skip models:: --skip check::
else
  skip "nightly rust-src unavailable (install: rustup component add rust-src --toolchain nightly)"
fi

step "interleaving checker (the trace ring and the control lane's lock under every schedule of <= 2 preemptions)"
# hermes-trace's test build routes each ring atomic and the control lane's
# lock through its own checker (`crates/trace/src/check.rs`): two or three
# threads run one at a time, every schedule of up to two preemptions is
# run on fresh state, and each end state is checked. The four models by
# name: no record torn, lost or reordered under one producer and a drain;
# a full ring's drops counted once; drained + dropped == emitted with
# slots reused mid-push; and two producers on CONTROL_LANE behind its lock
# beside a drain. Each asserts a floor on the schedules it ran. Then the
# checker's own tests: exact schedule counts for models counted by hand, a
# lost update and a deadlock found. Sequentially consistent interleavings
# only: a weak-memory reordering is out of its reach (DESIGN.md).
models=(
  ring::models::spsc_push_drain_never_tears_and_loses_nothing
  ring::models::full_ring_drop_accounting_is_exact_under_races
  ring::models::drained_plus_dropped_is_emitted
  tracer::models::control_lane_producers_lose_no_record_in_any_schedule
)
cargo test --release -q -p hermes-trace --lib -- --exact "${models[@]}"
cargo test --release -q -p hermes-trace --lib check::tests

step "dependency closure (std and the workspace)"
# The build's trust argument: nothing from outside this repository is
# compiled in. A third-party crate in any manifest, used or not, fails here,
# and so does a lock file that records one.
outside="$(cargo tree --workspace -e normal,dev,build --prefix none |
  awk -v root="$PWD" 'NF && !index($0, "(" root "/crates/") && !index($0, "(" root ")") { print $1 }' |
  sort -u | tr '\n' ' ')"
[ -z "$outside" ] || { echo "packages from outside the workspace: $outside"; exit 1; }
# Every dependency line names a workspace crate: `name.workspace = true`, or
# in the root manifest `name = { path = "crates/..." }`.
named="$(awk '/^\[/ { deps = /dependencies/; if (/dependencies\./) print FILENAME ": " $0; next }
  deps && NF && !/^#/ && !/^hermes-[a-z]+(\.workspace = true| = \{ path = "crates\/[a-z]+" \})$/ { print FILENAME ": " $0 }' \
  Cargo.toml crates/*/Cargo.toml)"
[ -z "$named" ] || { echo "manifest dependencies outside the workspace:"; echo "$named"; exit 1; }
if grep -n '^source = ' Cargo.lock; then
  echo "Cargo.lock records a package from outside the repository"
  exit 1
fi
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
