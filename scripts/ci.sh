#!/usr/bin/env sh
# Tier-1 CI: hermetic build + test, with network access explicitly denied.
#
# The workspace has zero registry dependencies by design (see "Hermetic
# build" in README.md / DESIGN.md): every dependency is a path dependency
# inside this repository, so `CARGO_NET_OFFLINE=true` must never bite.
# This script is the enforcement point — it fails if either the offline
# build breaks or a registry dependency sneaks back into a manifest.
set -eu

cd "$(dirname "$0")/.."

# Tier-1 builds treat every warning as an error, for every stage below
# (one setting so cargo never recompiles with mismatched flags mid-run).
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "== guard: no registry dependencies in any manifest =="
# A registry dependency is `name = "1"` or `name = { version = "1", ... }`
# without a `path = ...`. Allowed forms: `path = ...` deps and
# `name.workspace = true` / `workspace = true` members whose workspace
# entry is itself a path dep (checked via the root manifest below).
bad=$(grep -rn --include=Cargo.toml -E \
    '^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*("[^"]*"|\{[^}]*version[^}]*\})' \
    Cargo.toml crates/*/Cargo.toml \
  | grep -vE 'path[[:space:]]*=' \
  | grep -vE '^[^:]*:[0-9]+:[[:space:]]*(name|version|edition|license|description|rust-version|repository|documentation|readme|harness|resolver|members|default|std|lto)\b' \
  || true)
if [ -n "$bad" ]; then
    echo "registry dependencies found (must be path-only):" >&2
    echo "$bad" >&2
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== static analysis: ano-lint (call-graph facts / determinism / resync spec) =="
# Structural enforcement of the trace-determinism and hot-path guarantees,
# run before anything else is built. Per-file rules forbid wall-clock
# reads, OS threads, hash-ordered collections, and {:p} in
# sim/trace-affecting crates; panics and slice indexing in the per-packet
# hot paths; println!/dbg! in library crates; and the §4.3 resync table in
# rx.rs is cross-checked against LEGAL_EDGES in invariant.rs. On top, the
# workspace call graph propagates may-panic / nondet-taint / may-allocate
# facts from every `// ano-lint: entry(hot-path)` root (transitive-panic,
# transitive-nondet, hot-alloc), flags never-referenced pub items
# (dead-export), and makes stale suppressions errors. Exceptions need an
# inline `// ano-lint: allow(<rule>): <justification>`. See DESIGN.md.
# The timeout is the analysis wall-clock budget: the whole pass runs in
# well under a second today (--timing prints per-pass numbers to stderr);
# if it ever needs minutes, the linter — not the budget — is broken.
CARGO_NET_OFFLINE=true timeout 120 cargo run -q -p ano-lint -- --timing

echo "== static analysis: hot-path allocation inventory vs ALLOC_baseline.txt =="
# The ranked inventory of allocation sites reachable from the hot-path
# entries is a committed snapshot: a new hot allocation (or a removed one)
# must show up in review as a diff of ALLOC_baseline.txt, not slip in
# silently behind an allow. Regenerate intentionally with
# BLESS=1 scripts/ci.sh (or the cargo command below) and review the diff.
alloc_tmp="${TMPDIR:-/tmp}/ano-alloc-report.$$"
CARGO_NET_OFFLINE=true timeout 120 cargo run -q -p ano-lint -- --alloc-report > "$alloc_tmp"
if [ "${BLESS:-0}" = "1" ]; then
    cp "$alloc_tmp" ALLOC_baseline.txt
    echo "blessed: ALLOC_baseline.txt regenerated"
fi
if ! diff -u ALLOC_baseline.txt "$alloc_tmp"; then
    rm -f "$alloc_tmp"
    echo "hot-path allocation inventory drifted from ALLOC_baseline.txt" >&2
    echo "(intentional? BLESS=1 scripts/ci.sh and review the diff)" >&2
    exit 1
fi
rm -f "$alloc_tmp"
echo "ok: allocation inventory matches baseline"

echo "== tier-1: offline release build (warnings are errors) =="
CARGO_NET_OFFLINE=true cargo build --release

# Every ano-scenario test runs exactly once: the workspace tier runs
# everything but ano-scenario, the scenario tier runs ano-scenario's
# default tests, and each heavy tier below runs only the #[ignore]d
# scenario tests it exists for.
echo "== tier-1: offline tests (warnings are errors) =="
CARGO_NET_OFFLINE=true cargo test -q --workspace --exclude ano-scenario

echo "== adversarial scenarios: differential offload-vs-software, goldens =="
# Every scenario family through the one runner and twin comparator: the
# 8 scripted adversity schedules x {TLS, NVMe}, the watchdog/corruption
# extras, the chaos/fleet/netchaos/rss smokes, the golden traces and the
# fleet sensitivity curve, at fixed seeds (no wall-clock or RNG input).
# Regenerate goldens or expected data intentionally with BLESS=1 (see
# crates/scenario/tests/golden_trace.rs) and review the diff. Bounded: the
# suite runs in seconds; the timeout is a hard backstop against a wedged
# scheduler looping forever.
CARGO_NET_OFFLINE=true timeout 600 cargo test -q -p ano-scenario

echo "== device-fault chaos matrix: degradation under install/mailbox/reset faults =="
# 8 device-fault patterns x {TLS, NVMe, NVMe-TLS}, each offloaded-with-faults
# vs software-without, asserting byte-identical streams plus the expected
# degradation (re-offload after transient faults, breaker-open with the right
# reason after persistent ones). The full matrix is #[ignore]d in the default
# test run; this tier is its home and runs only it. The timeout is a hard
# backstop: a fault that wedges the install ladder or the resync machine must
# fail CI, not hang it.
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test chaos -- --ignored

echo "== fleet: thousands of flows over bounded context caches =="
# Fleet-scale tier (see DESIGN.md "Fleet topology"): the #[ignore]d 8x2-host,
# 2048-flow run through 256-entry server caches that only this tier
# executes (the sensitivity curve, breaker pair, churn storm and fleet
# golden run in the scenario tier). The timeout is a hard backstop against
# a wedged scheduler, not a budget.
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test fleet -- --ignored

echo "== netchaos: fleet partition/repair plans, holds, impairment sweeps =="
# Network-chaos tier (see DESIGN.md "Network chaos and partitions"): the
# #[ignore]d full matrix — scheduled partition/repair plans over fleet
# subsets x {TLS, NVMe} x fleet shapes, each vs a software twin under the
# same plan (byte-identical streams, partitioned/lost split, breaker
# suppression on unaffected pairs, §4.3 re-offload after every repair) —
# and the rack-partition-mid-churn scale run, which only this tier
# executes. The timeout is a hard backstop against a scheduler wedged by
# a partition that never heals, not a budget.
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test netchaos -- --ignored

echo "== rss: multi-queue steering, per-core stacks, flow rebalancing =="
# Multi-queue RSS tier (see DESIGN.md "Multi-queue and RSS"): Toeplitz
# hash properties (determinism, distribution, exact indirection remaps)
# with shrinking, and the #[ignore]d 16-queue/512-flow scale run that only
# this tier executes (the differential, imbalance and golden scenarios run
# in the scenario tier). The timeout is a hard backstop against a wedged
# scheduler, not a budget.
CARGO_NET_OFFLINE=true timeout 600 cargo test -q -p ano-core --test rss_prop
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test rss -- --ignored

echo "== simbench =="
# The benchmark's correctness gate (see simbench/README.md): each workload
# runs once and must keep the shape it is built for, TLS streams and fio
# buffers stay byte-identical under real AES-GCM and CRC32C on the lossy
# workload, and a traced run equals an untraced one. simbench is its own
# workspace with its own target directory. The timeout is a hard backstop
# against a wedged run, not a budget.
CARGO_NET_OFFLINE=true timeout 900 cargo test --release --offline --manifest-path simbench/Cargo.toml

echo "== trace determinism: same seed, same bytes, across processes =="
# The golden workflow only works if traces are process-independent. Run the
# determinism test in two separate processes and compare output hashes —
# this would catch any wall-clock, ASLR, or hash-ordering leak into traces
# that the in-process double-run test cannot see.
trace_hash() {
    CARGO_NET_OFFLINE=true ANO_TRACE_DUMP=1 cargo test -q -p ano-scenario \
        --test golden_trace identical_seeds_produce_identical_traces -- --nocapture \
      | sed -n '/^--TRACE-BEGIN--$/,/^--TRACE-END--$/p' | cksum
}
h1=$(trace_hash)
h2=$(trace_hash)
if [ "$h1" != "$h2" ]; then
    echo "trace determinism violated across processes: $h1 vs $h2" >&2
    exit 1
fi
echo "ok: identical trace hash across two processes ($h1)"

echo "tier-1 green (offline)"
