//! Golden-trace regression tests: canonical trace renderings of
//! behavior-rich scenarios, committed under `tests/golden/` and diffed
//! byte-for-byte on every run.
//!
//! The canonical form (`ano_trace::export::canonical`) is a pure function
//! of the scenario's seed and schedule, so any change to loss recovery,
//! retransmit classification, device-fault degradation or the §4.3 resync
//! ladder shows up as a trace diff — including the classic mutation of
//! resuming offload without software confirmation, which rewrites the
//! `resync.transition` lines these goldens pin down.
//!
//! # Regenerating after an intentional behavior change
//!
//! ```text
//! BLESS=1 cargo test -p ano-scenario --test golden_trace
//! git diff crates/scenario/tests/golden/   # review the new ladders!
//! ```
//!
//! Never bless blindly: the diff *is* the review artifact. A legitimate
//! change shifts timestamps or adds/removes recovery events; an illegal
//! ladder (e.g. `Tracking->Offloading`) means the resync machine broke and
//! the ordered-transition invariant should have caught it first.

use ano_scenario::{builtin, check_golden, run, Arm, Outcome, Scenario, Workload};
use ano_sim::link::Script;
use ano_trace::event::Category;
use ano_trace::export;

/// Runs `sc` offloaded and holds it to every invariant; a golden is only
/// worth pinning when the run behind it is clean and its trace whole.
fn clean_run(sc: &Scenario) -> Outcome {
    let out = run(sc, Arm::Offload);
    out.assert_clean();
    assert_eq!(
        out.trace_dropped, 0,
        "trace ring wrapped; golden would be truncated"
    );
    out
}

/// Device-fault goldens render the `Device` category too, so they pin the
/// degradation choreography (faults, install retries, breaker trips,
/// resets) alongside the resync ladder.
fn check_chaos_golden(file: &str, name: &str) -> String {
    let out = clean_run(&builtin(name).expect("built-in"));
    let got = export::canonical(
        &out.trace,
        &[Category::Tcp, Category::Resync, Category::Device],
    );
    check_golden(&format!("golden/{file}.golden"), &got);
    got
}

/// The reset→quiesce→resync→re-offload ladder: a mid-transfer device reset
/// wipes the rx context; the flow must quiesce to `Searching`, walk the §4.3
/// confirmation ladder, and resume offload at a record boundary.
#[test]
fn golden_chaos_reset_ladder() {
    let text = check_chaos_golden("chaos_tls_reset", "chaos/tls/reset");
    assert!(
        text.contains("device.reset"),
        "golden must pin the reset event"
    );
    assert!(
        text.contains("Confirmed->Offloading"),
        "golden must pin the post-reset offload-resume edge"
    );
}

/// The breaker-open ladder: every install attempt fails, the retry/backoff
/// ladder exhausts, and the per-flow circuit breaker opens into permanent
/// software fallback.
#[test]
fn golden_chaos_breaker_ladder() {
    let text = check_chaos_golden("chaos_tls_breaker", "chaos/tls/fail-all-installs");
    assert!(
        text.contains("device.install-fail"),
        "golden must pin the install failures"
    );
    assert!(
        text.contains("device.install-retry"),
        "golden must pin the backoff ladder"
    );
    assert!(
        text.contains("device.breaker-open reason=install_failures"),
        "golden must pin the breaker trip"
    );
}

/// The PR-1 alternating-drop regression (seed `cc 8ed59643…`, shrunk to
/// `len = 10137`, drops at indices {2,3,5,7,9,11,13,14} of a 64-cycle) as a
/// full-stack TLS scenario. Its golden pins the TCP recovery choreography —
/// SACK retransmits, RTO backoff, cwnd collapses — that the original
/// regression fixed.
#[test]
fn golden_pr1_alternating_drop() {
    let mut pattern = vec![false; 64];
    for i in [2usize, 3, 5, 7, 9, 11, 13, 14] {
        pattern[i] = true;
    }
    let sc = Scenario::new("golden/pr1-alternating", Workload::Tls { bytes: 10_137 })
        .data_script(Script::drop_cycle(pattern, u64::MAX));
    check_golden(
        "golden/pr1_alternating.golden",
        &clean_run(&sc).canonical_trace(),
    );
}

/// A TLS resync episode: the built-in alternating-drop schedule overtakes
/// the rx context, and the golden pins the full reconvergence ladder —
/// Offloading→Searching→Tracking→Confirmed→Offloading. (The milder burst
/// schedules never dethrone the context: the engine rides out OoS packets
/// as fallbacks and stays in `Offloading`, which is itself paper behavior.)
#[test]
fn golden_tls_alternating_resync() {
    let text = clean_run(&builtin("tls/alternating").expect("built-in")).canonical_trace();
    check_golden("golden/tls_alternating.golden", &text);

    // The golden meaningfully covers the confirmation path: mutating the
    // resync machine to skip software confirmation must change this file.
    assert!(
        text.contains("Tracking->Confirmed"),
        "golden must pin the software-confirmation edge"
    );
    assert!(
        text.contains("Confirmed->Offloading"),
        "golden must pin the offload-resume edge"
    );
}

/// The fleet partition ladder: one server rack of a 3×2-host fleet goes
/// dark mid-transfer and heals. The golden pins `link.partition` events per
/// severed direction, the RTO backoff the dark flows accumulate,
/// `link.repair` at heal, and the §4.3 re-install ladder
/// (`Searching→Tracking→Confirmed→Offloading`) repair drives on every
/// surviving flow. The clean run already validated every flow's ladder
/// against the legal edges across the repair.
#[test]
fn golden_netchaos_partition_ladder() {
    let text = clean_run(&builtin("netchaos/tls/server-dark").expect("built-in")).canonical_trace();
    check_golden("golden/netchaos_server_dark.golden", &text);

    assert!(
        text.contains("link.partition"),
        "golden must pin the partition events"
    );
    assert!(
        text.contains("link.repair"),
        "golden must pin the repair events"
    );
    assert!(
        text.contains("tcp.rto"),
        "golden must pin the RTO backoff while dark"
    );
    assert!(
        text.contains("Offloading->Searching"),
        "golden must pin the partition quiesce edge"
    );
    assert!(
        text.contains("Confirmed->Offloading"),
        "golden must pin the post-repair offload-resume edge"
    );
}

/// The determinism contract the goldens stand on: running the same scenario
/// twice yields byte-identical canonical traces *and* record streams.
///
/// With `ANO_TRACE_DUMP=1` the canonical trace is printed between
/// `--TRACE-BEGIN--`/`--TRACE-END--` markers; `scripts/ci.sh` runs this
/// test in two separate processes and compares the dumped hashes, catching
/// cross-process nondeterminism (wall clock, ASLR-dependent hashing) that
/// an in-process double run cannot.
#[test]
fn identical_seeds_produce_identical_traces() {
    let sc = builtin("tls/partition").expect("built-in");
    let (a, b) = (run(&sc, Arm::Offload), run(&sc, Arm::Offload));
    assert_eq!(
        a.canonical_trace(),
        b.canonical_trace(),
        "canonical trace diverged"
    );
    assert!(!a.canonical_trace().is_empty());
    assert_eq!(a.trace.len(), b.trace.len(), "full record streams diverged");
    if std::env::var("ANO_TRACE_DUMP").is_ok() {
        println!("--TRACE-BEGIN--\n{}--TRACE-END--", a.canonical_trace());
    }
}

/// Traces are also workload-sensitive: the same schedule over a different
/// workload must *not* collide (guards against the canonical form ignoring
/// inputs).
#[test]
fn different_schedules_produce_different_traces() {
    let clean = run(&builtin("tls/clean").expect("built-in"), Arm::Offload);
    let lossy = run(&builtin("tls/alternating").expect("built-in"), Arm::Offload);
    assert_ne!(clean.canonical_trace(), lossy.canonical_trace());
}

/// Offload-arm traces carry resync transitions; the software twin cannot
/// (no engine is installed) — the trace reflects which arm ran.
#[test]
fn software_runs_trace_no_resync() {
    let sc = Scenario::new("golden/sw", ano_scenario::builtin::tls_workload())
        .data_script(Script::drop_nth(3));
    let out = run(&sc, Arm::Software);
    out.assert_clean();
    assert!(
        !out.canonical_trace().contains("resync.transition"),
        "software-only run has no rx engine to resync"
    );
}
