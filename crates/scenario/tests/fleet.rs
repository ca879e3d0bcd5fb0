//! Fleet-tier tests: the §6.5 context-cache sensitivity curve, the PR-5
//! cache-thrash breaker, a short-lived-connection churn storm over the
//! §4.4 install ladder, and a golden trace pinning a small fleet's
//! eviction→resync→re-offload choreography.
//!
//! # Regenerating committed data after an intentional behavior change
//!
//! ```text
//! BLESS=1 cargo test -q -p ano-scenario --test fleet
//! git diff crates/scenario/tests/expected/ crates/scenario/tests/golden/
//! ```
//!
//! The curve file (`tests/expected/fleet_sensitivity.txt`) is exact
//! integers — any drift in cache accounting, breaker policy, or scheduling
//! shows up as a diff, which *is* the review artifact.

use ano_core::fault::{DeviceFaults, DeviceOp, FaultAction, ScheduledFault};
use ano_core::rx::RxStateKind;
use ano_scenario::run::{render_curve, sensitivity_curve};
use ano_scenario::{check_golden, run, run_differential, Arm, Scenario, Workload};
use ano_sim::link::Match;
use ano_sim::time::{SimDuration, SimTime};
use ano_tcp::segment::FlowId;
use ano_trace::event::Category;
use ano_trace::export;

/// A `clients`×`servers` TLS fleet of `flows` flows streaming `bytes` each
/// into server NICs holding `cache` rx contexts.
fn fleet(
    name: &str,
    seed: u64,
    (clients, servers, flows): (usize, usize, usize),
    bytes: usize,
    cache: usize,
) -> Scenario {
    let mut sc = Scenario::fleet(name, clients, servers, flows, Workload::TlsRx { bytes });
    sc.shape.cfg.seed = seed;
    sc.shape.server.nic.ctx_cache_capacity = cache;
    sc
}

/// An rx-context invalidation of the first connection's server-side rx
/// flow (flow ids are `2·conn` client → server) 100 µs into the run.
fn invalidate_conn0() -> DeviceFaults {
    DeviceFaults::none().at(
        SimTime::ZERO + SimDuration::from_micros(100),
        ScheduledFault::InvalidateRx(FlowId(0)),
    )
}

/// The sensitivity experiment: 4 clients against one server whose NIC
/// holds 8 rx contexts, swept across the capacity cliff. The thrash
/// breaker is armed the way a production driver would run it, so flow
/// counts past capacity degrade to software instead of thrashing forever.
/// (Scaled from the paper's 20 K-flow cache so the sweep runs in seconds;
/// the `--ignored` fleet-scale test covers thousands of flows.)
fn curve_point(flows: usize) -> Scenario {
    let mut sc = fleet(
        &format!("fleet/sensitivity/flows={flows}"),
        11,
        (4, 1, flows),
        96 * 1024,
        8,
    );
    sc.shape.cfg.degrade.breaker_cache_thrash = Some(3);
    sc.sim_budget = SimDuration::from_millis(100);
    sc
}

const CURVE_FLOWS: &[usize] = &[2, 4, 8, 16, 32];

/// The paper's context-cache sensitivity result, reproduced and pinned:
/// offload hit-rate degrades and the software-fallback share (breaker
/// trips, degraded packets) rises as the flow count crosses the server
/// cache capacity. Every point also runs its software twin with
/// byte-identical streams (inside `sensitivity_curve`), and the whole
/// sweep is run twice to pin in-process determinism.
#[test]
fn sensitivity_curve_crosses_cache_capacity() {
    let points = sensitivity_curve(curve_point, CURVE_FLOWS);
    let again = sensitivity_curve(curve_point, CURVE_FLOWS);
    assert_eq!(points, again, "sensitivity sweep is not deterministic");
    check_golden("expected/fleet_sensitivity.txt", &render_curve(&points));

    // Shape assertions — the committed file pins the exact numbers, these
    // pin the *physics* so a bad bless cannot hide a broken curve.
    let (within, beyond): (Vec<_>, Vec<_>) = points.iter().partition(|p| p.flows <= 8);
    assert!(
        !within.is_empty() && !beyond.is_empty(),
        "sweep must straddle capacity"
    );
    for p in &within {
        assert_eq!(p.breakers, 0, "flows={} fit the cache; no breaker", p.flows);
        assert_eq!(p.degraded_pkts, 0, "flows={} fit the cache", p.flows);
        assert!(
            p.hit_rate() > 0.8,
            "flows={} should run warm ({:.3})",
            p.flows,
            p.hit_rate()
        );
    }
    for p in &beyond {
        assert!(
            p.breakers > 0,
            "flows={} thrash the cache; breaker must trip",
            p.flows
        );
        assert!(
            p.degraded_pkts > 0,
            "flows={} must serve degraded packets",
            p.flows
        );
    }
    let (warm, thrashed) = (within.last().unwrap(), beyond.last().unwrap());
    assert!(
        thrashed.hit_rate() < warm.hit_rate(),
        "hit rate must degrade across capacity ({:.3} -> {:.3})",
        warm.hit_rate(),
        thrashed.hit_rate()
    );
    assert!(
        thrashed.breakers >= beyond.first().unwrap().breakers,
        "fallback share rises with flow count"
    );
}

/// PR-5 thrash breaker, trip side: a cache far smaller than the flow
/// population with a low threshold must open breakers with the
/// `cache_thrash` reason — and the storm must stay application-invisible
/// (streams byte-exact, software twin identical).
#[test]
fn thrash_breaker_trips_with_cache_thrash_reason() {
    let mut sc = fleet("fleet/thrash-trip", 5, (2, 1, 8), 256 * 1024, 2);
    sc.shape.cfg.degrade.breaker_cache_thrash = Some(4);
    let (on, _off) = run_differential(&sc);
    let reasons = on.breakers();
    assert!(
        !reasons.is_empty(),
        "8 flows over a 2-entry cache must trip the breaker"
    );
    assert!(
        reasons.iter().all(|r| *r == "cache_thrash"),
        "wrong breaker reason(s): {reasons:?}"
    );
    assert!(
        on.flows.iter().any(|f| f.degraded_pkts > 0),
        "open breakers must meter degraded packets"
    );
}

/// PR-5 thrash breaker, under-threshold side: ample cache and a high
/// threshold, plus a mid-run rx-context invalidation. The flow must walk
/// the §4.3 ladder back to `Offloading` — re-offload, not breaker.
#[test]
fn under_threshold_invalidation_reoffloads() {
    let mut sc = fleet("fleet/under-threshold", 5, (2, 1, 4), 128 * 1024, 1024);
    sc.shape.cfg.degrade.breaker_cache_thrash = Some(100_000);
    sc.shape.cfg.link_rate_bps = 10_000_000_000;
    sc.faults.push((sc.server_host(0), invalidate_conn0()));
    let (out, _) = run_differential(&sc);
    assert!(out.complete(), "invalidation must not stall the transfer");
    assert!(
        out.breakers().is_empty(),
        "under-threshold fault must not open a breaker"
    );
    assert!(
        out.world.device_faults_injected(sc.server_host(0)) > 0,
        "the scheduled invalidation must actually fire"
    );
    assert_eq!(
        out.flows[0].rx_state,
        Some(RxStateKind::Offloading),
        "the invalidated flow must re-offload, not degrade"
    );
}

/// Short-lived-connection churn storm: waves of connect→stream→verify→
/// disconnect against a server whose device fails every third rx-context
/// install, stressing the §4.4 install ladder (retry/backoff) on every
/// wave. No breaker may open — 1-in-3 install failures are recoverable —
/// and every wave must deliver byte-exact streams. The software twin runs
/// the identical waves with no device to fault.
#[test]
fn churn_storm_exercises_install_ladder() {
    let mut sc = fleet("fleet/churn", 23, (3, 1, 6), 16 * 1024, 1024);
    sc.waves = 4;
    let every_third = Match::Cycle {
        pattern: vec![true, false, false],
        until: u64::MAX,
    };
    sc.faults.push((
        sc.server_host(0),
        DeviceFaults::none().with(DeviceOp::InstallRx, every_third, FaultAction::Fail),
    ));
    let (on, off) = run_differential(&sc);
    assert!(on.complete(), "every wave must complete");
    assert_eq!(on.flows.len(), 24);
    assert!(
        on.world.device_faults_injected(sc.server_host(0)) > 0,
        "the install-fault plan must exercise the ladder"
    );
    assert!(
        on.breakers().is_empty(),
        "recoverable install faults must not open breakers"
    );
    assert_eq!(
        off.flows.len(),
        on.flows.len(),
        "software twin must cycle the same waves"
    );
}

/// Golden trace for a small fleet: 3 clients × 2 servers, a 4-entry cache
/// on each server NIC, 8 flows placed unevenly (6 on server 0, 2 on
/// server 1) so server 0 evicts while server 1 runs warm, plus one mid-run
/// rx invalidation on server 0 — mid-stream, so the reinstall lands in
/// `Searching` and the golden pins the full re-derivation ladder. The
/// canonical Resync+Device rendering pins the eviction→resync→re-offload
/// ladder.
#[test]
fn golden_fleet_eviction_resync_ladder() {
    let mut sc = fleet("fleet/golden-ladder", 3, (3, 2, 8), 64 * 1024, 4);
    sc.shape.cfg.link_rate_bps = 10_000_000_000;
    for (k, f) in sc.flows.iter_mut().enumerate() {
        f.server = usize::from(k >= 6);
    }
    sc.faults.push((sc.server_host(0), invalidate_conn0()));
    let out = run(&sc, Arm::Offload);
    out.assert_clean();
    assert!(out.complete(), "golden fleet must finish");
    assert_eq!(
        out.trace_dropped, 0,
        "trace ring wrapped; golden would be truncated"
    );

    let got = export::canonical(&out.trace, &[Category::Resync, Category::Device]);
    check_golden("golden/fleet_ladder.golden", &got);
    // The golden must meaningfully cover the ladder.
    assert!(
        got.contains("device.ctx-evict"),
        "golden must pin evictions"
    );
    assert!(
        got.contains("Confirmed->Offloading"),
        "golden must pin the re-offload edge after the invalidation"
    );
}

/// Fleet scale (the CI tier's `--ignored` backstop): thousands of
/// concurrent flows across 8×2 hosts, server caches far below the flow
/// count, thrash breakers armed. Everything must complete byte-exact with
/// the fallback machinery absorbing the cache storm.
#[test]
#[ignore = "fleet-scale: thousands of flows; run via scripts/ci.sh fleet tier"]
fn fleet_scale_thousands_of_flows() {
    let mut sc = fleet("fleet/scale", 42, (8, 2, 2048), 24 * 1024, 256);
    sc.shape.client.cores = 8;
    sc.shape.server.cores = 8;
    sc.shape.cfg.degrade.breaker_cache_thrash = Some(2);
    sc.sim_budget = SimDuration::from_millis(500);
    let on = run(&sc, Arm::Offload);
    on.assert_clean();
    assert!(on.complete(), "fleet-scale run incomplete at {:?}", on.end);
    let (hits, misses) = on.cache();
    assert!(
        misses >= 2048,
        "1024 flows per 256-entry cache churn every context ({hits} hits / {misses} misses)"
    );
    assert!(
        !on.breakers().is_empty(),
        "thrash at this scale must trip breakers"
    );
    assert!(
        on.flows.iter().any(|f| f.degraded_pkts > 0),
        "tripped flows must serve degraded packets"
    );
}
