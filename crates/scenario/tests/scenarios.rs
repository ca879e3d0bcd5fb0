//! The adversarial scenario suite: the differential offload-vs-software
//! matrix, the corruption/auth and watchdog extras, and property tests over
//! randomly generated drop schedules.

use std::collections::BTreeMap;

use ano_core::rx::RxStateKind;
use ano_scenario::builtin::{matrix, tls_workload};
use ano_scenario::gen::{drop_indices_of, script_gen, window_script_gen, windows_of};
use ano_scenario::{builtin, builtins, run, run_differential, Arm, Scenario, Workload};
use ano_sim::link::Script;
use ano_sim::time::SimTime;
use ano_testkit::Gen;

/// The core acceptance test: every built-in scenario (8 adversity schedules
/// × {TLS, NVMe}) runs offloaded and software-only, delivers byte-identical
/// streams, completes in both arms within bounded divergence, and violates
/// no world invariant along the way.
#[test]
fn differential_matrix_is_invisible() {
    let matrix = matrix();
    assert_eq!(matrix.len(), 16, "8 schedules x 2 workloads");
    for sc in &matrix {
        let (on, _off) = run_differential(sc);
        assert!(on.complete(), "{}: offload run completes", sc.name);
        assert_eq!(
            on.flows[0].delivered.stream(),
            on.flows[0].expected,
            "{}: delivered stream equals transmitted stream",
            sc.name
        );
    }
}

/// On a clean link the offloaded receiver stays fully offloaded — the
/// harness itself must not perturb the data path.
#[test]
fn clean_scenario_stays_offloaded() {
    let out = run(&builtin("tls/clean").expect("built-in"), Arm::Offload);
    out.assert_clean();
    assert!(out.complete());
    assert_eq!(
        out.flows[0].rx_state,
        Some(RxStateKind::Offloading),
        "no impairment: engine never leaves Offloading"
    );
    assert_eq!(out.flows[0].alerts, 0);
}

/// A record corrupted in flight must surface as an authentication failure
/// and nothing else: no corrupted plaintext is ever delivered, and every
/// chunk that *is* delivered sits at its claimed offset with the original
/// bytes (checked by the stream-integrity invariant).
#[test]
fn corrupted_record_rejected_never_delivered() {
    let sc = builtin("tls/corrupt-record").expect("built-in");
    for arm in [Arm::Offload, Arm::Software] {
        let out = run(&sc, arm);
        out.assert_clean();
        let corrupted = out.world.link_stats_between(0, 1).corrupted;
        assert!(corrupted >= 1, "the link corrupted a frame");
        let f = &out.flows[0];
        assert!(f.alerts >= 1, "TLS refused to authenticate it");
        assert!(
            f.delivered.bytes < f.expected.len() as u64,
            "the damaged record's plaintext is missing, not replaced"
        );
    }
}

/// The deliberately wedged scenario: a partition that never lifts. The
/// forward-progress watchdog and the completion check must both fire.
#[test]
fn blackhole_trips_forward_progress_watchdog() {
    let out = run(&builtin("tls/blackhole").expect("built-in"), Arm::Offload);
    assert!(!out.complete());
    assert!(
        out.violations.iter().any(|v| v.invariant == "forward-progress"),
        "watchdog fired: {:?}",
        out.violations
    );
    assert!(
        out.violations.iter().any(|v| v.invariant == "completion"),
        "completion check fired"
    );
}

/// Replay-by-name is the debugging entry point documented in
/// EXPERIMENTS.md: every registered name is unique and resolves to its
/// scenario, unknown names do not, and each family keeps its size.
#[test]
fn builtin_scenarios_resolve_by_name() {
    let all = builtins();
    let mut per_prefix: BTreeMap<&str, usize> = BTreeMap::new();
    for sc in &all {
        assert_eq!(
            builtin(&sc.name).map(|s| s.name),
            Some(sc.name.clone()),
            "{} resolves",
            sc.name
        );
        let prefix = sc.name.split('/').next().unwrap();
        *per_prefix.entry(prefix).or_default() += 1;
    }
    let mut names: Vec<_> = all.iter().map(|s| &s.name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "names are unique");
    // 8 schedules × 2 workloads + 3 extras; 8 faults × 3 workloads;
    // 6 patterns × 2 workloads + 2 shape variants.
    let want = [("chaos", 24), ("netchaos", 14), ("nvme", 8), ("tls", 11)];
    assert_eq!(per_prefix.into_iter().collect::<Vec<_>>(), want);
    for unknown in [
        "no/such-scenario",
        "chaos/tls/no-such-fault",
        "netchaos/tls/no-such-pattern",
    ] {
        assert!(builtin(unknown).is_none(), "{unknown} must not resolve");
    }
}

/// Any small random drop schedule is recoverable: the offloaded receiver
/// still delivers the exact transmitted stream and reconverges.
#[test]
fn random_drop_schedules_always_deliver() {
    let cfg = ano_testkit::Config::with_cases(5);
    ano_testkit::check(
        "random_drop_schedules_always_deliver",
        &cfg,
        &(script_gen(40, 4),),
        |(script,)| {
            let sc = Scenario::new("prop/drops", Workload::Tls { bytes: 24_000 })
                .data_script(script.clone());
            run(&sc, Arm::Offload).assert_clean();
        },
    );
}

/// Overlapping, adjacent and empty `Match::Window` drop rules — the shape
/// stacked `Script::partition`s compose into — agree with a naive per-rule
/// containment oracle at every probe (including the exact endpoints, where
/// half-open-interval bugs live), and `last_window_end` bounds every
/// windowed drop.
#[test]
fn window_scripts_match_naive_oracle_and_bound_drops() {
    const HORIZON_NS: u64 = 1_000_000;
    let cfg = ano_testkit::Config::with_cases(128);
    ano_testkit::check(
        "window_scripts_match_naive_oracle_and_bound_drops",
        &cfg,
        &(window_script_gen(HORIZON_NS, 5),),
        |(script,)| {
            let windows = windows_of(script);
            // Probe a grid denser than the generator's own, plus every
            // window's exact `from`, `to` and `to - 1`.
            let mut probes: Vec<u64> = (0..=64).map(|i| i * (HORIZON_NS / 64)).collect();
            probes.extend(windows.iter().flat_map(|&(f, t)| [f, t, t.saturating_sub(1)]));
            for &t in &probes {
                let now = SimTime::from_nanos(t);
                let naive = windows.iter().any(|&(f, to)| f <= t && t < to);
                assert_eq!(
                    script.drops(0, now),
                    naive,
                    "composed schedule disagrees with the per-rule oracle at t={t}ns \
                     (windows {windows:?})"
                );
                if naive {
                    let end = script.last_window_end().expect("windowed drop implies a window");
                    assert!(
                        now < end,
                        "drop at t={t}ns outside last_window_end={end:?} (windows {windows:?})"
                    );
                }
            }
            assert_eq!(
                script.last_window_end(),
                windows.iter().map(|&(_, to)| to).max().map(SimTime::from_nanos),
                "last_window_end is exactly the latest rule end"
            );
        },
    );
}

/// The schedule generator shrinks a failing drop schedule to a minimal one:
/// greedy shrinking against "fails iff any drop index >= 17" converges to a
/// single drop.
#[test]
fn script_gen_shrinks_to_minimal_schedule() {
    let fails = |s: &Script| drop_indices_of(s).iter().any(|&i| i >= 17);
    let g = script_gen(40, 8);
    let mut cur = Script::drop_indices(&[3, 17, 29]);
    assert!(fails(&cur));
    loop {
        let Some(next) = g.shrink(&cur).into_iter().find(|c| fails(c)) else {
            break;
        };
        cur = next;
    }
    let minimal = drop_indices_of(&cur);
    assert_eq!(minimal.len(), 1, "one drop suffices: {minimal:?}");
    assert!(minimal[0] >= 17, "and it is a triggering index");
}

/// The PR-1 regression schedule expressed as a `Script` cycles exactly like
/// the original bool array (the drop oracle the regression port relies on).
#[test]
fn drop_cycle_script_matches_bool_schedule() {
    let mut pattern = vec![false; 64];
    for i in [2usize, 3, 5, 7, 9, 11, 13, 14] {
        pattern[i] = true;
    }
    let script = Script::drop_cycle(pattern.clone(), u64::MAX);
    for idx in 0..200u64 {
        assert_eq!(
            script.drops(idx, ano_sim::time::SimTime::ZERO),
            pattern[idx as usize % pattern.len()],
            "index {idx}"
        );
    }
}

/// The builder surface used by EXPERIMENTS.md examples: data and ACK
/// scripts land on the two directions of flow 0's pair.
#[test]
fn scenario_builders_compose() {
    let sc = Scenario::new("compose", tls_workload())
        .data_script(Script::drop_nth(2))
        .ack_script(Script::drop_nth(5));
    let pairs: Vec<_> = sc.shape.scripts.iter().map(|(p, _)| *p).collect();
    assert_eq!(pairs, [(0, 1), (1, 0)], "TLS data runs client -> server");
    assert!(sc.expect_complete && sc.expect_reconverge);
}
