//! Fleet network-chaos differential matrix: scheduled partition/repair
//! plans over fleet subsets, asymmetric holds, and mid-run impairment
//! sweeps — every scenario vs a fault-free software twin, byte-identical
//! streams required, with partition-aware breaker suppression and the
//! repair-driven §4.3 re-offload ladder checked per flow.

use ano_scenario::invariant::dark_pairs;
use ano_scenario::{builtin, builtins, run_differential, Scenario, Workload};
use ano_sim::link::LinkMode;
use ano_stack::prelude::Fleet;
use ano_stack::world::NetOp;

fn netchaos() -> Vec<Scenario> {
    builtins()
        .into_iter()
        .filter(|s| s.name.starts_with("netchaos/"))
        .collect()
}

/// Both workloads appear in the matrix, and every pattern without an
/// impairment sweep darkens some pair.
#[test]
fn netchaos_matrix_covers_both_workloads() {
    let m = netchaos();
    assert!(m
        .iter()
        .any(|s| matches!(s.flows[0].workload, Workload::TlsRx { .. })));
    assert!(m
        .iter()
        .any(|s| matches!(s.flows[0].workload, Workload::Nvme { .. })));
    for sc in &m {
        let sweep = sc
            .plan
            .steps()
            .iter()
            .any(|(_, op)| matches!(op, NetOp::Impair(..)));
        if !sweep {
            assert!(
                !dark_pairs(&sc.plan, false).is_empty(),
                "{}: lossless patterns are partition/hold patterns",
                sc.name
            );
        }
    }
}

/// Smoke: one server rack goes dark mid-transfer and heals. Affected
/// flows must quiesce, survive, re-install and re-offload; unaffected
/// flows must never notice.
#[test]
fn smoke_server_dark_reoffloads() {
    let (on, _off) = run_differential(&builtin("netchaos/tls/server-dark").expect("built-in"));
    // The dark flows actually walked the ladder: at least one resync
    // transition was recorded fleet-wide.
    assert!(
        on.flows.iter().any(|f| !f.ladder.is_empty()),
        "a partition that hit live flows must force resync"
    );
    // And frames were genuinely swallowed while dark.
    let swallowed: u64 = (0..3)
        .map(|c| {
            on.world.link_stats_between(c, 3).partitioned
                + on.world.link_stats_between(3, c).partitioned
        })
        .sum();
    assert!(swallowed > 0, "dark links swallowed nothing");
}

/// Smoke: the NVMe arm of the same pattern (data flows target→initiator;
/// the offloads under chaos live on the client NICs).
#[test]
fn smoke_nvme_client_cut() {
    run_differential(&builtin("netchaos/nvme/client-cut").expect("built-in"));
}

/// Smoke: asymmetric hold — one direction parks deliveries in order and
/// flushes on release; nothing is lost, nothing is partitioned-counted
/// beyond the held pair.
#[test]
fn smoke_ack_hold() {
    run_differential(&builtin("netchaos/tls/ack-hold").expect("built-in"));
}

/// The two-host declared-outage extra: same blackhole shape that trips
/// the watchdog when undeclared, silent when declared — and the transfer
/// still completes and reconverges after repair.
#[test]
fn declared_partition_suspends_watchdog() {
    let (on, off) = run_differential(&builtin("tls/declared-partition").expect("built-in"));
    assert!(on.complete() && off.complete());
    assert!(
        !on.violations
            .iter()
            .any(|v| v.invariant == "forward-progress"),
        "declared outage must not trip the watchdog"
    );
}

/// The full matrix: every pattern × workload × shape, differentially.
/// Heavier than the smokes — run with `--ignored` (CI netchaos tier).
#[test]
#[ignore = "heavy: full netchaos matrix; CI runs it in the netchaos tier"]
fn netchaos_matrix_differential() {
    for sc in netchaos() {
        println!("== {}", sc.name);
        run_differential(&sc);
    }
}

/// Scale: a rack partitioned in the middle of connection churn. Every
/// wave connects a fresh 12-flow population, gets its server rack cut and
/// repaired mid-flight, and must still deliver byte-identical streams in
/// both arms — the install ladder, partition quiesce and repair
/// re-install machinery cycling together.
#[test]
#[ignore = "heavy: churn under partition; CI runs it in the netchaos tier"]
fn rack_partition_mid_churn_stays_byte_identical() {
    let dark = builtin("netchaos/tls/server-dark").expect("built-in");
    for round in 0..3u64 {
        let mut sc = dark.clone().placed(12, Workload::TlsRx { bytes: 96_000 });
        sc.name = format!("netchaos/churn/wave{round}");
        sc.shape.cfg.seed += round;
        run_differential(&sc);
    }
}

/// Imperative chaos: `apply_net_op` mid-run (no plan) severs and heals a
/// pair; the link mode follows and the rest of the mesh is untouched.
#[test]
fn apply_net_op_is_the_imperative_spelling() {
    let sc = builtin("netchaos/tls/server-dark").expect("built-in");
    let mut fleet = Fleet::build(sc.shape);
    fleet
        .world_mut()
        .apply_net_op(NetOp::Partition(vec![0], vec![3]));
    assert_eq!(fleet.world().link_mode_between(0, 3), LinkMode::Partitioned);
    assert_eq!(fleet.world().link_mode_between(1, 3), LinkMode::Normal);
    fleet
        .world_mut()
        .apply_net_op(NetOp::Repair(vec![0], vec![3]));
    assert_eq!(fleet.world().link_mode_between(0, 3), LinkMode::Normal);
}
