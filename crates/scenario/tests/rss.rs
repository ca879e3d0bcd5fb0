//! RSS steering tier: multi-queue runs vs the single-queue software twin,
//! induced imbalance and the oRSS rebalancer, and the context-survival vs
//! cache-thrash split between affinity migration and queue re-steering.

use ano_core::nic::NicConfig;
use ano_core::rss::RssSteering;
use ano_scenario::{check_golden, run, run_differential, Arm, Outcome, Scenario, Workload};
use ano_sim::time::SimDuration;
use ano_stack::prelude::RebalanceConfig;
use ano_trace::event::Category;
use ano_trace::export;

/// The steering scenario every test in this tier riffs on: 4 two-core
/// clients, 16 TLS flows into one 4-core server with 4 rx queues over a
/// 64-bucket indirection table.
fn base() -> Scenario {
    let mut sc = Scenario::fleet("rss", 4, 1, 16, Workload::TlsRx { bytes: 32 * 1024 });
    sc.shape.cfg.seed = 11;
    sc.shape.client.cores = 2;
    sc.shape.server.nic.rx_queues = 4;
    sc.shape.server.nic.rss_buckets = 64;
    sc
}

/// The imbalance-induction variant: an all-zeros indirection table pins
/// every flow to queue 0 (and so core 0), and a rebalancer tuned for these
/// short runs is on — ticking well inside the transfer, low noise floor,
/// one move per tick.
fn induced(steer_queues: bool) -> Scenario {
    let mut sc = base();
    sc.name = format!("rss/induced/steer={steer_queues}");
    sc.induce_table = Some(vec![0; 64]);
    sc.shape.cfg.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_micros(20),
        trigger: 1.5,
        min_cycles: 5_000,
        max_moves: 1,
        steer_queues,
    });
    sc
}

fn distinct_cores(out: &Outcome) -> usize {
    let mut cores: Vec<usize> = out.flows.iter().map(|f| f.placement.1).collect();
    cores.sort_unstable();
    cores.dedup();
    cores.len()
}

/// An iperf-style 4-queue/4-core run is byte-identical, per flow, to its
/// single-queue software twin — steering must be application-invisible —
/// and actually spreads the population over multiple queues and cores.
#[test]
fn multi_queue_run_matches_single_queue_software_twin() {
    let (on, off) = run_differential(&base());
    let server = on.world.server(0);

    let queue_pkts = on.world.queue_rx_pkts(server);
    let live_queues = queue_pkts.iter().filter(|&&p| p > 0).count();
    assert!(
        live_queues > 1,
        "16 hashed flows must land on more than one queue (got {queue_pkts:?})"
    );
    assert!(
        distinct_cores(&on) > 1,
        "flows must run on more than one core"
    );
    // Every placement agrees with an independent Toeplitz computation
    // over the NIC's key seed and default table.
    let steering = RssSteering::new(4, 64, NicConfig::default().rss_key_seed);
    for f in &on.flows {
        let tuple = on
            .world
            .rx_tuple(server, f.conn)
            .expect("server-side tuple");
        assert_eq!(
            f.placement.0,
            steering.queue_for(&tuple),
            "conn {:?} steered off-hash",
            f.conn
        );
    }
    // The single-queue twin keeps everything on queue 0 by construction.
    assert_eq!(off.world.queue_rx_pkts(off.world.server(0)).len(), 1);
    assert!(
        on.world.migrations(server) == 0 && off.world.migrations(server) == 0,
        "no rebalancer configured"
    );
}

/// With parallelism measured: the multi-queue run's per-core busy-cycle
/// spread (max over mean; 1.0 is even, the core count is everything on
/// one core) stays far from the everything-on-one-core extreme.
#[test]
fn hashed_flows_spread_cpu_load() {
    let on = run(&base(), Arm::Offload);
    on.assert_clean();
    assert!(on.complete());
    let cycles = on.world.cpu_snapshot(on.world.server(0));
    let cores = cycles.len() as f64;
    let spread = *cycles.iter().max().unwrap() as f64 * cores / cycles.iter().sum::<u64>() as f64;
    assert!(
        spread < cores * 0.75,
        "busy-core spread {spread:.2} too close to single-core ({cores} cores)"
    );
}

/// An induced hot core (all flows steered to queue 0) trips the
/// rebalancer: migrations happen, the population ends up on several
/// cores, and every post-migration stream is still byte-identical to the
/// software twin.
#[test]
fn induced_imbalance_triggers_rebalancing() {
    let (on, off) = run_differential(&induced(false));
    let server = on.world.server(0);
    let imbalance = on.world.queue_imbalance(server);
    assert!(
        imbalance > 3.0,
        "all-zeros table must overload queue 0 (imbalance {imbalance:.2})"
    );
    assert!(
        on.world.migrations(server) > 0,
        "hot core must trigger flow migrations (imbalance {imbalance:.2})"
    );
    assert!(
        distinct_cores(&on) > 1,
        "rebalancer must spread the population off the hot core"
    );
    // Twin equality (checked inside run_differential) is the headline;
    // also pin that the static twin saw no rebalancing machinery at all.
    assert_eq!(off.world.migrations(server), 0);
}

/// The paper-physics split the rebalancer trades on: affinity migration
/// keeps the NIC context alive (same device, same queue — zero crossings,
/// only cold-start misses), while queue re-steering thrashes it (bucket
/// remaps cross queues, each crossing evicting an rx context). Both stay
/// byte-identical to the software twin.
#[test]
fn migration_survives_context_while_steering_thrashes_it() {
    let (affinity, _) = run_differential(&induced(false));
    let (steer, _) = run_differential(&induced(true));
    for out in [&affinity, &steer] {
        assert!(out.complete());
        assert!(
            out.world.migrations(out.world.server(0)) > 0,
            "{}: must migrate",
            out.name
        );
    }
    let server = affinity.world.server(0);
    let (a, s) = (
        affinity.world.nic_counters(server),
        steer.world.nic_counters(server),
    );

    // Affinity-only: the context survives every migration. The flow count
    // bounds cold misses: one per installed rx engine, nothing more.
    assert_eq!(
        a.queue_crossings, 0,
        "affinity migration must not cross queues"
    );
    assert!(
        a.cache_misses <= affinity.flows.len() as u64,
        "affinity arm paid more than cold-start misses: {} > {}",
        a.cache_misses,
        affinity.flows.len()
    );

    // Re-steering: every remapped flow crosses queues and pays an evict +
    // refill. Strictly more misses than the affinity arm's cold start.
    assert!(s.queue_crossings > 0, "steering arm must cross queues");
    assert!(
        s.cache_misses > a.cache_misses,
        "queue crossings must thrash the context cache ({} vs {})",
        s.cache_misses,
        a.cache_misses
    );
}

/// The steer→imbalance→migrate→re-offload ladder as a committed golden
/// trace (Device category): initial `nic.queue` placements, `core.migrate`
/// moves, and — because this variant re-steers queues — the
/// `device.ctx-evict` records of each crossing, after which the flow keeps
/// offloading on the new queue.
///
/// Regenerate after an intentional behavior change with
/// `BLESS=1 cargo test -p ano-scenario --test rss golden` and review the
/// diff — the ladder is the review artifact.
#[test]
fn golden_rss_migrate_ladder() {
    let mut sc = induced(true);
    sc.name = "rss/golden/migrate".into();
    let out = run(&sc, Arm::Offload);
    out.assert_clean();
    assert!(out.complete(), "golden scenario must complete");
    assert_eq!(
        out.trace_dropped, 0,
        "trace ring wrapped; golden would be truncated"
    );
    let got = export::canonical(&out.trace, &[Category::Device]);
    check_golden("golden/rss_migrate.golden", &got);

    // The golden meaningfully pins the ladder, not just any device noise.
    assert!(
        got.contains("nic.queue"),
        "golden must pin the initial steering"
    );
    assert!(
        got.contains("core.migrate"),
        "golden must pin the migrations"
    );
    assert!(
        got.contains("device.ctx-evict"),
        "golden must pin the crossing-evict cost"
    );
}

/// Scale run (CI `rss` tier): 512 flows hashed over 16 queues on an
/// 8-core server still deliver byte-identically and respect the 2× fair
/// share distribution bound end-to-end.
#[test]
#[ignore = "scale run: slow; exercised by the ci.sh rss tier"]
fn rss_scale_16_queues_512_flows() {
    let mut sc = base();
    sc.shape.clients = 8;
    let mut sc = sc.placed(512, Workload::TlsRx { bytes: 2 * 1024 });
    sc.name = "rss/scale".into();
    sc.shape.server.cores = 8;
    sc.shape.server.nic.rx_queues = 16;
    sc.shape.server.nic.rss_buckets = 256;
    sc.shape.server.nic.ctx_cache_capacity = 4096;
    sc.sim_budget = SimDuration::from_millis(400);
    let (on, _off) = run_differential(&sc);

    let pkts = on.world.queue_rx_pkts(on.world.server(0));
    let fair = pkts.iter().sum::<u64>() as f64 / pkts.len() as f64;
    let max = *pkts.iter().max().unwrap() as f64;
    assert!(
        max <= 2.0 * fair,
        "queue packet load {max} exceeds 2x fair share {fair:.0} ({pkts:?})"
    );
}
