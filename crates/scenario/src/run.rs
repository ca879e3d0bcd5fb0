//! Scenario execution: one run loop for every scenario, in either of two
//! arms, and the differential runner that holds the offload arm to its
//! software twin.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use ano_core::rx::RxStateKind;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::{ConnId, Fleet};
use ano_trace::{export, Event as TraceEvent, Record, ResyncPhase};

use crate::apps::{Delivered, FlowApp};
use crate::invariant::{compare_twins, finish_checks, Checkers, Violation};
use crate::scenario::{Scenario, Workload};

/// Invariant-checking granularity: the world runs in slices of this length,
/// with every per-step checker evaluated between slices.
const STEP: SimDuration = SimDuration::from_micros(500);

/// Which variant of a scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Offload engines per each workload's footprint, plus the scenario's
    /// device faults, RSS queues, rebalancer and induced table.
    Offload,
    /// The software twin: no engines, no device faults, one rx queue, no
    /// rebalancer and no induced table. Links, scripts and the network
    /// plan are identical to the offload arm's.
    Software,
}

/// One flow's record: placement, what it had to deliver, what it did, and
/// its receiver's offload state when its wave ended.
#[derive(Clone, Debug)]
pub struct FlowRun {
    /// The connection.
    pub conn: ConnId,
    /// Client world host.
    pub client: usize,
    /// Server world host.
    pub server: usize,
    /// What the flow carried.
    pub workload: Workload,
    /// The flow's NVMe reads in device offsets (empty for TLS).
    pub reads: Vec<(u64, u32)>,
    /// The stream it had to deliver.
    pub expected: Vec<u8>,
    /// What its receiving application recorded.
    pub delivered: Delivered,
    /// The receiver's incoming flow label (filters the trace).
    pub rx_flow: u64,
    /// The receiver rx engine's ordered `(from, to)` resync transitions.
    pub ladder: Vec<(ResyncPhase, ResyncPhase)>,
    /// Final rx-engine state at the receiver (`None` when no engine).
    pub rx_state: Option<RxStateKind>,
    /// Why the receiver's circuit breaker opened, if it did.
    pub breaker: Option<&'static str>,
    /// Packets the receiver's rx engine fully offloaded.
    pub rx_offloaded_pkts: u64,
    /// Packets served in degraded (software-fallback) mode at the receiver.
    pub degraded_pkts: u64,
    /// kTLS alerts at the receiver.
    pub alerts: u64,
    /// The receiver's rx queue and core for this connection.
    pub placement: (u16, usize),
}

impl FlowRun {
    /// The host whose rx path carries the payload.
    pub fn receiver(&self) -> usize {
        if self.workload.server_sends() {
            self.client
        } else {
            self.server
        }
    }
}

/// Result of one run.
pub struct Outcome {
    /// Scenario name.
    pub name: String,
    /// Which arm ran.
    pub arm: Arm,
    /// Step time at which the last expected byte arrived (last wave).
    pub finish: Option<SimTime>,
    /// Step time at which the run stopped.
    pub end: SimTime,
    /// Every flow of every wave, in connect order.
    pub flows: Vec<FlowRun>,
    /// Invariant violations, in detection order (the differential runner
    /// appends the twin comparator's).
    pub violations: Vec<Violation>,
    /// Full trace of the run, oldest first.
    pub trace: Vec<Record>,
    /// Trace records the ring overwrote.
    pub trace_dropped: u64,
    /// The world as the run left it, for host-level counters.
    pub world: Fleet,
    /// World host indices of the servers.
    pub servers: Range<usize>,
}

impl Outcome {
    /// Whether every flow delivered every byte.
    pub fn complete(&self) -> bool {
        self.finish.is_some()
    }

    /// The run's canonical golden-trace rendering.
    pub fn canonical_trace(&self) -> String {
        export::canonical(&self.trace, export::GOLDEN_CATEGORIES)
    }

    /// Context-cache `(hits, misses)` summed over the server NICs.
    pub fn cache(&self) -> (u64, u64) {
        self.servers
            .clone()
            .map(|h| self.world.nic_counters(h))
            .fold((0, 0), |(h, m), c| (h + c.cache_hits, m + c.cache_misses))
    }

    /// Open breaker reasons, in flow order.
    pub fn breakers(&self) -> Vec<&'static str> {
        self.flows.iter().filter_map(|f| f.breaker).collect()
    }

    /// Panics with every violation, appending the trailing trace window so
    /// the report shows what the stack was doing right before things went
    /// wrong.
    pub fn assert_clean(&self) {
        if self.violations.is_empty() {
            return;
        }
        let skip = self.trace.len().saturating_sub(40);
        panic!(
            "scenario '{}' ({:?} arm): {} violation(s):\n{}\nlast {} trace records:\n{}",
            self.name,
            self.arm,
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
            self.trace.len() - skip,
            export::timeline(&self.trace[skip..]),
        );
    }
}

/// Runs one scenario in one arm, checking invariants at every step and at
/// the end. Violations are collected, not panicked.
pub fn run(sc: &Scenario, arm: Arm) -> Outcome {
    let offload = arm == Arm::Offload;
    let mut shape = sc.shape.clone();
    if !offload {
        shape.client.nic.rx_queues = 1;
        shape.server.nic.rx_queues = 1;
        shape.cfg.rebalance = None;
    }
    let hosts = shape.clients + shape.servers;
    let mut world = Fleet::build(shape);
    // Every run records: the trace feeds the resync-ladder checks, failure
    // reports and the golden-trace tests.
    world.tracer().set_enabled(true);
    if offload {
        if let Some(table) = &sc.induce_table {
            for j in 0..sc.shape.servers {
                let host = world.server(j);
                world.set_rss_table(host, table.clone());
            }
        }
        for (host, plan) in &sc.faults {
            world.set_device_faults(*host, plan.clone());
        }
    }

    let log = Rc::new(RefCell::new(BTreeMap::new()));
    let mut flows: Vec<FlowRun> = Vec::new();
    let mut checkers = Checkers::new(sc);
    let mut finish = None;
    let mut t = world.now();
    for wave in 0..sc.waves {
        let first = flows.len();
        let mut apps: Vec<FlowApp> = (0..hosts).map(|_| FlowApp::new(&log)).collect();
        for (i, f) in sc.flows.iter().enumerate() {
            let k = first + i;
            let (client_spec, server_spec) = f.workload.specs(arm);
            let conn = world.connect(f.client, f.server, client_spec, server_spec);
            let (client, server) = (world.client(f.client), world.server(f.server));
            let reads = f.workload.reads(k);
            let expected = f.workload.expected(k, sc.shape.cfg.seed);
            if f.workload.server_sends() {
                apps[client].reads.push((conn, reads.clone()));
            } else {
                apps[client].sends.push((conn, expected.clone()));
            }
            flows.push(FlowRun {
                conn,
                client,
                server,
                workload: f.workload.clone(),
                reads,
                expected,
                delivered: Delivered::default(),
                rx_flow: 0,
                ladder: Vec::new(),
                rx_state: None,
                breaker: None,
                rx_offloaded_pkts: 0,
                degraded_pkts: 0,
                alerts: 0,
                placement: (0, 0),
            });
        }
        for (h, app) in apps.into_iter().enumerate() {
            world.set_app(h, Box::new(app));
        }
        if wave == 0 {
            world.set_net_plan(sc.plan.clone());
        }
        world.start();

        let target: u64 = flows.iter().map(|f| f.expected.len() as u64).sum();
        let deadline = world.now() + sc.sim_budget;
        t = world.now();
        finish = None;
        loop {
            t += STEP;
            world.run_until(t);
            let bytes = checkers.step(t, &flows, &log.borrow());
            if bytes >= target && finish.is_none() {
                finish = Some(t);
            }
            // Stop once the world quiesces (trailing ACKs and timers
            // drained; an incomplete transfer is flagged at the end), or at
            // the budget.
            if world.is_idle() || t >= deadline {
                break;
            }
        }
        for f in &mut flows[first..] {
            let (h, c) = (f.receiver(), f.conn);
            f.rx_flow = world.flow_ids(h, c).map_or(0, |(_, rx)| rx);
            f.rx_state = world.rx_engine_state(h, c);
            f.breaker = world.breaker_reason(h, c);
            f.rx_offloaded_pkts = world.rx_engine_stats(h, c).map_or(0, |s| s.pkts_offloaded);
            f.degraded_pkts = world.degraded_pkts(h, c);
            f.alerts = world.ktls_rx_stats(h, c).map_or(0, |s| s.alerts);
            f.placement = (
                world.rx_queue_of(h, c).unwrap_or(0),
                world.conn_core(h, c).unwrap_or(0),
            );
        }
        // A churn wave tears down only after full delivery, so both arms
        // cycle identical streams through every wave.
        if finish.is_none() || wave + 1 == sc.waves {
            break;
        }
        for f in &flows[first..] {
            world.disconnect(f.conn);
        }
    }

    let trace = world.tracer().records();
    let mut ladders: BTreeMap<u64, Vec<(ResyncPhase, ResyncPhase)>> = BTreeMap::new();
    for r in &trace {
        if let TraceEvent::Resync { from, to, .. } = r.event {
            ladders.entry(r.flow).or_default().push((from, to));
        }
    }
    let mut log = log.borrow_mut();
    for f in &mut flows {
        f.delivered = log.remove(&f.conn).unwrap_or_default();
        f.ladder = ladders.remove(&f.rx_flow).unwrap_or_default();
    }
    let mut out = Outcome {
        name: sc.name.clone(),
        arm,
        finish,
        end: t,
        flows,
        violations: checkers.violations,
        trace_dropped: world.tracer().dropped(),
        trace,
        world,
        servers: sc.shape.clients..hosts,
    };
    out.violations.extend(finish_checks(sc, &out));
    out
}

/// Runs `sc` in both arms and holds the offload arm to its software twin
/// (byte-identical per-flow streams, matching completion, no rx engine in
/// the twin, bounded completion-time divergence). Panics through
/// [`Outcome::assert_clean`] on any violation of either arm or the pair;
/// returns `(offload, software)` for further inspection.
pub fn run_differential(sc: &Scenario) -> (Outcome, Outcome) {
    let mut on = run(sc, Arm::Offload);
    let off = run(sc, Arm::Software);
    let twin = compare_twins(sc, &on, &off);
    on.violations.extend(twin);
    on.assert_clean();
    (on, off)
}

/// One point of the context-cache sensitivity curve. All fields are exact
/// integers so the committed expected file is byte-stable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SensitivityPoint {
    /// Concurrent flows at this point.
    pub flows: usize,
    /// Server cache hits over the whole run.
    pub cache_hits: u64,
    /// Server cache misses over the whole run.
    pub cache_misses: u64,
    /// Connections the cache-thrash breaker pushed to software.
    pub breakers: usize,
    /// Packets served in degraded mode after a breaker opened.
    pub degraded_pkts: u64,
    /// Packets fully offloaded by surviving rx engines.
    pub rx_offloaded_pkts: u64,
    /// Offload-arm completion time.
    pub finish_ns: u64,
}

impl SensitivityPoint {
    /// Hit-rate at this point.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 1.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// Sweeps the flow count across `flow_counts`, running every point
/// differentially (thrash must never become application-visible
/// corruption). `at(flows)` builds the scenario for one point.
pub fn sensitivity_curve(
    at: impl Fn(usize) -> Scenario,
    flow_counts: &[usize],
) -> Vec<SensitivityPoint> {
    flow_counts
        .iter()
        .map(|&flows| {
            let (on, _off) = run_differential(&at(flows));
            let (cache_hits, cache_misses) = on.cache();
            SensitivityPoint {
                flows,
                cache_hits,
                cache_misses,
                breakers: on.breakers().len(),
                degraded_pkts: on.flows.iter().map(|f| f.degraded_pkts).sum(),
                rx_offloaded_pkts: on.flows.iter().map(|f| f.rx_offloaded_pkts).sum(),
                finish_ns: on.finish.map_or(0, |t| t.as_nanos()),
            }
        })
        .collect()
}

/// Renders a curve in the committed expected-data format.
pub fn render_curve(points: &[SensitivityPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "flows={} hits={} misses={} breakers={} degraded_pkts={} offloaded_pkts={} finish_ns={}\n",
                p.flows, p.cache_hits, p.cache_misses, p.breakers, p.degraded_pkts, p.rx_offloaded_pkts, p.finish_ns
            )
        })
        .collect()
}

/// Compares `got` with this crate's committed file `tests/<rel>` (a golden
/// trace or expected data), or rewrites the file when `BLESS` is set. The
/// diff is the review artifact: re-bless only for an intentional behavior
/// change, and never blindly.
pub fn check_golden(rel: &str, got: &str) {
    assert!(
        !got.is_empty(),
        "{rel}: the run produced nothing to compare"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(rel);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run the test with BLESS=1 to create it",
            path.display()
        )
    });
    if got != want {
        let line = want
            .lines()
            .zip(got.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
        panic!(
            "{rel} mismatch at line {}:\n  golden: {}\n  got:    {}\n({} golden lines, {} \
             actual). If the behavior change is intentional, re-bless with BLESS=1 and \
             review the diff.",
            line + 1,
            want.lines().nth(line).unwrap_or("<eof>"),
            got.lines().nth(line).unwrap_or("<eof>"),
            want.lines().count(),
            got.lines().count(),
        );
    }
}
