//! End-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! simbench --workload <stream|fleet|lossy_functional|all> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! One run builds the workload from its seed, warms it up, and times a
//! fixed simulated window in slices; it repeats that until `--seconds` of
//! host time are spent and reports medians. Host times are scaled by a
//! reference pass timed next to them (see `hostref`). With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it alternates untraced
//! and traced repetitions and times single layers, and prints the
//! per-layer metrics.
//! The last line of standard output is one JSON object; a table goes to
//! standard error. The exit code is non-zero when any check fails. See
//! README.md for the workloads and the metric map.

#![forbid(unsafe_code)]

mod counters;
mod hostref;
mod spans;
mod workload;

use std::time::{Duration, Instant};

use ano_sim::time::{SimDuration, SimTime};
use ano_trace::Category;

use counters::{max_over_mean, share, Snap};
use hostref::{scale, HostRef};
use workload::{Built, Kind};

/// Repetitions every untraced run makes at least: the determinism check
/// needs two. A traced run compares its traced repetitions with the
/// untraced ones and needs one of each.
const MIN_REPS: usize = 2;
/// Upper bound on repetitions, whatever the time budget.
const MAX_REPS: usize = 400;

struct Args {
    workloads: Vec<(&'static str, Kind)>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [(&str, Kind); 3] = [
    ("stream", Kind::Stream),
    ("fleet", Kind::Fleet),
    ("lossy_functional", Kind::LossyFunctional),
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.0 == value);
                args.workloads = vec![*w.ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < S <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Trace records of the window, by category, in `Category` order.
const CATEGORIES: [(&str, Category); 7] = [
    ("tcp", Category::Tcp),
    ("offload", Category::Offload),
    ("resync", Category::Resync),
    ("crypto", Category::Crypto),
    ("cpu", Category::Cpu),
    ("device", Category::Device),
    ("net", Category::Net),
];

/// The tracer's simulated-cycle counters reported per layer.
const CYCLE_COUNTERS: [(&str, &str); 3] = [
    ("tls_decrypt", "cpu.tls.decrypt"),
    ("nvme_copy", "cpu.nvme.copy"),
    ("nvme_crc", "cpu.nvme.crc"),
];

/// What a traced window recorded.
#[derive(Default)]
struct TraceStats {
    by_category: [u64; 7],
    dropped: u64,
    cycles: [u64; 3],
}

/// One repetition: set-up, then the timed window.
struct Rep {
    /// Host seconds to build, connect and warm up, and the mean of the
    /// reference passes timed just before and just after.
    setup: (f64, f64),
    /// Per slice: host ns, packets offered, application bytes delivered,
    /// and the mean of the reference passes timed just before and just
    /// after it. A traced repetition advances in 1 ms steps but times a
    /// reference pass only as often as an untraced one, so only every
    /// few steps carry one.
    slices: Vec<Slice>,
    /// Counters accumulated over the window.
    window: Snap,
    /// Counters at the end of the window.
    end: Snap,
    /// Per-flow bytes delivered in the window.
    flow_bytes: Vec<u64>,
    /// fio latency percentiles over the window (p50, p99), µs simulated.
    fio_lat_us: (f64, f64),
    /// Average busy server cores over the window, summed over servers.
    server_busy_cores: f64,
    trace: Option<TraceStats>,
}

struct Slice {
    wall_ns: f64,
    pkts: u64,
    bytes: u64,
    ref_ns: Option<f64>,
}

impl Rep {
    /// Host ns of the window, scaled by the median reference pass of the
    /// repetition.
    fn window_scaled_ns(&self) -> f64 {
        let wall: f64 = self.slices.iter().map(|s| s.wall_ns).sum();
        let mut refs: Vec<f64> = self.slices.iter().filter_map(|s| s.ref_ns).collect();
        scale(wall, median(&mut refs))
    }

    /// The reference times of the repetition: its set-up's and its
    /// slices'.
    fn ref_passes(&self) -> impl Iterator<Item = f64> + '_ {
        std::iter::once(self.setup.1).chain(self.slices.iter().filter_map(|s| s.ref_ns))
    }
}

fn cycle_counters(b: &Built) -> [u64; 3] {
    b.fleet
        .tracer()
        .with_metrics(|m| CYCLE_COUNTERS.map(|(_, name)| m.counter_total(name)))
}

fn flow_bytes(b: &Built) -> Vec<u64> {
    b.flows
        .iter()
        .map(|f| b.fleet.delivered_bytes(f.sink(), f.conn))
        .collect()
}

/// Runs one repetition of `kind`. A traced repetition advances the window
/// in 1 ms steps and drains the trace ring after each, so every record of
/// the window is counted.
fn run_rep(kind: Kind, seed: u64, traced: bool, href: &mut HostRef) -> Rep {
    let shape = kind.shape();
    let ref_before = href.pass_ns();
    let t0 = Instant::now();
    let mut b = workload::build(kind, seed, traced);
    let start = SimTime::ZERO + shape.warmup;
    b.fleet.run_until(start);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut last_pass = href.pass_ns();
    let setup = (setup_s, (ref_before + last_pass) / 2.0);
    b.open_window();

    let snap0 = Snap::take(&b);
    let bytes0 = flow_bytes(&b);
    let steps = if traced {
        (shape.window.as_nanos() / 1_000_000).max(1)
    } else {
        u64::from(shape.slices)
    };
    let pass_every = (steps / u64::from(shape.slices)).max(1);
    let mut trace = traced.then(|| {
        b.fleet.tracer().clear();
        TraceStats::default()
    });
    let cycles0 = cycle_counters(&b);
    let mut slices = Vec::with_capacity(steps as usize);
    let mut prev = snap0.clone();
    for k in 1..=steps {
        let until = start + SimDuration::from_nanos(shape.window.as_nanos() * k / steps);
        let t = Instant::now();
        b.fleet.run_until(until);
        let wall_ns = t.elapsed().as_nanos() as f64;
        let ref_ns = (k % pass_every == 0 || k == steps).then(|| {
            let pass = href.pass_ns();
            let around = (last_pass + pass) / 2.0;
            last_pass = pass;
            around
        });
        let now = Snap::take(&b);
        slices.push(Slice {
            wall_ns,
            pkts: now.pkts - prev.pkts,
            bytes: now.app_bytes - prev.app_bytes,
            ref_ns,
        });
        prev = now;
        if let Some(ts) = trace.as_mut() {
            let tracer = b.fleet.tracer();
            for r in tracer.records() {
                let cat = r.event.category();
                if let Some(i) = CATEGORIES.iter().position(|c| c.1 == cat) {
                    ts.by_category[i] += 1;
                }
            }
            ts.dropped += tracer.dropped();
            tracer.clear();
        }
    }
    if let Some(ts) = trace.as_mut() {
        let cycles1 = cycle_counters(&b);
        ts.cycles = [0, 1, 2].map(|i| cycles1[i] - cycles0[i]);
    }
    let server_busy_cores = b
        .servers
        .iter()
        .zip(&snap0.server_cores)
        .map(|(&h, cores)| b.fleet.busy_cores_since(h, cores, shape.window))
        .sum();
    let window = snap0.delta(&prev);
    let flow_bytes = flow_bytes(&b)
        .iter()
        .zip(&bytes0)
        .map(|(a, z)| a - z)
        .collect();
    let fio_lat_us = b.fio.as_ref().map_or((0.0, 0.0), |f| {
        let f = f.borrow();
        (f.latency_us.percentile(50.0), f.latency_us.percentile(99.0))
    });
    Rep {
        setup,
        slices,
        window,
        end: prev,
        flow_bytes,
        fio_lat_us,
        server_busy_cores,
        trace,
    }
}

/// A metric value with its unit.
type Metric = (String, f64, &'static str);

/// The end-to-end metrics over the untraced repetitions. Each host time
/// is scaled by the reference pass timed next to it.
fn end_to_end(kind: Kind, reps: &[&Rep], peak_rss: f64) -> Vec<Metric> {
    let mut ns_per_pkt: Vec<f64> = Vec::new();
    let mut mb_per_s: Vec<f64> = Vec::new();
    for s in reps.iter().flat_map(|r| &r.slices) {
        let ns = scale(
            s.wall_ns,
            s.ref_ns.expect("untraced slices time a reference pass"),
        );
        ns_per_pkt.push(ns / s.pkts.max(1) as f64);
        mb_per_s.push(s.bytes as f64 / (ns / 1e9) / 1e6);
    }
    let mut setup: Vec<f64> = reps.iter().map(|r| scale(r.setup.0, r.setup.1)).collect();
    let w = &reps[0].window;
    let window_s = kind.shape().window.as_secs_f64();
    vec![
        ("wall_ns_per_pkt".into(), median(&mut ns_per_pkt), "ns"),
        ("sim_mb_per_wall_s".into(), median(&mut mb_per_s), "MB/s"),
        ("setup_s".into(), median(&mut setup), "s"),
        ("peak_rss_mib".into(), peak_rss, "MiB"),
        (
            "sim_goodput_gbps".into(),
            w.app_bytes as f64 * 8.0 / window_s / 1e9,
            "Gb/s",
        ),
        (
            "sim_server_cycles_per_byte".into(),
            share(w.server_cycles(), w.app_bytes),
            "cycles/B",
        ),
    ]
}

/// The per-layer metrics: window counters of the first untraced
/// repetition, what the traced repetitions recorded, and single-layer
/// host timings.
fn per_layer(plain: &[&Rep], traced: &[&Rep], span_budget: Duration) -> Vec<Metric> {
    let w = &plain[0].window;
    let m = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
    let client_spread = w.client_cores.iter().map(|c| max_over_mean(c)).sum::<f64>()
        / w.client_cores.len().max(1) as f64;
    let imbalance = w
        .queue_pkts
        .iter()
        .map(|q| max_over_mean(q))
        .fold(1.0, f64::max);
    let records = w.records[0] + w.records[1] + w.records[2];
    let mut out = vec![
        m(
            "sim.sched.events_per_pkt",
            share(w.events, w.pkts),
            "events/pkt",
        ),
        m("sim.link.lost", w.lost as f64, "count"),
        m("sim.link.reordered", w.reordered as f64, "count"),
        m(
            "sim.cpu.server_busy_cores",
            plain[0].server_busy_cores,
            "cores",
        ),
        m("sim.cpu.client_core_spread", client_spread, "ratio"),
        m("tcp.retx_share", share(w.tcp_retx, w.tcp_sent), "ratio"),
        m("tcp.rto", w.tcp_rto as f64, "count"),
        m("tcp.fast_retx", w.tcp_fast_retx as f64, "count"),
        m(
            "core.nic.ctx_miss_share",
            share(w.ctx_misses, w.ctx_hits + w.ctx_misses),
            "ratio",
        ),
        m("core.nic.ctx_misses", w.ctx_misses as f64, "count"),
        m(
            "core.nic.pcie_ctx_bytes_per_pkt",
            share(w.pcie_ctx_bytes, w.pkts),
            "B/pkt",
        ),
        m(
            "core.nic.queue_crossings",
            w.queue_crossings as f64,
            "count",
        ),
        m("core.rss.queue_imbalance", imbalance, "ratio"),
        m("stack.migrations", w.migrations as f64, "count"),
        m(
            "core.rx.offloaded_share",
            share(w.rx_offloaded, w.rx_pkts),
            "ratio",
        ),
        m("core.rx.resync_requests", w.resync_requests as f64, "count"),
        m(
            "core.rx.resync_ok_share",
            share(w.resync_ok, w.resync_requests),
            "ratio",
        ),
        m("core.tx.recoveries", w.tx_recoveries as f64, "count"),
        m("core.tx.replay_bytes", w.tx_replay_bytes as f64, "B"),
        m(
            "tls.records_full_share",
            share(w.records[0], records),
            "ratio",
        ),
        m("tls.records_partial", w.records[1] as f64, "count"),
        m("tls.records_none", w.records[2] as f64, "count"),
        m(
            "nvme.crc_offloaded_share",
            share(w.nvme_crc_skipped, w.nvme_completions),
            "ratio",
        ),
        m(
            "nvme.placed_share",
            share(w.nvme_placed, w.nvme_placed + w.nvme_copied),
            "ratio",
        ),
        m("apps.fio.lat_p50_us", plain[0].fio_lat_us.0, "us"),
        m("apps.fio.lat_p99_us", plain[0].fio_lat_us.1, "us"),
        m("stack.degraded_pkts", w.degraded_pkts as f64, "count"),
        m("stack.breakers_open", w.breakers_open as f64, "count"),
    ];

    let mut plain_wall: Vec<f64> = plain.iter().map(|r| r.window_scaled_ns()).collect();
    let mut traced_wall: Vec<f64> = traced.iter().map(|r| r.window_scaled_ns()).collect();
    let ts = traced[0].trace.as_ref().expect("traced repetition");
    let total: u64 = ts.by_category.iter().sum();
    out.push(m(
        "trace.overhead_share",
        median(&mut traced_wall) / median(&mut plain_wall) - 1.0,
        "ratio",
    ));
    out.push(m(
        "trace.records_per_pkt",
        share(total, w.pkts),
        "records/pkt",
    ));
    out.push(m("trace.dropped", ts.dropped as f64, "count"));
    for (i, (name, _)) in CATEGORIES.iter().enumerate() {
        out.push(m(
            &format!("trace.records.{name}"),
            ts.by_category[i] as f64,
            "count",
        ));
    }
    for (i, (name, _)) in CYCLE_COUNTERS.iter().enumerate() {
        out.push(m(
            &format!("sim_cycles.{name}"),
            ts.cycles[i] as f64,
            "cycles",
        ));
    }

    let each = span_budget / 7;
    out.push(m(
        "crypto.aes_gcm_open_cpb",
        spans::aes_gcm_open_cpb(each),
        "cycles/B",
    ));
    out.push(m(
        "crypto.aes_gcm_seal_cpb",
        spans::aes_gcm_seal_cpb(each),
        "cycles/B",
    ));
    out.push(m("crypto.crc32c_cpb", spans::crc32c_cpb(each), "cycles/B"));
    out.push(m(
        "core.nic.rx_ns_per_pkt",
        spans::nic_rx_ns_per_pkt(each, None),
        "ns",
    ));
    out.push(m(
        "core.nic.rx_oos_ns_per_pkt",
        spans::nic_rx_ns_per_pkt(each, Some(64)),
        "ns",
    ));
    out.push(m(
        "sim.sched.ns_per_event",
        spans::sched_ns_per_event(each),
        "ns",
    ));
    out.push(m(
        "sim.link.ns_per_transmit",
        spans::link_ns_per_transmit(each),
        "ns",
    ));
    // Host speed over the run: the median reference pass, and the last
    // repetition's median pass against the first's.
    let rep_median = |r: &Rep| median(&mut r.ref_passes().collect::<Vec<_>>());
    let mut passes: Vec<f64> = plain
        .iter()
        .chain(traced)
        .flat_map(|r| r.ref_passes())
        .collect();
    let drift = rep_median(plain[plain.len() - 1]) / rep_median(plain[0]) - 1.0;
    out.push(m("host.ref_ns", median(&mut passes), "ns"));
    out.push(m("host.ref_drift", drift, "ratio"));
    out
}

/// CPU seconds in user and kernel mode and minor page faults of this
/// process so far, from `/proc/self/stat`; zeros where it is missing. A
/// host that slows only the simulator shows here as kernel time or
/// faults that the reference pass does not see.
fn cpu_and_faults() -> (f64, f64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the command name, which may hold spaces; the first is
    // field 3 of proc(5).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |n: usize| -> u64 {
        after
            .split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    // utime and stime are in clock ticks, 100 per second on Linux.
    (
        field(14) as f64 / 100.0,
        field(15) as f64 / 100.0,
        field(10),
    )
}

/// High-water mark of this process's private memory, MiB: `VmHWM` less
/// the file-backed and shared pages resident now. File pages are left out
/// because how many of them are mapped depends on the host's page cache,
/// not on the program.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = |field: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0.0)
    };
    let hwm = kib("VmHWM:");
    if hwm == 0.0 {
        return 0.0;
    }
    (hwm - kib("RssFile:") - kib("RssShmem:")) / 1024.0
}

/// Checks that make a run incorrect: failed operations, repetitions that
/// disagree on any simulated counter (tracing included), and an offload
/// that turned itself off where the workload needs it on. Returns the
/// operations attempted and failed with the list of violations.
fn check(kind: Kind, plain: &[&Rep], traced: &[&Rep]) -> (u64, u64, Vec<String>) {
    let mut bad = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let first = plain[0];
    for (i, r) in plain.iter().chain(traced).enumerate() {
        // Operations of the whole repetition, warm-up included: a failure
        // in set-up is a failure too.
        attempted += r.end.ops;
        failed += r.end.failed_ops() + r.flow_bytes.iter().filter(|&&b| b == 0).count() as u64;
        let same = r.window == first.window
            && r.end == first.end
            && r.flow_bytes == first.flow_bytes
            && r.fio_lat_us == first.fio_lat_us;
        if !same {
            let what = if r.trace.is_some() {
                "traced"
            } else {
                "untraced"
            };
            bad.push(format!(
                "repetition {i} ({what}) differs from repetition 0 in simulated counters"
            ));
        }
    }
    if failed > 0 {
        bad.push(format!("{failed} of {attempted} operations failed"));
    }
    if matches!(kind, Kind::Stream | Kind::Fleet)
        && (first.end.breakers_open > 0 || first.window.degraded_pkts > 0)
    {
        bad.push(format!(
            "offload off: {} breakers open, {} degraded packets",
            first.end.breakers_open, first.window.degraded_pkts
        ));
    }
    (attempted, failed, bad)
}

/// Properties the workloads are built to have. The benchmark's tests
/// assert them; a run prints them as warnings, since a change to the
/// simulator may legitimately remove them.
fn shape_warnings(kind: Kind, r: &Rep) -> Vec<String> {
    let mut warn = Vec::new();
    let w = &r.window;
    let flows = r.flow_bytes.len();
    match kind {
        Kind::Stream => {}
        Kind::Fleet => {
            if r.end.ctx_misses <= flows as u64 {
                warn.push(format!(
                    "{} context misses for {flows} flows: cache not oversubscribed",
                    r.end.ctx_misses
                ));
            }
            if w.migrations == 0 {
                warn.push("rebalancer made no moves".into());
            }
            if w.queue_pkts.iter().all(|q| max_over_mean(q) <= 1.0) {
                warn.push("rx queues perfectly balanced".into());
            }
        }
        Kind::LossyFunctional => {
            let offloaded = share(w.rx_offloaded, w.rx_pkts);
            if !(offloaded > 0.0 && offloaded < 1.0) {
                warn.push(format!(
                    "rx offloaded share {offloaded}, want strictly between 0 and 1"
                ));
            }
            if w.resync_requests == 0 {
                warn.push("no resync requests".into());
            }
        }
    }
    warn
}

/// Runs one workload as `args` ask; returns the result line and whether
/// every check passed.
fn run_workload(name: &str, kind: Kind, args: &Args) -> (String, bool) {
    let mut href = HostRef::new();
    let t0 = Instant::now();
    // A traced run leaves room for the single-layer timings.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds * 0.7
    } else {
        args.seconds
    });
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let min = if args.trace { 1 } else { MIN_REPS };
    let mut peak_rss = 0.0;
    loop {
        let rep_start = t0.elapsed();
        plain.push(run_rep(kind, args.seed, false, &mut href));
        if plain.len() == 1 {
            // Later repetitions reuse the memory the first one freed; taking
            // the mark now keeps the benchmark's own records out of it.
            peak_rss = peak_rss_mib();
        }
        if args.trace {
            traced.push(run_rep(kind, args.seed, true, &mut href));
        }
        // Stop when another repetition would end more than half of one
        // past the budget, so a run of long repetitions keeps to it.
        let last = t0.elapsed() - rep_start;
        let n = plain.len();
        if n >= MAX_REPS || (n >= min && t0.elapsed() + last / 2 >= budget) {
            break;
        }
    }
    let plain: Vec<&Rep> = plain.iter().collect();
    let traced: Vec<&Rep> = traced.iter().collect();

    let (attempted, failed, violations) = check(kind, &plain, &traced);
    let metrics = if args.trace {
        let span_budget = Duration::from_secs_f64(args.seconds * 0.3);
        per_layer(&plain, &traced, span_budget)
    } else {
        end_to_end(kind, &plain, peak_rss)
    };
    let finite = metrics.iter().all(|m| m.1.is_finite());

    let mut passes: Vec<f64> = plain.iter().flat_map(|r| r.ref_passes()).collect();
    let mut raw_ns_per_pkt: Vec<f64> = plain
        .iter()
        .flat_map(|r| &r.slices)
        .map(|s| s.wall_ns / s.pkts.max(1) as f64)
        .collect();
    let mut raw_setup: Vec<f64> = plain.iter().map(|r| r.setup.0).collect();
    let (user_s, sys_s, faults) = cpu_and_faults();
    eprintln!(
        "{name}: seed {} | {} repetitions{} in {:.1} s | reference pass {:.0} ns (nominal {:.0}) \
         | unscaled ns/pkt {:.3}, setup {:.4} s | cpu user {user_s:.2} s, sys {sys_s:.2} s, {faults} minor faults",
        args.seed,
        plain.len(),
        if args.trace { " per arm" } else { "" },
        t0.elapsed().as_secs_f64(),
        median(&mut passes),
        hostref::NOMINAL_PASS_NS,
        median(&mut raw_ns_per_pkt),
        median(&mut raw_setup),
    );
    for (metric, value, unit) in &metrics {
        eprintln!("  {metric:<34} {value:>16.6} {unit}");
    }
    for w in shape_warnings(kind, plain[0]) {
        eprintln!("  warning: {w}");
    }
    for v in &violations {
        eprintln!("  FAILED: {v}");
    }
    if !finite {
        eprintln!("  FAILED: a metric is not a finite number");
    }
    let correct = violations.is_empty() && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    (line, correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let mut all_correct = true;
    for &(name, kind) in &args.workloads {
        let (line, correct) = run_workload(name, kind, &args);
        println!("{line}");
        all_correct &= correct;
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One untraced and one traced repetition of `kind`, checked like a
    /// run, plus the workload's shape.
    fn assert_workload(kind: Kind) {
        let mut href = HostRef::new();
        let plain = run_rep(kind, 42, false, &mut href);
        let traced = run_rep(kind, 42, true, &mut href);
        let (attempted, failed, violations) = check(kind, &[&plain], &[&traced]);
        assert!(attempted > 0);
        assert_eq!(failed, 0);
        assert!(violations.is_empty(), "{violations:?}");
        let warnings = shape_warnings(kind, &plain);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn stream_stays_offloaded() {
        assert_workload(Kind::Stream);
    }

    /// More context misses than one cold fill per flow, rebalancer moves,
    /// and uneven rx queues.
    #[test]
    fn fleet_oversubscribes_the_cache_and_steers() {
        assert_workload(Kind::Fleet);
    }

    /// Partly offloaded, with resyncs, and every byte intact.
    #[test]
    fn lossy_functional_falls_back_and_resyncs() {
        assert_workload(Kind::LossyFunctional);
    }
}
