//! World-level invariants: per-step checkers, end-of-run checks for one
//! arm, and the twin comparator that holds the offload arm to its
//! software twin.

use std::collections::{BTreeMap, BTreeSet};

use ano_core::rx::RxStateKind;
use ano_sim::link::LinkMode;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::ConnId;
use ano_stack::world::{NetOp, NetPlan};
use ano_trace::ResyncPhase;

use crate::apps::Delivered;
use crate::run::{Arm, FlowRun, Outcome};
use crate::scenario::{Scenario, Workload};

/// One invariant violation (collected, not panicked, so a single run can
/// report everything that went wrong).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant (`stream-integrity`, `auth-integrity`,
    /// `forward-progress`, `resync-reconvergence`, `completion`).
    pub invariant: &'static str,
    /// Simulated time of detection.
    pub at: SimTime,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={:?}: {}", self.invariant, self.at, self.detail)
    }
}

/// Partition-aware forward-progress watchdog: some byte must land within
/// every `budget` window — except inside a *declared* outage, where the
/// peer is dark by design and silence is the expected behavior. The
/// watchdog suspends for the duration of each declared window and re-arms
/// with a full fresh budget at repair, so recovery gets the same grace a
/// cold start does.
///
/// The windows are the scenario's declared outages plus its network
/// plan's (`NetPlan::outage_windows`).
pub(crate) struct ProgressWatchdog {
    budget: SimDuration,
    /// Declared `[from, to]` outage windows. Deliberately explicit, never
    /// inferred from impairment scripts: an *undeclared* blackhole must
    /// still trip the watchdog (the `tls/blackhole` replay target).
    outages: Vec<(SimTime, SimTime)>,
    last_at: SimTime,
    last_bytes: u64,
}

impl ProgressWatchdog {
    pub(crate) fn new(budget: SimDuration, outages: Vec<(SimTime, SimTime)>) -> ProgressWatchdog {
        ProgressWatchdog {
            budget,
            outages,
            last_at: SimTime::ZERO,
            last_bytes: 0,
        }
    }

    /// Feeds one observation; returns the stall detail if the watchdog
    /// fires (the caller wraps it in a [`Violation`]). `target` is the
    /// byte count at which the transfer is complete and the watchdog
    /// stands down.
    pub(crate) fn observe(&mut self, now: SimTime, bytes: u64, target: u64) -> Option<String> {
        if bytes > self.last_bytes {
            self.last_bytes = bytes;
            self.last_at = now;
            return None;
        }
        if self.outages.iter().any(|&(from, to)| now >= from && now <= to) {
            // Declared outage: suspend, and keep re-arming so the budget
            // restarts from the repair edge, not from the last pre-cut byte.
            self.last_at = now;
            return None;
        }
        if bytes < target && now > self.last_at + self.budget {
            let detail = format!(
                "no byte delivered since t={:?} ({bytes} of {target} bytes)",
                self.last_at
            );
            // Re-arm so a genuinely wedged run reports once per window, not
            // once per step.
            self.last_at = now;
            return Some(detail);
        }
        None
    }
}

/// Step-by-step invariant state for one run.
pub(crate) struct Checkers {
    /// Per flow (connect order): chunks and completions already verified
    /// — only new ones are checked each step, keeping the step loop
    /// linear in delivered bytes.
    checked: Vec<(usize, usize)>,
    progress: ProgressWatchdog,
    /// Whether the watchdog applies (disabled for unrecoverable scenarios,
    /// which stall by design once the damage is done).
    watchdog: bool,
    pub(crate) violations: Vec<Violation>,
}

impl Checkers {
    pub(crate) fn new(sc: &Scenario) -> Checkers {
        let mut outages = sc.outages.clone();
        outages.extend(sc.plan.outage_windows(SimTime::ZERO + sc.sim_budget));
        Checkers {
            checked: Vec::new(),
            progress: ProgressWatchdog::new(sc.progress_budget, outages),
            watchdog: sc.expect_complete,
            violations: Vec::new(),
        }
    }

    /// Runs the per-step checks after the world advanced to `now`; returns
    /// the bytes delivered so far.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        flows: &[FlowRun],
        log: &BTreeMap<ConnId, Delivered>,
    ) -> u64 {
        self.checked.resize(flows.len(), (0, 0));
        let mut bytes = 0;
        for (f, checked) in flows.iter().zip(&mut self.checked) {
            if let Some(d) = log.get(&f.conn) {
                bytes += d.bytes;
                stream_integrity(now, f, d, checked, &mut self.violations);
            }
        }
        // Watchdog: some byte must land within every `progress_budget`
        // window until the transfer completes (suspended inside outages).
        let target = flows.iter().map(|f| f.expected.len() as u64).sum();
        if let Some(detail) = self.progress.observe(now, bytes, target) {
            if self.watchdog {
                self.violations.push(Violation {
                    invariant: "forward-progress",
                    at: now,
                    detail,
                });
            }
        }
        bytes
    }
}

/// Every newly delivered chunk must carry exactly the transmitted bytes at
/// the offset it claims — under any impairment, corruption included:
/// damaged records may *vanish* (auth reject) but never mutate. Every new
/// NVMe completion must be a known, digest-clean read of the right device
/// bytes.
fn stream_integrity(
    now: SimTime,
    f: &FlowRun,
    d: &Delivered,
    checked: &mut (usize, usize),
    out: &mut Vec<Violation>,
) {
    let mut flag = |detail: String| {
        out.push(Violation {
            invariant: "stream-integrity",
            at: now,
            detail: format!("conn {}: {detail}", f.conn.0),
        })
    };
    let want = &f.expected;
    for (off, bytes) in &d.chunks[checked.0..] {
        let (start, end) = (*off as usize, *off as usize + bytes.len());
        if end > want.len() {
            flag(format!(
                "chunk [{start}, {end}) extends past the {}-byte transmitted stream",
                want.len()
            ));
        } else if let Some(bad) = bytes
            .iter()
            .zip(&want[start..end])
            .position(|(a, b)| a != b)
        {
            flag(format!(
                "delivered bytes diverge from transmitted stream at offset {}",
                start + bad
            ));
        }
    }
    for (id, ok, buf) in &d.completions[checked.1..] {
        let Some(&(dev_off, len)) = f.reads.get(*id as usize) else {
            flag(format!("completion for unknown request id {id}"));
            continue;
        };
        if !ok {
            flag(format!("read {id} completed with digest failure"));
        } else if buf.len() != len as usize {
            flag(format!(
                "read {id}: {} bytes placed, expected {len}",
                buf.len()
            ));
        } else if let Some(j) =
            (0..buf.len()).find(|&j| buf[j] != ano_nvme::block::pattern_byte(dev_off + j as u64))
        {
            flag(format!("read {id}: wrong device byte at buffer offset {j}"));
        }
    }
    *checked = (d.chunks.len(), d.completions.len());
}

/// The directed pairs `plan` darkens at some point: every crossing of a
/// `Partition` group pair (both directions) and, unless `partitions_only`,
/// every `Hold` pair. Only partitions swallow frames into
/// `LinkStats::partitioned`; holds park deliveries and count nothing.
pub fn dark_pairs(plan: &NetPlan, partitions_only: bool) -> BTreeSet<(u16, u16)> {
    let mut out = BTreeSet::new();
    for (_, op) in plan.steps() {
        match op {
            NetOp::Partition(a, b) => {
                for &x in a {
                    for &y in b {
                        out.insert((x, y));
                        out.insert((y, x));
                    }
                }
            }
            NetOp::Hold(src, dst) if !partitions_only => {
                out.insert((*src, *dst));
            }
            _ => {}
        }
    }
    out
}

/// End-of-run checks for one arm: completion and per-flow byte identity
/// against the expected streams, auth accounting, the §4.3 ladder
/// (legality, reconvergence), and — when the scenario has them — the
/// device-fault degradation and network-plan contracts.
pub(crate) fn finish_checks(sc: &Scenario, out: &Outcome) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut flag = |invariant: &'static str, detail: String| {
        v.push(Violation {
            invariant,
            at: out.end,
            detail,
        })
    };
    let offload = out.arm == Arm::Offload;
    let world = &out.world;

    if sc.expect_complete {
        if !out.complete() {
            let got: u64 = out.flows.iter().map(|f| f.delivered.bytes).sum();
            let want: u64 = out.flows.iter().map(|f| f.expected.len() as u64).sum();
            flag(
                "completion",
                format!("transfer incomplete at sim budget ({got} of {want} bytes)"),
            );
        }
        for f in &out.flows {
            let got = f.delivered.stream();
            if got != f.expected {
                flag(
                    "stream-integrity",
                    format!(
                        "conn {} delivered {} of {} bytes{}",
                        f.conn.0,
                        got.len(),
                        f.expected.len(),
                        if f.expected.starts_with(&got) {
                            ""
                        } else {
                            ", corrupted"
                        }
                    ),
                );
            }
        }
    }

    // Auth integrity: alerts appear exactly when the link corrupted
    // something. A corrupted record that produced no alert was either
    // dropped silently (masking) or — worse — authenticated.
    let mut pairs = Vec::new();
    for c in 0..sc.shape.clients as u16 {
        for s in out.servers.clone() {
            pairs.extend([(c, s as u16), (s as u16, c)]);
        }
    }
    let links: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| ((a, b), world.link_stats_between(a, b)))
        .collect();
    let corrupted: u64 = links.iter().map(|(_, s)| s.corrupted).sum();
    let alerts: u64 = out.flows.iter().map(|f| f.alerts).sum();
    let tls = out
        .flows
        .iter()
        .any(|f| matches!(f.workload, Workload::Tls { .. } | Workload::TlsRx { .. }));
    if corrupted == 0 && alerts > 0 {
        flag(
            "auth-integrity",
            format!("{alerts} TLS alerts on an uncorrupted link"),
        );
    }
    if corrupted > 0 && alerts == 0 && tls {
        flag(
            "auth-integrity",
            format!("link corrupted {corrupted} frame(s) but TLS raised no alert"),
        );
    }

    // A scenario with no loss source must lose nothing: in particular a
    // partition is not packet loss and must not masquerade as it.
    let lossy_plan = sc
        .plan
        .steps()
        .iter()
        .any(|(_, op)| matches!(op, NetOp::Impair(..) | NetOp::SetScript(..)));
    if sc.shape.impair.is_empty() && sc.shape.scripts.is_empty() && !lossy_plan {
        for ((a, b), s) in &links {
            if s.lost > 0 {
                flag(
                    "lossless",
                    format!("link {a}->{b} lost {} frames with no loss source", s.lost),
                );
            }
        }
    }

    // The ladder checks read the trace, so it must be whole wherever they
    // carry the verdict.
    let whole = out.trace_dropped == 0;
    if !whole && (sc.expect_reconverge || !sc.plan.is_empty()) {
        flag(
            "trace-complete",
            format!("trace ring overwrote {} records", out.trace_dropped),
        );
    }
    let dark = dark_pairs(&sc.plan, false);
    let touches_dark = |f: &FlowRun| {
        let (c, s) = (f.client as u16, f.server as u16);
        dark.contains(&(c, s)) || dark.contains(&(s, c))
    };
    for f in &out.flows {
        if whole {
            for d in check_resync_transitions(&f.ladder) {
                flag("resync-transition", format!("conn {}: {d}", f.conn.0));
            }
        }
        // Reconvergence: every offloaded flow ends back in `Offloading`
        // through legal edges; a breaker opened by a partition is excused
        // (a dark peer may cost a flow its offload, never its bytes).
        if offload && sc.expect_reconverge && !(f.breaker.is_some() && touches_dark(f)) {
            let ladder = render_ladder(&f.ladder);
            match (f.ladder.last(), f.rx_state) {
                (Some((_, last)), _) if *last != ResyncPhase::Offloading => flag(
                    "resync-reconvergence",
                    format!(
                        "conn {}: rx engine's last transition ended in {last:?}, expected \
                         Offloading (ladder: {ladder})",
                        f.conn.0
                    ),
                ),
                (_, Some(RxStateKind::Offloading)) => {}
                (_, other) => flag(
                    "resync-reconvergence",
                    format!(
                        "conn {}: rx engine ended in {other:?}, expected Offloading",
                        f.conn.0
                    ),
                ),
            }
        }
    }

    // Device faults: the plan must actually inject, and the degradation
    // policy must have done what the pattern demands.
    if offload && !sc.faults.is_empty() {
        let injected: u64 = sc
            .faults
            .iter()
            .map(|(h, _)| world.device_faults_injected(*h))
            .sum();
        if injected == 0 {
            flag(
                "chaos-injection",
                "fault plan injected nothing — the scenario tested a healthy device".to_string(),
            );
        }
        match sc.expect_breaker {
            None => {
                for f in out.flows.iter().filter(|f| f.breaker.is_some()) {
                    flag(
                        "chaos-degradation",
                        format!(
                            "conn {}: transient fault opened the breaker ({:?})",
                            f.conn.0, f.breaker
                        ),
                    );
                }
                if out.flows.iter().all(|f| f.rx_offloaded_pkts == 0) {
                    flag(
                        "chaos-degradation",
                        "no flow (re-)offloaded a packet after the fault".to_string(),
                    );
                }
            }
            Some(reason) => {
                for f in &out.flows {
                    if f.breaker != Some(reason) {
                        flag(
                            "chaos-degradation",
                            format!(
                                "conn {}: expected breaker open ({reason}), got {:?}",
                                f.conn.0, f.breaker
                            ),
                        );
                    }
                    if f.rx_state.is_some() {
                        flag(
                            "chaos-degradation",
                            format!(
                                "conn {}: rx engine still installed with the breaker open",
                                f.conn.0
                            ),
                        );
                    }
                }
            }
        }
    }

    // Network plan: every plan heals what it breaks; partition drops are
    // accounted as `partitioned` only on darkened pairs; chaos on one
    // subset never opens breakers on another.
    if !sc.plan.is_empty() {
        for &(a, b) in &pairs {
            if world.link_mode_between(a, b) != LinkMode::Normal {
                flag("net-plan", format!("link {a}->{b} still dark at run end"));
            }
            if world.held_between(a, b) > 0 {
                flag("net-plan", format!("deliveries still parked on {a}->{b}"));
            }
        }
        for ((a, b), s) in &links {
            if s.partitioned > 0 && !dark.contains(&(*a, *b)) {
                flag(
                    "net-plan",
                    format!(
                        "link {a}->{b} was never darkened but counted {} partitioned frames",
                        s.partitioned
                    ),
                );
            }
        }
        let cut = dark_pairs(&sc.plan, true);
        let swallowed: u64 = links
            .iter()
            .filter(|(p, _)| cut.contains(p))
            .map(|(_, s)| s.partitioned)
            .sum();
        if !cut.is_empty() && swallowed == 0 {
            flag(
                "net-plan",
                format!("plan partitioned {cut:?} but nothing was swallowed"),
            );
        }
        for f in out.flows.iter().filter(|f| !touches_dark(f)) {
            if let Some(reason) = f.breaker {
                flag(
                    "net-plan",
                    format!(
                        "conn {}: breaker '{reason}' tripped on unpartitioned pair {}<->{}",
                        f.conn.0, f.client, f.server
                    ),
                );
            }
        }
    }
    v
}

/// The twin comparator: the offload arm must be invisible next to its
/// software twin — both arms' own violations, per-flow byte identity,
/// matching completion, no rx engine (and so no queue crossing) in the
/// twin, and completion times within `max_divergence`×.
pub(crate) fn compare_twins(sc: &Scenario, on: &Outcome, off: &Outcome) -> Vec<Violation> {
    let mut v: Vec<Violation> = off
        .violations
        .iter()
        .map(|x| Violation {
            detail: format!("software arm: {}", x.detail),
            ..x.clone()
        })
        .collect();
    let mut flag = |invariant: &'static str, detail: String| {
        v.push(Violation {
            invariant,
            at: on.end,
            detail,
        })
    };
    if on.flows.len() != off.flows.len() {
        flag(
            "differential-stream",
            format!(
                "offload ran {} flows, software {}",
                on.flows.len(),
                off.flows.len()
            ),
        );
    }
    for (a, b) in on.flows.iter().zip(&off.flows) {
        let (s_on, s_off) = (a.delivered.stream(), b.delivered.stream());
        if s_on != s_off {
            let at = s_on
                .iter()
                .zip(&s_off)
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| s_on.len().min(s_off.len()));
            flag(
                "differential-stream",
                format!(
                    "conn {}: offload delivered {} bytes, software {}; first divergence at offset {at}",
                    a.conn.0,
                    s_on.len(),
                    s_off.len()
                ),
            );
        }
        if b.rx_state.is_some() || b.rx_offloaded_pkts > 0 {
            flag(
                "differential-twin",
                format!("conn {}: software twin touched an rx engine", b.conn.0),
            );
        }
    }
    if on.complete() != off.complete() {
        flag(
            "differential-stream",
            format!(
                "completion mismatch: offload {}, software {}",
                on.complete(),
                off.complete()
            ),
        );
    }
    for h in 0..off.world.num_hosts() {
        let crossings = off.world.nic_counters(h).queue_crossings;
        if crossings > 0 {
            flag(
                "differential-twin",
                format!("single-queue host {h} crossed queues {crossings} times"),
            );
        }
    }
    if let (Some(f_on), Some(f_off)) = (on.finish, off.finish) {
        let (a, b) = (f_on.as_nanos().max(1), f_off.as_nanos().max(1));
        let ratio = a.max(b) as f64 / a.min(b) as f64;
        if ratio > sc.max_divergence {
            flag(
                "differential-divergence",
                format!(
                    "completion times diverge {ratio:.1}x (offload {f_on:?}, software {f_off:?}), bound {:.1}x",
                    sc.max_divergence
                ),
            );
        }
    }
    v
}

/// Renders a transition list as `Offloading->Searching->Tracking->…` for
/// violation messages.
fn render_ladder(resync: &[(ResyncPhase, ResyncPhase)]) -> String {
    let mut s = String::new();
    for (i, (from, to)) in resync.iter().enumerate() {
        if i == 0 {
            s.push_str(&from.to_string());
        }
        s.push_str("->");
        s.push_str(&to.to_string());
    }
    s
}

/// The legal edges of the §4.3 resync state machine, with `Tracking` split
/// into its unconfirmed and software-confirmed halves as the trace layer
/// reports them:
///
/// - `Offloading -> Searching`: unrecoverable out-of-sequence data;
/// - `Searching -> Tracking`: a magic-pattern candidate was found;
/// - `Tracking -> Searching` (d1): the candidate was invalidated — by the
///   tracker itself or by a software rejection;
/// - `Tracking -> Confirmed`: software confirmed the candidate
///   (`l5o_resync_rx_resp(ok)`) — confirmation can never be skipped;
/// - `Confirmed -> Offloading` (d2): hardware resumes at the next boundary;
/// - `Confirmed -> Searching`: the stream desynchronized again before the
///   resume boundary was reached.
///
/// This is the *spec-side* declaration of the machine. `ano-lint` (rule
/// `resync-table`) extracts this array and cross-checks it against the
/// code-side table in `crates/core/src/rx.rs` (`legal_transition`); drift
/// on either side fails static analysis.
pub const LEGAL_EDGES: &[(ResyncPhase, ResyncPhase)] = &[
    (ResyncPhase::Offloading, ResyncPhase::Searching),
    (ResyncPhase::Searching, ResyncPhase::Tracking),
    (ResyncPhase::Tracking, ResyncPhase::Searching),
    (ResyncPhase::Tracking, ResyncPhase::Confirmed),
    (ResyncPhase::Confirmed, ResyncPhase::Offloading),
    (ResyncPhase::Confirmed, ResyncPhase::Searching),
];

/// Validates an ordered resync transition list against [`LEGAL_EDGES`].
/// Returns one message per defect:
///
/// - the list must start from `Offloading` (the `l5o_create` state) and
///   each transition's `from` must equal its predecessor's `to`;
/// - every `(from, to)` pair must be a legal edge. The two confirmation
///   bypasses keep their specific messages (they are what the golden
///   traces exist to catch): `Confirmed` is only reachable from `Tracking`
///   — software confirmation cannot be skipped — and `Offloading` is only
///   re-entered from `Confirmed` — hardware never resumes without a
///   confirmed record boundary.
pub fn check_resync_transitions(resync: &[(ResyncPhase, ResyncPhase)]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut prev = ResyncPhase::Offloading;
    for (i, &(from, to)) in resync.iter().enumerate() {
        if from != prev {
            problems.push(format!(
                "transition {i}: starts from {from:?} but the engine was in {prev:?}"
            ));
        }
        if from == to {
            problems.push(format!("transition {i}: self-loop {from:?}->{to:?}"));
        } else if to == ResyncPhase::Confirmed && from != ResyncPhase::Tracking {
            problems.push(format!(
                "transition {i}: {from:?}->Confirmed skips software confirmation \
                 (only Tracking->Confirmed is legal)"
            ));
        } else if to == ResyncPhase::Offloading && from != ResyncPhase::Confirmed {
            problems.push(format!(
                "transition {i}: {from:?}->Offloading resumes hardware without a \
                 confirmed boundary (only Confirmed->Offloading is legal)"
            ));
        } else if !LEGAL_EDGES.contains(&(from, to)) {
            problems.push(format!(
                "transition {i}: {from:?}->{to:?} is not a legal §4.3 edge"
            ));
        }
        prev = to;
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use ResyncPhase::{Confirmed, Offloading, Searching, Tracking};

    #[test]
    fn full_ladder_is_legal() {
        let edges = [
            (Offloading, Searching),
            (Searching, Tracking),
            (Tracking, Confirmed),
            (Confirmed, Offloading),
        ];
        assert!(check_resync_transitions(&edges).is_empty());
    }

    /// The magic-pattern false positive: a candidate that software rejects
    /// falls back from Tracking to Searching. A legal episode — the engine
    /// just searches again.
    #[test]
    fn false_positive_tracking_to_searching_is_legal() {
        let edges = [
            (Offloading, Searching),
            (Searching, Tracking),
            (Tracking, Searching),
            (Searching, Tracking),
            (Tracking, Confirmed),
            (Confirmed, Offloading),
        ];
        assert!(check_resync_transitions(&edges).is_empty());
    }

    /// The mutation the golden traces and this checker both exist to catch:
    /// resuming offload straight from an unconfirmed candidate.
    #[test]
    fn skipping_confirmation_is_flagged() {
        let edges = [
            (Offloading, Searching),
            (Searching, Tracking),
            (Tracking, Offloading),
        ];
        let p = check_resync_transitions(&edges);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("without a confirmed boundary"), "{p:?}");
    }

    /// Jumping Searching→Confirmed (hardware "confirming" its own guess)
    /// is the other confirmation bypass.
    #[test]
    fn searching_to_confirmed_is_flagged() {
        let edges = [(Offloading, Searching), (Searching, Confirmed)];
        let p = check_resync_transitions(&edges);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("skips software confirmation"), "{p:?}");
    }

    /// The generic table check catches edges the two targeted messages
    /// don't: Offloading->Tracking skips the search phase entirely.
    #[test]
    fn edge_outside_the_table_is_flagged() {
        let edges = [
            (Offloading, Tracking),
            (Tracking, Confirmed),
            (Confirmed, Offloading),
        ];
        let p = check_resync_transitions(&edges);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("not a legal"), "{p:?}");
    }

    /// The spec-side table must agree with the code-side declaration in
    /// the rx engine over the whole phase space (ano-lint re-checks this
    /// statically from the source text; this pins it at runtime).
    #[test]
    fn table_matches_rx_engine_declaration() {
        let phases = [Offloading, Searching, Tracking, Confirmed];
        for &f in &phases {
            for &t in &phases {
                assert_eq!(
                    ano_core::rx::legal_transition(f, t),
                    LEGAL_EDGES.contains(&(f, t)),
                    "{f:?}->{t:?} disagrees between rx.rs and LEGAL_EDGES"
                );
            }
        }
    }

    #[test]
    fn broken_chain_is_flagged() {
        let edges = [(Offloading, Searching), (Tracking, Confirmed)];
        let p = check_resync_transitions(&edges);
        assert!(p.iter().any(|m| m.contains("was in Searching")), "{p:?}");
    }

    #[test]
    fn render_ladder_reads_left_to_right() {
        let edges = [(Offloading, Searching), (Searching, Tracking)];
        assert_eq!(render_ladder(&edges), "Offloading->Searching->Tracking");
    }

    #[test]
    fn watchdog_fires_on_undeclared_stall_and_rearms() {
        let mut wd = ProgressWatchdog::new(SimDuration::from_millis(10), vec![]);
        assert!(wd.observe(SimTime::from_millis(1), 10, 1000).is_none());
        assert!(wd.observe(SimTime::from_millis(12), 10, 1000).is_some());
        // Re-armed: quiet for another full window, then fires again.
        assert!(wd.observe(SimTime::from_millis(13), 10, 1000).is_none());
        assert!(wd.observe(SimTime::from_millis(24), 10, 1000).is_some());
    }

    #[test]
    fn watchdog_suspends_inside_declared_outage_then_rearms_at_repair() {
        let dark = (SimTime::from_millis(5), SimTime::from_millis(100));
        let mut wd = ProgressWatchdog::new(SimDuration::from_millis(10), vec![dark]);
        assert!(wd.observe(SimTime::from_millis(1), 10, 1000).is_none());
        // Silent far past the budget, but inside the declared window.
        for ms in [20, 50, 99] {
            assert!(wd.observe(SimTime::from_millis(ms), 10, 1000).is_none(), "t={ms}ms");
        }
        // Repair at 100ms: recovery gets one full fresh budget...
        assert!(wd.observe(SimTime::from_millis(105), 10, 1000).is_none());
        // ...and only then does continued silence become a violation.
        assert!(wd.observe(SimTime::from_millis(111), 10, 1000).is_some());
    }

    #[test]
    fn watchdog_stands_down_once_the_target_is_reached() {
        let mut wd = ProgressWatchdog::new(SimDuration::from_millis(10), vec![]);
        assert!(wd.observe(SimTime::from_millis(1), 1000, 1000).is_none());
        assert!(wd.observe(SimTime::from_secs(5), 1000, 1000).is_none());
    }
}
