//! The named scenario registry: the two-host adversity matrix and its
//! extras, the device-fault chaos matrix and the fleet network-chaos
//! matrix. [`builtin`] replays any of them by name:
//! `run_differential(&builtin("chaos/tls/reset").unwrap())`.

use ano_core::fault::{DeviceFaults, DeviceOp, FaultAction, ScheduledFault};
use ano_sim::link::{Impairments, Match, Script};
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::world::{NetOp, NetPlan};
use ano_tcp::segment::FlowId;

use crate::scenario::{Scenario, Workload};

/// The standard TLS workload used by the adversity matrix: a few records'
/// worth of plaintext, enough for loss, resync and reconvergence to play
/// out without dominating test wall-clock.
pub fn tls_workload() -> Workload {
    Workload::Tls { bytes: 96_000 }
}

/// The standard NVMe workload: several reads spanning distinct device
/// extents, so completion order and placement are both exercised.
fn nvme_workload() -> Workload {
    Workload::Nvme {
        reads: vec![(4096, 24_576), (1 << 20, 32_768), (3 << 20, 16_384)],
    }
}

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// The adversity matrix: eight scripted link schedules × {TLS, NVMe},
/// named `tls/<schedule>` and `nvme/<schedule>`. All are *recoverable*:
/// TCP retransmission heals every one, so the twins must deliver
/// byte-identical streams and complete.
pub fn matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (tag, workload) in [("tls", tls_workload()), ("nvme", nvme_workload())] {
        let w = |name: &str| Scenario::new(&format!("{tag}/{name}"), workload.clone());
        out.extend([
            w("clean"),
            w("drop-third").data_script(Script::drop_nth(3)),
            w("early-burst").data_script(Script::drop_burst(4, 8)),
            w("alternating").data_script(Script::drop_cycle(vec![true, false], 12)),
            w("delay-spike").data_script(Script::delay_burst(5, 9, SimDuration::from_micros(400))),
            w("dup-burst").data_script(Script::duplicate_burst(2, 10)),
            // The window opens at 20µs — before either arm can complete
            // the transfer — so both straddle it and recover on the same
            // RTO timescale once it lifts.
            w("partition").data_script(Script::partition(us(20), us(1400))),
            w("ack-burst").ack_script(Script::drop_burst(3, 9)),
        ]);
    }
    out
}

/// Named non-matrix two-host scenarios (unrecoverable adversity, replay
/// targets).
fn extras() -> Vec<Scenario> {
    vec![
        // One mid-stream record corrupted in flight: TLS must refuse to
        // authenticate it; everything else still arrives intact.
        Scenario::new("tls/corrupt-record", tls_workload())
            .data_script(Script::corrupt_nth(6))
            .unrecoverable(),
        // A partition that never lifts. Deliberately left expecting
        // completion: this is the known-failing replay target proving the
        // forward-progress watchdog fires on a wedged transfer.
        Scenario::new("tls/blackhole", tls_workload())
            .data_script(Script::partition(us(10), SimTime::from_secs(60)))
            .sim_budget(SimDuration::from_secs(2)),
        // The same outage shape, longer than the progress budget — but
        // *declared*. The watchdog must stay quiet through the dark window,
        // re-arm at repair, and the transfer must still complete and
        // re-offload afterwards. The post-repair budget is raised above the
        // ~230ms of RTO backoff a 400ms outage legitimately accumulates.
        Scenario::new("tls/declared-partition", tls_workload())
            .data_script(Script::partition(us(20), SimTime::from_millis(400)))
            .declare_outage(us(20), SimTime::from_millis(400))
            .progress_budget(SimDuration::from_millis(300))
            .sim_budget(SimDuration::from_secs(2)),
    ]
}

/// The device-fault chaos matrix: eight NIC fault patterns × {TLS, NVMe,
/// NVMe-TLS}, named `chaos/<workload>/<fault>`, each injected on the data
/// receiver's NIC. Transient faults must end re-offloaded; persistent
/// ones must open the breaker with the named reason.
///
/// The workloads are larger than the adversity matrix's on purpose: the
/// payload streams flow roughly t≈30µs–1ms (NVMe) / t≈160µs–1ms (TLS), so
/// the scheduled faults (300–750µs) land mid-stream. NVMe reads stay well
/// under the target's 256 KiB `max_data_pdu` so C2HData boundaries — the
/// §4.3 resume points — recur every few packets.
fn chaos_matrix() -> Vec<Scenario> {
    let reads: Vec<(u64, u32)> = (0..48).map(|i| (i << 16, 32_768)).collect();
    let mut out = Vec::new();
    for (tag, workload) in [
        ("tls", Workload::Tls { bytes: 1_000_000 }),
        ("nvme", Workload::Nvme { reads: reads.clone() }),
        ("nvme-tls", Workload::NvmeTls { reads }),
    ] {
        // Conn 0's rx flow label at its data receiver: flow `2·conn` runs
        // client → server, `2·conn + 1` server → client.
        let flow = FlowId(u64::from(workload.server_sends()));
        let receiver = if workload.server_sends() { 0 } else { 1 };
        let invalidate_at = |times: &[u64]| {
            times.iter().fold(DeviceFaults::none(), |f, &t| {
                f.at(us(t), ScheduledFault::InvalidateRx(flow))
            })
        };
        let patterns = [
            ("fail-installs", DeviceFaults::fail_first(DeviceOp::InstallRx, 2)),
            ("fail-all-installs", DeviceFaults::fail_all(DeviceOp::InstallRx)),
            (
                "drop-resync-req",
                DeviceFaults::drop_range(DeviceOp::ResyncReq, 0, 1)
                    .at(us(300), ScheduledFault::InvalidateRx(flow)),
            ),
            (
                "delay-resync-resp",
                invalidate_at(&[300]).with(
                    DeviceOp::ResyncResp,
                    Match::Range(0, u64::MAX),
                    FaultAction::Delay(SimDuration::from_micros(100)),
                ),
            ),
            ("reset", DeviceFaults::reset_at(us(300))),
            ("invalidate", invalidate_at(&[300])),
            ("corrupt", DeviceFaults::none().at(us(300), ScheduledFault::CorruptRx(flow))),
            ("resync-storm", invalidate_at(&[300, 450, 600, 750])),
        ];
        for (fault, plan) in patterns {
            let mut sc = Scenario::new(&format!("chaos/{tag}/{fault}"), workload.clone());
            sc.faults.push((receiver, plan));
            let d = &mut sc.shape.cfg.degrade;
            // Persistent faults tighten the ladder / storm threshold so the
            // breaker opens while the stream still flows; a flow demoted
            // for good never returns to `Offloading`, which is the expected
            // outcome. `drop-resync-req` arms the request re-emission timer
            // the pattern exists to exercise.
            match fault {
                "fail-all-installs" => {
                    d.install_retry_base = SimDuration::from_micros(2);
                    d.install_retry_cap = SimDuration::from_micros(8);
                    d.install_max_attempts = 3;
                    sc.expect_breaker = Some("install_failures");
                }
                "resync-storm" => {
                    d.breaker_resync_storm = 3;
                    d.storm_window = SimDuration::from_micros(100_000);
                    sc.expect_breaker = Some("resync_storm");
                }
                "drop-resync-req" => d.rerequest_pkts = Some(8),
                _ => {}
            }
            sc.expect_reconverge = sc.expect_breaker.is_none();
            out.push(sc);
        }
    }
    out
}

/// One partition/repair pulse over two host groups.
fn pulse(a: &[u16], b: &[u16], from: SimTime, to: SimTime) -> NetPlan {
    NetPlan::new()
        .step(from, NetOp::Partition(a.to_vec(), b.to_vec()))
        .step(to, NetOp::Repair(a.to_vec(), b.to_vec()))
}

/// The fleet network-chaos matrix: timed partition/hold/impairment plans
/// over fleet subsets × {TLS, NVMe} × fleet shapes, named
/// `netchaos/<workload>/<pattern>`. Every plan heals what it breaks.
///
/// The base fleet is 3×2 hosts with six flows covering all six
/// client/server pairs over 10 Gb/s links, so a 20 µs chaos onset lands
/// mid-transfer. TLS offloads the server rx path; NVMe the initiators.
fn netchaos_matrix() -> Vec<Scenario> {
    let base = |name: &str, (clients, servers, flows): (usize, usize, usize), workload, plan| {
        let mut sc = Scenario::fleet(name, clients, servers, flows, workload);
        sc.shape.cfg.link_rate_bps = 10_000_000_000;
        sc.sim_budget = SimDuration::from_millis(200);
        sc.progress_budget = SimDuration::from_millis(50);
        sc.expect_reconverge = true;
        sc.plan = plan;
        sc
    };
    let mut out = Vec::new();
    for (tag, workload) in [
        ("tls", Workload::TlsRx { bytes: 96_000 }),
        (
            "nvme",
            Workload::Nvme {
                reads: vec![(4096, 48_000), (1 << 21, 48_000)],
            },
        ),
    ] {
        let sc = |pattern: &str, plan: NetPlan| {
            base(
                &format!("netchaos/{tag}/{pattern}"),
                (3, 2, 6),
                workload.clone(),
                plan,
            )
        };
        // One server rack goes dark for every client, then heals.
        out.push(sc(
            "server-dark",
            pulse(&[0, 1, 2], &[3], us(20), us(1_500)),
        ));
        // One client is cut off from the whole server side.
        out.push(sc("client-cut", pulse(&[0], &[3, 4], us(20), us(1_500))));
        // A subset×subset cut: two clients lose one server only.
        out.push(sc("half-dark", pulse(&[0, 1], &[3], us(20), us(1_500))));
        // The same pair partitioned twice — repair, re-partition, repair:
        // the install ladder must survive being driven repeatedly.
        out.push(sc(
            "flap",
            NetPlan::new()
                .step(us(20), NetOp::Partition(vec![1], vec![4]))
                .step(us(600), NetOp::Repair(vec![1], vec![4]))
                .step(us(1_200), NetOp::Partition(vec![1], vec![4]))
                .step(us(1_800), NetOp::Repair(vec![1], vec![4])),
        ));
        // Asymmetric stall: the server→client direction of one pair is
        // held (deliveries park in order) and later released. For TLS this
        // darkens the ACK path; for NVMe the data path itself.
        out.push(sc(
            "ack-hold",
            NetPlan::new()
                .step(us(20), NetOp::Hold(3, 0))
                .step(us(900), NetOp::Release(3, 0)),
        ));
        // Subset-targeted impairment sweep: one client's links turn lossy
        // mid-run, then heal. Under probabilistic loss a transfer may
        // finish mid-resync with no later traffic to reconverge on, so the
        // end-in-Offloading expectation is relaxed for this pattern only.
        let lossy = Impairments {
            loss: 0.2,
            ..Impairments::none()
        };
        let mut sweep = sc(
            "lossy-client",
            NetPlan::new()
                .step(us(20), NetOp::Impair(vec![1], vec![3, 4], lossy))
                .step(
                    us(2_000),
                    NetOp::Impair(vec![1], vec![3, 4], Impairments::none()),
                ),
        );
        sweep.expect_reconverge = false;
        out.push(sweep);
    }
    // Fleet-shape variants: a 4×1 rack where the single server is the cut
    // (full blackout) and where a single client is.
    for (pattern, a, b) in [
        ("server-dark@4x1", vec![0u16, 1, 2, 3], vec![4u16]),
        ("client-cut@4x1", vec![2], vec![4]),
    ] {
        let plan = pulse(&a, &b, us(20), us(1_500));
        let name = format!("netchaos/tls/{pattern}");
        out.push(base(
            &name,
            (4, 1, 8),
            Workload::TlsRx { bytes: 96_000 },
            plan,
        ));
    }
    out
}

/// Every named scenario: 16 matrix + 3 extras, 24 chaos, 14 netchaos.
pub fn builtins() -> Vec<Scenario> {
    let mut out = matrix();
    out.extend(extras());
    out.extend(chaos_matrix());
    out.extend(netchaos_matrix());
    out
}

/// Finds a named scenario — the replay entry point.
pub fn builtin(name: &str) -> Option<Scenario> {
    builtins().into_iter().find(|s| s.name == name)
}
