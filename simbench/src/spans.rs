//! Host time of single layers, measured as spans around calls into each
//! crate's public functions. The call shapes follow what the workloads
//! drive: 16 KiB TLS records, 4 KiB NVMe digests, MSS-sized packets through
//! the NIC rx engine, scheduler push/pop at a steady queue depth, and
//! clean-link transmits.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ano_core::msg::{EngineEvent, FrameIndex};
use ano_core::nic::{Nic, NicConfig};
use ano_core::rx::RxEngine;
use ano_crypto::aes::Aes;
use ano_crypto::crc32c::crc32c;
use ano_crypto::gcm;
use ano_sim::link::{Impairments, Link};
use ano_sim::payload::Payload;
use ano_sim::rng::SimRng;
use ano_sim::sched::Scheduler;
use ano_sim::time::{SimDuration, SimTime};
use ano_tcp::segment::FlowId;
use ano_tls::offload::{FlowMode, TlsRxFlow};
use ano_tls::record::OVERHEAD;
use ano_tls::session::TlsSession;

/// Clock used to express host ns/byte as cycles/byte. A unit convention,
/// not a claim about the host.
const NOMINAL_HZ: f64 = 3.0e9;

/// Runs `batch` until `budget` is spent (at least 5 times) and returns
/// the median host ns per unit. `batch` reports the units it did and the
/// time its measured part took, so per-batch set-up stays off the clock.
fn median_ns_per_unit(budget: Duration, mut batch: impl FnMut() -> (u64, Duration)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let (units, took) = batch();
        samples.push(took.as_nanos() as f64 / units.max(1) as f64);
    }
    crate::median(&mut samples)
}

fn cpb(ns_per_byte: f64) -> f64 {
    ns_per_byte * NOMINAL_HZ / 1e9
}

/// AES-128-GCM seal of a 16 KiB record, cycles/byte.
pub fn aes_gcm_seal_cpb(budget: Duration) -> f64 {
    let aes = Aes::new_128(&[7; 16]);
    let plain = vec![0xA5u8; 16 * 1024];
    let mut buf = plain.clone();
    cpb(median_ns_per_unit(budget, || {
        let t = Instant::now();
        for _ in 0..16 {
            buf.copy_from_slice(&plain);
            black_box(gcm::seal(&aes, &[1; 12], b"aad", &mut buf));
        }
        (16 * plain.len() as u64, t.elapsed())
    }))
}

/// AES-128-GCM open (decrypt and verify) of a 16 KiB record, cycles/byte.
pub fn aes_gcm_open_cpb(budget: Duration) -> f64 {
    let aes = Aes::new_128(&[7; 16]);
    let mut sealed = vec![0xA5u8; 16 * 1024];
    let tag = gcm::seal(&aes, &[1; 12], b"aad", &mut sealed);
    let mut buf = sealed.clone();
    cpb(median_ns_per_unit(budget, || {
        let t = Instant::now();
        for _ in 0..16 {
            buf.copy_from_slice(&sealed);
            let ok = gcm::open(&aes, &[1; 12], b"aad", &mut buf, &tag).is_ok();
            assert!(ok, "a freshly sealed record authenticates");
        }
        (16 * sealed.len() as u64, t.elapsed())
    }))
}

/// CRC32C of a 4 KiB buffer, cycles/byte.
pub fn crc32c_cpb(budget: Duration) -> f64 {
    let data = vec![0x5Au8; 4096];
    cpb(median_ns_per_unit(budget, || {
        let t = Instant::now();
        for _ in 0..256 {
            black_box(crc32c(black_box(&data)));
        }
        (256 * data.len() as u64, t.elapsed())
    }))
}

/// Packets per NIC rx batch (about 6 MB of stream).
const RX_PKTS: u64 = 4096;
/// TCP MSS the stack segments with.
const MSS: u64 = 1448;

/// `Nic::rx_process` on a modeled TLS rx offload, host ns per packet
/// processed. With `hole_every = Some(n)`, every n-th packet is lost, so
/// the engine goes through out-of-sequence fallback and the §4.3 search,
/// track and confirm machine; resync requests are confirmed at once.
pub fn nic_rx_ns_per_pkt(budget: Duration, hole_every: Option<u64>) -> f64 {
    let record = (16 * 1024 + OVERHEAD) as u64;
    let flow = FlowId(1);
    median_ns_per_unit(budget, || {
        let frames = FrameIndex::new();
        let mut off = 0;
        while off < RX_PKTS * MSS {
            frames.push(off, record as u32);
            off += record;
        }
        let mut nic = Nic::new(NicConfig::default());
        let engine = TlsRxFlow::new(TlsSession::from_seed(3), FlowMode::Modeled(frames.clone()));
        nic.install_rx(flow, RxEngine::new(Box::new(engine), 0, 0));
        let mut done = 0;
        let t = Instant::now();
        for i in 0..RX_PKTS {
            if hole_every.is_some_and(|n| i % n == n / 2) {
                continue;
            }
            let mut payload = Payload::synthetic(MSS as usize);
            let out = nic.rx_process(flow, i * MSS, &mut payload);
            for ev in out.events {
                let EngineEvent::ResyncRequest { layer, tcpsn } = ev;
                let idx = frames.at(tcpsn).map(|(_, idx)| idx);
                let epoch = nic.epoch();
                nic.resync_response(flow, layer, tcpsn, idx.is_some(), idx.unwrap_or(0), epoch);
            }
            done += 1;
        }
        (done, t.elapsed())
    })
}

/// `Scheduler::schedule` plus `pop_batch_until` at a steady 1024 pending
/// events, host ns per event.
pub fn sched_ns_per_event(budget: Duration) -> f64 {
    const PENDING: u64 = 1024;
    const EVENTS: u64 = 64 * 1024;
    median_ns_per_unit(budget, || {
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut rng = SimRng::seed(11);
        for i in 0..PENDING {
            sched.schedule(SimTime::from_nanos(rng.range_u64(0, 100_000)), i);
        }
        let mut out = Vec::with_capacity(64);
        let mut popped = 0;
        let t = Instant::now();
        while popped < EVENTS {
            let Some(now) = sched.pop_batch_until(SimTime::MAX, 64, &mut out) else {
                break;
            };
            for ev in out.drain(..) {
                popped += 1;
                let later = now + SimDuration::from_nanos(rng.range_u64(1, 100_000));
                sched.schedule(later, black_box(ev));
            }
        }
        (popped, t.elapsed())
    })
}

/// `Link::transmit_into` on a clean 100 Gb/s link, host ns per frame.
pub fn link_ns_per_transmit(budget: Duration) -> f64 {
    const FRAMES: u64 = 64 * 1024;
    median_ns_per_unit(budget, || {
        let mut link = Link::new(
            100_000_000_000,
            SimDuration::from_micros(2),
            Impairments::none(),
        );
        let mut rng = SimRng::seed(12);
        let mut out = Vec::with_capacity(2);
        let mut now = SimTime::ZERO;
        let t = Instant::now();
        for _ in 0..FRAMES {
            now += SimDuration::from_nanos(120);
            link.transmit_into(now, 1500, &mut rng, &mut out);
            black_box(&out);
            out.clear();
        }
        (FRAMES, t.elapsed())
    })
}
