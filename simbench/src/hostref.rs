//! The host-speed reference. A guest on a shared host can change speed by
//! up to about 2x over seconds to minutes (a 2-vCPU Xeon guest did), so
//! raw host time would measure the host more than the program. Each timed
//! stretch of the simulator sits between two passes of a fixed reference,
//! built only from the benchmark's own code and `std`, and its time is
//! scaled by `NOMINAL_PASS_NS` over the mean of the two: host time as it
//! would read on a host that runs a pass in `NOMINAL_PASS_NS`. A change to
//! the simulator cannot speed up or slow down the reference, so the scaled
//! times still move with the program.
//!
//! A pass runs two parts, chosen because together their speed tracked the
//! simulator's across the host's slow and fast phases: a vectorisable sum
//! over an L1-resident array (about two thirds of a pass), and event-loop
//! steps (binary-heap pop and push, hash-map update, one short-lived
//! allocation). A pointer chase through 8 MiB moved on its own, so the
//! pass stays in cache.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host ns of one reference pass on the nominal host. A unit convention
/// (about what a pass takes on a 2-vCPU Xeon guest in a fast phase), not
/// a claim about any host.
pub const NOMINAL_PASS_NS: f64 = 500_000.0;

/// Elements of the L1-resident array (16 KiB).
const L1_WORDS: u64 = 2048;
/// Sweeps over the array per pass.
const L1_SWEEPS: u64 = 768;
/// Pending events in the heap, keys in the map.
const EVENTS: u64 = 1024;
const KEYS: u64 = 4096;
/// Event-loop steps per pass.
const STEPS: u64 = 1536;
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference's state; every pass does the same amount of work.
pub struct HostRef {
    words: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    map: HashMap<u64, u64>,
    rng: u64,
}

impl HostRef {
    /// Builds the state and runs one pass, so the first timed pass finds
    /// it warm.
    pub fn new() -> Self {
        let mut rng = 0x5EED;
        let heap = (0..EVENTS)
            .map(|i| Reverse((xorshift(&mut rng) % 100_000, i)))
            .collect();
        let map = (0..KEYS).map(|k| (k.wrapping_mul(MIX), k)).collect();
        let mut r = HostRef {
            words: (0..L1_WORDS).collect(),
            heap,
            map,
            rng,
        };
        r.pass_ns();
        r
    }

    /// Runs one pass; returns its host ns.
    pub fn pass_ns(&mut self) -> f64 {
        let t = Instant::now();
        let mut sum = 0u64;
        for k in 0..L1_SWEEPS {
            for w in &self.words {
                sum = sum.wrapping_add(*w ^ k);
            }
        }
        black_box(sum);
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Some(Reverse((at, id))) = self.heap.pop() else {
                break;
            };
            if let Some(v) = self.map.get_mut(&((at % KEYS).wrapping_mul(MIX))) {
                *v = v.wrapping_add(1);
                acc ^= *v;
            }
            let mut buf = vec![0u8; 200 + (at % 1300) as usize];
            buf[0] = id as u8;
            acc = acc.wrapping_add(black_box(&buf).len() as u64);
            let later = at + xorshift(&mut self.rng) % 100_000;
            self.heap.push(Reverse((later, id)));
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64
    }
}

/// Host ns scaled to the nominal host, given the reference pass time
/// measured next to it.
pub fn scale(ns: f64, pass_ns: f64) -> f64 {
    ns * NOMINAL_PASS_NS / pass_ns
}
