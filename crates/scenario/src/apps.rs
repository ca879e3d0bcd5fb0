//! The one instrumented application every scenario host runs: it starts
//! the host's TLS streams and NVMe reads, and records *what* arrived on
//! each connection and *where it claimed to belong*, so the invariant
//! checkers can compare against the transmitted streams.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ano_sim::payload::Payload;
use ano_stack::app::{AppEvent, HostApi, HostApp};
use ano_stack::prelude::ConnId;

/// One delivered plaintext run: `(claimed stream offset, bytes)`.
pub type DeliveredChunk = (u64, Vec<u8>);

/// Everything one connection's receiving application saw.
#[derive(Clone, Debug, Default)]
pub struct Delivered {
    /// TLS plaintext chunks with their `plain_off` claims, in arrival order.
    pub chunks: Vec<DeliveredChunk>,
    /// NVMe completions: `(request id, ok, buffer bytes)`.
    pub completions: Vec<(u64, bool, Vec<u8>)>,
    /// Payload bytes recorded so far (chunks plus completion buffers).
    pub bytes: u64,
}

impl Delivered {
    /// The delivered byte stream in canonical order: TLS chunks in arrival
    /// order (they are in-order plaintext), NVMe read buffers by request id.
    /// This is what the twin comparator compares between arms.
    pub fn stream(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self
            .chunks
            .iter()
            .flat_map(|(_, b)| b.iter().copied())
            .collect();
        let mut comps: Vec<_> = self.completions.iter().collect();
        comps.sort_by_key(|(id, _, _)| *id);
        for (_, _, buf) in comps {
            out.extend_from_slice(buf);
        }
        out
    }
}

/// Per-connection delivery log shared by every host's [`FlowApp`].
pub(crate) type DeliveryLog = Rc<RefCell<BTreeMap<ConnId, Delivered>>>;

/// One host's application: at start it sends each owned TLS stream and
/// issues each owned flow's NVMe reads; afterwards it records every
/// delivered chunk and completion into the shared log.
pub(crate) struct FlowApp {
    /// `(conn, plaintext)` streams this host sends.
    pub(crate) sends: Vec<(ConnId, Vec<u8>)>,
    /// `(conn, reads)` NVMe reads this host issues, request id = index.
    pub(crate) reads: Vec<(ConnId, Vec<(u64, u32)>)>,
    log: DeliveryLog,
}

impl FlowApp {
    /// An idle app around the shared log.
    pub(crate) fn new(log: &DeliveryLog) -> FlowApp {
        FlowApp {
            sends: Vec::new(),
            reads: Vec::new(),
            log: Rc::clone(log),
        }
    }
}

impl HostApp for FlowApp {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        match event {
            AppEvent::Start => {
                for (conn, data) in std::mem::take(&mut self.sends) {
                    api.send(conn, Payload::real(data));
                }
                for (conn, reads) in &self.reads {
                    for (i, &(off, len)) in reads.iter().enumerate() {
                        api.nvme_read(*conn, i as u64, off, len);
                    }
                }
            }
            AppEvent::Data { conn, chunks } => {
                let mut log = self.log.borrow_mut();
                let d = log.entry(conn).or_default();
                for c in chunks {
                    d.bytes += c.payload.len() as u64;
                    d.chunks.push((
                        c.plain_off,
                        c.payload.as_real().map(Vec::from).unwrap_or_default(),
                    ));
                }
            }
            AppEvent::NvmeDone { conn, completion } => {
                let buf = completion
                    .buffer
                    .as_ref()
                    // ano-lint: allow(hot-alloc): functional-mode read-completion copy handed to the app, inventoried for arena round 2 (ROADMAP item 1)
                    .map(|b| b.borrow().clone())
                    .unwrap_or_default();
                let mut log = self.log.borrow_mut();
                let d = log.entry(conn).or_default();
                d.bytes += buf.len() as u64;
                d.completions.push((completion.id, completion.ok, buf));
            }
            _ => {}
        }
    }
}
