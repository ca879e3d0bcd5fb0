//! Simulated counters, read through the stack's public getters at the two
//! ends of the measured window. Every field is exact and deterministic: two
//! runs of one workload and seed must produce identical snapshots.

use crate::workload::{Built, Role};

/// Cumulative counters of a running workload at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snap {
    /// Scheduler events dispatched.
    pub events: u64,
    /// Packets offered to any link.
    pub pkts: u64,
    /// Packets the links dropped.
    pub lost: u64,
    /// Packets the links reordered.
    pub reordered: u64,
    /// Application bytes delivered: TLS plaintext plus NVMe read data.
    pub app_bytes: u64,
    /// iperf messages sent plus fio reads completed.
    pub ops: u64,
    /// Busy cycles of every server core, host by host.
    pub server_cores: Vec<Vec<u64>>,
    /// Busy cycles of every client core, host by host.
    pub client_cores: Vec<Vec<u64>>,
    /// TCP segments sent for the first time, both ends.
    pub tcp_sent: u64,
    /// TCP segments sent again.
    pub tcp_retx: u64,
    /// RTO expirations.
    pub tcp_rto: u64,
    /// Fast-retransmit events.
    pub tcp_fast_retx: u64,
    /// NIC context-cache hits over every host.
    pub ctx_hits: u64,
    /// NIC context-cache misses over every host.
    pub ctx_misses: u64,
    /// PCIe bytes for context fills and write-backs.
    pub pcie_ctx_bytes: u64,
    /// Flows that moved to another rx queue.
    pub queue_crossings: u64,
    /// Packets received per rx queue, server by server.
    pub queue_pkts: Vec<Vec<u64>>,
    /// Rebalancer flow moves over the servers.
    pub migrations: u64,
    /// Rx engine packets inspected at the data receivers.
    pub rx_pkts: u64,
    /// Rx engine packets fully offloaded.
    pub rx_offloaded: u64,
    /// Resync confirmations the rx engines requested.
    pub resync_requests: u64,
    /// Confirmations that resumed offloading.
    pub resync_ok: u64,
    /// Tx engine context recoveries at the data senders.
    pub tx_recoveries: u64,
    /// Bytes the tx engines replayed over PCIe.
    pub tx_replay_bytes: u64,
    /// TLS records all, partly and not offloaded.
    pub records: [u64; 3],
    /// TLS alerts.
    pub alerts: u64,
    /// NVMe completions at the initiators.
    pub nvme_completions: u64,
    /// Data PDUs whose digest check the NIC did.
    pub nvme_crc_skipped: u64,
    /// Digest failures.
    pub nvme_crc_failures: u64,
    /// NVMe data bytes the NIC placed, so software skipped the copy.
    pub nvme_placed: u64,
    /// NVMe data bytes copied in software.
    pub nvme_copied: u64,
    /// Payload packets processed with a breaker open, both ends.
    pub degraded_pkts: u64,
    /// Connection ends with an open breaker.
    pub breakers_open: u64,
    /// fio reads that failed.
    pub fio_failures: u64,
    /// Application checks that failed (bad TLS messages, bad read buffers).
    pub bad_ops: u64,
}

impl Snap {
    /// Reads every counter of `b` now.
    pub fn take(b: &Built) -> Snap {
        let w = &b.fleet;
        let mut s = Snap {
            events: w.events_dispatched(),
            ..Snap::default()
        };
        for (src, dst) in b.links() {
            let l = w.link_stats_between(src, dst);
            s.pkts += l.offered;
            s.lost += l.lost;
            s.reordered += l.reordered;
        }
        s.server_cores = b.servers.iter().map(|&h| w.cpu_snapshot(h)).collect();
        s.client_cores = b.clients.iter().map(|&h| w.cpu_snapshot(h)).collect();
        for &h in b.clients.iter().chain(&b.servers) {
            let n = w.nic_counters(h);
            s.ctx_hits += n.cache_hits;
            s.ctx_misses += n.cache_misses;
            s.pcie_ctx_bytes += n.pcie_ctx_bytes;
            s.queue_crossings += n.queue_crossings;
        }
        for &h in &b.servers {
            s.queue_pkts.push(w.queue_rx_pkts(h).to_vec());
            s.migrations += w.migrations(h);
        }
        for f in &b.flows {
            for h in [f.client, f.server] {
                if let Some(t) = w.tcp_tx_stats(h, f.conn) {
                    s.tcp_sent += t.segments_sent;
                    s.tcp_retx += t.retransmits;
                    s.tcp_rto += t.timeouts;
                    s.tcp_fast_retx += t.fast_retransmits;
                }
                s.degraded_pkts += w.degraded_pkts(h, f.conn);
                s.breakers_open += u64::from(w.breaker_reason(h, f.conn).is_some());
            }
            if let Some(rx) = w.rx_engine_stats(f.sink(), f.conn) {
                s.rx_pkts += rx.pkts;
                s.rx_offloaded += rx.pkts_offloaded;
                s.resync_requests += rx.resync_requests;
                s.resync_ok += rx.resync_ok;
            }
            if let Some(tx) = w.tx_engine_stats(f.source(), f.conn) {
                s.tx_recoveries += tx.recoveries;
                s.tx_replay_bytes += tx.replay_bytes;
            }
            match f.role {
                Role::Tls => {
                    if let Some(k) = w.ktls_rx_stats(f.sink(), f.conn) {
                        s.records[0] += k.class.full;
                        s.records[1] += k.class.partial;
                        s.records[2] += k.class.none;
                        s.alerts += k.alerts;
                    }
                }
                Role::Nvme => {
                    if let Some(n) = w.nvme_host_stats(f.sink(), f.conn) {
                        s.nvme_completions += n.completions;
                        s.nvme_crc_skipped += n.crc_skipped;
                        s.nvme_crc_failures += n.crc_failures;
                        s.nvme_placed += n.bytes_placed;
                        s.nvme_copied += n.bytes_copied;
                    }
                }
            }
        }
        let app = b.app.borrow();
        s.app_bytes = app.tls_bytes + app.reads_done * u64::from(crate::workload::READ_SIZE);
        s.ops = app.sends + app.reads_done;
        s.bad_ops = app.bad_messages.len() as u64 + app.bad_reads;
        if let Some(fio) = &b.fio {
            s.fio_failures = fio.borrow().failures;
        }
        s
    }

    /// Counters accumulated from `self` (earlier) to `later`. Per-core and
    /// per-queue vectors become deltas too; `breakers_open` is a level and
    /// keeps its later value.
    pub fn delta(&self, later: &Snap) -> Snap {
        let vecs = |a: &[Vec<u64>], b: &[Vec<u64>]| -> Vec<Vec<u64>> {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.iter().zip(y).map(|(p, q)| q - p).collect())
                .collect()
        };
        Snap {
            events: later.events - self.events,
            pkts: later.pkts - self.pkts,
            lost: later.lost - self.lost,
            reordered: later.reordered - self.reordered,
            app_bytes: later.app_bytes - self.app_bytes,
            ops: later.ops - self.ops,
            server_cores: vecs(&self.server_cores, &later.server_cores),
            client_cores: vecs(&self.client_cores, &later.client_cores),
            tcp_sent: later.tcp_sent - self.tcp_sent,
            tcp_retx: later.tcp_retx - self.tcp_retx,
            tcp_rto: later.tcp_rto - self.tcp_rto,
            tcp_fast_retx: later.tcp_fast_retx - self.tcp_fast_retx,
            ctx_hits: later.ctx_hits - self.ctx_hits,
            ctx_misses: later.ctx_misses - self.ctx_misses,
            pcie_ctx_bytes: later.pcie_ctx_bytes - self.pcie_ctx_bytes,
            queue_crossings: later.queue_crossings - self.queue_crossings,
            queue_pkts: vecs(&self.queue_pkts, &later.queue_pkts),
            migrations: later.migrations - self.migrations,
            rx_pkts: later.rx_pkts - self.rx_pkts,
            rx_offloaded: later.rx_offloaded - self.rx_offloaded,
            resync_requests: later.resync_requests - self.resync_requests,
            resync_ok: later.resync_ok - self.resync_ok,
            tx_recoveries: later.tx_recoveries - self.tx_recoveries,
            tx_replay_bytes: later.tx_replay_bytes - self.tx_replay_bytes,
            records: [
                later.records[0] - self.records[0],
                later.records[1] - self.records[1],
                later.records[2] - self.records[2],
            ],
            alerts: later.alerts - self.alerts,
            nvme_completions: later.nvme_completions - self.nvme_completions,
            nvme_crc_skipped: later.nvme_crc_skipped - self.nvme_crc_skipped,
            nvme_crc_failures: later.nvme_crc_failures - self.nvme_crc_failures,
            nvme_placed: later.nvme_placed - self.nvme_placed,
            nvme_copied: later.nvme_copied - self.nvme_copied,
            degraded_pkts: later.degraded_pkts - self.degraded_pkts,
            breakers_open: later.breakers_open,
            fio_failures: later.fio_failures - self.fio_failures,
            bad_ops: later.bad_ops - self.bad_ops,
        }
    }

    /// Failed operations: every alert, digest failure, fio failure and
    /// failed data check.
    pub fn failed_ops(&self) -> u64 {
        self.alerts + self.nvme_crc_failures + self.fio_failures + self.bad_ops
    }

    /// Simulated server busy cycles in a window delta.
    pub fn server_cycles(&self) -> u64 {
        self.server_cores.iter().flatten().sum()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Max-over-mean of a load vector (1.0 = even; `len` = all on one).
pub fn max_over_mean(load: &[u64]) -> f64 {
    let total: u64 = load.iter().sum();
    let max = load.iter().copied().max().unwrap_or(0);
    if total == 0 {
        1.0
    } else {
        max as f64 * load.len() as f64 / total as f64
    }
}
