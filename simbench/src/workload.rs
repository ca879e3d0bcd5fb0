//! The three workloads: the world each one builds, its flows, and the
//! applications that drive them and check what they deliver.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use ano_apps::fio::{Fio, FioStats};
use ano_core::nic::NicConfig;
use ano_nvme::block::pattern_byte;
use ano_sim::link::Impairments;
use ano_sim::payload::{DataMode, Payload};
use ano_sim::time::SimDuration;
use ano_stack::app::{AppEvent, HostApi, HostApp};
use ano_stack::prelude::*;
use ano_tcp::TcpConfig;

/// iperf message size (the paper's 256 KiB writes).
const MESSAGE: usize = 256 * 1024;
/// fio read size in `lossy_functional`.
pub const READ_SIZE: u32 = 64 * 1024;
/// fio queue depth in `lossy_functional`.
const READ_DEPTH: usize = 16;
/// Device region fio reads from (1 GiB).
const READ_SPAN: u64 = 1 << 30;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One TLS-offload-zc iperf flow, modeled payloads, clean link.
    Stream,
    /// 4 clients x 2 servers, 96 rx-offloaded TLS flows over 32-entry
    /// context caches, 4 RSS queues and the rebalancer per server.
    Fleet,
    /// 2 clients x 1 server in functional mode, 1% loss and 1% reorder
    /// on the data direction: one TLS stream and one NVMe-TCP fio reader.
    LossyFunctional,
}

impl Kind {
    /// Simulated warm-up before the measured window, the window, and the
    /// number of separately timed slices the window is cut into. Modeled
    /// repetitions take well under a second of host time, so a run holds
    /// dozens of them. Functional mode costs 40 to 70 ms of host time per
    /// simulated ms, so `lossy_functional` holds a few. Its window is
    /// 200 ms because the loss a seed draws sets its simulated goodput:
    /// over 100 ms windows the quartile spread across ten seeds reached
    /// 0.12.
    pub fn shape(self) -> Shape {
        match self {
            Kind::Stream => Shape {
                warmup: SimDuration::from_millis(20),
                window: SimDuration::from_millis(200),
                slices: 10,
            },
            Kind::Fleet => Shape {
                warmup: SimDuration::from_millis(20),
                window: SimDuration::from_millis(100),
                slices: 10,
            },
            Kind::LossyFunctional => Shape {
                warmup: SimDuration::from_millis(5),
                window: SimDuration::from_millis(200),
                slices: 40,
            },
        }
    }
}

/// Simulated time layout of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Warm-up, part of set-up.
    pub warmup: SimDuration,
    /// Measured window.
    pub window: SimDuration,
    /// Timed slices per window.
    pub slices: u32,
}

/// What a flow carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// TLS stream, client to server.
    Tls,
    /// NVMe-TCP reads: the client is the initiator and receives the data.
    Nvme,
}

/// One connection of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Flow {
    /// The connection.
    pub conn: ConnId,
    /// Client host index.
    pub client: usize,
    /// Server host index.
    pub server: usize,
    /// What it carries.
    pub role: Role,
}

impl Flow {
    /// Host that receives the application data.
    pub fn sink(&self) -> usize {
        match self.role {
            Role::Tls => self.server,
            Role::Nvme => self.client,
        }
    }

    /// Host that sends the application data.
    pub fn source(&self) -> usize {
        match self.role {
            Role::Tls => self.client,
            Role::Nvme => self.server,
        }
    }
}

/// Operation counters the applications keep.
#[derive(Debug, Default)]
pub struct AppCounters {
    /// iperf messages handed to the stack.
    pub sends: u64,
    /// Plaintext bytes received, over all TLS flows.
    pub tls_bytes: u64,
    /// Messages, as (connection, message index), whose received bytes
    /// differ from what was sent or arrived out of stream order.
    pub bad_messages: BTreeSet<(u32, u64)>,
    /// fio reads completed.
    pub reads_done: u64,
    /// fio reads whose buffer differs from the device contents.
    pub bad_reads: u64,
}

/// A built workload, started and ready to run.
pub struct Built {
    /// The world.
    pub fleet: Fleet,
    /// Every connection.
    pub flows: Vec<Flow>,
    /// Client host indices.
    pub clients: Vec<usize>,
    /// Server host indices.
    pub servers: Vec<usize>,
    /// Application counters.
    pub app: Rc<RefCell<AppCounters>>,
    /// fio counters, when the workload runs fio.
    pub fio: Option<Rc<RefCell<FioStats>>>,
    /// Link impairments the measured window runs under.
    window_impair: Vec<((u16, u16), Impairments)>,
}

impl Built {
    /// Switches on the measured window's link impairments. The warm-up runs
    /// on clean links, so set-up does the same work whatever the seed and
    /// every flow enters the window offloaded and at full speed.
    pub fn open_window(&mut self) {
        for ((src, dst), imp) in self.window_impair.drain(..) {
            self.fleet.set_impairments_between(src, dst, imp);
        }
    }

    /// Every directed link of the mesh.
    pub fn links(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.clients.iter().flat_map(move |&c| {
            self.servers
                .iter()
                .flat_map(move |&s| [(c as u16, s as u16), (s as u16, c as u16)])
        })
    }
}

/// Datacenter TCP tunables: 4 ms RTO floor and 512 KiB windows, so a
/// standing queue on the infinitely buffered link stays below the RTO.
fn dc_tcp() -> TcpConfig {
    TcpConfig {
        min_rto: SimDuration::from_millis(4),
        max_cwnd: 512 << 10,
        rcv_buf: 512 << 10,
        ..Default::default()
    }
}

/// Builds and starts `kind` with `seed`, tracing on or off from the start.
pub fn build(kind: Kind, seed: u64, trace: bool) -> Built {
    let (clients, servers, client, server, mode, rebalance, window_impair) = match kind {
        Kind::Stream => (
            1,
            1,
            HostSpec {
                cores: 1,
                ..HostSpec::default()
            },
            HostSpec {
                cores: 8,
                ..HostSpec::default()
            },
            DataMode::Modeled,
            None,
            Vec::new(),
        ),
        Kind::Fleet => (
            4,
            2,
            HostSpec {
                cores: 4,
                ..HostSpec::default()
            },
            HostSpec {
                cores: 4,
                nic: NicConfig {
                    ctx_cache_capacity: 32,
                    rx_queues: 4,
                    rss_buckets: 128,
                    ..NicConfig::default()
                },
            },
            DataMode::Modeled,
            Some(RebalanceConfig::default()),
            Vec::new(),
        ),
        Kind::LossyFunctional => {
            // Loss on the data direction only: TLS data flows client 0 ->
            // server, NVMe read data flows server -> client 1. Loss on the
            // ACK paths as well trips the rx breaker and leaves the run
            // mostly in software.
            let lossy = Impairments {
                loss: 0.01,
                reorder: 0.01,
                reorder_extra_ns: (50_000, 500_000),
                ..Impairments::default()
            };
            (
                2,
                1,
                HostSpec {
                    cores: 1,
                    ..HostSpec::default()
                },
                HostSpec {
                    cores: 8,
                    ..HostSpec::default()
                },
                DataMode::Functional,
                None,
                vec![((0, 2), lossy.clone()), ((2, 1), lossy)],
            )
        }
    };
    let mut fleet = Fleet::build(FleetSpec {
        clients,
        servers,
        client,
        server,
        impair: Vec::new(),
        scripts: Vec::new(),
        cfg: WorldConfig {
            seed,
            mode,
            tcp: dc_tcp(),
            rebalance,
            ..Default::default()
        },
    });
    fleet.tracer().set_enabled(trace);

    let app = Rc::new(RefCell::new(AppCounters::default()));
    let mut flows = Vec::new();
    let mut fio = None;
    match kind {
        Kind::Stream => {
            let conn = fleet.connect(
                0,
                0,
                ConnSpec::Tls(TlsSpec::offloaded_zc()),
                ConnSpec::Tls(TlsSpec::offloaded_zc()),
            );
            flows.push(Flow {
                conn,
                client: 0,
                server: fleet.server(0),
                role: Role::Tls,
            });
        }
        Kind::Fleet => {
            // 48 flows per server against 32 cache entries: every server
            // holds more flows than its context cache.
            for k in 0..96 {
                let (ci, sj) = (k % clients, k % servers);
                let conn = fleet.connect(
                    ci,
                    sj,
                    ConnSpec::Tls(TlsSpec::default()),
                    ConnSpec::Tls(TlsSpec {
                        rx_offload: true,
                        ..TlsSpec::default()
                    }),
                );
                flows.push(Flow {
                    conn,
                    client: ci,
                    server: fleet.server(sj),
                    role: Role::Tls,
                });
            }
        }
        Kind::LossyFunctional => {
            let conn = fleet.connect(
                0,
                0,
                ConnSpec::Tls(TlsSpec::offloaded_zc()),
                ConnSpec::Tls(TlsSpec::offloaded_zc()),
            );
            flows.push(Flow {
                conn,
                client: 0,
                server: fleet.server(0),
                role: Role::Tls,
            });
            let conn = fleet.connect(
                1,
                0,
                ConnSpec::NvmeHost(NvmeHostSpec::offloaded()),
                ConnSpec::NvmeTarget(NvmeTargetSpec {
                    crc_tx_offload: true,
                    ..NvmeTargetSpec::default()
                }),
            );
            flows.push(Flow {
                conn,
                client: 1,
                server: fleet.server(0),
                role: Role::Nvme,
            });
            let mut reader = Fio::new(conn, READ_SIZE, READ_DEPTH, READ_SPAN);
            reader.measure_from = ano_sim::time::SimTime::ZERO + kind.shape().warmup;
            fio = Some(reader.stats());
            fleet.set_app(
                1,
                Box::new(CheckedFio {
                    inner: reader,
                    app: Rc::clone(&app),
                }),
            );
        }
    }

    let client_hosts: Vec<usize> = (0..clients).map(|i| fleet.client(i)).collect();
    let server_hosts: Vec<usize> = (0..servers).map(|j| fleet.server(j)).collect();
    for &c in &client_hosts {
        let conns: Vec<ConnId> = flows
            .iter()
            .filter(|f| f.role == Role::Tls && f.client == c)
            .map(|f| f.conn)
            .collect();
        if !conns.is_empty() {
            let conns = conns.into_iter().map(|c| (c, 0)).collect();
            let sender = StreamSender {
                conns,
                seed,
                mode,
                app: Rc::clone(&app),
            };
            fleet.set_app(c, Box::new(sender));
        }
    }
    for &s in &server_hosts {
        let sink = CheckSink {
            seed,
            next: Vec::new(),
            app: Rc::clone(&app),
        };
        fleet.set_app(s, Box::new(sink));
    }
    fleet.start();
    Built {
        fleet,
        flows,
        clients: client_hosts,
        servers: server_hosts,
        app,
        fio,
        window_impair,
    }
}

/// Byte `i` of the TLS stream the sender writes: position-dependent and
/// seeded, so misplaced, duplicated or corrupted bytes all show.
fn stream_byte(seed: u64, i: u64) -> u8 {
    ((i ^ (i >> 13) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// iperf-style sender: keeps every connection's send queue topped up with
/// 256 KiB messages (the same priming and refill as `ano_apps::iperf`),
/// writing the seeded stream pattern in functional mode.
struct StreamSender {
    /// Each connection with the stream offset written so far.
    conns: Vec<(ConnId, u64)>,
    seed: u64,
    mode: DataMode,
    app: Rc<RefCell<AppCounters>>,
}

impl StreamSender {
    fn push(&mut self, api: &mut HostApi, conn: ConnId, messages: usize) {
        let Some(slot) = self.conns.iter_mut().find(|(c, _)| *c == conn) else {
            return;
        };
        for _ in 0..messages {
            let data = match self.mode {
                DataMode::Modeled => Payload::synthetic(MESSAGE),
                DataMode::Functional => {
                    let base = slot.1;
                    let bytes: Vec<u8> = (0..MESSAGE as u64)
                        .map(|j| stream_byte(self.seed, base + j))
                        .collect();
                    Payload::real(bytes)
                }
            };
            slot.1 += MESSAGE as u64;
            api.send(conn, data);
        }
        self.app.borrow_mut().sends += messages as u64;
    }
}

impl HostApp for StreamSender {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        match event {
            AppEvent::Start => {
                let conns: Vec<ConnId> = self.conns.iter().map(|&(c, _)| c).collect();
                for c in conns {
                    self.push(api, c, (256 << 10) / MESSAGE + 1);
                }
            }
            AppEvent::Writable { conn } => self.push(api, conn, (128 << 10) / MESSAGE + 1),
            _ => {}
        }
    }
}

/// TLS receiver: counts plaintext and checks it arrives in stream order
/// and, in functional mode, byte for byte as the sender wrote it.
struct CheckSink {
    seed: u64,
    /// Next expected plaintext offset per connection.
    next: Vec<(ConnId, u64)>,
    app: Rc<RefCell<AppCounters>>,
}

impl HostApp for CheckSink {
    fn on_event(&mut self, _api: &mut HostApi, event: AppEvent<'_>) {
        let AppEvent::Data { conn, chunks } = event else {
            return;
        };
        let idx = match self.next.iter().position(|(c, _)| *c == conn) {
            Some(i) => i,
            None => {
                self.next.push((conn, 0));
                self.next.len() - 1
            }
        };
        let mut app = self.app.borrow_mut();
        for chunk in chunks {
            let len = chunk.payload.len() as u64;
            let expect = self.next[idx].1;
            let msg = |off: u64| (conn.0, off / MESSAGE as u64);
            if chunk.plain_off != expect {
                app.bad_messages.insert(msg(chunk.plain_off));
            } else if let Some(bytes) = chunk.payload.as_real() {
                if let Some(j) =
                    (0..len).find(|&j| bytes[j as usize] != stream_byte(self.seed, expect + j))
                {
                    app.bad_messages.insert(msg(expect + j));
                }
            }
            self.next[idx].1 = chunk.plain_off + len;
            app.tls_bytes += len;
        }
    }
}

/// `ano_apps::fio` reader that also checks every read buffer against the
/// device's background pattern.
struct CheckedFio {
    inner: Fio,
    app: Rc<RefCell<AppCounters>>,
}

impl HostApp for CheckedFio {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        if let AppEvent::NvmeDone { completion, .. } = &event {
            let mut app = self.app.borrow_mut();
            app.reads_done += 1;
            if let Some(buf) = &completion.buffer {
                if !matches_device(&buf.borrow()) {
                    app.bad_reads += 1;
                }
            }
        }
        self.inner.on_event(api, event);
    }
}

/// True when `buf` is a 4 KiB-aligned read of the unwritten device. The
/// pattern encodes the chunk index modulo 256 in each byte, so the first
/// byte fixes the read's offset up to that alias and every later byte must
/// follow from it.
fn matches_device(buf: &[u8]) -> bool {
    if buf.len() != READ_SIZE as usize {
        return false;
    }
    let Some(base) = (0..256u64)
        .map(|k| k * 4096)
        .find(|&off| pattern_byte(off) == buf[0])
    else {
        return false;
    };
    buf.iter()
        .enumerate()
        .all(|(j, &b)| b == pattern_byte(base + j as u64))
}
