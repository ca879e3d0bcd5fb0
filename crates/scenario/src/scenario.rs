//! The scenario model: one value describes a whole experiment — the host
//! shape, the flows and what each carries, the adversity (link scripts,
//! device faults, a timed network plan, RSS skew) and the budgets and
//! expectations the run is held to. The classic two-host cases are a 1×1
//! fleet.

use ano_core::fault::DeviceFaults;
use ano_core::nic::NicConfig;
use ano_sim::link::Script;
use ano_sim::payload::DataMode;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::{
    ConnSpec, FleetSpec, HostSpec, NvmeHostSpec, NvmeTargetSpec, TlsSpec, WorldConfig,
};
use ano_stack::world::NetPlan;

use crate::run::Arm;

/// What one flow carries. The variant also fixes the flow's offload
/// footprint in the [`Arm::Offload`] arm (the golden traces pin it).
#[derive(Clone, Debug)]
pub enum Workload {
    /// The client streams `bytes` of plaintext to the server over kTLS,
    /// tx and rx crypto offloaded on both ends.
    Tls {
        /// Application bytes to send.
        bytes: usize,
    },
    /// As [`Workload::Tls`], but only the server's rx crypto is offloaded:
    /// the context cache under test is the server's.
    TlsRx {
        /// Application bytes to send.
        bytes: usize,
    },
    /// The client issues NVMe/TCP reads against the server's target, with
    /// the initiator offloads plus target CRC-on-transmit.
    Nvme {
        /// `(device_offset, len)` per read, relative to the flow's own
        /// 4 MiB device region.
        reads: Vec<(u64, u32)>,
    },
    /// NVMe/TCP reads inside TLS (combined NVMe-TLS, §5.3): the NVMe
    /// footprint plus target CRC-on-receive and TLS offload on both ends.
    NvmeTls {
        /// `(device_offset, len)` per read, as for [`Workload::Nvme`].
        reads: Vec<(u64, u32)>,
    },
}

impl Workload {
    /// Whether the payload flows server → client (NVMe read data).
    pub fn server_sends(&self) -> bool {
        matches!(self, Workload::Nvme { .. } | Workload::NvmeTls { .. })
    }

    /// Flow `k`'s NVMe reads: the workload's reads shifted into the flow's
    /// own 4 MiB device region, so cross-flow placement mixups are
    /// byte-visible. Empty for TLS.
    pub(crate) fn reads(&self, k: usize) -> Vec<(u64, u32)> {
        match self {
            Workload::Nvme { reads } | Workload::NvmeTls { reads } => reads
                .iter()
                .map(|&(off, len)| (off + ((k as u64) << 22), len))
                .collect(),
            Workload::Tls { .. } | Workload::TlsRx { .. } => Vec::new(),
        }
    }

    /// The byte stream flow `k` must deliver under world seed `seed`: TLS
    /// plaintext in a per-flow pattern no other flow shares, or the read
    /// buffers in request order. The pattern's period (251, prime, above
    /// packet-boundary strides) keeps misplaced chunks detectable.
    pub(crate) fn expected(&self, k: usize, seed: u64) -> Vec<u8> {
        match self {
            Workload::Tls { bytes } | Workload::TlsRx { bytes } => {
                let base = (k as u64).wrapping_mul(7).wrapping_add(seed);
                (0..*bytes)
                    .map(|j| ((base + j as u64) % 251) as u8)
                    .collect()
            }
            Workload::Nvme { .. } | Workload::NvmeTls { .. } => self
                .reads(k)
                .iter()
                .flat_map(|&(off, len)| {
                    (0..len as u64).map(move |j| ano_nvme::block::pattern_byte(off + j))
                })
                .collect(),
        }
    }

    /// Endpoint specs `(client, server)` for one arm.
    pub(crate) fn specs(&self, arm: Arm) -> (ConnSpec, ConnSpec) {
        let on = arm == Arm::Offload;
        let tls = if on {
            TlsSpec::offloaded()
        } else {
            TlsSpec::default()
        };
        let host = if on {
            NvmeHostSpec::offloaded()
        } else {
            NvmeHostSpec::default()
        };
        let target = NvmeTargetSpec {
            crc_tx_offload: on,
            ..NvmeTargetSpec::default()
        };
        match self {
            Workload::Tls { .. } => (ConnSpec::Tls(tls), ConnSpec::Tls(tls)),
            Workload::TlsRx { .. } => (
                ConnSpec::Tls(TlsSpec::default()),
                ConnSpec::Tls(TlsSpec {
                    rx_offload: on,
                    ..TlsSpec::default()
                }),
            ),
            Workload::Nvme { .. } => (ConnSpec::NvmeHost(host), ConnSpec::NvmeTarget(target)),
            Workload::NvmeTls { .. } => (
                ConnSpec::NvmeTlsHost(host, tls),
                ConnSpec::NvmeTlsTarget(
                    NvmeTargetSpec {
                        crc_rx_offload: on,
                        ..target
                    },
                    tls,
                ),
            ),
        }
    }
}

/// One flow: its placement (client and server *indices* in the shape) and
/// what it carries.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Client index (world host `client`).
    pub client: usize,
    /// Server index (world host `clients + server`).
    pub server: usize,
    /// The workload.
    pub workload: Workload,
}

/// One scenario: shape, flows, adversity, budgets and expectations.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (replay key).
    pub name: String,
    /// Hosts and NICs (server `rx_queues` is the RSS queue count), link
    /// rate, seed, degradation and rebalancing policy, and per-pair link
    /// adversity (`impair`, `scripts`).
    pub shape: FleetSpec,
    /// The flows, connected in order.
    pub flows: Vec<Flow>,
    /// Connect → stream → verify → disconnect rounds of `flows` over one
    /// world (1 = one-shot; more is a connection-churn storm).
    pub waves: usize,
    /// Device-fault plans by world host, installed before any flow
    /// connects so install-time rules see the first `InstallRx`.
    pub faults: Vec<(usize, DeviceFaults)>,
    /// Timed network chaos (partitions, holds, impairment sweeps).
    pub plan: NetPlan,
    /// RSS indirection table installed on every server before any flow
    /// connects: the imbalance-induction knob.
    pub induce_table: Option<Vec<u16>>,
    /// Watchdog: fail if no byte is delivered for this long while the
    /// transfer is incomplete.
    pub progress_budget: SimDuration,
    /// Hard cap on simulated time per wave.
    pub sim_budget: SimDuration,
    /// Declared outage windows `(from, to)` on top of the plan's own: the
    /// watchdog suspends inside each and re-arms with a fresh budget when
    /// it closes. Deliberately *not* derived from the scripts — an outage
    /// is only excusable when the author declared it, so an undeclared
    /// blackhole (`tls/blackhole`) still trips the watchdog.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Every flow must deliver its whole stream (false for unrecoverable
    /// adversity such as payload corruption).
    pub expect_complete: bool,
    /// In the offload arm every flow's rx engine must end in `Offloading`,
    /// reached through legal edges (flows whose breaker opened on a pair
    /// the plan darkened are excused).
    pub expect_reconverge: bool,
    /// With device faults: the breaker reason every flow must end with, or
    /// `None` when the faults are transient — no breaker may open and the
    /// flows must offload again.
    pub expect_breaker: Option<&'static str>,
    /// Twin bound: max completion-time ratio between the arms.
    pub max_divergence: f64,
}

impl Scenario {
    /// The classic two-host case: one `workload` flow from host 0 to host
    /// 1 on a 1×1 fleet of 8-core hosts.
    pub fn new(name: &str, workload: Workload) -> Scenario {
        let host = HostSpec {
            cores: 8,
            nic: NicConfig::default(),
        };
        Scenario::with_shape(name, 1, 1, host.clone(), host, 0xAD5E_0001).placed(1, workload)
    }

    /// A fleet of `clients × servers` 4-core hosts (servers with a
    /// 1024-entry context cache) carrying `flows` copies of `workload`,
    /// placed round-robin. Reconvergence is not expected: cache pressure
    /// may leave a finished flow mid-resync.
    pub fn fleet(
        name: &str,
        clients: usize,
        servers: usize,
        flows: usize,
        workload: Workload,
    ) -> Scenario {
        let mut sc = Scenario::with_shape(
            name,
            clients,
            servers,
            HostSpec {
                cores: 4,
                nic: NicConfig::default(),
            },
            HostSpec {
                cores: 4,
                nic: NicConfig {
                    ctx_cache_capacity: 1024,
                    ..NicConfig::default()
                },
            },
            7,
        )
        .placed(flows, workload);
        sc.sim_budget = SimDuration::from_millis(50);
        sc.expect_reconverge = false;
        sc
    }

    fn with_shape(
        name: &str,
        clients: usize,
        servers: usize,
        client: HostSpec,
        server: HostSpec,
        seed: u64,
    ) -> Scenario {
        Scenario {
            name: name.to_string(),
            shape: FleetSpec {
                clients,
                servers,
                client,
                server,
                cfg: WorldConfig {
                    seed,
                    mode: DataMode::Functional,
                    ..WorldConfig::default()
                },
                impair: Vec::new(),
                scripts: Vec::new(),
            },
            flows: Vec::new(),
            waves: 1,
            faults: Vec::new(),
            plan: NetPlan::new(),
            induce_table: None,
            progress_budget: SimDuration::from_millis(200),
            sim_budget: SimDuration::from_secs(10),
            outages: Vec::new(),
            expect_complete: true,
            expect_reconverge: true,
            expect_breaker: None,
            max_divergence: 8.0,
        }
    }

    /// Replaces the flows with `n` copies of `workload`, flow `k` from
    /// client `k % clients` to server `k % servers` (builder-style).
    pub fn placed(mut self, n: usize, workload: Workload) -> Scenario {
        let (c, s) = (self.shape.clients, self.shape.servers);
        self.flows = (0..n)
            .map(|k| Flow {
                client: k % c,
                server: k % s,
                workload: workload.clone(),
            })
            .collect();
        self
    }

    /// World host index of server `j` (client `i` is world host `i`).
    pub fn server_host(&self, j: usize) -> usize {
        self.shape.clients + j
    }

    /// Declares a network outage over `[from, to]` (builder-style): the
    /// watchdog tolerates silence inside the window and re-arms on repair.
    pub fn declare_outage(mut self, from: SimTime, to: SimTime) -> Scenario {
        self.outages.push((from, to));
        self
    }

    /// Overrides the forward-progress budget (builder-style). Recovery
    /// from a long declared outage is paced by the sender's accumulated
    /// RTO backoff, which can exceed the default budget.
    pub fn progress_budget(mut self, budget: SimDuration) -> Scenario {
        self.progress_budget = budget;
        self
    }

    /// Scripts the payload direction of flow 0's pair (builder-style).
    pub fn data_script(self, script: Script) -> Scenario {
        let server_sends = self.flows[0].workload.server_sends();
        self.script_flow0(!server_sends, script)
    }

    /// Scripts the ACK direction of flow 0's pair (builder-style).
    pub fn ack_script(self, script: Script) -> Scenario {
        let server_sends = self.flows[0].workload.server_sends();
        self.script_flow0(server_sends, script)
    }

    fn script_flow0(mut self, client_to_server: bool, script: Script) -> Scenario {
        let c = self.flows[0].client as u16;
        let s = self.server_host(self.flows[0].server) as u16;
        let pair = if client_to_server { (c, s) } else { (s, c) };
        self.shape.scripts.push((pair, script));
        self
    }

    /// Overrides the simulated-time cap (builder-style).
    pub fn sim_budget(mut self, budget: SimDuration) -> Scenario {
        self.sim_budget = budget;
        self
    }

    /// Marks the scenario as not expected to complete (unrecoverable
    /// adversity); also disables the reconvergence check, since the stream
    /// may end while the engine is still searching.
    pub fn unrecoverable(mut self) -> Scenario {
        self.expect_complete = false;
        self.expect_reconverge = false;
        self
    }
}
