//! Adversarial scenarios with differential offload-vs-software checking.
//!
//! The paper's central claim is that autonomous offloads are invisible to
//! the application: under loss, device faults or partitions, the offload
//! must deliver exactly the bytes software would. This crate checks that
//! one contract with one model:
//!
//! * a [`Scenario`] value — a fleet shape (1×1 for the classic two-host
//!   cases), a per-flow list of placement and [`Workload`], and the
//!   adversity: scripted link schedules ([`ano_sim::link::Script`]),
//!   device faults, a timed network plan, RSS queues, a rebalancer and an
//!   induced indirection table — plus budgets and expectations;
//! * one runner, [`run()`]`(&Scenario, Arm)`, stepping the world and
//!   checking world-level invariants at every step (stream integrity,
//!   forward progress with declared outages) and at the end (completion,
//!   auth accounting, legal §4.3 resync edges and reconvergence, and —
//!   when the scenario has them — the device-fault degradation and
//!   network-plan contracts);
//! * one twin comparator, [`run_differential`], holding [`Arm::Offload`]
//!   to its [`Arm::Software`] twin: byte-identical per-flow streams,
//!   matching completion, no rx engine in the twin and bounded
//!   completion-time divergence. Every failure panics through
//!   [`Outcome::assert_clean`] with the violations and the trailing trace;
//! * one registry, [`builtin()`]`(name)`, replaying every named scenario:
//!   `tls/*` and `nvme/*` (the adversity matrix and extras),
//!   `chaos/<workload>/<fault>` and `netchaos/<workload>/<pattern>`.
//!
//! [`gen`] generates random drop and window schedules that shrink (via
//! `ano-testkit`) to a minimal failing schedule.

#![forbid(unsafe_code)]

pub mod apps;
pub mod builtin;
pub mod gen;
pub mod invariant;
pub mod run;
pub mod scenario;

pub use builtin::{builtin, builtins};
pub use invariant::Violation;
pub use run::{check_golden, run, run_differential, Arm, FlowRun, Outcome};
pub use scenario::{Flow, Scenario, Workload};
