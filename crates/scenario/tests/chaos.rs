//! The device-fault chaos suite: smoke tests covering each expectation
//! class, and the full `chaos/*` sweep (run by `scripts/ci.sh` as its own
//! tier; `--ignored` locally for the full matrix).

use ano_scenario::builtin::matrix;
use ano_scenario::{builtin, builtins, run_differential};

/// The adversity matrix must not grow implicitly when chaos scenarios are
/// added — device faults live in their own matrix.
#[test]
fn adversity_matrix_unchanged() {
    assert_eq!(matrix().len(), 16, "8 schedules x 2 workloads");
}

/// Transient smoke: a mid-transfer device reset on each workload class.
/// The flow must re-offload via resync and deliver software-identical
/// bytes.
#[test]
fn smoke_reset_reoffloads() {
    for name in [
        "chaos/tls/reset",
        "chaos/nvme/reset",
        "chaos/nvme-tls/reset",
    ] {
        let sc = builtin(name).expect("built-in");
        assert_eq!(sc.expect_breaker, None, "{name}: a reset is transient");
        let (on, _off) = run_differential(&sc);
        assert!(on.complete(), "{name}: completes under reset");
    }
}

/// Persistent smoke: exhausted install ladder on TLS. The breaker must
/// open and the transfer complete in software.
#[test]
fn smoke_install_failure_breaker() {
    let (on, _off) = run_differential(&builtin("chaos/tls/fail-all-installs").expect("built-in"));
    assert_eq!(on.flows[0].breaker, Some("install_failures"));
    assert!(on.complete());
}

/// The full chaos matrix: every device-fault pattern × every offloaded
/// workload, differential, with degradation expectations. Heavier than
/// the smoke tests, so it runs ignored by default; `scripts/ci.sh` runs
/// it as a dedicated tier with a timeout backstop.
#[test]
#[ignore = "full chaos matrix; run via scripts/ci.sh or --ignored"]
fn chaos_matrix_holds() {
    let chaos: Vec<_> = builtins()
        .into_iter()
        .filter(|s| s.name.starts_with("chaos/"))
        .collect();
    assert_eq!(chaos.len(), 24, "8 fault patterns x 3 workloads");
    for sc in &chaos {
        let (on, _off) = run_differential(sc);
        assert!(on.complete(), "{}: completes", sc.name);
        assert_eq!(
            on.flows[0].delivered.stream(),
            on.flows[0].expected,
            "{}: delivered stream equals transmitted stream",
            sc.name
        );
    }
}
