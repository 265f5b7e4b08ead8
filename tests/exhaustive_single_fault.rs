//! Multi-fault samples: the paper's core claim — lost messages are
//! recovered — checked with two and four messages dropped from one run.
//!
//! A reference run counts every message the network carries; then the
//! identical run is repeated with **exactly the chosen messages dropped**,
//! and must complete coherently. (Messages are injected in a deterministic
//! order given the seed, so index `n` names the same message in every
//! repetition up to the first drop point.)
//!
//! These are samples: 30 pseudo-random two-drop pairs and four-message
//! bursts starting at every 31st index. `FTDIRCMP_STRESS=big` tries 200
//! pairs; the bursts keep their stride. Every single drop, at every index,
//! is swept in `exhaustive_class_faults.rs`.

use ftdircmp::{Addr, CoreTrace, FaultConfig, System, SystemConfig, TraceOp, Workload};

/// Small but protocol-rich workload: contended RMW + read sharing +
/// capacity evictions across 4 cores.
fn workload() -> Workload {
    let mut traces = Vec::new();
    for c in 0..4u64 {
        let mut ops = vec![TraceOp::Think(c * 37)];
        for r in 0..6u64 {
            let hot = Addr(0x40 * (1 + (r + c) % 3));
            ops.push(TraceOp::Load(hot));
            ops.push(TraceOp::Store(hot));
            ops.push(TraceOp::Load(Addr(0x40 * 7)));
            ops.push(TraceOp::Store(Addr(0x8000 + c * 0x400 + r * 0x40)));
            ops.push(TraceOp::Think(50));
        }
        traces.push(CoreTrace::new(ops));
    }
    Workload::new("single-fault-sweep", traces)
}

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::ftdircmp().with_seed(77);
    // Short-ish timeouts keep each faulty run quick; backoff guarantees
    // convergence regardless.
    cfg.ft.lost_request_timeout = 800;
    cfg.ft.lost_unblock_timeout = 800;
    cfg.ft.lost_ackbd_timeout = 600;
    cfg.ft.lost_data_timeout = 1600;
    cfg.watchdog_cycles = 2_000_000;
    cfg
}

fn total_messages() -> u64 {
    let r = System::run_workload(config(), &workload()).expect("fault-free run");
    assert!(r.violations.is_empty());
    // The injector examines every non-local network injection.
    r.noc.total_messages()
}

fn run_with_drops(indices: Vec<u64>) -> ftdircmp::SimReport {
    let mut cfg = config();
    cfg.mesh.faults = FaultConfig::drop_exactly(indices.clone());
    let wl = workload();
    let r = System::run_workload(cfg, &wl).unwrap_or_else(|e| panic!("drop {indices:?}: {e}"));
    assert!(
        r.violations.is_empty(),
        "drop {indices:?}: {:#?}",
        r.violations
    );
    assert_eq!(
        r.total_mem_ops as usize,
        wl.total_mem_ops(),
        "drop {indices:?}: lost operations"
    );
    r
}

#[test]
fn losing_random_message_pairs_is_recovered() {
    let total = total_messages();
    // Deterministic pseudo-random pair sample.
    let mut state = 0x5EEDu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % total
    };
    let pairs = if std::env::var("FTDIRCMP_STRESS").as_deref() == Ok("big") {
        200
    } else {
        30
    };
    for _ in 0..pairs {
        let (a, b) = (next(), next());
        run_with_drops(vec![a, b]);
    }
}

#[test]
fn losing_a_burst_of_consecutive_messages_is_recovered() {
    let total = total_messages();
    for start in (0..total.saturating_sub(8)).step_by(31) {
        run_with_drops((start..start + 4).collect());
    }
}
