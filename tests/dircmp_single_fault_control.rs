//! Negative control for the fault-injection machinery: DirCMP (the non-FT
//! baseline) must *hang or violate* when a single message is lost — the
//! motivating observation of paper §3. If DirCMP ever sailed through the
//! same drops FtDirCMP is tested with, the injector would be suspect.
//!
//! Deadlock detection is bounded by `watchdog_cycles`, so every failing
//! run terminates promptly instead of hanging the test suite.

use ftdircmp::{
    Addr, CoreTrace, FaultConfig, RunError, System, SystemConfig, TraceOp, VcClass, Workload,
};

/// Same protocol-rich 4-core workload as the exhaustive FT sweeps, so the
/// control differs from them only in the protocol under test.
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
    Workload::new("dircmp-control", traces)
}

const WATCHDOG: u64 = 60_000;

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::dircmp().with_seed(77);
    cfg.watchdog_cycles = WATCHDOG;
    cfg
}

/// Fault-free reference: completes coherently, and yields the per-index
/// message classes for targeting.
fn reference() -> (u64, Vec<VcClass>) {
    let mut cfg = config();
    cfg.mesh.record_injections = true;
    let r = System::run_workload(cfg, &workload()).expect("fault-free DirCMP completes");
    assert!(r.violations.is_empty());
    (r.cycles, r.injection_classes)
}

#[test]
fn dircmp_hangs_or_violates_on_any_early_request_loss() {
    let (fault_free_cycles, classes) = reference();
    // Every request lost in the first half of the run starves its core
    // forever: DirCMP has no timers, so only the watchdog ends the run.
    let requests: Vec<u64> = classes[..classes.len() / 2]
        .iter()
        .enumerate()
        .filter(|(_, c)| **c == VcClass::Request)
        .map(|(i, _)| i as u64)
        .collect();
    assert!(requests.len() > 10, "too few requests: {}", requests.len());

    let stride = requests.len().div_ceil(12).max(1);
    for &idx in requests.iter().step_by(stride) {
        let mut cfg = config();
        cfg.mesh.faults = FaultConfig::drop_exactly(vec![idx]);
        match System::run_workload(cfg, &workload()) {
            Err(RunError::Deadlock { at, stalled, .. }) => {
                assert!(!stalled.is_empty(), "drop {idx}: empty deadlock set");
                // Bounded detection: the watchdog fires within one window
                // of the last possible progress.
                assert!(
                    at <= fault_free_cycles + 2 * WATCHDOG,
                    "drop {idx}: watchdog fired unreasonably late (at {at})"
                );
            }
            Ok(r) if !r.violations.is_empty() => {} // violating is failing too
            Ok(r) => panic!(
                "drop {idx}: DirCMP survived a lost request ({} losses, {} cycles) — \
                 the negative control is broken",
                r.messages_lost, r.cycles
            ),
            Err(e) => panic!("drop {idx}: unexpected error: {e}"),
        }
    }
}

#[test]
fn dircmp_failures_dominate_a_uniform_single_drop_sweep() {
    let (_, classes) = reference();
    let total = classes.len() as u64;
    let stride = (total / 24).max(1) as usize;
    let (mut failed, mut swept) = (0u32, 0u32);
    for idx in (0..total).step_by(stride) {
        let mut cfg = config();
        cfg.mesh.faults = FaultConfig::drop_exactly(vec![idx]);
        swept += 1;
        match System::run_workload(cfg, &workload()) {
            Err(RunError::Deadlock { .. }) => failed += 1,
            Ok(r) if !r.violations.is_empty() => failed += 1,
            // A drop can be benign only when nothing ever waits on the
            // message again (very late in the run).
            Ok(r) => assert_eq!(r.messages_lost, 1, "drop {idx} never happened"),
            Err(e) => panic!("drop {idx}: unexpected error: {e}"),
        }
    }
    assert!(
        failed * 2 > swept,
        "DirCMP survived most single drops ({failed}/{swept} failed) — \
         the paper's motivating claim should dominate this sweep"
    );
}
