//! Exhaustive single-fault sweep: the paper's core claim — *any* single
//! lost message is recovered — checked at every message index, together
//! with which Table 3 detection mechanism noticed the loss.
//!
//! A reference run records every message the network carries and its
//! virtual-channel class (the injection log). Then, for each index, the
//! identical run is repeated with **exactly that one message dropped**. It
//! must complete coherently, retire every operation, and detect the loss by
//! the mechanism matching the message's class: lost requests/forwards trip
//! the lost-request timer, lost unblocks the unblock timer, lost ownership
//! acks the AckBD timer, and lost responses are reissued. (Messages are
//! injected in a deterministic order given the seed, so index `n` names the
//! same message in every repetition up to the drop point.) `Ping` messages
//! only exist during recovery, so they are reached with a layered two-fault
//! schedule: drop an unblock to force `UnblockPing` traffic, then drop the
//! ping itself.

use ftdircmp::{
    Addr, CoreTrace, FaultConfig, System, SystemConfig, TimeoutKind, TraceOp, VcClass, Workload,
};

/// The protocol-rich 4-core workload of the exhaustive single-fault sweep:
/// contended RMW on hot lines, read sharing, capacity evictions.
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
    Workload::new("class-fault-sweep", traces)
}

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::ftdircmp().with_seed(77);
    cfg.ft.lost_request_timeout = 800;
    cfg.ft.lost_unblock_timeout = 800;
    cfg.ft.lost_ackbd_timeout = 600;
    cfg.ft.lost_data_timeout = 1600;
    cfg.watchdog_cycles = 2_000_000;
    cfg
}

/// Reference run with the injection log on: per-index message classes.
fn injection_classes(drops: Vec<u64>) -> Vec<VcClass> {
    let mut cfg = config();
    cfg.mesh.record_injections = true;
    cfg.mesh.faults = FaultConfig::drop_exactly(drops);
    let r = System::run_workload(cfg, &workload()).expect("recording run completes");
    assert!(r.violations.is_empty());
    r.injection_classes
}

fn run_with_drops(drops: Vec<u64>) -> ftdircmp::SimReport {
    let mut cfg = config();
    cfg.mesh.faults = FaultConfig::drop_exactly(drops.clone());
    let wl = workload();
    let r = System::run_workload(cfg, &wl).unwrap_or_else(|e| panic!("drops {drops:?}: {e}"));
    assert!(
        r.violations.is_empty(),
        "drops {drops:?}: {:#?}",
        r.violations
    );
    assert_eq!(
        r.total_mem_ops as usize,
        wl.total_mem_ops(),
        "drops {drops:?}: lost operations"
    );
    r
}

/// The detection mechanism Table 3 assigns to a lost message of `class`:
/// whether the report shows that mechanism fired.
fn expected_mechanism_fired(class: VcClass, r: &ftdircmp::SimReport) -> bool {
    match class {
        // A lost request (or a lost forward of it) starves the requester:
        // the lost-request timer must notice.
        VcClass::Request | VcClass::Forward => r.stats.timeouts(TimeoutKind::LostRequest) > 0,
        // Lost data/ack responses are re-driven by reissued (higher-serial)
        // requests, themselves triggered by a detection timer.
        VcClass::Response => r.stats.reissues.get() > 0 || r.stats.total_timeouts() > 0,
        // A lost unblock leaves the directory blocked: the unblock timer
        // pings the requester.
        VcClass::Unblock => r.stats.timeouts(TimeoutKind::LostUnblock) > 0,
        // A lost AckO/AckBD strands a backup: the AckBD timer re-drives
        // the ownership handshake.
        VcClass::OwnershipAck => r.stats.timeouts(TimeoutKind::LostAckBd) > 0,
        // Pings are covered by the layered test below.
        VcClass::Ping => r.stats.total_timeouts() > 0,
    }
}

#[test]
fn every_class_is_detected_by_its_own_mechanism() {
    let fault_free = run_with_drops(Vec::new());
    let classes = injection_classes(Vec::new());
    assert!(classes.len() > 100, "workload too small: {}", classes.len());
    // Fault-free traffic contains no recovery pings.
    assert!(!classes.contains(&VcClass::Ping));

    let swept = [
        VcClass::Request,
        VcClass::Forward,
        VcClass::Response,
        VcClass::Unblock,
        VcClass::OwnershipAck,
    ];
    let mut engaged = [0usize; 5];
    let mut slowest = (0u64, 0usize);
    for (idx, &class) in classes.iter().enumerate() {
        let r = run_with_drops(vec![idx as u64]);
        assert_eq!(r.messages_lost, 1, "{class:?} index {idx} was not dropped");
        // Every drop is detected, and by its own class's mechanism.
        assert!(
            expected_mechanism_fired(class, &r),
            "{class:?} index {idx}: the loss was not detected by the expected \
             mechanism (timeouts {:?}, reissues {})",
            TimeoutKind::ALL
                .iter()
                .map(|&k| (k, r.stats.timeouts(k)))
                .collect::<Vec<_>>(),
            r.stats.reissues.get()
        );
        let at = swept.iter().position(|&c| c == class).expect("swept class");
        engaged[at] += 1;
        let slowdown = r.cycles.saturating_sub(fault_free.cycles);
        if slowdown > slowest.0 {
            slowest = (slowdown, idx);
        }
    }
    for (class, n) in swept.iter().zip(engaged) {
        assert!(n > 0, "{class:?}: the workload never carries this class");
    }
    println!(
        "{n} of {n} positions recovered; largest slowdown over the fault-free run {} cycles \
         at index {}",
        slowest.0,
        slowest.1,
        n = classes.len()
    );
}

#[test]
fn ping_losses_are_reached_by_a_layered_fault_schedule() {
    // Layer 1: find an unblock drop that forces UnblockPing recovery
    // traffic.
    let classes = injection_classes(Vec::new());
    let unblocks: Vec<u64> = classes
        .iter()
        .enumerate()
        .filter(|(_, c)| **c == VcClass::Unblock)
        .map(|(i, _)| i as u64)
        .collect();
    let mut layered = None;
    for &u in &unblocks {
        let first = run_with_drops(vec![u]);
        if first.stats.timeouts(TimeoutKind::LostUnblock) == 0 {
            continue; // Benign late drop: no recovery, no pings.
        }
        // Layer 2: record the faulty run's injection log; the recovery
        // pings appear in it at deterministic indices.
        let faulty_classes = injection_classes(vec![u]);
        if let Some(ping) = faulty_classes
            .iter()
            .enumerate()
            .find(|(_, c)| **c == VcClass::Ping)
            .map(|(i, _)| i as u64)
        {
            layered = Some((u, ping));
            break;
        }
    }
    let (unblock_idx, ping_idx) =
        layered.expect("some unblock drop must produce recovery ping traffic");

    // Drop both the unblock and the recovery ping that covers it: the
    // timer's backoff must re-ping and still converge.
    let r = run_with_drops(vec![unblock_idx, ping_idx]);
    assert_eq!(r.messages_lost, 2, "both layers must actually drop");
    assert!(
        r.stats.timeouts(TimeoutKind::LostUnblock) >= 2,
        "losing the recovery ping must re-fire the unblock timer (got {})",
        r.stats.timeouts(TimeoutKind::LostUnblock)
    );
}
