//! Protocol-level scenario tests: both protocols on crafted and randomized
//! workloads, with and without fault injection.

use ftdircmp_core::ids::Addr;
use ftdircmp_core::trace::{CoreTrace, TraceOp, Workload};
use ftdircmp_core::{RunError, SimReport, System, SystemConfig};

fn run(config: SystemConfig, wl: &Workload) -> SimReport {
    let report = System::run_workload(config, wl).expect("run must complete");
    assert!(
        report.violations.is_empty(),
        "invariant violations: {:#?}",
        report.violations
    );
    report
}

fn addr(line: u64) -> Addr {
    Addr(line * 64)
}

/// Deterministic pseudo-random trace generator (no external deps).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_workload(
    name: &str,
    cores: u8,
    ops_per_core: usize,
    lines: u64,
    store_pct: u64,
    seed: u64,
) -> Workload {
    let mut traces = Vec::new();
    for c in 0..cores {
        let mut state = seed ^ (u64::from(c) + 1).wrapping_mul(0x9E3779B97F4A7C15);
        let mut ops = Vec::with_capacity(ops_per_core);
        for _ in 0..ops_per_core {
            let r = xorshift(&mut state);
            let line = r % lines;
            let a = addr(line);
            if r % 100 < store_pct {
                ops.push(TraceOp::Store(a));
            } else {
                ops.push(TraceOp::Load(a));
            }
            if r.is_multiple_of(7) {
                ops.push(TraceOp::Think(r % 20));
            }
        }
        traces.push(CoreTrace::new(ops));
    }
    Workload::new(name, traces)
}

// ---------------------------------------------------------------------
// Basic scenarios, both protocols
// ---------------------------------------------------------------------

fn both_protocols(test: impl Fn(SystemConfig)) {
    test(SystemConfig::dircmp());
    test(SystemConfig::ftdircmp());
}

#[test]
fn store_then_remote_load_sees_value() {
    both_protocols(|cfg| {
        let writer = CoreTrace::new(vec![TraceOp::Store(addr(5)), TraceOp::Store(addr(5))]);
        let reader = CoreTrace::new(vec![TraceOp::Think(2000), TraceOp::Load(addr(5))]);
        let wl = Workload::new("w", vec![writer, reader]);
        let r = run(cfg, &wl);
        assert_eq!(r.total_mem_ops, 3);
        assert!(r.cycles >= 2000);
    });
}

#[test]
fn widely_shared_line_readable_by_all_cores() {
    both_protocols(|cfg| {
        let mut traces = vec![CoreTrace::new(vec![TraceOp::Store(addr(1))])];
        for _ in 1..16 {
            traces.push(CoreTrace::new(vec![
                TraceOp::Think(3000),
                TraceOp::Load(addr(1)),
                TraceOp::Load(addr(1)),
            ]));
        }
        let wl = Workload::new("shared", traces);
        let r = run(cfg, &wl);
        assert_eq!(r.total_mem_ops, 31);
    });
}

#[test]
fn write_ping_pong_between_two_cores() {
    both_protocols(|cfg| {
        let mk = |skew: u64| {
            let mut ops = vec![TraceOp::Think(skew)];
            for _ in 0..50 {
                ops.push(TraceOp::Store(addr(9)));
                ops.push(TraceOp::Think(200));
            }
            CoreTrace::new(ops)
        };
        let wl = Workload::new("pingpong", vec![mk(0), mk(100)]);
        let r = run(cfg, &wl);
        assert_eq!(r.total_mem_ops, 100);
    });
}

#[test]
fn upgrade_from_shared_to_modified() {
    both_protocols(|cfg| {
        // All cores read the line, then core 0 writes it (invalidations +
        // ack collection path).
        let mut traces = vec![CoreTrace::new(vec![
            TraceOp::Load(addr(3)),
            TraceOp::Think(5000),
            TraceOp::Store(addr(3)),
        ])];
        for _ in 1..8 {
            traces.push(CoreTrace::new(vec![
                TraceOp::Think(1000),
                TraceOp::Load(addr(3)),
            ]));
        }
        let wl = Workload::new("upgrade", traces);
        let r = run(cfg, &wl);
        assert_eq!(r.total_mem_ops, 9);
    });
}

#[test]
fn capacity_evictions_and_writebacks() {
    both_protocols(|cfg| {
        // Working set of 2048 lines >> 512-line L1: forces evictions and
        // three-phase writebacks of dirty lines.
        let mut ops = Vec::new();
        for i in 0..2048u64 {
            ops.push(TraceOp::Store(addr(i)));
        }
        for i in 0..2048u64 {
            ops.push(TraceOp::Load(addr(i)));
        }
        let wl = Workload::new("capacity", vec![CoreTrace::new(ops)]);
        let r = run(cfg, &wl);
        assert_eq!(r.total_mem_ops, 4096);
        assert!(r.stats.l1_writebacks.get() > 0, "expected L1 writebacks");
    });
}

#[test]
fn migratory_sharing_grants_exclusive_on_reads() {
    // Read-modify-write migrating between cores: the migratory optimization
    // should convert some GetS into exclusive grants.
    let mk = |skew: u64| {
        let mut ops = vec![TraceOp::Think(skew)];
        for _ in 0..40 {
            ops.push(TraceOp::Load(addr(77)));
            ops.push(TraceOp::Store(addr(77)));
            ops.push(TraceOp::Think(400));
        }
        CoreTrace::new(ops)
    };
    let wl = Workload::new("migratory", vec![mk(0), mk(200)]);
    let r = run(SystemConfig::ftdircmp(), &wl);
    assert!(
        r.stats.migratory_grants.get() > 0,
        "migratory optimization never engaged"
    );
}

#[test]
fn random_mix_is_coherent_both_protocols() {
    both_protocols(|cfg| {
        let wl = random_workload("random", 16, 300, 64, 30, 42);
        let r = run(cfg, &wl);
        assert_eq!(r.total_mem_ops as usize, wl.total_mem_ops());
        assert_eq!(r.residual_activity, 0, "protocol activity never drained");
    });
}

#[test]
fn deterministic_given_seed() {
    let wl = random_workload("det", 16, 200, 48, 25, 7);
    let a = run(SystemConfig::ftdircmp().with_seed(123), &wl);
    let b = run(SystemConfig::ftdircmp().with_seed(123), &wl);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
}

#[test]
fn ft_without_faults_sends_no_recovery_pings() {
    let wl = random_workload("quiet", 16, 200, 48, 25, 7);
    let r = run(SystemConfig::ftdircmp(), &wl);
    use ftdircmp_core::MsgType;
    assert_eq!(r.stats.messages(MsgType::UnblockPing), 0);
    assert_eq!(r.stats.messages(MsgType::WbPing), 0);
    assert_eq!(r.stats.messages(MsgType::OwnershipPing), 0);
    assert_eq!(r.stats.reissues.get(), 0);
    // But the ownership handshake is always active.
    assert!(r.stats.messages(MsgType::AckBD) > 0);
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

#[test]
fn dircmp_deadlocks_on_any_loss() {
    // Paper §3: "Losing a message in DirCMP will always lead to a deadlock".
    let wl = random_workload("doomed", 16, 400, 64, 30, 99);
    let mut cfg = SystemConfig::dircmp().with_fault_rate(20_000.0); // 2%
    cfg.watchdog_cycles = 100_000;
    match System::run_workload(cfg, &wl) {
        Err(RunError::Deadlock { stalled, .. }) => {
            assert!(!stalled.is_empty());
        }
        Ok(r) => {
            // Statistically possible only if no message was actually lost.
            assert_eq!(r.messages_lost, 0, "lost messages but no deadlock");
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn ftdircmp_survives_moderate_fault_rate() {
    let wl = random_workload("survivor", 16, 250, 64, 30, 5);
    let cfg = SystemConfig::ftdircmp()
        .with_fault_rate(2000.0)
        .with_seed(5);
    let r = run(cfg, &wl);
    assert_eq!(r.total_mem_ops as usize, wl.total_mem_ops());
}

#[test]
fn ftdircmp_survives_heavy_fault_rate() {
    // 1% of messages lost — far beyond the paper's highest rate.
    let wl = random_workload("heavy", 8, 150, 32, 40, 11);
    let mut cfg = SystemConfig::ftdircmp()
        .with_fault_rate(10_000.0)
        .with_seed(11);
    cfg.watchdog_cycles = 2_000_000;
    let r = run(cfg, &wl);
    assert!(r.messages_lost > 0, "fault injector never fired");
    assert!(r.stats.reissues.get() > 0 || r.stats.total_timeouts() > 0);
}

#[test]
fn ftdircmp_survives_bursty_losses() {
    let wl = random_workload("bursty", 8, 150, 32, 40, 13);
    let mut cfg = SystemConfig::ftdircmp().with_seed(13);
    cfg.mesh.faults = ftdircmp_noc::FaultConfig::bursts(2000.0, 0.5, 8);
    cfg.watchdog_cycles = 2_000_000;
    let r = run(cfg, &wl);
    assert_eq!(r.total_mem_ops as usize, wl.total_mem_ops());
}

#[test]
fn faulty_runs_detect_losses_via_timeouts() {
    let wl = random_workload("detect", 16, 300, 64, 30, 21);
    let cfg = SystemConfig::ftdircmp()
        .with_fault_rate(5000.0)
        .with_seed(21);
    let r = run(cfg, &wl);
    if r.messages_lost > 0 {
        assert!(
            r.stats.total_timeouts() > 0,
            "{} messages lost but no timeout fired",
            r.messages_lost
        );
    }
}

#[test]
fn fault_free_ft_matches_dircmp_execution_time_closely() {
    // Paper Figure 3, fault rate 0: FtDirCMP's execution time is within a
    // few percent of DirCMP.
    let wl = random_workload("overhead", 16, 300, 96, 30, 33);
    let base = run(SystemConfig::dircmp(), &wl);
    let ft = run(SystemConfig::ftdircmp(), &wl);
    let rel = ft.relative_execution_time(&base);
    assert!(
        (0.9..1.15).contains(&rel),
        "fault-free overhead should be small, got {rel}"
    );
}

#[test]
fn ft_message_overhead_is_positive_but_bounded() {
    // Paper Figure 4: ≈ +30% messages, ≈ +10% bytes, from ownership acks.
    let wl = random_workload("traffic", 16, 300, 96, 30, 44);
    let base = run(SystemConfig::dircmp(), &wl);
    let ft = run(SystemConfig::ftdircmp(), &wl);
    let msg_ov = ft.message_overhead(&base);
    let byte_ov = ft.byte_overhead(&base);
    assert!(msg_ov > 0.0, "FT must add messages, got {msg_ov}");
    assert!(msg_ov < 0.8, "message overhead too large: {msg_ov}");
    assert!(
        byte_ov < msg_ov,
        "byte overhead should be smaller: {byte_ov} vs {msg_ov}"
    );
}
