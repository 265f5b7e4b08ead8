//! Correlated fault-domain scenarios (DESIGN.md §12): link flaps, region
//! bursts and brown-outs end-to-end through the protocols, with the
//! recovery telemetry the campaigns plot.

use ftdircmp_core::ids::Addr;
use ftdircmp_core::trace::{CoreTrace, TraceOp, Workload};
use ftdircmp_core::{RunError, SimReport, System, SystemConfig};
use ftdircmp_noc::{Direction, FaultDomainConfig, FaultEvent, LinkChannelConfig, RouterId};

/// Deterministic pseudo-random trace generator (no external deps).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_workload(name: &str, cores: u8, ops_per_core: usize, lines: u64, seed: u64) -> Workload {
    let mut traces = Vec::new();
    for c in 0..cores {
        let mut state = seed ^ (u64::from(c) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut ops = Vec::with_capacity(ops_per_core);
        for _ in 0..ops_per_core {
            let r = xorshift(&mut state);
            let a = Addr((r % lines) * 64);
            if r % 100 < 30 {
                ops.push(TraceOp::Store(a));
            } else {
                ops.push(TraceOp::Load(a));
            }
        }
        traces.push(CoreTrace::new(ops));
    }
    Workload::new(name, traces)
}

/// A flap on a central link, short relative to the FT timeouts' reach but
/// long enough to swallow traffic.
fn central_flap(start: u64, end: u64) -> FaultDomainConfig {
    FaultDomainConfig::events(vec![FaultEvent::LinkFlap {
        from: RouterId::new(5),
        dir: Direction::East,
        start,
        end,
    }])
}

fn run_clean(config: SystemConfig, wl: &Workload) -> SimReport {
    let report = System::run_workload(config, wl).expect("run must complete");
    assert!(
        report.violations.is_empty(),
        "invariant violations: {:#?}",
        report.violations
    );
    report
}

#[test]
fn ftdircmp_rides_through_a_link_flap_and_reports_the_epoch() {
    let wl = random_workload("flapped", 16, 300, 64, 11);
    let cfg = SystemConfig::ftdircmp()
        .with_fault_domains(central_flap(2_000, 12_000))
        .with_seed(11);
    let r = run_clean(cfg, &wl);
    assert_eq!(r.total_mem_ops as usize, wl.total_mem_ops());

    assert!(
        r.noc.link_down_drops() > 0,
        "the flap window must swallow some traffic"
    );
    assert_eq!(r.fault_epochs.len(), 1, "one event, one epoch");
    let epoch = &r.fault_epochs[0];
    assert!(epoch.label.starts_with("flap r5-east"));
    assert_eq!((epoch.start, epoch.end), (2_000, 12_000));
    assert_eq!(epoch.messages_lost, r.noc.link_down_drops());
    assert!(
        epoch.timeouts_fired > 0,
        "recovery must go through the FT timeouts"
    );
    let ttr = epoch.time_to_recover().expect("workload outlives the flap");
    assert!(
        ttr < cfg_watchdog(),
        "recovery ({ttr} cycles) must beat the watchdog"
    );
}

fn cfg_watchdog() -> u64 {
    SystemConfig::default().watchdog_cycles
}

#[test]
fn dircmp_deadlocks_under_the_same_flap() {
    // Negative control for the scenario above: any message the flap
    // swallows is unrecoverable under DirCMP (§3), and the enriched
    // watchdog report names the stuck lines.
    let wl = random_workload("flapped", 16, 300, 64, 11);
    let mut cfg = SystemConfig::dircmp().with_fault_domains(central_flap(2_000, 12_000));
    cfg.seed = 11;
    cfg.watchdog_cycles = 100_000;
    match System::run_workload(cfg, &wl) {
        Err(RunError::Deadlock {
            at,
            last_progress,
            stalled,
            ..
        }) => {
            assert!(!stalled.is_empty());
            assert!(at > last_progress);
            assert!(
                stalled.iter().any(|s| !s.pending_lines.is_empty()),
                "diagnostics must name at least one stuck line"
            );
            let shown = stalled[0].to_string();
            assert!(shown.contains("blocked on"), "unexpected: {shown}");
        }
        Ok(r) => {
            assert_eq!(r.messages_lost, 0, "lost messages but no deadlock");
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn ftdircmp_survives_a_region_burst() {
    let wl = random_workload("burst", 16, 250, 64, 3);
    let burst = FaultDomainConfig::events(vec![FaultEvent::RegionBurst {
        epicenter: RouterId::new(5),
        radius: 1,
        start: 3_000,
        end: 9_000,
    }])
    .with_channel(LinkChannelConfig::passthrough(0.3));
    let cfg = SystemConfig::ftdircmp()
        .with_fault_domains(burst)
        .with_seed(3);
    let r = run_clean(cfg, &wl);
    assert_eq!(r.total_mem_ops as usize, wl.total_mem_ops());
    assert!(r.noc.channel_drops() > 0, "burst must degrade the region");
    assert_eq!(r.fault_epochs.len(), 1);
    assert!(r.fault_epochs[0].label.starts_with("burst r5+r1"));
}

#[test]
fn domain_runs_are_deterministic() {
    let wl = random_workload("det", 16, 150, 32, 7);
    let cfg = SystemConfig::ftdircmp()
        .with_fault_domains(central_flap(1_000, 6_000))
        .with_seed(7);
    let a = run_clean(cfg.clone(), &wl);
    let b = run_clean(cfg, &wl);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.noc.link_down_drops(), b.noc.link_down_drops());
    assert_eq!(a.fault_epochs, b.fault_epochs);
}

#[test]
fn fault_free_reports_have_no_epochs() {
    let wl = random_workload("quiet", 4, 50, 16, 1);
    let mut cfg = SystemConfig::ftdircmp();
    cfg = cfg.with_mesh(2, 2);
    let r = run_clean(cfg, &wl);
    assert!(r.fault_epochs.is_empty());
    assert_eq!(r.noc.link_down_drops(), 0);
    assert_eq!(r.noc.channel_drops(), 0);
    assert_eq!(r.noc.unroutable_drops(), 0);
}

#[test]
fn epoch_telemetry_renders_in_the_summary() {
    let wl = random_workload("render", 16, 200, 64, 11);
    let cfg = SystemConfig::ftdircmp()
        .with_fault_domains(central_flap(2_000, 12_000))
        .with_seed(11);
    let text = run_clean(cfg, &wl).render_summary();
    assert!(
        text.contains("fault domains:"),
        "missing drops line:\n{text}"
    );
    assert!(text.contains("fault epoch"), "missing epoch table:\n{text}");
    assert!(
        text.contains("flap r5-east"),
        "missing epoch label:\n{text}"
    );
}
