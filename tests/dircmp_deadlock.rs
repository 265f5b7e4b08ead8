//! Experiment E12: the motivating observation of paper §3 — "Losing a
//! message in DirCMP will always lead to a deadlock situation" — and its
//! counterpart: FtDirCMP completes the identical run.

use ftdircmp::{workloads, RunError, System, SystemConfig};

#[test]
fn dircmp_deadlocks_where_ftdircmp_survives() {
    let wl = workloads::WorkloadSpec::named("barnes")
        .expect("in suite")
        .generate(16, 3);

    let mut base_cfg = SystemConfig::dircmp().with_fault_rate(5000.0).with_seed(3);
    base_cfg.watchdog_cycles = 150_000;
    let base = System::run_workload(base_cfg, &wl);
    match base {
        Err(RunError::Deadlock { stalled, .. }) => {
            assert!(!stalled.is_empty());
        }
        Ok(r) => panic!(
            "DirCMP survived a lossy network ({} losses) — statistically impossible here",
            r.messages_lost
        ),
        Err(e) => panic!("unexpected error: {e}"),
    }

    // Identical seed, identical network, fault-tolerant protocol.
    let mut ft_cfg = SystemConfig::ftdircmp()
        .with_fault_rate(5000.0)
        .with_seed(3);
    ft_cfg.watchdog_cycles = 2_000_000;
    let ft = System::run_workload(ft_cfg, &wl).expect("FtDirCMP must complete");
    assert!(ft.violations.is_empty(), "{:#?}", ft.violations);
    assert!(ft.messages_lost > 0, "the network really was lossy");
    assert_eq!(ft.total_mem_ops as usize, wl.total_mem_ops());
}

#[test]
fn dircmp_is_sound_on_a_reliable_network() {
    // The baseline is only unsafe *with* faults; fault-free it must pass
    // every invariant — that is the paper's starting point.
    for spec in workloads::suite() {
        let wl = spec.generate(16, 1);
        let r = System::run_workload(SystemConfig::dircmp().with_seed(1), &wl)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(
            r.violations.is_empty(),
            "{}: {:#?}",
            spec.name,
            r.violations
        );
        assert_eq!(
            r.total_mem_ops as usize,
            wl.total_mem_ops(),
            "{} lost operations",
            spec.name
        );
    }
}
