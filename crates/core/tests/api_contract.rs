//! Names each item of this crate that the repo benchmark (`benchmark/src`, not
//! built by tier-1) uses, so narrowing one fails `cargo test` here.

use ftdircmp_core::checker::{Checker, Perm};
use ftdircmp_core::{
    FaultEpochReport, LineAddr, NodeId, RunError, SimReport, System, SystemConfig, Workload,
};
use ftdircmp_noc::{FaultConfig, FaultDomainConfig};
use ftdircmp_sim::Cycle;

#[test]
fn benchmark_api_is_public() {
    let mut cfg = SystemConfig::ftdircmp()
        .with_fault_rate(500.0)
        .with_fault_domains(FaultDomainConfig::events(Vec::new()))
        .with_seed(1000);
    cfg.watchdog_cycles = 3_000_000;
    cfg.mesh.faults = FaultConfig::none();
    let _: u8 = SystemConfig::dircmp().tiles;

    let new: fn(SystemConfig, &Workload) -> Result<System, RunError> = System::new;
    let run_workload: fn(SystemConfig, &Workload) -> Result<SimReport, RunError> =
        System::run_workload;
    let _ = (new, run_workload, System::run, System::run_until_retired);
    let _ = (System::snapshot, System::restore, System::set_fault_config);
    let _ = System::retired_mem_ops;
    let _ = |wl: &Workload| (wl.name.clone(), wl.total_mem_ops());
    let _ = |e: &RunError| (e.clone(), e.to_string());
    let _ = |r: &SimReport| {
        let s = &r.stats;
        (
            (r.cycles, r.events, r.messages_lost, r.total_mem_ops),
            (
                r.mean_link_utilization,
                r.violations.len(),
                r.noc.total_messages(),
            ),
            (s.l2_hits.get(), s.l2_misses.get(), s.reissues.get()),
            (s.miss_latency.count(), s.miss_latency.sum()),
            (s.total_messages(), s.total_bytes(), s.total_timeouts()),
            (s.l1_misses(), s.l1_accesses()),
            r.fault_epochs
                .iter()
                .filter_map(FaultEpochReport::time_to_recover)
                .count(),
        )
    };

    let mut c = Checker::new(true);
    let (node, line, at) = (NodeId::L1(0), LineAddr(7), Cycle::new(1));
    c.set_perm(node, line, Perm::Write, at);
    c.store_committed(node, line, 1, at);
    c.load_observed(node, line, 1, at);
    c.set_perm(node, line, Perm::None, at);
    assert!(c.violations().is_empty());
}
