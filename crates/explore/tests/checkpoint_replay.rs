//! Checkpoint-fork replay of exploration repros (DESIGN.md §8).
//!
//! A [`Repro`] records a *deterministic* drop schedule (`drop_exactly`
//! injection indices), and neither the fault-free warmup path nor that
//! schedule consumes random numbers. So a repro whose drops all lie past a
//! campaign fork point replays byte-identically whether it is run from
//! scratch (as `ftdircmp-explore replay` does) or resumed from a shared
//! warmup snapshot with the schedule swapped in at the fork.

use ftdircmp_core::{SimReport, System, SystemConfig};
use ftdircmp_explore::repro::Repro;
use ftdircmp_explore::FailureKind;
use ftdircmp_noc::FaultConfig;
use ftdircmp_workloads::WorkloadSpec;

fn fingerprint(r: &SimReport) -> String {
    format!(
        "cycles={} ops={} mem_ops={} lost={} residual={} events={} \
         max_util={:.12} mean_util={:.12}\nstats={:?}\nnoc={:?}\nviolations={:?}",
        r.cycles,
        r.total_ops,
        r.total_mem_ops,
        r.messages_lost,
        r.residual_activity,
        r.events,
        r.max_link_utilization,
        r.mean_link_utilization,
        r.stats,
        r.noc,
        r.violations,
    )
}

#[test]
fn repro_drop_schedule_replays_identically_from_checkpoint() {
    let spec = WorkloadSpec::named("water-sp").unwrap();
    let base = SystemConfig::ftdircmp().with_seed(1007);
    let wl = spec.generate(base.tiles, 1007);

    // Warm up fault-free to the campaign fork point and note how many
    // messages the injector has examined so far.
    let mut warm_cfg = base.clone();
    warm_cfg.mesh.faults = FaultConfig::none();
    let mut sys = System::new(warm_cfg, &wl).unwrap();
    sys.run_until_retired((wl.total_mem_ops() / 2) as u64)
        .unwrap();
    let seen = sys.messages_examined();

    // A repro whose drop schedule lies strictly past the fork point.
    let mut faulty = base.clone();
    faulty.mesh.faults = FaultConfig::drop_exactly(vec![seen + 50, seen + 1000, seen + 5000]);
    let repro = Repro::capture(
        &faulty,
        &wl,
        vec![seen + 50, seen + 1000, seen + 5000],
        FailureKind::Deadlock,
    );

    // Direct replay: the full from-scratch run `Repro::replay` performs.
    let direct = System::run_workload(repro.config.clone(), &wl).unwrap();

    // Forked replay: resume the warmup snapshot with the schedule active.
    let mut forked = System::restore(&sys.snapshot());
    forked.set_fault_config(FaultConfig::drop_exactly(repro.drops().to_vec()));
    let forked = forked.run().unwrap();

    assert_eq!(
        forked.messages_lost,
        repro.drops().len() as u64,
        "drop schedule must fire in full after the fork"
    );
    assert_eq!(
        fingerprint(&forked),
        fingerprint(&direct),
        "forked repro replay != direct replay"
    );
}
