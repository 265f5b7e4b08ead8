//! The determinism contract (DESIGN.md §Campaign runner): a simulation run
//! is a pure function of (workload spec, configuration, seed), and the
//! parallel campaign runner reproduces the sequential sweep exactly.

use ftdircmp_bench::campaign::{grid, panic_message, run_units_caught, Campaign, Unit};
use ftdircmp_core::{RunError, SimReport, System, SystemConfig};
use ftdircmp_noc::{Direction, FaultConfig, FaultDomainConfig, FaultEvent, RouterId};
use ftdircmp_workloads::WorkloadSpec;

/// Every observable field of the report, as a comparable string. Stats and
/// NoC counters go through Debug, which covers every counter at once.
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

/// A unit of `name` under `config` at `seed`.
fn unit(name: &str, config: SystemConfig, seed: u64) -> Unit {
    Unit {
        label: name.to_string(),
        spec: WorkloadSpec::named(name).unwrap(),
        config,
        seed,
    }
}

fn opts(jobs: usize, warmup_checkpoint: Option<f64>) -> Campaign {
    Campaign {
        jobs,
        progress: false,
        warmup_checkpoint,
    }
}

/// Runs `units` through the campaign runner; every unit must succeed
/// without violations.
fn campaign(units: &[Unit], opts: &Campaign) -> Vec<SimReport> {
    run_units_caught(units, opts)
        .into_iter()
        .zip(units)
        .map(|(r, u)| u.coherent(r))
        .collect()
}

/// Runs `units` one by one from scratch; every unit must succeed without
/// violations.
fn sequential(units: &[Unit]) -> Vec<SimReport> {
    units.iter().map(|u| u.coherent(u.run())).collect()
}

/// The coherence check every helper above relies on: a report with
/// violations panics, naming the unit's label and seed.
#[test]
fn coherent_refuses_a_run_with_violations() {
    let u = unit("water-sp", SystemConfig::ftdircmp(), 1);
    let mut r = u.coherent(u.run());
    r.violations.push("two owners of line 0x40".to_string());
    let caught = std::panic::catch_unwind(|| u.coherent(Ok::<_, RunError>(r)));
    let message = panic_message(caught.unwrap_err().as_ref());
    assert!(
        message.starts_with("water-sp (seed 1): ") && message.contains("two owners"),
        "{message}"
    );
}

#[test]
fn same_seed_twice_is_identical() {
    for (name, config) in [
        ("water-sp", SystemConfig::dircmp()),
        ("ocean", SystemConfig::ftdircmp()),
        ("ocean", SystemConfig::ftdircmp().with_fault_rate(1000.0)),
    ] {
        let u = unit(name, config.clone(), 7);
        let a = u.coherent(u.run());
        let b = u.coherent(u.run());
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name} under {:?} diverged across identical runs",
            config.protocol
        );
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against a fingerprint that compares nothing.
    let r = sequential(&[0, 1].map(|seed| unit("ocean", SystemConfig::ftdircmp(), seed)));
    assert_ne!(fingerprint(&r[0]), fingerprint(&r[1]));
}

#[test]
fn parallel_campaign_matches_sequential() {
    // ≥2 specs × 3 seeds, mixed protocols; the sequential reference is a
    // plain loop of `Unit::run`. The two fault-free `ocean` configurations
    // differ only in their fault field, so with the warm-up they fork from
    // one checkpoint, which must reproduce the from-scratch run.
    let units: Vec<Unit> = [
        ("water-sp", SystemConfig::dircmp()),
        ("water-sp", SystemConfig::ftdircmp()),
        ("ocean", SystemConfig::ftdircmp()),
        ("ocean", SystemConfig::ftdircmp().with_fault_rate(0.0)),
    ]
    .into_iter()
    .flat_map(|(name, config)| (0..3).map(move |seed| unit(name, config.clone(), seed)))
    .collect();

    let sequential = sequential(&units);
    for (jobs, warmup) in [(1, None), (4, None), (4, Some(60.0))] {
        let reports = campaign(&units, &opts(jobs, warmup));
        assert_eq!(reports.len(), units.len());
        for ((u, got), want) in units.iter().zip(&reports).zip(&sequential) {
            assert_eq!(
                fingerprint(got),
                fingerprint(want),
                "{} seed {}: campaign(jobs={jobs}, warmup {warmup:?}) != Unit::run",
                u.label,
                u.seed
            );
        }
    }
}

#[test]
fn campaign_aggregates_match_sequential() {
    // The quantity the figures actually print: geomean execution-time
    // ratios must be bit-equal between parallel and sequential sweeps.
    let specs = ["water-sp", "ocean"].map(|name| WorkloadSpec::named(name).unwrap());
    let configs = [
        ("dircmp".to_string(), SystemConfig::dircmp()),
        ("ftdircmp".to_string(), SystemConfig::ftdircmp()),
    ];
    let units = grid(&specs, &configs, 3);
    let par = campaign(&units, &opts(4, None));
    let seq = sequential(&units);
    // Per spec: three dircmp seeds, then three ftdircmp seeds.
    for (si, spec) in specs.iter().enumerate() {
        let (base, ft) = (si * 6, si * 6 + 3);
        let ratio = |r: &[SimReport]| {
            ftdircmp_bench::geomean_ratio(&r[ft..ft + 3], &r[base..base + 3], |r| r.cycles as f64)
        };
        assert_eq!(
            ratio(&par).to_bits(),
            ratio(&seq).to_bits(),
            "{}: parallel geomean differs from sequential",
            spec.name
        );
    }
}

/// A run forked from a [`System::snapshot`] is byte-identical to pausing
/// the same system in place — the core checkpoint-fork guarantee
/// (DESIGN.md §8).
#[test]
fn forked_run_matches_gated_from_scratch() {
    let spec = WorkloadSpec::named("water-sp").unwrap();
    for schedule_seed in [0, 42] {
        let faults = FaultConfig::per_million(1000.0);
        let config = SystemConfig::ftdircmp()
            .with_seed(1007)
            .with_schedule_seed(schedule_seed);
        let wl = spec.generate(config.tiles, 1007);
        let target = (wl.total_mem_ops() / 2) as u64;
        let warm = || {
            let mut cfg = config.clone();
            cfg.mesh.faults = FaultConfig::none();
            let mut sys = System::new(cfg, &wl).unwrap();
            sys.run_until_retired(target).unwrap();
            sys
        };

        // Reference: warm up and keep running in the same System.
        let mut inline = warm();
        inline.set_fault_config(faults.clone());
        let inline = inline.run().unwrap();

        // Fork: snapshot at the same point, restore into a fresh System.
        let snap = warm().snapshot();
        let mut forked = System::restore(&snap);
        forked.set_fault_config(faults);
        let forked = forked.run().unwrap();

        assert!(forked.messages_lost > 0, "faults never fired after fork");
        assert_eq!(
            fingerprint(&forked),
            fingerprint(&inline),
            "schedule_seed {schedule_seed}: forked run != uninterrupted run"
        );
    }
}

fn checkpoint_units() -> Vec<Unit> {
    let mut configs = vec![("dircmp".to_string(), SystemConfig::dircmp())];
    for rate in [0.0, 500.0, 2000.0] {
        configs.push((
            format!("ft-{rate:.0}"),
            SystemConfig::ftdircmp().with_fault_rate(rate),
        ));
    }
    grid(&[WorkloadSpec::named("water-sp").unwrap()], &configs, 2)
}

/// Checkpoint-fork campaigns are schedule-independent: `--jobs 1` and
/// `--jobs N` produce bit-equal reports for every unit.
#[test]
fn checkpoint_campaign_is_jobs_invariant() {
    let units = checkpoint_units();
    let jobs1 = campaign(&units, &opts(1, Some(60.0)));
    let jobs4 = campaign(&units, &opts(4, Some(60.0)));
    for ((u, a), b) in units.iter().zip(&jobs1).zip(&jobs4) {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "{} seed {}: checkpoint campaign differs across --jobs",
            u.label,
            u.seed
        );
    }
}

fn domain_units() -> Vec<Unit> {
    let flap = FaultDomainConfig::events(vec![FaultEvent::LinkFlap {
        from: RouterId::new(5),
        dir: Direction::East,
        start: 2_000,
        end: 10_000,
    }]);
    let burst = FaultDomainConfig::events(vec![FaultEvent::RegionBurst {
        epicenter: RouterId::new(5),
        radius: 1,
        start: 2_000,
        end: 8_000,
    }]);
    let configs = [
        (
            "flap".to_string(),
            SystemConfig::ftdircmp().with_fault_domains(flap),
        ),
        (
            "burst".to_string(),
            SystemConfig::ftdircmp().with_fault_domains(burst),
        ),
    ];
    grid(&[WorkloadSpec::named("water-sp").unwrap()], &configs, 2)
}

/// Correlated fault-domain units are invariant to `--jobs` and to the
/// schedule seed of the surrounding campaign, in both classic and
/// checkpoint-fork mode: per-link drop decisions are keyed by (domain
/// seed, link, per-link count), never by a shared RNG stream (DESIGN.md
/// §12).
#[test]
fn domain_campaign_is_jobs_invariant() {
    let units = domain_units();
    for warmup in [None, Some(60.0)] {
        let jobs1 = campaign(&units, &opts(1, warmup));
        let jobs4 = campaign(&units, &opts(4, warmup));
        for ((u, a), b) in units.iter().zip(&jobs1).zip(&jobs4) {
            assert_eq!(
                fingerprint(a),
                fingerprint(b),
                "{} seed {} (warmup {warmup:?}): domain campaign differs across --jobs",
                u.label,
                u.seed
            );
            assert_eq!(
                a.fault_epochs, b.fault_epochs,
                "{} seed {} (warmup {warmup:?}): recovery telemetry differs",
                u.label, u.seed
            );
        }
        // The classic units actually exercised the fault domains (under
        // checkpoint-fork warmup the window may already have passed when
        // faults install, which is fine — invariance is the claim here).
        if warmup.is_none() {
            assert!(
                jobs1.iter().all(|r| r.messages_lost > 0),
                "a domain unit never dropped anything"
            );
        }
    }
}

/// Fault-free units are unaffected by checkpoint mode: forking from a
/// fault-free warmup and continuing without faults replays the exact
/// from-scratch trajectory, so DirCMP baselines and ft-0 units stay
/// byte-identical to the classic path.
#[test]
fn checkpoint_campaign_fault_free_cells_match_classic() {
    let units = checkpoint_units();
    let classic = campaign(&units, &opts(1, None));
    let ckpt = campaign(&units, &opts(1, Some(60.0)));
    for ((u, a), b) in units.iter().zip(&ckpt).zip(&classic) {
        if u.config.mesh.faults.is_faulty() {
            continue;
        }
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "{} seed {}: fault-free unit changed under --warmup-checkpoint",
            u.label,
            u.seed
        );
    }
}

/// Under the warm-up a unit's result is its own: run alone, each unit of a
/// checkpoint campaign reports exactly what it reports inside the full
/// campaign, where its fault-rate group shares one prefix.
#[test]
fn checkpoint_unit_alone_matches_its_result_in_the_campaign() {
    let units = checkpoint_units();
    let full = campaign(&units, &opts(2, Some(60.0)));
    for (u, want) in units.iter().zip(&full) {
        let alone = campaign(std::slice::from_ref(u), &opts(1, Some(60.0)));
        assert_eq!(
            fingerprint(&alone[0]),
            fingerprint(want),
            "{} seed {}: alone != inside the campaign",
            u.label,
            u.seed
        );
    }
}
