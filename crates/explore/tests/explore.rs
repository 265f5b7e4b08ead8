//! Integration tests for the exploration harness: schedule-seed
//! determinism, the FtDirCMP robustness claim under perturbed schedules,
//! and the shrinker against the DirCMP negative control.

use ftdircmp_core::{System, SystemConfig};
use ftdircmp_explore::repro::{read_repro, write_repro, Repro};
use ftdircmp_explore::shrink::{shrink_failure, ShrinkOptions};
use ftdircmp_explore::{explore, probe, ExploreOptions, FailureKind};
use ftdircmp_noc::FaultConfig;
use ftdircmp_workloads::WorkloadSpec;

fn small_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::named("water-nsq").expect("in suite");
    spec.ops_per_core = 150;
    spec
}

fn ft_config() -> SystemConfig {
    let mut cfg = SystemConfig::ftdircmp().with_seed(1000);
    cfg.ft.lost_request_timeout = 800;
    cfg.ft.lost_unblock_timeout = 800;
    cfg.ft.lost_ackbd_timeout = 600;
    cfg.ft.lost_data_timeout = 1600;
    cfg.watchdog_cycles = 100_000;
    cfg
}

/// Acceptance criterion: same (workload, config, fault schedule, schedule
/// seed) must produce a byte-identical `SimReport`; different schedule
/// seeds must actually change the execution.
#[test]
fn schedule_seed_runs_are_byte_identical() {
    let wl = small_spec().generate(16, 1000);
    let run = |ss: u64, drop: Option<u64>| {
        let mut cfg = ft_config().with_schedule_seed(ss);
        if let Some(d) = drop {
            cfg.mesh.faults = FaultConfig::drop_exactly(vec![d]);
        }
        format!("{:?}", System::run_workload(cfg, &wl).expect("completes"))
    };
    // Identical inputs, identical bytes — fault-free and faulty.
    assert_eq!(run(5, None), run(5, None));
    assert_eq!(run(5, Some(50)), run(5, Some(50)));
    // The seed is not a no-op: perturbed schedules diverge from FIFO and
    // from each other.
    assert_ne!(run(0, None), run(5, None));
    assert_ne!(run(5, None), run(6, None));
}

/// Acceptance criterion: the default schedule seed reproduces the
/// historical FIFO order, so existing outputs are unchanged.
#[test]
fn schedule_seed_zero_is_the_default_fifo_order() {
    assert_eq!(SystemConfig::default().schedule_seed, 0);
    let wl = small_spec().generate(16, 1000);
    let explicit = System::run_workload(ft_config().with_schedule_seed(0), &wl).unwrap();
    let default = System::run_workload(ft_config(), &wl).unwrap();
    assert_eq!(format!("{explicit:?}"), format!("{default:?}"));
}

/// The paper's FtDirCMP tolerates unordered networks (§2: serial numbers);
/// schedule perturbation only reorders same-cycle deliveries, so FtDirCMP
/// must stay correct under any schedule seed, with and without faults.
#[test]
fn ftdircmp_survives_perturbed_schedules_with_single_faults() {
    let wl = small_spec().generate(16, 1000);
    for ss in [1u64, 2, 3] {
        let cfg = ft_config().with_schedule_seed(ss);
        assert_eq!(
            probe(&cfg, &wl, &[]),
            None,
            "FtDirCMP failed fault-free under schedule seed {ss}"
        );
        for drop in [5u64, 200] {
            assert_eq!(
                probe(&cfg, &wl, &[drop]),
                None,
                "FtDirCMP failed under schedule seed {ss} with drop {drop}"
            );
        }
    }
}

/// Acceptance criterion: the shrinker demonstrably works. DirCMP deadlocks
/// under any lost message (the negative control); plant a padded drop set
/// and assert it shrinks to a single-drop repro that replays to the same
/// failure kind.
#[test]
fn shrinker_reduces_dircmp_drop_set_to_a_minimal_repro() {
    let wl = small_spec().generate(16, 1000);
    let mut cfg = SystemConfig::dircmp().with_seed(1000);
    cfg.watchdog_cycles = 100_000;

    // Padded drop set: index 40 alone already deadlocks DirCMP; the rest
    // is noise the shrinker must discard.
    let planted = vec![40u64, 7, 120, 333, 512];
    let failure = probe(&cfg, &wl, &planted).expect("DirCMP must fail under drops");
    assert_eq!(failure.kind, FailureKind::Deadlock);

    let (min_drops, min_wl, stats) = shrink_failure(
        &cfg,
        &wl,
        &planted,
        failure.kind,
        &ShrinkOptions { max_runs: 250 },
    );
    assert_eq!(
        min_drops.len(),
        1,
        "every single drop deadlocks DirCMP, so the 1-minimal set has one: {min_drops:?}"
    );
    assert!(
        stats.ops_after < stats.ops_before,
        "trace minimization removed nothing ({} ops)",
        stats.ops_before
    );
    assert!(stats.probe_runs <= 250);

    // The minimized pair still fails the same way...
    let replayed = probe(&cfg, &min_wl, &min_drops).expect("minimized repro must still fail");
    assert_eq!(replayed.kind, FailureKind::Deadlock);

    // ...and is 1-minimal: removing the last drop makes the run pass.
    assert_eq!(probe(&cfg, &min_wl, &[]), None);
}

/// End-to-end: a guided exploration campaign against DirCMP finds the
/// planted vulnerability, minimizes it, writes a repro file, and the file
/// replays to the recorded failure kind.
#[test]
fn guided_exploration_finds_minimizes_and_replays_dircmp_failures() {
    let mut opts = ExploreOptions::new(ftdircmp_core::ProtocolVariant::DirCmp);
    opts.specs = vec![small_spec()];
    opts.schedule_seeds = vec![0];
    opts.drop_budget = 6;
    opts.jobs = 2;
    opts.shrink_runs = 150;
    let out = std::env::temp_dir().join("ftdircmp-explore-test-repros");
    std::fs::remove_dir_all(&out).ok();
    opts.out_dir = Some(out.clone());

    let report = explore(&opts);
    assert_eq!(report.reference_runs, 1);
    assert!(report.fault_runs > 0);
    assert!(
        report.failing_cells > 0,
        "DirCMP under guided drops must fail"
    );
    assert_eq!(report.failures.len(), 1, "capped at one repro per cell");

    let found = &report.failures[0];
    assert_eq!(found.failure.kind, FailureKind::Deadlock);
    assert_eq!(found.repro.drops().len(), 1, "minimized to a single drop");
    assert!(found.shrink.ops_after < found.shrink.ops_before);

    // The written file round-trips and replays.
    assert_eq!(report.repro_paths.len(), 1);
    let loaded = read_repro(&report.repro_paths[0]).expect("repro file parses");
    assert_eq!(loaded, found.repro);
    let replayed = loaded.replay().expect("repro must reproduce");
    assert_eq!(replayed.kind, FailureKind::Deadlock);

    std::fs::remove_dir_all(&out).ok();
}

/// The CI smoke contract: FtDirCMP under a small guided exploration sweep
/// produces zero failures and writes zero repro files.
#[test]
fn ftdircmp_smoke_exploration_is_clean() {
    let mut opts = ExploreOptions::new(ftdircmp_core::ProtocolVariant::FtDirCmp);
    opts.specs = vec![small_spec()];
    opts.schedule_seeds = vec![0, 1];
    opts.drop_budget = 8;
    opts.jobs = 2;
    let out = std::env::temp_dir().join("ftdircmp-explore-smoke-repros");
    std::fs::remove_dir_all(&out).ok();
    opts.out_dir = Some(out.clone());

    let report = explore(&opts);
    assert_eq!(report.reference_runs, 2);
    assert_eq!(report.fault_runs, 16);
    assert_eq!(
        report.failing_cells, 0,
        "FtDirCMP failed under exploration: {:#?}",
        report.failures
    );
    assert!(report.repro_paths.is_empty());
    // Nothing written at all.
    let entries = std::fs::read_dir(&out)
        .map(|d| d.count())
        .unwrap_or_default();
    assert_eq!(entries, 0);
    std::fs::remove_dir_all(&out).ok();
}

/// Repros survive a disk round-trip through the exploration output
/// directory layout with a realistic (multi-core, think-time) workload.
#[test]
fn repro_files_round_trip_real_workloads() {
    let wl = small_spec().generate(16, 1000);
    let mut cfg = SystemConfig::dircmp().with_seed(1000).with_schedule_seed(9);
    cfg.watchdog_cycles = 100_000;
    cfg.mesh.faults = FaultConfig::drop_exactly(vec![40]);
    let repro = Repro::capture(&cfg, &wl, vec![40], FailureKind::Deadlock);

    let dir = std::env::temp_dir().join("ftdircmp-explore-roundtrip");
    let path = write_repro(&dir, &repro).expect("write");
    let loaded = read_repro(&path).expect("read");
    assert_eq!(loaded, repro);
    assert_eq!(loaded.config.schedule_seed, 9);
    assert_eq!(loaded.workload.traces.len(), 16);
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag `explore` does not take is a usage error that names it, not a
/// silently default sweep.
#[test]
fn explore_rejects_an_unknown_flag_naming_it() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ftdircmp-explore"))
        .args(["explore", "--budjet", "3"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("got \"--budjet\""), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

/// `replay` takes exactly one repro file; a second argument, or a file it
/// cannot read, is a usage error that names the file.
#[test]
fn replay_rejects_extra_arguments_and_names_an_unreadable_file() {
    let missing = std::env::temp_dir().join("ftdircmp-no-such-dir/repro.json");
    let missing = missing.display().to_string();
    for (args, needle) in [
        (
            vec!["replay", "a.json", "b.json"],
            "error: replay: expected one FILE.json, got 2".to_string(),
        ),
        (
            vec!["replay", &missing],
            format!("error: replay: {missing}: "),
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ftdircmp-explore"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

/// A reader that stops early (`ftdircmp-explore explore --smoke | head -1`)
/// ends the output quietly.
#[test]
fn explore_ends_quietly_when_its_reader_closes_the_pipe() {
    use std::process::{Command, Stdio};
    // Closed before the binary writes, as `| true` does.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftdircmp-explore"))
        .args(["explore", "--smoke", "--workloads", "water-sp"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
