//! # Protocol exploration harness
//!
//! Turns the deterministic simulator into a search engine for protocol
//! bugs (DESIGN.md §9). Three layers:
//!
//! 1. **Schedule perturbation** — every cell runs under a
//!    [`SystemConfig::schedule_seed`], which permutes the delivery order of
//!    same-cycle events reproducibly (seed `0` is the historical FIFO
//!    order). This reaches races that one fixed tie-break order never
//!    exhibits.
//! 2. **Guided fault-schedule search** — a fault-free reference run records
//!    the virtual-channel class of every message the injector examines
//!    ([`SimReport::injection_classes`]); `guided_drop_candidates` then
//!    spends the drop budget on the protocol-dense classes first
//!    (`OwnershipAck`, `Ping`, `Unblock`, `Forward`) and strides through
//!    the bulk `Request`/`Response` traffic, instead of sampling the
//!    message stream blindly.
//! 3. **Minimizing shrinker** — every failure (checker violation, deadlock
//!    / watchdog, lost operations) is reduced by [`shrink`] to a
//!    locally-minimal (drop set, trace) pair and written as a
//!    self-contained [`repro::Repro`] file that
//!    `ftdircmp-explore replay` re-executes.
//!
//! Both campaign phases are lists of seed-0 [`Unit`]s fanned out with the
//! deterministic parallel runner from `ftdircmp-bench`
//! ([`run_units_caught`]), so exploration results are byte-identical at any
//! `--jobs` count.

pub mod repro;
pub mod shrink;

use std::path::PathBuf;

use ftdircmp_bench::campaign::{run_units_caught, Campaign, CellError, Unit};
use ftdircmp_core::{ProtocolVariant, RunError, SimReport, System, SystemConfig, Workload};
use ftdircmp_noc::{FaultConfig, VcClass};
use ftdircmp_workloads::WorkloadSpec;

use repro::Repro;
use shrink::{ShrinkOptions, ShrinkStats};

/// How a run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The watchdog fired: no core made progress for the watchdog window
    /// (DirCMP's expected fate under message loss, paper §3).
    Deadlock,
    /// The runtime checker reported a coherence/safety violation (SWMR,
    /// data-value integrity, bounded backups), or the configuration was
    /// rejected.
    Violation,
    /// The run completed but retired fewer memory operations than the
    /// workload contains.
    LostOps,
}

impl FailureKind {
    /// Stable label used in repro files and file names.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Deadlock => "deadlock",
            FailureKind::Violation => "violation",
            FailureKind::LostOps => "lost-ops",
        }
    }

    /// Inverse of [`FailureKind::label`].
    pub(crate) fn from_label(label: &str) -> Option<FailureKind> {
        match label {
            "deadlock" => Some(FailureKind::Deadlock),
            "violation" => Some(FailureKind::Violation),
            "lost-ops" => Some(FailureKind::LostOps),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A classified failure: the kind plus a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Failure class (what the shrinker must preserve).
    pub kind: FailureKind,
    /// One-line description for reports.
    pub detail: String,
}

/// Classifies a run result against the workload it executed.
///
/// Returns `None` for a clean run: completed, zero checker violations, and
/// every memory operation of `workload` retired.
pub(crate) fn classify(
    workload: &Workload,
    result: &Result<SimReport, RunError>,
) -> Option<Failure> {
    match result {
        Err(e @ RunError::Deadlock { at, stalled, .. }) => {
            // Name the stuck line so quarantine records say *what* hung,
            // not just that something did.
            let blocked = stalled.len();
            let detail = match e.first_stuck() {
                Some((core, line)) => format!(
                    "deadlock at cycle {at}: {blocked} core(s) blocked, core {core} stuck on {line}"
                ),
                None => format!("deadlock at cycle {at}: {blocked} core(s) blocked"),
            };
            Some(Failure {
                kind: FailureKind::Deadlock,
                detail,
            })
        }
        Err(RunError::InvalidConfig(e)) => Some(Failure {
            kind: FailureKind::Violation,
            detail: format!("invalid configuration: {e}"),
        }),
        Ok(r) if !r.violations.is_empty() => Some(Failure {
            kind: FailureKind::Violation,
            detail: format!(
                "{} checker violation(s): {}",
                r.violations.len(),
                r.violations.first().map_or("", String::as_str)
            ),
        }),
        Ok(r) if (r.total_mem_ops as usize) < workload.total_mem_ops() => Some(Failure {
            kind: FailureKind::LostOps,
            detail: format!(
                "completed with {} of {} memory ops retired",
                r.total_mem_ops,
                workload.total_mem_ops()
            ),
        }),
        Ok(_) => None,
    }
}

/// Picks up to `budget` drop indices from an injection-class log, spending
/// the budget on protocol-dense message classes first.
///
/// The rare fault-tolerance control messages (`OwnershipAck`, `Ping`,
/// `Unblock`) and directory forwards exercise the protocol's hardest
/// recovery paths (paper §3.2–§3.4), so every such index is a candidate up
/// to its class quota; the bulk `Response`/`Request` traffic is sampled at
/// an even stride so coverage still spans the whole run. The result is
/// sorted and deduplicated, and deterministic in the input.
pub(crate) fn guided_drop_candidates(classes: &[VcClass], budget: usize) -> Vec<u64> {
    const PRIORITY: [VcClass; 6] = [
        VcClass::OwnershipAck,
        VcClass::Ping,
        VcClass::Unblock,
        VcClass::Forward,
        VcClass::Response,
        VcClass::Request,
    ];
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); PRIORITY.len()];
    for (index, class) in classes.iter().enumerate() {
        let slot = PRIORITY.iter().position(|p| p == class).expect("VcClass");
        buckets[slot].push(index as u64);
    }
    // The first four classes are the rare fault-tolerance control traffic:
    // each takes everything it has (strided only when over budget). The
    // bulk Response/Request tail splits what is left evenly.
    const RARE: usize = 4;
    let mut picked = Vec::with_capacity(budget);
    let mut remaining = budget;
    for (rank, bucket) in buckets.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if bucket.is_empty() {
            continue;
        }
        let quota = if rank < RARE {
            remaining
        } else {
            let bulk_left = buckets[rank..].iter().filter(|b| !b.is_empty()).count();
            remaining.div_ceil(bulk_left)
        };
        let stride = bucket.len().div_ceil(quota).max(1);
        let take = bucket.iter().step_by(stride).take(quota).copied();
        let before = picked.len();
        picked.extend(take);
        remaining -= picked.len() - before;
    }
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// Exploration campaign options.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Base configuration every cell derives from (protocol, timeouts,
    /// watchdog). Fault and schedule-seed fields are overwritten per cell.
    pub config: SystemConfig,
    /// Workload specs to explore.
    pub specs: Vec<WorkloadSpec>,
    /// Schedule seeds to sweep (include `0` for the FIFO baseline).
    pub schedule_seeds: Vec<u64>,
    /// Drop candidates per (workload, schedule seed) cell.
    pub drop_budget: usize,
    /// Campaign worker threads.
    pub jobs: usize,
    /// Print per-unit progress to stderr.
    pub progress: bool,
    /// Probe-run budget for the shrinker, per failure.
    pub shrink_runs: usize,
    /// Shrink + write a repro for at most this many failures per
    /// (workload, schedule seed) cell; the rest are counted only. DirCMP
    /// under faults fails on *every* drop — minimizing each would repeat
    /// the same repro.
    pub max_repros_per_cell: usize,
    /// Where to write repro files (`None`: keep them in memory only).
    pub out_dir: Option<PathBuf>,
}

impl ExploreOptions {
    /// Defaults for a given protocol: the Table 4 configuration with the
    /// short detection timeouts of the exhaustive fault tests (faulty runs
    /// spend most of their cycles waiting for timers).
    pub fn new(protocol: ProtocolVariant) -> ExploreOptions {
        let mut config = match protocol {
            ProtocolVariant::DirCmp => SystemConfig::dircmp(),
            ProtocolVariant::FtDirCmp => SystemConfig::ftdircmp(),
        };
        config.ft.lost_request_timeout = 800;
        config.ft.lost_unblock_timeout = 800;
        config.ft.lost_ackbd_timeout = 600;
        config.ft.lost_data_timeout = 1600;
        config.watchdog_cycles = 100_000;
        ExploreOptions {
            config,
            specs: vec![
                WorkloadSpec::named("water-nsq").expect("suite"),
                WorkloadSpec::named("ocean").expect("suite"),
            ],
            schedule_seeds: vec![0, 1],
            drop_budget: 24,
            jobs: 1,
            progress: false,
            shrink_runs: 300,
            max_repros_per_cell: 1,
            out_dir: None,
        }
    }
}

/// One minimized failure found by [`explore`].
#[derive(Debug, Clone)]
pub struct FoundFailure {
    /// Workload spec name.
    pub workload: String,
    /// Schedule seed of the failing cell.
    pub schedule_seed: u64,
    /// Drop set that first exposed the failure.
    pub original_drops: Vec<u64>,
    /// The classified failure.
    pub failure: Failure,
    /// Minimized self-contained reproduction.
    pub repro: Repro,
    /// Shrinker work and reduction achieved.
    pub shrink: ShrinkStats,
}

/// Outcome of an exploration campaign.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Fault-free reference runs executed.
    pub reference_runs: usize,
    /// Faulty cells executed.
    pub fault_runs: usize,
    /// Failing cells observed (before the per-cell repro cap).
    pub failing_cells: usize,
    /// Minimized failures (at most `max_repros_per_cell` per cell).
    pub failures: Vec<FoundFailure>,
    /// Repro files written (empty when `out_dir` is `None`).
    pub repro_paths: Vec<PathBuf>,
}

/// Runs a guided exploration campaign: reference phase, guided fault
/// phase, then shrinking and repro emission for every failure found.
///
/// # Panics
///
/// Panics if `opts.specs` or `opts.schedule_seeds` is empty, or if writing
/// a repro file fails.
pub fn explore(opts: &ExploreOptions) -> ExploreReport {
    assert!(!opts.specs.is_empty(), "explore: no workloads");
    assert!(
        !opts.schedule_seeds.is_empty(),
        "explore: no schedule seeds"
    );
    let campaign = Campaign {
        jobs: opts.jobs,
        progress: opts.progress,
        // Exploration measures fault timing from cycle zero; never gate
        // faults behind a shared warmup here.
        warmup_checkpoint: None,
    };
    let mut report = ExploreReport::default();

    // Phase 1: fault-free reference runs, recording injection classes.
    let mut ref_units = Vec::new();
    for spec in &opts.specs {
        for &ss in &opts.schedule_seeds {
            let label = format!("ref/{}-ss{}", spec.name, ss);
            ref_units.push(cell(opts, label, spec, ss, FaultConfig::default()));
        }
    }
    let ref_results = run_units(&ref_units, &campaign);
    report.reference_runs = ref_units.len();

    // Phase 2: guided fault units for every clean reference; reference
    // failures (a schedule seed alone broke the protocol) go straight to
    // the shrinker with an empty drop set.
    let mut fault_units: Vec<Unit> = Vec::new();
    // (spec index, schedule seed, drop index) per fault unit.
    let mut fault_meta: Vec<(usize, u64, u64)> = Vec::new();
    for (unit_i, (unit, result)) in ref_units.iter().zip(&ref_results).enumerate() {
        let spec_i = unit_i / opts.schedule_seeds.len();
        let ss = unit.config.schedule_seed;
        let workload = unit.workload();
        if let Some(failure) = classify(&workload, result) {
            report.failing_cells += 1;
            minimize_and_record(opts, &mut report, unit, &workload, Vec::new(), failure);
            continue;
        }
        let classes = &result.as_ref().expect("classified Ok").injection_classes;
        for drop in guided_drop_candidates(classes, opts.drop_budget) {
            let label = format!("drop/{}-ss{}-i{}", unit.spec.name, ss, drop);
            let faults = FaultConfig::drop_exactly(vec![drop]);
            fault_units.push(cell(opts, label, &unit.spec, ss, faults));
            fault_meta.push((spec_i, ss, drop));
        }
    }
    let fault_results = run_units(&fault_units, &campaign);
    report.fault_runs = fault_units.len();

    // Phase 3: classify, cap per cell, shrink, emit repros.
    let mut repros_in_cell: std::collections::HashMap<(usize, u64), usize> =
        std::collections::HashMap::new();
    for ((unit, result), &(spec_i, ss, drop)) in
        fault_units.iter().zip(&fault_results).zip(&fault_meta)
    {
        let workload = unit.workload();
        let Some(failure) = classify(&workload, result) else {
            continue;
        };
        report.failing_cells += 1;
        let taken = repros_in_cell.entry((spec_i, ss)).or_insert(0);
        if *taken >= opts.max_repros_per_cell {
            continue;
        }
        *taken += 1;
        minimize_and_record(opts, &mut report, unit, &workload, vec![drop], failure);
    }
    report
}

/// One exploration cell as a campaign unit at seed 0: `spec` under the
/// explored configuration at schedule seed `ss` with `faults`. Only the
/// fault-free reference cells record injection classes.
fn cell(
    opts: &ExploreOptions,
    label: String,
    spec: &WorkloadSpec,
    ss: u64,
    faults: FaultConfig,
) -> Unit {
    let mut config = opts.config.clone().with_schedule_seed(ss);
    config.mesh.record_injections = !faults.is_faulty();
    config.mesh.faults = faults;
    Unit {
        label,
        spec: spec.clone(),
        config,
        seed: 0,
    }
}

/// Runs `units` through the campaign runner, propagating a unit's panic.
fn run_units(units: &[Unit], campaign: &Campaign) -> Vec<Result<SimReport, RunError>> {
    run_units_caught(units, campaign)
        .into_iter()
        .map(|r| {
            r.map_err(|e| match e {
                CellError::Run(e) => e,
                p @ CellError::Panicked { .. } => panic!("{p}"),
            })
        })
        .collect()
}

/// Shrinks one failure and appends it (plus its repro file, if `out_dir`
/// is set) to the report.
fn minimize_and_record(
    opts: &ExploreOptions,
    report: &mut ExploreReport,
    unit: &Unit,
    workload: &Workload,
    drops: Vec<u64>,
    failure: Failure,
) {
    // The unit's effective configuration, minus the fault schedule (the
    // shrinker owns that field).
    let mut cfg = unit.system_config();
    cfg.mesh.faults = FaultConfig::default();
    cfg.mesh.record_injections = false;
    let (min_drops, min_workload, stats) = shrink::shrink_failure(
        &cfg,
        workload,
        &drops,
        failure.kind,
        &ShrinkOptions {
            max_runs: opts.shrink_runs,
        },
    );
    let repro = Repro::capture(&cfg, &min_workload, min_drops, failure.kind);
    if let Some(dir) = &opts.out_dir {
        let path = repro::write_repro(dir, &repro).expect("write repro");
        if opts.progress {
            eprintln!("[explore] wrote {}", path.display());
        }
        report.repro_paths.push(path);
    }
    report.failures.push(FoundFailure {
        workload: unit.spec.name.to_string(),
        schedule_seed: unit.config.schedule_seed,
        original_drops: drops,
        failure,
        repro,
        shrink: stats,
    });
}

/// Runs `workload` under `config` with `drops` injected and classifies the
/// outcome — the probe primitive shared by the shrinker, [`explore`] and
/// repro replay.
pub fn probe(config: &SystemConfig, workload: &Workload, drops: &[u64]) -> Option<Failure> {
    let mut cfg = config.clone();
    cfg.mesh.faults = FaultConfig::drop_exactly(drops.to_vec());
    classify(workload, &System::run_workload(cfg, workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kind_labels_roundtrip() {
        for kind in [
            FailureKind::Deadlock,
            FailureKind::Violation,
            FailureKind::LostOps,
        ] {
            assert_eq!(FailureKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FailureKind::from_label("nonsense"), None);
    }

    #[test]
    fn guided_candidates_prefer_rare_classes() {
        // 90 requests, 6 unblocks, 2 ownership acks, 2 pings.
        let mut classes = vec![VcClass::Request; 90];
        classes.extend([VcClass::Unblock; 6]);
        classes.extend([VcClass::OwnershipAck; 2]);
        classes.extend([VcClass::Ping; 2]);
        let picked = guided_drop_candidates(&classes, 12);
        assert!(picked.len() <= 12);
        // Every rare-class index made the cut.
        for idx in 90..100u64 {
            assert!(picked.contains(&idx), "rare index {idx} not picked");
        }
        // Requests are sampled, not front-loaded: the picked request
        // indices span the stream.
        let req: Vec<u64> = picked.iter().copied().filter(|&i| i < 90).collect();
        assert!(!req.is_empty());
        assert!(req.last().unwrap() - req.first().unwrap() > 40);
    }

    #[test]
    fn guided_candidates_respect_budget_and_are_sorted() {
        let classes = vec![VcClass::Response; 1000];
        let picked = guided_drop_candidates(&classes, 7);
        assert_eq!(picked.len(), 7);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        // Deterministic.
        assert_eq!(picked, guided_drop_candidates(&classes, 7));
    }

    #[test]
    #[should_panic(expected = "campaign unit panicked")]
    fn explore_propagates_a_panicked_unit() {
        // An empty pattern mix makes the generator panic inside the worker.
        let mut opts = ExploreOptions::new(ProtocolVariant::FtDirCmp);
        opts.specs = vec![WorkloadSpec {
            mix: Vec::new(),
            ..WorkloadSpec::named("water-sp").unwrap()
        }];
        let _ = explore(&opts);
    }

    #[test]
    fn guided_candidates_empty_log() {
        assert!(guided_drop_candidates(&[], 10).is_empty());
        assert!(guided_drop_candidates(&[VcClass::Request], 0).is_empty());
    }

    #[test]
    fn classify_distinguishes_the_three_kinds() {
        let wl = Workload::new(
            "t",
            vec![ftdircmp_core::CoreTrace::new(vec![
                ftdircmp_core::TraceOp::Load(ftdircmp_core::Addr(0x40)),
                ftdircmp_core::TraceOp::Store(ftdircmp_core::Addr(0x40)),
            ])],
        );
        let deadlock: Result<SimReport, RunError> = Err(RunError::Deadlock {
            at: 5,
            last_progress: 2,
            stalled: vec![ftdircmp_core::StalledCore {
                core: 0,
                pending_lines: vec![ftdircmp_core::LineAddr(0x40)],
                mem_ops_done: 1,
            }],
            diagnostics: String::new(),
        });
        let failure = classify(&wl, &deadlock).unwrap();
        assert_eq!(failure.kind, FailureKind::Deadlock);
        assert!(
            failure.detail.contains("core 0 stuck on line:0x40"),
            "detail must name the stuck line: {}",
            failure.detail
        );

        let mut clean = System::run_workload(SystemConfig::ftdircmp(), &wl).unwrap();
        assert!(classify(&wl, &Ok(clean.clone())).is_none());

        clean.violations.push("SWMR broken".into());
        assert_eq!(
            classify(&wl, &Ok(clean.clone())).unwrap().kind,
            FailureKind::Violation
        );

        clean.violations.clear();
        clean.total_mem_ops = 1;
        assert_eq!(
            classify(&wl, &Ok(clean)).unwrap().kind,
            FailureKind::LostOps
        );
    }
}
