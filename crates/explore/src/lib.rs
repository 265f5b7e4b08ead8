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
//! Campaign cells are fanned out with the deterministic parallel runner
//! from `ftdircmp-bench` ([`run_campaign_fallible`]), so exploration
//! results are byte-identical at any `--jobs` count.

pub mod repro;
pub mod shrink;

use std::path::PathBuf;

use ftdircmp_bench::campaign::{run_campaign_fallible, Campaign, Cell};
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
        Err(RunError::Deadlock {
            at,
            blocked_cores,
            stalled,
            ..
        }) => {
            // Name the stuck line so quarantine records say *what* hung,
            // not just that something did.
            let stuck = stalled
                .iter()
                .find_map(|s| s.pending_lines.first().map(|l| (s.core, *l)));
            let detail = match stuck {
                Some((core, line)) => format!(
                    "deadlock at cycle {at}: {} core(s) blocked, core {core} stuck on {line}",
                    blocked_cores.len()
                ),
                None => format!(
                    "deadlock at cycle {at}: {} core(s) blocked",
                    blocked_cores.len()
                ),
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

/// The effective per-run configuration for campaign seed 0: campaign units
/// run `spec.generate(tiles, 1000 + seed)` under `config.with_seed(1000 +
/// seed)` (see `ftdircmp_bench::run_seed_fallible`). Exploration always
/// uses one seed per cell, so the offset is fixed.
const CAMPAIGN_SEED: u64 = 1000;

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
    let mut ref_cells = Vec::new();
    for spec in &opts.specs {
        for &ss in &opts.schedule_seeds {
            let mut cfg = opts.config.clone().with_schedule_seed(ss);
            cfg.mesh.faults = FaultConfig::default();
            cfg.mesh.record_injections = true;
            ref_cells.push(Cell::new(
                format!("ref/{}-ss{}", spec.name, ss),
                spec.clone(),
                cfg,
                1,
            ));
        }
    }
    let ref_results = run_campaign_fallible(&ref_cells, &campaign);
    report.reference_runs = ref_cells.len();

    // Phase 2: guided fault cells for every clean reference; reference
    // failures (a schedule seed alone broke the protocol) go straight to
    // the shrinker with an empty drop set.
    let mut fault_cells: Vec<Cell> = Vec::new();
    // (spec index, schedule seed, drop index) per fault cell.
    let mut fault_meta: Vec<(usize, u64, u64)> = Vec::new();
    for (cell_i, results) in ref_results.iter().enumerate() {
        let spec_i = cell_i / opts.schedule_seeds.len();
        let ss = opts.schedule_seeds[cell_i % opts.schedule_seeds.len()];
        let spec = &opts.specs[spec_i];
        let result = &results[0];
        let workload = spec.generate(opts.config.tiles, CAMPAIGN_SEED);
        if let Some(failure) = classify(&workload, result) {
            report.failing_cells += 1;
            minimize_and_record(opts, &mut report, spec, ss, &workload, Vec::new(), failure);
            continue;
        }
        let classes = &result.as_ref().expect("classified Ok").injection_classes;
        for drop in guided_drop_candidates(classes, opts.drop_budget) {
            let mut cfg = opts.config.clone().with_schedule_seed(ss);
            cfg.mesh.faults = FaultConfig::drop_exactly(vec![drop]);
            cfg.mesh.record_injections = false;
            fault_cells.push(Cell::new(
                format!("drop/{}-ss{}-i{}", spec.name, ss, drop),
                spec.clone(),
                cfg,
                1,
            ));
            fault_meta.push((spec_i, ss, drop));
        }
    }
    let fault_results = run_campaign_fallible(&fault_cells, &campaign);
    report.fault_runs = fault_cells.len();

    // Phase 3: classify, cap per cell, shrink, emit repros.
    let mut repros_in_cell: std::collections::HashMap<(usize, u64), usize> =
        std::collections::HashMap::new();
    for (results, &(spec_i, ss, drop)) in fault_results.iter().zip(&fault_meta) {
        let spec = &opts.specs[spec_i];
        let workload = spec.generate(opts.config.tiles, CAMPAIGN_SEED);
        let Some(failure) = classify(&workload, &results[0]) else {
            continue;
        };
        report.failing_cells += 1;
        let taken = repros_in_cell.entry((spec_i, ss)).or_insert(0);
        if *taken >= opts.max_repros_per_cell {
            continue;
        }
        *taken += 1;
        minimize_and_record(opts, &mut report, spec, ss, &workload, vec![drop], failure);
    }
    report
}

/// Shrinks one failure and appends it (plus its repro file, if `out_dir`
/// is set) to the report.
fn minimize_and_record(
    opts: &ExploreOptions,
    report: &mut ExploreReport,
    spec: &WorkloadSpec,
    schedule_seed: u64,
    workload: &Workload,
    drops: Vec<u64>,
    failure: Failure,
) {
    // The effective cell configuration, minus the fault schedule (the
    // shrinker owns that field).
    let mut cfg = opts
        .config
        .clone()
        .with_seed(CAMPAIGN_SEED)
        .with_schedule_seed(schedule_seed);
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
        workload: spec.name.to_string(),
        schedule_seed,
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
            blocked_cores: vec![0],
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
