//! Parallel deterministic campaign runner.
//!
//! Every experiment of [`crate::experiments`] sweeps a grid of *(workload
//! spec, system configuration, seed)* cells, and every cell is an
//! independent, fully-deterministic simulation — an embarrassingly parallel
//! campaign.
//! This module fans the cells across a scoped worker pool while keeping the
//! output **byte-identical** to a sequential sweep:
//!
//! * cells are enumerated up front in a deterministic order;
//! * each (cell, seed) unit writes its [`SimReport`] into a pre-indexed
//!   result slot, so aggregation order never depends on thread scheduling;
//! * each unit runs the exact same per-seed construction as
//!   [`crate::run_spec`] (shared helper), so a campaign at `--jobs 1` and at
//!   `--jobs N` produce identical reports.
//!
//! Worker count comes from `--jobs N` on the command line, else
//! [`std::thread::available_parallelism`].
//!
//! # Checkpoint-fork mode
//!
//! With [`Campaign::warmup_checkpoint`] set (CLI: `--warmup-checkpoint
//! [PCT]`), cells that differ **only in their fault configuration** and run
//! the same workload under the same seed share one fault-free warmup: the
//! runner simulates the common prefix once, takes a
//! [`ftdircmp_core::SystemSnapshot`], and forks every member of the group
//! from the checkpoint with its own faults switched on at the fork point.
//! Because neither the fault-free path nor a `drop_indices` schedule
//! consumes random numbers, a forked run is byte-identical to a from-scratch
//! run whose faults were gated until the same retirement point — and
//! fault-free members stay byte-identical to the classic path. Absolute
//! numbers for *faulty* cells change versus classic mode (faults only start
//! after warmup; see DESIGN.md §8), so the mode is opt-in; with the flag off
//! the runner is byte-identical to the pre-checkpoint implementation.
//!
//! # Example
//!
//! ```
//! use ftdircmp_bench::campaign::{run_campaign, Campaign, Cell};
//! use ftdircmp_core::SystemConfig;
//! use ftdircmp_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::named("water-sp").unwrap();
//! let cells = vec![
//!     Cell::new("base", spec.clone(), SystemConfig::dircmp(), 2),
//!     Cell::new("ft", spec, SystemConfig::ftdircmp(), 2),
//! ];
//! let opts = Campaign {
//!     jobs: 2,
//!     progress: false,
//!     warmup_checkpoint: None,
//! };
//! let results = run_campaign(&cells, &opts);
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].len(), 2); // one report per seed, in seed order
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ftdircmp_core::{RunError, SimReport, System, SystemConfig};
use ftdircmp_noc::FaultConfig;
use ftdircmp_workloads::WorkloadSpec;

use crate::{expect_coherent, run_seed_fallible};

/// How one campaign unit failed.
///
/// [`run_units_caught`] and `run_campaign_caught` catch worker panics and
/// turn them into [`CellError::Panicked`] values identifying the exact
/// (spec, seed, fault config) that blew up, so a long-lived caller (the
/// `ftdircmp-serve` daemon) can log and quarantine the cell instead of
/// aborting the whole process.
#[derive(Debug, Clone)]
pub enum CellError {
    /// The simulation itself failed (deadlock, invalid configuration).
    Run(RunError),
    /// The unit's worker panicked mid-cell.
    Panicked {
        /// Display label of the owning cell.
        label: String,
        /// Workload spec name.
        spec: String,
        /// Seed of the failing unit.
        seed: u64,
        /// Debug rendering of the unit's fault configuration.
        faults: String,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Run(e) => e.fmt(f),
            CellError::Panicked {
                label,
                spec,
                seed,
                faults,
                message,
            } => write!(
                f,
                "campaign unit panicked: cell {label:?} (spec {spec}, seed {seed}, \
                 faults {faults}): {message}"
            ),
        }
    }
}

impl std::error::Error for CellError {}

impl From<RunError> for CellError {
    fn from(e: RunError) -> Self {
        CellError::Run(e)
    }
}

/// Renders a caught panic payload (strings pass through, everything else
/// gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One campaign cell: a workload under a configuration, averaged over
/// `seeds` seeds.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display label used in progress lines (e.g. `"ocean/ftdircmp-1000"`).
    pub label: String,
    /// Workload to generate.
    pub spec: WorkloadSpec,
    /// System configuration to run it under.
    pub config: SystemConfig,
    /// Number of seeds (reports come back in seed order).
    pub seeds: u64,
}

impl Cell {
    /// Creates a cell.
    pub fn new(
        label: impl Into<String>,
        spec: WorkloadSpec,
        config: SystemConfig,
        seeds: u64,
    ) -> Self {
        Cell {
            label: label.into(),
            spec,
            config,
            seeds,
        }
    }
}

/// Campaign execution options.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Worker threads. `1` runs inline on the calling thread (the
    /// sequential reference path).
    pub jobs: usize,
    /// Print per-unit progress and wall time to stderr.
    pub progress: bool,
    /// Checkpoint-fork warmup threshold, as a percentage of each workload's
    /// memory operations (see the module docs). `None` runs every cell from
    /// scratch (the classic, pre-checkpoint behaviour).
    pub warmup_checkpoint: Option<f64>,
}

/// Runs every cell of the campaign, panicking (like [`crate::run_spec`]) on
/// any failed or incoherent run.
///
/// Returns one `Vec<SimReport>` per input cell, index-aligned with `cells`
/// and seed-ordered within each cell — identical to calling
/// [`crate::run_spec`] on each cell in order.
///
/// # Panics
///
/// Panics if any run deadlocks or violates a coherence invariant.
pub fn run_campaign(cells: &[Cell], opts: &Campaign) -> Vec<Vec<SimReport>> {
    run_campaign_fallible(cells, opts)
        .into_iter()
        .zip(cells)
        .map(|(results, cell)| {
            results
                .into_iter()
                .enumerate()
                .map(|(seed, r)| expect_coherent(cell.spec.name, seed as u64, r))
                .collect()
        })
        .collect()
}

/// Like [`run_campaign`] but returns `Err` results untouched (used to
/// demonstrate DirCMP's deadlock failure mode).
///
/// # Panics
///
/// Propagates a worker panic (identifying the failing cell, seed, and
/// fault configuration) — callers that must survive poisoned cells use
/// `run_campaign_caught` instead.
pub fn run_campaign_fallible(
    cells: &[Cell],
    opts: &Campaign,
) -> Vec<Vec<Result<SimReport, RunError>>> {
    run_campaign_caught(cells, opts)
        .into_iter()
        .map(|results| {
            results
                .into_iter()
                .map(|r| {
                    r.map_err(|e| match e {
                        CellError::Run(e) => e,
                        p @ CellError::Panicked { .. } => panic!("{p}"),
                    })
                })
                .collect()
        })
        .collect()
}

/// Like [`run_campaign_fallible`], but worker panics are caught per unit
/// and returned as [`CellError::Panicked`] instead of aborting the
/// process. This is the entry point the `ftdircmp-serve` daemon uses: a
/// poisoned cell is quarantined, the rest of the campaign completes.
pub(crate) fn run_campaign_caught(
    cells: &[Cell],
    opts: &Campaign,
) -> Vec<Vec<Result<SimReport, CellError>>> {
    // Deterministic unit order: cells in input order, seeds ascending.
    let units: Vec<Unit> = cells
        .iter()
        .flat_map(|c| {
            (0..c.seeds).map(|seed| Unit {
                label: c.label.clone(),
                spec: c.spec.clone(),
                config: c.config.clone(),
                seed,
            })
        })
        .collect();
    let flat = run_units_caught(&units, opts);

    // Reassemble into the pre-indexed shape: results[cell][seed].
    let mut flat = flat.into_iter();
    cells
        .iter()
        .map(|c| (&mut flat).take(c.seeds as usize).collect())
        .collect()
}

/// One executable simulation unit: a workload under a configuration at one
/// explicit seed. `run_campaign_caught` expands every [`Cell`] into its
/// per-seed units; the `ftdircmp-serve` daemon builds sparse unit lists
/// directly when resuming a half-finished campaign (only the units whose
/// results never landed are re-run).
#[derive(Debug, Clone)]
pub struct Unit {
    /// Display label used in progress lines.
    pub label: String,
    /// Workload to generate.
    pub spec: WorkloadSpec,
    /// System configuration to run it under.
    pub config: SystemConfig,
    /// Seed for this unit.
    pub seed: u64,
}

/// Runs every unit, catching worker panics per unit. Results come back
/// index-aligned with `units`.
///
/// Checkpoint-fork grouping (see the module docs) applies to any subset of
/// units: a member's forked result depends only on the shared warmup
/// (spec, seed, config-modulo-faults) and its own faults, never on which
/// other members run alongside it — so resuming a campaign with a sparse
/// unit list reproduces the exact per-unit results of the full campaign.
pub fn run_units_caught(units: &[Unit], opts: &Campaign) -> Vec<Result<SimReport, CellError>> {
    let slots: Vec<OnceLock<Result<SimReport, CellError>>> =
        units.iter().map(|_| OnceLock::new()).collect();
    let total = units.len();
    let completed = AtomicUsize::new(0);
    let started = Instant::now();

    let note_progress = |i: usize, result: &Result<SimReport, CellError>, t: Instant| {
        if !opts.progress {
            return;
        }
        let u = &units[i];
        let n = completed.fetch_add(1, Ordering::Relaxed) + 1;
        let status = match result {
            Ok(r) => format!("{} cycles", r.cycles),
            Err(CellError::Run(RunError::Deadlock { at, .. })) => {
                format!("deadlock at cycle {at}")
            }
            Err(CellError::Run(RunError::InvalidConfig(_))) => "invalid config".to_string(),
            Err(CellError::Panicked { .. }) => "PANICKED".to_string(),
        };
        eprintln!(
            "[campaign {n}/{total}] {} seed {}: {status} in {:.2}s",
            u.label,
            u.seed,
            t.elapsed().as_secs_f64()
        );
    };
    let finish_unit = |i: usize, result: Result<SimReport, CellError>, t: Instant| {
        note_progress(i, &result, t);
        assert!(
            slots[i].set(result).is_ok(),
            "campaign unit {i} computed twice"
        );
    };
    // Runs `f`, converting a panic into the typed per-unit error.
    let catch = |i: usize,
                 f: &mut dyn FnMut() -> Result<SimReport, RunError>|
     -> Result<SimReport, CellError> {
        let u = &units[i];
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r.map_err(CellError::Run),
            Err(payload) => Err(CellError::Panicked {
                label: u.label.clone(),
                spec: u.spec.name.to_string(),
                seed: u.seed,
                faults: format!("{:?}", u.config.mesh.faults),
                message: panic_message(payload.as_ref()),
            }),
        }
    };
    let run_unit_classic = |i: usize| {
        let u = &units[i];
        let t = Instant::now();
        let result = catch(i, &mut || run_seed_fallible(&u.spec, &u.config, u.seed));
        finish_unit(i, result, t);
    };
    let run_group = |group: &[usize]| {
        // Singleton groups (and everything when checkpointing is off) take
        // the classic from-scratch path: nothing to share.
        let (Some(pct), [first, rest @ ..]) = (opts.warmup_checkpoint, group) else {
            group.iter().copied().for_each(run_unit_classic);
            return;
        };
        if rest.is_empty() {
            run_unit_classic(*first);
            return;
        }
        // Shared fault-free warmup: identical workload + seed across the
        // group, faults stripped. Neither the fault-free injector path nor a
        // deterministic drop schedule consumes RNG, so swapping each
        // member's faults in at the fork point reproduces a from-scratch run
        // with faults gated until the same retirement count.
        let proto = &units[*first];
        let seed = proto.seed;
        let t_warm = Instant::now();
        let warm = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let wl = proto.spec.generate(proto.config.tiles, 1000 + seed);
            let mut warm_cfg = proto.config.clone().with_seed(1000 + seed);
            warm_cfg.mesh.faults = FaultConfig::none();
            let target =
                (wl.total_mem_ops() as f64 * (pct.clamp(0.0, 100.0) / 100.0)).ceil() as u64;
            System::new(warm_cfg, &wl).and_then(|mut sys| {
                sys.run_until_retired(target)?;
                Ok((sys, target))
            })
        }));
        let Ok(Ok((sys, target))) = warm else {
            // The fault-free prefix itself failed (deadlock, invalid
            // config, or a panic): fall back to full runs so each member
            // reports its own error through the unchanged classic path.
            group.iter().copied().for_each(run_unit_classic);
            return;
        };
        if opts.progress {
            eprintln!(
                "[campaign] warmup {} seed {seed}: {target} mem ops shared by {} cells in {:.2}s",
                proto.label,
                group.len(),
                t_warm.elapsed().as_secs_f64()
            );
        }
        let snap = sys.snapshot();
        let mut warm = Some(sys);
        for &i in group {
            let t = Instant::now();
            let mut forked = Some(warm.take().unwrap_or_else(|| System::restore(&snap)));
            let result = catch(i, &mut || {
                let mut sys = forked.take().expect("fork consumed once");
                sys.set_fault_config(units[i].config.mesh.faults.clone());
                sys.run()
            });
            finish_unit(i, result, t);
        }
    };

    // Work items are groups of units sharing a warmup; without
    // `--warmup-checkpoint` every unit is its own (classic) group.
    let groups: Vec<Vec<usize>> = if opts.warmup_checkpoint.is_some() {
        group_units(units)
    } else {
        (0..total).map(|i| vec![i]).collect()
    };

    let workers = opts.jobs.clamp(1, groups.len().max(1));
    if workers <= 1 {
        for g in &groups {
            run_group(g);
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= groups.len() {
                        break;
                    }
                    run_group(&groups[g]);
                });
            }
        });
    }
    if opts.progress {
        eprintln!(
            "[campaign] {total} runs on {workers} worker(s) in {:.2}s",
            started.elapsed().as_secs_f64()
        );
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            // Per-unit catch_unwind fills every slot; an empty one means the
            // group machinery itself failed. Surface it as a typed error —
            // never abort the caller (the pre-fix code died here with an
            // opaque `expect("campaign unit completed")`).
            slot.into_inner().unwrap_or_else(|| {
                let u = &units[i];
                Err(CellError::Panicked {
                    label: u.label.clone(),
                    spec: u.spec.name.to_string(),
                    seed: u.seed,
                    faults: format!("{:?}", u.config.mesh.faults),
                    message: "unit result never landed (worker aborted mid-group)".to_string(),
                })
            })
        })
        .collect()
}

/// Partitions units into checkpoint-sharing groups, preserving unit order
/// within and across groups.
///
/// Two units share a warmup iff they run the same seed, the same workload
/// spec, and configurations that are equal once faults are stripped — the
/// exact precondition for the fork-point fault swap to be sound.
fn group_units(units: &[Unit]) -> Vec<Vec<usize>> {
    fn modulo_faults(config: &SystemConfig) -> SystemConfig {
        let mut c = config.clone();
        c.mesh.faults = FaultConfig::none();
        c
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut keys: Vec<(u64, &WorkloadSpec, SystemConfig)> = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        let stripped = modulo_faults(&unit.config);
        if let Some(g) = keys
            .iter()
            .position(|(s, spec, cfg)| *s == unit.seed && **spec == unit.spec && *cfg == stripped)
        {
            groups[g].push(u);
        } else {
            keys.push((unit.seed, &unit.spec, stripped));
            groups.push(vec![u]);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec whose generator panics (empty pattern mix indexes `mix[0]`),
    /// standing in for any mid-cell worker panic.
    fn poisoned_spec() -> WorkloadSpec {
        WorkloadSpec {
            mix: Vec::new(),
            ..WorkloadSpec::named("water-sp").unwrap()
        }
    }

    fn opts(jobs: usize) -> Campaign {
        Campaign {
            jobs,
            progress: false,
            warmup_checkpoint: None,
        }
    }

    #[test]
    fn poisoned_cell_is_caught_and_identified() {
        let good = WorkloadSpec::named("water-sp").unwrap();
        let cells = vec![
            Cell::new("good-a", good.clone(), SystemConfig::ftdircmp(), 1),
            Cell::new("poisoned", poisoned_spec(), SystemConfig::ftdircmp(), 2),
            Cell::new("good-b", good, SystemConfig::ftdircmp(), 1),
        ];
        for jobs in [1, 3] {
            let results = run_campaign_caught(&cells, &opts(jobs));
            assert_eq!(results.len(), 3);
            assert!(results[0][0].is_ok(), "jobs={jobs}");
            assert!(results[2][0].is_ok(), "jobs={jobs}");
            for (seed, r) in results[1].iter().enumerate() {
                match r {
                    Err(CellError::Panicked {
                        label,
                        spec,
                        seed: s,
                        ..
                    }) => {
                        assert_eq!(label, "poisoned");
                        assert_eq!(spec, "water-sp");
                        assert_eq!(*s, seed as u64);
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn poisoned_warmup_group_falls_back_per_unit() {
        // Both members share a (spec, seed, config-modulo-faults) group; the
        // warmup panics, so each member reports its own typed error.
        let mut faulty = SystemConfig::ftdircmp().with_fault_rate(125.0);
        faulty.watchdog_cycles = 3_000_000;
        let cells = vec![
            Cell::new("p/ff", poisoned_spec(), SystemConfig::ftdircmp(), 1),
            Cell::new("p/ft", poisoned_spec(), faulty, 1),
        ];
        let results = run_campaign_caught(
            &cells,
            &Campaign {
                jobs: 2,
                progress: false,
                warmup_checkpoint: Some(60.0),
            },
        );
        for r in results.iter().flatten() {
            assert!(
                matches!(r, Err(CellError::Panicked { .. })),
                "expected Panicked, got {r:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "campaign unit panicked")]
    fn fallible_path_propagates_panics_with_cell_identity() {
        let cells = vec![Cell::new(
            "poisoned",
            poisoned_spec(),
            SystemConfig::ftdircmp(),
            1,
        )];
        let _ = run_campaign_fallible(&cells, &opts(1));
    }

    #[test]
    fn sparse_unit_list_matches_full_campaign() {
        // Resuming from a sparse unit list must reproduce the exact
        // per-unit results of the full run — the daemon's resume contract.
        let spec = WorkloadSpec::named("water-sp").unwrap();
        let units: Vec<Unit> = (0..3)
            .map(|seed| Unit {
                label: format!("u{seed}"),
                spec: spec.clone(),
                config: SystemConfig::ftdircmp(),
                seed,
            })
            .collect();
        let full = run_units_caught(&units, &opts(1));
        let sparse = run_units_caught(&[units[2].clone(), units[0].clone()], &opts(1));
        assert_eq!(
            full[2].as_ref().unwrap().cycles,
            sparse[0].as_ref().unwrap().cycles
        );
        assert_eq!(
            full[0].as_ref().unwrap().cycles,
            sparse[1].as_ref().unwrap().cycles
        );
    }
}
