//! Parallel deterministic campaign runner.
//!
//! Every experiment of [`crate::experiments`], every `ftdircmp-explore`
//! phase and every `ftdircmp-serve` campaign job is a list of [`Unit`]s —
//! one workload under one configuration at one seed, an independent,
//! fully-deterministic simulation — and [`run_units_caught`] runs them all.
//! [`grid`] expands specs × labelled configurations × seeds into units;
//! [`Unit::run`] runs one, and [`Unit`] alone turns a campaign seed into the
//! seed of its workload and of its system. The runner fans units across a scoped worker pool while keeping
//! the output **byte-identical** to a sequential loop of [`Unit::run`]:
//!
//! * units are listed up front in a deterministic order;
//! * each unit writes its [`SimReport`] into a pre-indexed result slot, so
//!   aggregation order never depends on thread scheduling.
//!
//! Worker count comes from `--jobs N` on the command line, else
//! [`std::thread::available_parallelism`].
//!
//! # Checkpoint-fork mode
//!
//! With [`Campaign::warmup_checkpoint`] set (CLI: `--warmup-checkpoint
//! [PCT]`), every unit runs by one rule, alone or not: it runs its
//! fault-free prefix until PCT % of its workload's memory operations have
//! retired, switches its own faults on, and runs to the end. Units that
//! differ **only in their fault configuration** and run the same workload
//! under the same seed have the same prefix, so the runner simulates it
//! once and forks every member from it: each member but the last runs on a
//! copy of the prefix (the deep copy a [`ftdircmp_core::SystemSnapshot`]
//! holds), the last on the prefix itself. The group is only a cache: it
//! never decides a result, and a prefix that fails is each member's own
//! failure. Because neither the fault-free path nor a `drop_indices`
//! schedule consumes random numbers, a forked run is byte-identical to a
//! from-scratch run whose faults were gated until the same retirement
//! point — and fault-free units stay byte-identical to the classic path.
//! Absolute numbers for *faulty* units change versus classic mode (faults
//! only start after warmup; see DESIGN.md §8), so the mode is opt-in; with
//! the flag off every unit runs from scratch.
//!
//! # Example
//!
//! ```
//! use ftdircmp_bench::campaign::{grid, run_units_caught, Campaign};
//! use ftdircmp_core::SystemConfig;
//! use ftdircmp_workloads::WorkloadSpec;
//!
//! let specs = [WorkloadSpec::named("water-sp").unwrap()];
//! let configs = [
//!     ("base".to_string(), SystemConfig::dircmp()),
//!     ("ft".to_string(), SystemConfig::ftdircmp()),
//! ];
//! let units = grid(&specs, &configs, 2);
//! assert_eq!(units[1].label, "water-sp/base");
//! assert_eq!(units[1].seed, 1);
//! let opts = Campaign {
//!     jobs: 2,
//!     progress: false,
//!     warmup_checkpoint: None,
//! };
//! let results = run_units_caught(&units, &opts);
//! assert_eq!(results.len(), 4); // one result per unit, in unit order
//! assert!(results.iter().all(Result::is_ok));
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ftdircmp_core::{RunError, SimReport, System, SystemConfig, Workload};
use ftdircmp_noc::FaultConfig;
use ftdircmp_workloads::WorkloadSpec;

/// How one campaign unit failed.
///
/// [`run_units_caught`] catches worker panics and turns them into
/// [`CellError::Panicked`] values identifying the exact (spec, seed, fault
/// config) that blew up, so a long-lived caller (the `ftdircmp-serve`
/// daemon) can log and quarantine the unit instead of aborting the whole
/// process.
#[derive(Debug, Clone)]
pub enum CellError {
    /// The simulation itself failed (deadlock, invalid configuration).
    Run(RunError),
    /// The unit's worker panicked mid-run.
    Panicked {
        /// Display label of the unit.
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
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
    /// memory operations (see the module docs). `None` runs every unit from
    /// scratch (the classic, pre-checkpoint behaviour).
    pub warmup_checkpoint: Option<f64>,
}

/// One simulation unit: a workload under a configuration at one seed.
/// Experiments and exploration phases build their unit lists up front; the
/// `ftdircmp-serve` daemon runs sparse lists when resuming a half-finished
/// campaign (only the units whose results never landed are re-run).
#[derive(Debug, Clone)]
pub struct Unit {
    /// Display label used in progress lines (e.g. `"ocean/ftdircmp-1000"`).
    pub label: String,
    /// Workload to generate.
    pub spec: WorkloadSpec,
    /// System configuration to run it under.
    pub config: SystemConfig,
    /// Seed for this unit.
    pub seed: u64,
}

impl Unit {
    /// The workload this unit runs, generated from its seed.
    pub fn workload(&self) -> Workload {
        self.spec.generate(self.config.tiles, self.sim_seed())
    }

    /// The unit's configuration with its seed applied.
    pub fn system_config(&self) -> SystemConfig {
        self.config.clone().with_seed(self.sim_seed())
    }

    /// Runs the unit from scratch.
    ///
    /// # Errors
    ///
    /// Returns the run error (e.g. a DirCMP deadlock) untouched.
    pub fn run(&self) -> Result<SimReport, RunError> {
        System::run_workload(self.system_config(), &self.workload())
    }

    /// The configuration of this unit's fault-free prefix: its own with
    /// the seed applied and the faults stripped.
    fn prefix_config(&self) -> SystemConfig {
        let mut config = self.system_config();
        config.mesh.faults = FaultConfig::none();
        config
    }

    /// The fault-free prefix of this unit under a warm-up, run until `pct`
    /// % of the workload's memory operations have retired. Units with the
    /// same spec and [`Unit::prefix_config`] have the same prefix.
    fn warm_up(&self, pct: f64) -> Result<System, RunError> {
        let wl = self.workload();
        let target = (wl.total_mem_ops() as f64 * (pct.clamp(0.0, 100.0) / 100.0)).ceil() as u64;
        let mut sys = System::new(self.prefix_config(), &wl)?;
        sys.run_until_retired(target)?;
        Ok(sys)
    }

    /// Runs this unit to the end from `prefix` (see [`Unit::warm_up`])
    /// with its own faults switched on, once they pass the check
    /// `System::new` makes. Neither the fault-free injector path nor a
    /// deterministic drop schedule consumes random numbers, so this equals
    /// a from-scratch run whose faults were gated until the prefix's
    /// retirement point.
    fn resume(&self, mut prefix: System) -> Result<SimReport, RunError> {
        let config = self.system_config();
        config.validate().map_err(RunError::InvalidConfig)?;
        prefix.set_fault_config(config.mesh.faults);
        prefix.run()
    }

    /// The report of this unit's `result`.
    ///
    /// # Panics
    ///
    /// Panics with the unit's label and seed if the run failed or the
    /// checker reported violations: the result of an incoherent run would
    /// be meaningless.
    pub fn coherent<E: std::fmt::Display>(&self, result: Result<SimReport, E>) -> SimReport {
        match result {
            Ok(r) if r.violations.is_empty() => r,
            Ok(r) => panic!("{} (seed {}): {:#?}", self.label, self.seed, r.violations),
            Err(e) => panic!("{} (seed {}): {e}", self.label, self.seed),
        }
    }

    /// The seed the workload generator and the system run under.
    fn sim_seed(&self) -> u64 {
        1000 + self.seed
    }

    /// The error naming this unit when its run panicked with `message`.
    fn panicked(&self, message: String) -> CellError {
        CellError::Panicked {
            label: self.label.clone(),
            spec: self.spec.name.to_string(),
            seed: self.seed,
            faults: format!("{:?}", self.config.mesh.faults),
            message,
        }
    }
}

/// Runs `f` for `unit`, turning a panic into the typed error naming it.
fn caught<T>(unit: &Unit, f: impl FnOnce() -> Result<T, RunError>) -> Result<T, CellError> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(CellError::Run),
        Err(payload) => Err(unit.panicked(panic_message(payload.as_ref()))),
    }
}

/// Expands a grid into units in deterministic order: spec-major, then
/// configuration, then seeds `0..seeds` ascending, each labelled
/// `"{spec}/{config label}"`.
pub fn grid(specs: &[WorkloadSpec], configs: &[(String, SystemConfig)], seeds: u64) -> Vec<Unit> {
    let mut units = Vec::with_capacity(specs.len() * configs.len() * seeds as usize);
    for spec in specs {
        for (label, config) in configs {
            for seed in 0..seeds {
                units.push(Unit {
                    label: format!("{}/{label}", spec.name),
                    spec: spec.clone(),
                    config: config.clone(),
                    seed,
                });
            }
        }
    }
    units
}

/// Runs every unit, catching worker panics per unit. Results come back
/// index-aligned with `units`.
///
/// A unit's result depends on the unit alone, never on which other units
/// share the call: under the warm-up a group only caches the fault-free
/// prefix of its members (see the module docs). So resuming a campaign
/// with a sparse unit list, or in batches of any size, reproduces the
/// exact per-unit results of the full campaign.
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
    let run_group = |group: &[usize]| {
        let Some(pct) = opts.warmup_checkpoint else {
            for &i in group {
                let t = Instant::now();
                finish_unit(i, caught(&units[i], || units[i].run()), t);
            }
            return;
        };
        // The group only caches the fault-free prefix its members share: a
        // failed prefix is each member's own failure, and a lone member
        // forks exactly as it would inside a larger group. Each member but
        // the last runs on a copy; the last takes the prefix itself.
        let proto = &units[group[0]];
        let t_warm = Instant::now();
        let mut warm = caught(proto, || proto.warm_up(pct)).map(Some);
        if opts.progress {
            let s = t_warm.elapsed().as_secs_f64();
            eprintln!(
                "[campaign] warmup {} seed {} in {s:.2}s",
                proto.label, proto.seed
            );
        }
        for (k, &i) in group.iter().enumerate() {
            let (u, t) = (&units[i], Instant::now());
            let result = match &mut warm {
                Ok(sys) => caught(u, || {
                    let prefix = if k + 1 < group.len() {
                        sys.clone()
                    } else {
                        sys.take()
                    };
                    u.resume(prefix.expect("the last member takes the prefix"))
                }),
                Err(CellError::Panicked { message, .. }) => Err(u.panicked(message.clone())),
                Err(e) => Err(e.clone()),
            };
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
            // Every unit is caught, so an empty slot means the runner itself
            // failed: a typed error, never an abort of the caller.
            slot.into_inner().unwrap_or_else(|| {
                let message = "unit result never landed (worker aborted mid-group)";
                Err(units[i].panicked(message.to_string()))
            })
        })
        .collect()
}

/// Partitions units into warm-up groups, preserving unit order within and
/// across groups: two units share a group iff they run the same workload
/// spec from the same fault-free prefix configuration.
fn group_units(units: &[Unit]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut keys: Vec<(&WorkloadSpec, SystemConfig)> = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        let key = (&unit.spec, unit.prefix_config());
        if let Some(g) = keys.iter().position(|k| *k == key) {
            groups[g].push(i);
        } else {
            keys.push(key);
            groups.push(vec![i]);
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

    fn unit(label: &str, spec: WorkloadSpec, config: SystemConfig, seed: u64) -> Unit {
        Unit {
            label: label.to_string(),
            spec,
            config,
            seed,
        }
    }

    #[test]
    fn poisoned_cell_is_caught_and_identified() {
        let good = WorkloadSpec::named("water-sp").unwrap();
        let units = vec![
            unit("good-a", good.clone(), SystemConfig::ftdircmp(), 0),
            unit("poisoned", poisoned_spec(), SystemConfig::ftdircmp(), 0),
            unit("poisoned", poisoned_spec(), SystemConfig::ftdircmp(), 1),
            unit("good-b", good, SystemConfig::ftdircmp(), 0),
        ];
        for jobs in [1, 3] {
            let results = run_units_caught(&units, &opts(jobs));
            assert_eq!(results.len(), 4);
            assert!(results[0].is_ok(), "jobs={jobs}");
            assert!(results[3].is_ok(), "jobs={jobs}");
            for (seed, r) in results[1..3].iter().enumerate() {
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

    fn warmup(jobs: usize) -> Campaign {
        Campaign {
            warmup_checkpoint: Some(60.0),
            ..opts(jobs)
        }
    }

    #[test]
    fn poisoned_warmup_fails_each_member_by_name() {
        // The first two units share a (spec, seed, config-modulo-faults)
        // group, the third is alone in its own; every warm-up panics, and
        // each member reports the panic under its own name.
        let mut faulty = SystemConfig::ftdircmp().with_fault_rate(125.0);
        faulty.watchdog_cycles = 3_000_000;
        let units = vec![
            unit("p/ff", poisoned_spec(), SystemConfig::ftdircmp(), 0),
            unit("p/ft", poisoned_spec(), faulty.clone(), 0),
            unit("p/lone", poisoned_spec(), faulty, 1),
        ];
        let results = run_units_caught(&units, &warmup(2));
        for (u, r) in units.iter().zip(&results) {
            match r {
                Err(CellError::Panicked { label, seed, .. }) => {
                    assert_eq!((label, *seed), (&u.label, u.seed));
                }
                other => panic!("{}: expected Panicked, got {other:?}", u.label),
            }
        }
    }

    #[test]
    fn invalid_faults_fail_a_forked_unit_as_they_fail_a_classic_one() {
        // A fork installs its faults after the prefix; they are checked
        // first, with the text a from-scratch run gives, alone or grouped.
        let spec = WorkloadSpec::parse("water-sp:ops=200").unwrap();
        let mut bad = SystemConfig::ftdircmp();
        bad.mesh.faults = FaultConfig::per_million(-5.0);
        let good = unit("good", spec.clone(), SystemConfig::ftdircmp(), 0);
        let bad = unit("bad", spec, bad, 0);
        let want = "invalid configuration: loss_per_million = -5 is not a rate in [0, 1000000]";
        for units in [vec![bad.clone(), good], vec![bad]] {
            for campaign in [opts(1), warmup(1)] {
                let results = run_units_caught(&units, &campaign);
                let got = results[0].as_ref().unwrap_err().to_string();
                assert_eq!(got, want, "{campaign:?}");
                assert!(results[1..].iter().all(Result::is_ok), "{campaign:?}");
            }
        }
    }

    #[test]
    fn sparse_unit_list_matches_full_campaign() {
        // Resuming from a sparse unit list must reproduce the exact
        // per-unit results of the full run — the daemon's resume contract.
        // Under the warm-up the sparse list splits every fault-rate group,
        // leaving the faulty seed-0 unit alone.
        let spec = WorkloadSpec::named("water-sp").unwrap();
        let configs = [0.0, 2000.0].map(|rate| {
            let mut config = SystemConfig::ftdircmp().with_fault_rate(rate);
            config.watchdog_cycles = 3_000_000;
            (format!("ft-{rate}"), config)
        });
        let units = grid(&[spec], &configs, 2);
        for campaign in [opts(1), warmup(1)] {
            let full = run_units_caught(&units, &campaign);
            let sparse = run_units_caught(&[units[2].clone(), units[1].clone()], &campaign);
            for (i, got) in [2, 1].into_iter().zip(&sparse) {
                let want = full[i].as_ref().unwrap();
                assert_eq!(
                    want.cycles,
                    got.as_ref().unwrap().cycles,
                    "{} seed {} {campaign:?}",
                    units[i].label,
                    units[i].seed
                );
            }
        }
    }
}
