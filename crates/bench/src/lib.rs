//! Shared harness for the figure-regeneration benchmarks.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (DESIGN.md §3, experiment index); this
//! library holds the common machinery: running the benchmark suite across
//! configurations and averaging across seeds.

pub mod campaign;
pub mod checkpoint;

use ftdircmp_core::{RunError, SimReport, System, SystemConfig};
use ftdircmp_workloads::{suite, WorkloadSpec};

/// Number of seeds averaged per (benchmark, configuration) cell.
pub const DEFAULT_SEEDS: u64 = 3;

/// Runs one seed of `spec` under `config` — the single unit of work both
/// the sequential [`run_spec`] path and the parallel
/// [`campaign::run_campaign`] path execute, so they cannot drift apart.
///
/// # Errors
///
/// Returns the run error (e.g. a DirCMP deadlock) untouched.
pub fn run_seed_fallible(
    spec: &WorkloadSpec,
    config: &SystemConfig,
    seed: u64,
) -> Result<SimReport, RunError> {
    let wl = spec.generate(config.tiles, 1000 + seed);
    let cfg = config.clone().with_seed(1000 + seed);
    System::run_workload(cfg, &wl)
}

/// Unwraps a run result, panicking on failure or invariant violations: a
/// benchmark result from an incoherent run would be meaningless.
///
/// # Panics
///
/// Panics with the workload name and seed if the run failed or the checker
/// reported violations.
pub fn expect_coherent(name: &str, seed: u64, r: Result<SimReport, RunError>) -> SimReport {
    let r = r.unwrap_or_else(|e| panic!("{name} (seed {seed}): {e}"));
    assert!(
        r.violations.is_empty(),
        "{name} (seed {seed}): {:#?}",
        r.violations
    );
    r
}

/// Runs `spec` under `config` for `seeds` seeds, returning all reports.
///
/// # Panics
///
/// Panics if any run fails or violates an invariant: a benchmark result
/// from an incoherent run would be meaningless.
pub fn run_spec(spec: &WorkloadSpec, config: &SystemConfig, seeds: u64) -> Vec<SimReport> {
    (0..seeds)
        .map(|seed| expect_coherent(spec.name, seed, run_seed_fallible(spec, config, seed)))
        .collect()
}

/// Geometric mean of per-seed ratios `f(ft[i]) / f(base[i])`.
///
/// # Panics
///
/// Panics on empty or length-mismatched inputs: an aggregate over zero runs
/// has no value, and returning NaN would silently poison downstream tables.
pub fn geomean_ratio(ft: &[SimReport], base: &[SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    assert_eq!(
        ft.len(),
        base.len(),
        "geomean_ratio: mismatched report counts"
    );
    assert!(!ft.is_empty(), "geomean_ratio: no reports to aggregate");
    let log_sum: f64 = ft.iter().zip(base).map(|(a, b)| (f(a) / f(b)).ln()).sum();
    (log_sum / ft.len() as f64).exp()
}

/// Arithmetic mean of `f` across reports.
///
/// # Panics
///
/// Panics on an empty slice (see [`geomean_ratio`]).
pub fn mean(reports: &[SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    assert!(!reports.is_empty(), "mean: no reports to aggregate");
    reports.iter().map(&f).sum::<f64>() / reports.len() as f64
}

/// The benchmark suite, re-exported for the bin targets.
pub fn benchmarks() -> Vec<WorkloadSpec> {
    suite()
}

/// Writes rows as a CSV file (numeric cells unquoted, text cells quoted
/// only when they contain separators).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(
    path: impl AsRef<std::path::Path>,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    fn cell(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| cell(c)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Command-line arguments, collected once and shared by all flag lookups
/// (the bins previously re-collected `std::env::args()` per flag).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Collects the process arguments.
    pub fn parse() -> Self {
        BenchArgs {
            args: std::env::args().collect(),
        }
    }

    /// Builds from an explicit argument list (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        BenchArgs { args }
    }

    /// Value following `name`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Parses `--seeds N` style overrides.
    pub fn u64_flag(&self, name: &str, default: u64) -> u64 {
        self.value_of(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Optional `--csv FILE` destination.
    pub fn csv(&self) -> Option<String> {
        self.value_of("--csv").map(str::to_string)
    }

    /// Campaign worker count: `--jobs N`, then the `FTDIRCMP_JOBS`
    /// environment variable, then [`std::thread::available_parallelism`].
    pub fn jobs(&self) -> usize {
        self.value_of("--jobs")
            .and_then(|v| v.parse().ok())
            .or_else(|| {
                std::env::var("FTDIRCMP_JOBS")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Checkpoint-fork warmup threshold: `--warmup-checkpoint [PCT]` (flag
    /// without a value defaults to 60% of each workload's memory
    /// operations), then the `FTDIRCMP_WARMUP_CHECKPOINT` environment
    /// variable, else `None` (classic full simulation per cell).
    pub fn warmup_checkpoint(&self) -> Option<f64> {
        const DEFAULT_PCT: f64 = 60.0;
        if let Some(i) = self.args.iter().position(|a| a == "--warmup-checkpoint") {
            let pct = self
                .args
                .get(i + 1)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|p| (0.0..=100.0).contains(p));
            return Some(pct.unwrap_or(DEFAULT_PCT));
        }
        std::env::var("FTDIRCMP_WARMUP_CHECKPOINT")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|p| (0.0..=100.0).contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_spec_produces_reports_per_seed() {
        let spec = WorkloadSpec::named("water-sp").unwrap();
        let reports = run_spec(&spec, &SystemConfig::ftdircmp(), 2);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn geomean_of_identity_is_one() {
        let spec = WorkloadSpec::named("water-sp").unwrap();
        let a = run_spec(&spec, &SystemConfig::ftdircmp(), 2);
        let g = geomean_ratio(&a, &a, |r| r.cycles as f64);
        assert!((g - 1.0).abs() < 1e-9);
    }

    #[test]
    fn arg_parser_defaults() {
        let args = BenchArgs::parse();
        assert_eq!(args.u64_flag("--definitely-not-passed", 7), 7);
        assert_eq!(args.csv(), None);
    }

    #[test]
    fn csv_roundtrip_on_disk() {
        let path = std::env::temp_dir().join("ftdircmp-bench-csv-test.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[
                vec!["1".into(), "plain".into()],
                vec!["2".into(), "with,comma".into()],
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,plain\n2,\"with,comma\"\n");
        std::fs::remove_file(&path).ok();
    }
}
