//! Shared harness for the figure-regeneration benchmarks.
//!
//! Every table and figure of the paper's evaluation is an entry of the
//! [`experiments`] registry, run by name by the `ftdircmp-bench` binary
//! (DESIGN.md §3, experiment index); this library holds the common
//! machinery: the campaign runner ([`campaign`]), which runs every grid of
//! the registry, and the averaging across seeds.

pub mod campaign;
mod checkpoint;
pub mod experiments;

use ftdircmp_core::SimReport;
use ftdircmp_workloads::{suite, WorkloadSpec};

/// Number of seeds averaged per (benchmark, configuration) cell.
pub(crate) const DEFAULT_SEEDS: u64 = 3;

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
pub(crate) fn mean(reports: &[SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    assert!(!reports.is_empty(), "mean: no reports to aggregate");
    reports.iter().map(&f).sum::<f64>() / reports.len() as f64
}

/// The benchmark suite, re-exported for the bin targets.
pub fn benchmarks() -> Vec<WorkloadSpec> {
    suite()
}

/// A malformed command-line flag. Bins exit with status 2 on one ([`ArgError::exit`]) instead of running with a default
/// the user did not ask for.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError {
    /// The flag (`--jobs`).
    name: &'static str,
    /// The value as given; `None` when the flag was the last argument.
    value: Option<String>,
    /// What the value should have been.
    expected: String,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.value {
            Some(v) => write!(f, "{}: expected {}, got {v:?}", self.name, self.expected),
            None => write!(f, "{}: expected {}, got nothing", self.name, self.expected),
        }
    }
}

impl ArgError {
    fn new(name: &'static str, value: Option<&str>, expected: impl Into<String>) -> Self {
        ArgError {
            name,
            value: value.map(str::to_string),
            expected: expected.into(),
        }
    }

    /// Prints the error and exits with status 2 (a usage error).
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2)
    }
}

/// Command-line arguments, collected once and shared by all flag lookups
/// (the bins previously re-collected `std::env::args()` per flag).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Builds from an argument list.
    pub fn from_vec(args: Vec<String>) -> Self {
        BenchArgs { args }
    }

    /// Value following `name`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.flag(name).flatten()
    }

    /// Whether switch `name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    /// `None` if `name` is absent, `Some(None)` if it is the last argument.
    fn flag(&self, name: &str) -> Option<Option<&str>> {
        let i = self.args.iter().position(|a| a == name)?;
        Some(self.args.get(i + 1).map(String::as_str))
    }

    /// The arguments that are neither flags nor flag values, or an error
    /// naming the first `--flag` not in `known`. A flag's value is the
    /// argument after it unless that is another `--flag`.
    pub fn positionals(&self, known: &[&str]) -> Result<Vec<&str>, ArgError> {
        let mut tokens = self.args.iter().map(String::as_str).peekable();
        let mut positionals = Vec::new();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                positionals.push(token);
            } else if known.contains(&token) {
                tokens.next_if(|value| !value.starts_with("--"));
            } else {
                let expected = format!("one of {}", known.join(", "));
                return Err(ArgError::new("flag", Some(token), expected));
            }
        }
        Ok(positionals)
    }

    /// Parses `--seeds N` style overrides; `default` when the flag is absent.
    pub fn u64_flag(&self, name: &'static str, default: u64) -> Result<u64, ArgError> {
        self.flag(name).map_or(Ok(default), |v| {
            parse_value(name, v, "a non-negative integer", |_| true)
        })
    }

    /// `--seeds N` (per [`BenchArgs::seeds`]) and the campaign options
    /// every experiment takes (workers per [`BenchArgs::jobs`], checkpoint
    /// mode per [`BenchArgs::warmup_checkpoint`], progress on); prints the
    /// error and exits with status 2 on a malformed value.
    pub(crate) fn sweep(&self) -> (u64, campaign::Campaign) {
        let seeds = self.seeds().unwrap_or_else(|e| e.exit());
        let jobs = self.jobs().unwrap_or_else(|e| e.exit());
        let warmup_checkpoint = self.warmup_checkpoint().unwrap_or_else(|e| e.exit());
        let campaign = campaign::Campaign {
            jobs,
            progress: true,
            warmup_checkpoint,
        };
        (seeds, campaign)
    }

    /// Seeds per cell: `--seeds N`, else [`DEFAULT_SEEDS`]. Zero is
    /// malformed: an aggregate over no runs has no value.
    fn seeds(&self) -> Result<u64, ArgError> {
        self.flag("--seeds").map_or(Ok(DEFAULT_SEEDS), |v| {
            parse_value("--seeds", v, "a seed count of at least 1", |n| *n >= 1)
        })
    }

    /// Campaign worker count: `--jobs N`, else
    /// [`std::thread::available_parallelism`].
    pub fn jobs(&self) -> Result<usize, ArgError> {
        self.flag("--jobs").map_or_else(
            || Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
            |v| parse_value("--jobs", v, "a worker count of at least 1", |n| *n >= 1),
        )
    }

    /// Checkpoint-fork warmup threshold: `--warmup-checkpoint [PCT]` (the
    /// flag with no value, or followed by another `--flag`, means 60% of
    /// each workload's memory operations), else `None` (classic full
    /// simulation per cell).
    pub(crate) fn warmup_checkpoint(&self) -> Result<Option<f64>, ArgError> {
        const DEFAULT_PCT: f64 = 60.0;
        let pct = match self.flag("--warmup-checkpoint") {
            None => return Ok(None),
            Some(None) => DEFAULT_PCT,
            Some(Some(v)) if v.starts_with("--") => DEFAULT_PCT,
            Some(v) => parse_value("--warmup-checkpoint", v, "a percentage in 0..=100", |p| {
                (0.0..=100.0).contains(p)
            })?,
        };
        Ok(Some(pct))
    }
}

/// Parses the `value` given for `name` as a `T` that `valid` accepts.
fn parse_value<T: std::str::FromStr>(
    name: &'static str,
    value: Option<&str>,
    expected: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, ArgError> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|t| valid(t))
        .ok_or_else(|| ArgError::new(name, value, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdircmp_core::SystemConfig;

    /// Runs `water-sp` under FtDirCMP for `seeds` seeds as campaign units.
    fn water_sp_reports(seeds: u64) -> Vec<SimReport> {
        let specs = [WorkloadSpec::named("water-sp").unwrap()];
        let configs = [("ft".to_string(), SystemConfig::ftdircmp())];
        (campaign::grid(&specs, &configs, seeds).iter())
            .map(|u| u.coherent(u.run()))
            .collect()
    }

    #[test]
    fn run_spec_produces_reports_per_seed() {
        let reports = water_sp_reports(2);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn geomean_of_identity_is_one() {
        let a = water_sp_reports(2);
        let g = geomean_ratio(&a, &a, |r| r.cycles as f64);
        assert!((g - 1.0).abs() < 1e-9);
    }

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::from_vec(
            std::iter::once("bin")
                .chain(list.iter().copied())
                .map(str::to_string)
                .collect(),
        )
    }

    #[test]
    fn arg_parser_defaults() {
        let none = args(&[]);
        assert_eq!(none.u64_flag("--definitely-not-passed", 7), Ok(7));
        assert_eq!(none.value_of("--out"), None);
        assert_eq!(none.seeds(), Ok(DEFAULT_SEEDS));
        assert!(none.jobs().unwrap() >= 1);
        assert_eq!(none.warmup_checkpoint(), Ok(None));
    }

    #[test]
    fn forms_the_scripts_and_the_benchmark_pass_parse() {
        // CI, scripts/reproduce.sh and the benchmark's fig3 reference check.
        let a = args(&["--seeds", "3", "--jobs", "2"]);
        assert_eq!(a.seeds(), Ok(3));
        assert_eq!(a.jobs(), Ok(2));
        assert_eq!(a.warmup_checkpoint(), Ok(None));
        let warm = |argv: &[&str]| args(argv).warmup_checkpoint();
        assert_eq!(
            warm(&["--seeds", "1", "--warmup-checkpoint"]),
            Ok(Some(60.0))
        );
        assert_eq!(
            warm(&["--warmup-checkpoint", "--jobs", "2"]),
            Ok(Some(60.0))
        );
        assert_eq!(warm(&["--warmup-checkpoint", "30"]), Ok(Some(30.0)));
        assert_eq!(warm(&["--warmup-checkpoint", "0"]), Ok(Some(0.0)));
        assert_eq!(warm(&["--warmup-checkpoint", "100"]), Ok(Some(100.0)));
        let c = args(&["--warmup-checkpoint", "--jobs", "2", "--out", "results"]);
        assert_eq!((c.jobs(), c.value_of("--out")), (Ok(2), Some("results")));
    }

    #[test]
    fn malformed_flags_name_the_flag_and_the_value() {
        const SEEDS: &str = "expected a seed count of at least 1";
        const JOBS: &str = "expected a worker count of at least 1";
        const PCT: &str = "expected a percentage in 0..=100";
        let seeds = |argv: &[&str]| args(argv).seeds().unwrap_err().to_string();
        let jobs = |argv: &[&str]| args(argv).jobs().unwrap_err().to_string();
        let warm = |argv: &[&str]| args(argv).warmup_checkpoint().unwrap_err().to_string();
        // Zero seeds would leave every aggregate with nothing to average.
        assert_eq!(
            seeds(&["--seeds", "0"]),
            format!("--seeds: {SEEDS}, got \"0\"")
        );
        assert_eq!(
            seeds(&["--seeds", "abc"]),
            format!("--seeds: {SEEDS}, got \"abc\"")
        );
        assert_eq!(
            seeds(&["--seeds", "-1"]),
            format!("--seeds: {SEEDS}, got \"-1\"")
        );
        assert_eq!(
            seeds(&["--seeds", "--jobs", "2"]),
            format!("--seeds: {SEEDS}, got \"--jobs\"")
        );
        assert_eq!(
            seeds(&["--seeds"]),
            format!("--seeds: {SEEDS}, got nothing")
        );
        for bad in ["0", "x", "-2", "1.5"] {
            let flag = format!("--jobs: {JOBS}, got \"{bad}\"");
            assert_eq!(jobs(&["--jobs", bad]), flag);
        }
        assert_eq!(jobs(&["--jobs"]), format!("--jobs: {JOBS}, got nothing"));
        for bad in ["150", "-5", "x", "NaN", "inf"] {
            let flag = format!("--warmup-checkpoint: {PCT}, got \"{bad}\"");
            assert_eq!(warm(&["--warmup-checkpoint", bad]), flag);
        }
    }
}
