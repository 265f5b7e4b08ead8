//! The two campaign grids, rebuilt from public API exactly as the
//! `fig3_execution_time` and `fault_domains` bins build them, plus the
//! checks and simulated-result summaries every campaign pass goes through.
//!
//! Units are laid out `[spec][column][seed]`, the order the bins' cells
//! expand to; column 0 is the baseline every other column is divided by.

use ftdircmp_bench::campaign::{CellError, Unit};
use ftdircmp_bench::geomean_ratio;
use ftdircmp_core::{SimReport, System, SystemConfig};
use ftdircmp_noc::{Direction, FaultConfig, FaultDomainConfig, FaultEvent, RouterId};
use ftdircmp_workloads::WorkloadSpec;

use crate::trace::Tracer;
use crate::util::{geomean, Fingerprint, Res};

/// Figure 3's fault rates, lost messages per million.
pub const FIG3_RATES: [f64; 6] = [0.0, 125.0, 250.0, 500.0, 1000.0, 2000.0];
const FLAP_DURATIONS: [u64; 3] = [2_000, 8_000, 20_000];
const BURST_RADII: [u32; 3] = [0, 1, 2];
const FAULT_START: u64 = 2_000;
const BURST_END: u64 = 10_000;
const WATCHDOG_CYCLES: u64 = 3_000_000;
/// The checkpoint-fork warm-up threshold the sweep bins default to.
pub const WARMUP_PCT: f64 = 60.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    Fig3,
    FaultDomains,
}

#[derive(Debug, Clone)]
pub struct Grid {
    pub units: Vec<Unit>,
    pub cols: usize,
    pub seeds: usize,
    /// The harshest column (Ft-2000, flap-20000): `sim.slowdown` is its
    /// geomean execution time over column 0's.
    pub harsh_col: usize,
    /// Memory operations of each unit's generated trace; a report that
    /// retired a different number did not run the workload it was given.
    pub expected_mem_ops: Vec<u64>,
}

pub fn flap_domain(duration: u64) -> FaultDomainConfig {
    FaultDomainConfig::events(vec![FaultEvent::LinkFlap {
        from: RouterId::new(5),
        dir: Direction::East,
        start: FAULT_START,
        end: FAULT_START + duration,
    }])
}

fn burst_domain(radius: u32) -> FaultDomainConfig {
    FaultDomainConfig::events(vec![FaultEvent::RegionBurst {
        epicenter: RouterId::new(5),
        radius,
        start: FAULT_START,
        end: BURST_END,
    }])
}

pub fn ft_config() -> SystemConfig {
    let mut cfg = SystemConfig::ftdircmp();
    cfg.watchdog_cycles = WATCHDOG_CYCLES;
    cfg
}

/// The labelled configuration columns of a grid, baseline first.
pub fn columns(kind: GridKind) -> Vec<(String, SystemConfig)> {
    match kind {
        GridKind::Fig3 => {
            let mut cols = vec![("dircmp".to_string(), SystemConfig::dircmp())];
            for rate in FIG3_RATES {
                let mut cfg = SystemConfig::ftdircmp().with_fault_rate(rate);
                cfg.watchdog_cycles = WATCHDOG_CYCLES;
                cols.push((format!("ft-{rate:.0}"), cfg));
            }
            cols
        }
        GridKind::FaultDomains => {
            let mut cols = vec![("ft-clean".to_string(), ft_config())];
            for d in FLAP_DURATIONS {
                cols.push((
                    format!("flap-{d}"),
                    ft_config().with_fault_domains(flap_domain(d)),
                ));
            }
            for r in BURST_RADII {
                cols.push((
                    format!("burst-r{r}"),
                    ft_config().with_fault_domains(burst_domain(r)),
                ));
            }
            cols
        }
    }
}

impl Grid {
    /// `specs` × the grid's columns × `seeds`. The workloads pass the whole
    /// suite; layer probes pass a few specs of it.
    pub fn build(kind: GridKind, specs: &[WorkloadSpec], seeds: std::ops::Range<u64>) -> Grid {
        let cols = columns(kind);
        let harsh_col = match kind {
            GridKind::Fig3 => cols.len() - 1,
            GridKind::FaultDomains => FLAP_DURATIONS.len(),
        };
        let mut units = Vec::new();
        let mut expected_mem_ops = Vec::new();
        for spec in specs {
            let per_seed: Vec<u64> = seeds
                .clone()
                .map(|seed| spec.generate(cols[0].1.tiles, 1000 + seed).total_mem_ops() as u64)
                .collect();
            for (label, config) in &cols {
                for (seed, ops) in seeds.clone().zip(&per_seed) {
                    units.push(Unit {
                        label: format!("{}/{label}", spec.name),
                        spec: spec.clone(),
                        config: config.clone(),
                        seed,
                    });
                    expected_mem_ops.push(*ops);
                }
            }
        }
        Grid {
            units,
            cols: cols.len(),
            seeds: seeds.count(),
            harsh_col,
            expected_mem_ops,
        }
    }

    /// The units of one column alone, as a grid of their own: what a
    /// set-up's warm-up pass runs.
    pub fn column(&self, col: usize) -> Grid {
        let in_col = |i: &usize| i / self.seeds % self.cols == col;
        let pick = |i: usize| (self.units[i].clone(), self.expected_mem_ops[i]);
        let (units, expected_mem_ops) = (0..self.units.len()).filter(in_col).map(pick).unzip();
        Grid {
            units,
            cols: 1,
            seeds: self.seeds,
            harsh_col: 0,
            expected_mem_ops,
        }
    }

    /// Unwraps a pass's results, listing every unit that errored,
    /// deadlocked, panicked, reported violations or retired the wrong
    /// number of memory operations.
    pub fn check<'r>(
        &self,
        results: &'r [Result<SimReport, CellError>],
    ) -> (Vec<&'r SimReport>, Vec<String>) {
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for ((unit, expected), result) in self.units.iter().zip(&self.expected_mem_ops).zip(results)
        {
            let what = format!("{} seed {}", unit.label, unit.seed);
            match result {
                Err(e) => {
                    let text = e.to_string();
                    failures.push(format!("{what}: {}", text.lines().next().unwrap_or("")));
                }
                Ok(r) if !r.violations.is_empty() => {
                    failures.push(format!("{what}: {} violations", r.violations.len()));
                }
                Ok(r) if r.total_mem_ops != *expected => failures.push(format!(
                    "{what}: retired {} memory ops, trace has {expected}",
                    r.total_mem_ops
                )),
                Ok(r) => reports.push(r),
            }
        }
        (reports, failures)
    }

    /// GEOMEAN row of the bins' tables: per non-baseline column, the
    /// geomean over specs of the per-cell geomean execution-time ratio.
    /// Needs a complete pass (one report per unit).
    pub fn column_geomeans(&self, reports: &[&SimReport]) -> Vec<f64> {
        assert_eq!(reports.len(), self.units.len(), "incomplete pass");
        let cell = |spec: usize, col: usize| -> Vec<SimReport> {
            let at = (spec * self.cols + col) * self.seeds;
            reports[at..at + self.seeds]
                .iter()
                .map(|r| (*r).clone())
                .collect()
        };
        let specs = self.units.len() / (self.cols * self.seeds);
        (1..self.cols)
            .map(|col| {
                let per_spec: Vec<f64> = (0..specs)
                    .map(|s| geomean_ratio(&cell(s, col), &cell(s, 0), |r| r.cycles as f64))
                    .collect();
                geomean(&per_spec)
            })
            .collect()
    }
}

/// Hash of the per-unit simulated results of one pass.
pub fn fingerprint(results: &[Result<SimReport, CellError>]) -> Fingerprint {
    let mut fp = Fingerprint::new();
    for r in results {
        match r {
            Ok(r) => {
                for word in [
                    r.cycles,
                    r.events,
                    r.stats.total_messages(),
                    r.stats.total_bytes(),
                    r.messages_lost,
                    r.stats.total_timeouts(),
                ] {
                    fp.feed(word);
                }
            }
            Err(_) => fp.feed(u64::MAX),
        }
    }
    fp
}

/// Indices of units sharing one checkpoint-fork warm-up: same seed, same
/// spec, same configuration once faults are stripped (the campaign
/// runner's own grouping rule).
fn fork_groups(units: &[Unit]) -> Vec<Vec<usize>> {
    let stripped = |u: &Unit| {
        let mut c = u.config.clone();
        c.mesh.faults = FaultConfig::none();
        c
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        let key = stripped(unit);
        let found = groups.iter_mut().find(|g| {
            let first = &units[g[0]];
            first.seed == unit.seed && first.spec == unit.spec && stripped(first) == key
        });
        match found {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// One traced pass: the benchmark drives each unit itself, step for step
/// as `run_units_caught` does at `jobs: 1`, with a span around every call
/// into a layer. `fork` selects checkpoint-fork mode at [`WARMUP_PCT`].
pub fn traced_pass(
    tr: &mut Tracer,
    units: &[Unit],
    fork: bool,
) -> Res<Vec<Result<SimReport, CellError>>> {
    let mut out: Vec<Option<Result<SimReport, CellError>>> = vec![None; units.len()];
    let groups = if fork {
        fork_groups(units)
    } else {
        (0..units.len()).map(|i| vec![i]).collect()
    };
    tr.span("pass", "", |tr| {
        for group in &groups {
            let first = &units[group[0]];
            let tag = format!("{} seed {}", first.label, first.seed);
            let wl = tr.span_counted("workloads.generate", &tag, |_| {
                let wl = first.spec.generate(first.config.tiles, 1000 + first.seed);
                let ops = wl.total_mem_ops() as u64;
                (wl, ops)
            });
            if group.len() == 1 {
                let cfg = first.config.clone().with_seed(1000 + first.seed);
                let built = tr.span("core.new", &tag, |_| System::new(cfg, &wl));
                out[group[0]] = Some(run_traced(tr, &tag, built).map_err(CellError::Run));
                continue;
            }
            let mut warm_cfg = first.config.clone().with_seed(1000 + first.seed);
            warm_cfg.mesh.faults = FaultConfig::none();
            let target = (wl.total_mem_ops() as f64 * (WARMUP_PCT / 100.0)).ceil() as u64;
            let built = tr.span("core.new", &tag, |_| System::new(warm_cfg, &wl));
            let warmed = built.and_then(|mut sys| {
                tr.span_counted("core.run_until_retired", &tag, |_| {
                    let r = sys.run_until_retired(target);
                    (r, sys.retired_mem_ops())
                })?;
                Ok(sys)
            });
            let sys = match warmed {
                Ok(sys) => sys,
                Err(e) => {
                    for &i in group {
                        out[i] = Some(Err(CellError::Run(e.clone())));
                    }
                    continue;
                }
            };
            let snap = tr.span("core.snapshot", &tag, |_| sys.snapshot());
            let mut warm = Some(sys);
            for &i in group {
                let tag = format!("{} seed {}", units[i].label, units[i].seed);
                let mut sys = match warm.take() {
                    Some(sys) => sys,
                    None => tr.span("core.restore", &tag, |_| System::restore(&snap)),
                };
                tr.span("noc.set_fault_config", &tag, |_| {
                    sys.set_fault_config(units[i].config.mesh.faults.clone());
                });
                out[i] = Some(run_traced(tr, &tag, Ok(sys)).map_err(CellError::Run));
            }
        }
    });
    out.into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| format!("traced pass never ran unit {i}")))
        .collect()
}

fn run_traced(
    tr: &mut Tracer,
    tag: &str,
    sys: Result<System, ftdircmp_core::RunError>,
) -> Result<SimReport, ftdircmp_core::RunError> {
    let sys = sys?;
    tr.span_counted("core.run", tag, |_| {
        let r = sys.run();
        let events = r.as_ref().map_or(0, |r| r.events);
        (r, events)
    })
}
