//! The four workloads: what one untraced run measures end to end, and what
//! one traced run adds (a traced pass, its self-time shares and the
//! simulated counters of the workload).
//!
//! Every run sets up [`SETUPS`] times (inputs from the seed, daemon start
//! until the first `ping`, a warm-up), then repeats timed passes over the
//! same inputs until the requested seconds are used, at least
//! [`MIN_PASSES`] of them. A host-time metric is the median over set-ups
//! or passes. The campaign workloads compute in this process, so their
//! timings are scaled to the reference host speed ([`SpeedAdjusted`]);
//! the daemon workload waits on the kernel's timers and the disk, which
//! the host's CPU speed does not scale, and reports plain wall time.

use std::path::Path;
use std::time::Instant;

use ftdircmp_bench::benchmarks;
use ftdircmp_bench::campaign::{run_units_caught, Campaign, CellError};
use ftdircmp_core::SimReport;

use crate::daemon::{self, Client, Daemon, Job, JobResult, JobTrip};
use crate::grid::{self, Grid, GridKind, WARMUP_PCT};
use crate::trace::Tracer;
use crate::util::{fastest, median, percentile, Fingerprint, Metrics, Res, SpeedAdjusted};

pub const SETUPS: usize = 5;
pub const MIN_PASSES: usize = 5;
/// Rounds of (untraced pass, traced pass) a traced campaign run takes.
const TRACE_ROUNDS: usize = 2;
/// Jobs in one pass of `serve-small-jobs`, and warm-up jobs per set-up.
const SERVE_JOBS: usize = 24;
const SERVE_WARMUP_JOBS: usize = 6;
/// Daemon results compared byte for byte against an in-process run.
const SERVE_LOCAL_SAMPLE: usize = 20;

#[derive(Debug, Clone, Copy)]
pub struct CampaignWorkload {
    pub name: &'static str,
    kind: GridKind,
    jobs: usize,
    fork: bool,
    /// Units per `run_units_caught` call of a timed pass (see
    /// [`SpeedAdjusted`]). One worker runs units one after another, so
    /// three specs at a time is the same work as the whole grid at once;
    /// two workers share out the whole grid's fork groups, so there the
    /// grid, half a second of work, stays whole.
    part_units: usize,
}

pub const SERVE: &str = "serve-small-jobs";

/// `jobs` is fixed, not read from the host: the same grid must do the
/// same work on every machine the benchmark is compared across.
pub const CAMPAIGNS: [CampaignWorkload; 3] = [
    CampaignWorkload {
        name: "fig3-classic",
        kind: GridKind::Fig3,
        jobs: 1,
        fork: false,
        part_units: 21,
    },
    CampaignWorkload {
        name: "fig3-fork-par",
        kind: GridKind::Fig3,
        jobs: 2,
        fork: true,
        part_units: 84,
    },
    CampaignWorkload {
        name: "fault-domains",
        kind: GridKind::FaultDomains,
        jobs: 1,
        fork: false,
        part_units: 21,
    },
];

impl CampaignWorkload {
    fn opts(&self, jobs: usize) -> Campaign {
        Campaign {
            jobs,
            progress: false,
            warmup_checkpoint: self.fork.then_some(WARMUP_PCT),
        }
    }
}

/// What a run found, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units or jobs the timed passes attempted, and how many of them
    /// errored, deadlocked, reported violations or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Every failed correctness check, one line each; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub fingerprint: u64,
}

/// Counts of the traced pass the `est.*` shares are computed from.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedCounts {
    pub events: u64,
    pub noc_messages: u64,
    pub pass_ns: f64,
}

/// Simulated results of one pass. These repeat exactly for a given seed,
/// and a change that only speeds the simulator must leave all of them
/// identical.
#[derive(Debug, Default)]
struct SimTotals {
    slowdown: f64,
    fingerprint: f64,
    msgs_lost: u64,
    mean_link_util: f64,
    l1_miss_share: f64,
    l2_miss_share: f64,
    miss_latency_mean: f64,
    msgs_total: u64,
    bytes_total: u64,
    timeouts: u64,
    reissues: u64,
    ttr_mean: f64,
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl SimTotals {
    fn of_pass(grid: &Grid, reports: &[&SimReport], fp: Fingerprint) -> SimTotals {
        let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
        let l2_hits = sum(&|r| r.stats.l2_hits.get());
        let l2_misses = sum(&|r| r.stats.l2_misses.get());
        let latency_count = sum(&|r| r.stats.miss_latency.count());
        let ttrs: Vec<u64> = reports
            .iter()
            .flat_map(|r| &r.fault_epochs)
            .filter_map(ftdircmp_core::FaultEpochReport::time_to_recover)
            .collect();
        SimTotals {
            slowdown: grid.column_geomeans(reports)[grid.harsh_col - 1],
            fingerprint: fp.low48(),
            msgs_lost: sum(&|r| r.messages_lost),
            mean_link_util: reports.iter().map(|r| r.mean_link_utilization).sum::<f64>()
                / reports.len() as f64,
            l1_miss_share: share(
                sum(&|r| r.stats.l1_misses()),
                sum(&|r| r.stats.l1_accesses()),
            ),
            l2_miss_share: share(l2_misses, l2_hits + l2_misses),
            miss_latency_mean: if latency_count == 0 {
                0.0
            } else {
                sum(&|r| r.stats.miss_latency.sum()) as f64 / latency_count as f64
            },
            msgs_total: sum(&|r| r.stats.total_messages()),
            bytes_total: sum(&|r| r.stats.total_bytes()),
            timeouts: sum(&|r| r.stats.total_timeouts()),
            reissues: sum(&|r| r.stats.reissues.get()),
            ttr_mean: if ttrs.is_empty() {
                0.0
            } else {
                ttrs.iter().sum::<u64>() as f64 / ttrs.len() as f64
            },
        }
    }

    fn push(&self, m: &mut Metrics) {
        m.push("sim.slowdown", self.slowdown, "ratio");
        m.push("sim.fingerprint", self.fingerprint, "hash48");
        m.push("noc.msgs_lost", self.msgs_lost as f64, "count");
        m.push("noc.mean_link_util", self.mean_link_util, "share");
        m.push("core.l1_miss_share", self.l1_miss_share, "share");
        m.push("core.l2_miss_share", self.l2_miss_share, "share");
        m.push(
            "core.miss_latency_mean_cycles",
            self.miss_latency_mean,
            "cycles",
        );
        m.push("core.msgs_total", self.msgs_total as f64, "count");
        m.push("core.bytes_total", self.bytes_total as f64, "bytes");
        m.push("core.timeouts", self.timeouts as f64, "count");
        m.push("core.reissues", self.reissues as f64, "count");
        m.push("core.ttr_mean_cycles", self.ttr_mean, "cycles");
    }
}

/// Self time of the traced pass by layer, as shares of the pass.
fn push_trace_shares(m: &mut Metrics, tr: &Tracer, overhead_ratio: f64) {
    let self_ns = tr.self_ns_by_name();
    let pass_ns: u64 = self_ns.values().sum();
    let of = |names: &[&str]| {
        let ns: u64 = names.iter().filter_map(|n| self_ns.get(n)).sum();
        share(ns, pass_ns)
    };
    m.push("trace.generate_share", of(&["workloads.generate"]), "share");
    m.push("trace.new_share", of(&["core.new"]), "share");
    m.push(
        "trace.run_share",
        of(&["core.run", "core.run_until_retired"]),
        "share",
    );
    m.push(
        "trace.fork_share",
        of(&["core.snapshot", "core.restore", "noc.set_fault_config"]),
        "share",
    );
    m.push("trace.submit_share", of(&["serve.submit"]), "share");
    m.push("trace.wait_share", of(&["serve.wait_done"]), "share");
    m.push("trace.result_share", of(&["serve.result"]), "share");
    m.push("trace.runner_share", of(&["pass"]), "share");
    m.push("trace.overhead_ratio", overhead_ratio, "ratio");
}

type PassResults = Vec<Result<SimReport, CellError>>;

fn campaign_pass(grid: &Grid, opts: &Campaign) -> (f64, PassResults) {
    let t = Instant::now();
    let results = run_units_caught(&grid.units, opts);
    (t.elapsed().as_secs_f64(), results)
}

/// One set-up of a campaign workload: the grid from the seed, then a
/// warm-up over its harshest column (every workload once, on the code
/// paths the faults reach), which must be clean. A whole-grid warm-up
/// warms nothing more and would take the time the timed passes need.
fn campaign_setup(w: &CampaignWorkload, seed: u64, opts: &Campaign) -> Res<Grid> {
    let grid = Grid::build(w.kind, &benchmarks(), seed..seed + 1);
    let warmup = grid.column(grid.harsh_col);
    let results = run_units_caught(&warmup.units, opts);
    let (_, failures) = warmup.check(&results);
    if !failures.is_empty() {
        return Err(format!("warm-up pass failed: {}", failures.join("; ")));
    }
    Ok(grid)
}

pub fn run_campaign(w: &CampaignWorkload, seed: u64, seconds: f64) -> Res<Outcome> {
    let opts = w.opts(w.jobs);
    let mut setups = SpeedAdjusted::new();
    let mut grid = None;
    for _ in 0..SETUPS {
        grid = Some(setups.time(|| campaign_setup(w, seed, &opts))?);
    }
    let grid = grid.expect("SETUPS >= 1");

    let mut out = Outcome::default();
    let mut passes = SpeedAdjusted::new();
    let (mut events, mut cycles, mut slowdown) = (0, 0, None);
    let mut first_fp = None;
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let results: PassResults = passes
            .time_parts(grid.units.chunks(w.part_units), |units| {
                run_units_caught(units, &opts)
            })
            .into_iter()
            .flatten()
            .collect();
        let (reports, failures) = grid.check(&results);
        out.attempted += grid.units.len() as u64;
        out.failed += failures.len() as u64;
        out.problems.extend(failures);
        events = reports.iter().map(|r| r.events).sum::<u64>();
        cycles = reports.iter().map(|r| r.cycles).sum::<u64>();
        if reports.len() == grid.units.len() {
            slowdown = Some(grid.column_geomeans(&reports)[grid.harsh_col - 1]);
        }
        let fp = grid::fingerprint(&results).value();
        if *first_fp.get_or_insert(fp) != fp {
            out.problems.push(format!(
                "pass {} fingerprint {fp:016x} differs from pass 1",
                passes.len()
            ));
        }
    }
    let rss = crate::util::peak_rss_mb(std::process::id())?;
    out.fingerprint = first_fp.expect("MIN_PASSES >= 1");
    if w.jobs > 1 {
        // Worker count must not change a single simulated number.
        let (_, results) = campaign_pass(&grid, &w.opts(1));
        let fp = grid::fingerprint(&results).value();
        if fp != out.fingerprint {
            out.problems.push(format!(
                "jobs:{} fingerprint {:016x} differs from jobs:1 fingerprint {fp:016x}",
                w.jobs, out.fingerprint
            ));
        }
    }

    let wall_s = passes.median_s();
    setups.print("setups");
    passes.print("passes");
    println!(
        "passes {} units {} events {events}",
        passes.len(),
        grid.units.len()
    );
    let raw_s = passes.raw_median_s();
    println!(
        "raw wall_s {raw_s:.6} events_per_s {:.1} (this host's seconds; the metrics are reference-speed)",
        events as f64 / raw_s
    );
    // Simulated, and the same in every pass: the fingerprint covers each
    // unit's cycles.
    if let Some(slowdown) = slowdown {
        println!("sim_slowdown {slowdown:.6}");
    }
    out.metrics.push("setup_s", setups.median_s(), "s");
    out.metrics.push("wall_s", wall_s, "s");
    out.metrics
        .push("events_per_s", events as f64 / wall_s, "1/s");
    out.metrics
        .push("units_per_s", grid.units.len() as f64 / wall_s, "1/s");
    out.metrics.push("peak_rss_mb", rss, "MiB");
    out.metrics.push("sim_cycles", cycles as f64, "cycles");
    Ok(out)
}

/// Traced run of a campaign workload: untraced passes through
/// `run_units_caught` at `jobs: 1` (the traced pass is sequential) take
/// turns with passes the benchmark drives itself, a span around every
/// layer call. The spans of the fastest traced pass are kept; its reports
/// must equal the untraced ones unit for unit.
pub fn trace_campaign(w: &CampaignWorkload, seed: u64) -> Res<(Outcome, TracedCounts, Tracer)> {
    let opts = w.opts(1);
    let grid = campaign_setup(w, seed, &opts)?;
    let mut out = Outcome::default();
    let mut untraced_walls = Vec::new();
    let mut best: Option<(f64, Tracer, PassResults)> = None;
    for _ in 0..TRACE_ROUNDS {
        let (wall, reference) = campaign_pass(&grid, &opts);
        untraced_walls.push(wall);

        let mut tr = Tracer::new();
        let t = Instant::now();
        let traced = grid::traced_pass(&mut tr, &grid.units, w.fork)?;
        let wall = t.elapsed().as_secs_f64();
        if grid::fingerprint(&traced).value() != grid::fingerprint(&reference).value() {
            out.problems
                .push("traced reports differ from the untraced pass".to_string());
        }
        if best.as_ref().is_none_or(|(fastest, _, _)| wall < *fastest) {
            best = Some((wall, tr, traced));
        }
    }
    let (traced_wall, tr, traced) = best.expect("TRACE_ROUNDS >= 1");

    let (reports, failures) = grid.check(&traced);
    out.attempted = grid.units.len() as u64;
    out.failed = failures.len() as u64;
    out.problems.extend(failures);
    if reports.len() != grid.units.len() {
        return Err(format!("traced pass failed: {}", out.problems.join("; ")));
    }
    let fp = grid::fingerprint(&traced);
    out.fingerprint = fp.value();

    SimTotals::of_pass(&grid, &reports, fp).push(&mut out.metrics);
    push_trace_shares(
        &mut out.metrics,
        &tr,
        traced_wall / fastest(&untraced_walls),
    );
    out.metrics.push("serve.job_ms_p50", 0.0, "ms");
    out.metrics.push("serve.job_ms_p90", 0.0, "ms");
    let counts = TracedCounts {
        events: reports.iter().map(|r| r.events).sum(),
        noc_messages: reports.iter().map(|r| r.noc.total_messages()).sum(),
        pass_ns: traced_wall * 1e9,
    };
    Ok((out, counts, tr))
}

/// One set-up of the daemon workload: jobs from the seed, a daemon on a
/// fresh root answering its first `ping`, one connection, warm-up jobs.
fn serve_setup(bin: &Path, root: &Path, seed: u64) -> Res<(f64, Daemon, Client, Vec<Job>)> {
    let t = Instant::now();
    let jobs = daemon::generate_jobs(seed, SERVE_JOBS)?;
    let daemon = Daemon::spawn(bin, root)?;
    let mut client = Client::connect(&daemon.addr)?;
    for (job, trip) in jobs.iter().zip(daemon::run_pass(
        &mut client,
        &jobs[..SERVE_WARMUP_JOBS],
        None,
    )?) {
        daemon::check_summary(job, &trip)?;
    }
    Ok((t.elapsed().as_secs_f64(), daemon, client, jobs))
}

struct ServePass {
    wall_s: f64,
    trips: Vec<JobTrip>,
    results: Vec<JobResult>,
}

fn serve_pass(
    client: &mut Client,
    jobs: &[Job],
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Res<ServePass> {
    let t = Instant::now();
    let trips = daemon::run_pass(client, jobs, tracer)?;
    let wall_s = t.elapsed().as_secs_f64();
    out.attempted += jobs.len() as u64;
    let mut results = Vec::new();
    for (job, trip) in jobs.iter().zip(&trips) {
        match daemon::check_summary(job, trip) {
            Ok(r) => results.push(r),
            Err(e) => {
                out.failed += 1;
                out.problems.push(e);
            }
        }
    }
    Ok(ServePass {
        wall_s,
        trips,
        results,
    })
}

fn check_local_sample(out_dir: &Path, jobs: &[Job], pass: &ServePass, out: &mut Outcome) {
    let sample: Vec<(&Job, &JobTrip)> = jobs
        .iter()
        .zip(&pass.trips)
        .take(SERVE_LOCAL_SAMPLE)
        .collect();
    if let Err(e) = daemon::check_against_local(&out_dir.join("serve-local-check"), &sample) {
        out.problems.push(e);
    }
}

pub fn run_serve(bin: &Path, out_dir: &Path, seed: u64, seconds: f64) -> Res<Outcome> {
    let root = out_dir.join("serve-root");
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        // The previous daemon shuts down (outside the timed set-up)
        // before the next one claims the root.
        drop(live.take());
        let (s, daemon, client, jobs) = serve_setup(bin, &root, seed)?;
        setups.push(s);
        live = Some((daemon, client, jobs));
    }
    let (daemon, mut client, jobs) = live.expect("SETUPS >= 1");

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut last = None;
    let mut first_fp = None;
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let pass = serve_pass(&mut client, &jobs, None, &mut out)?;
        walls.push(pass.wall_s);
        let fp = daemon::fingerprint(&pass.results).value();
        if *first_fp.get_or_insert(fp) != fp {
            out.problems.push(format!(
                "pass {} fingerprint {fp:016x} differs from pass 1",
                walls.len()
            ));
        }
        last = Some(pass);
    }
    let rss = crate::util::peak_rss_mb(daemon.pid())?;
    drop(client);
    drop(daemon);
    let last = last.expect("MIN_PASSES >= 1");
    check_local_sample(out_dir, &jobs, &last, &mut out);
    out.fingerprint = first_fp.expect("MIN_PASSES >= 1");

    let wall_s = median(&walls);
    let events: u64 = last.results.iter().map(|r| r.events).sum();
    let cycles: u64 = last.results.iter().map(|r| r.cycles).sum();
    println!("setups raw_s {setups:.3?}");
    println!("passes raw_s {walls:.3?}");
    println!("passes {} jobs {} events {events}", walls.len(), jobs.len());
    out.metrics.push("setup_s", median(&setups), "s");
    out.metrics.push("wall_s", wall_s, "s");
    out.metrics
        .push("events_per_s", events as f64 / wall_s, "1/s");
    out.metrics
        .push("units_per_s", jobs.len() as f64 / wall_s, "1/s");
    out.metrics.push("peak_rss_mb", rss, "MiB");
    out.metrics.push("sim_cycles", cycles as f64, "cycles");
    Ok(out)
}

/// Traced run of the daemon workload. The spans come from instants every
/// trip takes anyway, so the untraced passes double as the latency
/// sample: [`MIN_PASSES`] passes give 120 job latencies, 12 beyond p90.
pub fn trace_serve(bin: &Path, out_dir: &Path, seed: u64) -> Res<(Outcome, TracedCounts, Tracer)> {
    let mut tr = Tracer::new();
    let (_, daemon, mut client, jobs) = serve_setup(bin, &out_dir.join("serve-root"), seed)?;
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut reference_fp = 0;
    for _ in 1..MIN_PASSES {
        let pass = serve_pass(&mut client, &jobs, None, &mut out)?;
        walls.push(pass.wall_s);
        latencies.extend(pass.trips.iter().map(JobTrip::total_ms));
        reference_fp = daemon::fingerprint(&pass.results).value();
    }
    let t = Instant::now();
    let traced = tr.span("pass", "", |tr| {
        serve_pass(&mut client, &jobs, Some(tr), &mut out)
    })?;
    let pass_ns = t.elapsed().as_nanos() as f64;
    latencies.extend(traced.trips.iter().map(JobTrip::total_ms));
    drop(client);
    drop(daemon);
    check_local_sample(out_dir, &jobs, &traced, &mut out);

    let fp = daemon::fingerprint(&traced.results);
    out.fingerprint = fp.value();
    if fp.value() != reference_fp {
        out.problems
            .push("traced results differ from the untraced pass".to_string());
    }
    // Only what a stored summary carries is visible through the daemon;
    // the `core.*` counters stay 0 here.
    let totals = SimTotals {
        fingerprint: fp.low48(),
        msgs_lost: traced.results.iter().map(|r| r.messages_lost).sum(),
        ..SimTotals::default()
    };
    totals.push(&mut out.metrics);
    push_trace_shares(&mut out.metrics, &tr, traced.wall_s / fastest(&walls));
    out.metrics
        .push("serve.job_ms_p50", median(&latencies), "ms");
    out.metrics
        .push("serve.job_ms_p90", percentile(&latencies, 90.0), "ms");
    let counts = TracedCounts {
        events: traced.results.iter().map(|r| r.events).sum(),
        noc_messages: 0,
        pass_ns,
    };
    Ok((out, counts, tr))
}

fn geomean_row(table: &str) -> Res<Vec<String>> {
    Ok(table
        .lines()
        .find(|l| l.starts_with("GEOMEAN"))
        .ok_or("no GEOMEAN row")?
        .split('|')
        .skip(2)
        .map(|cell| cell.trim().to_string())
        .collect())
}

/// Recomputes Figure 3's GEOMEAN row from this benchmark's own grid at
/// seeds 0..3 and compares it with what the `fig3_execution_time` bin
/// prints at this commit: proves the grid measured here is the grid the
/// bin runs. The copy stored under `results/` is compared too, but only
/// reported: it may predate the commit.
pub fn check_fig3_reference(stored: &Path) -> Res<Vec<String>> {
    let grid = Grid::build(GridKind::Fig3, &benchmarks(), 0..3);
    let opts = Campaign {
        jobs: 2,
        progress: false,
        warmup_checkpoint: None,
    };
    let (_, results) = campaign_pass(&grid, &opts);
    let (reports, failures) = grid.check(&results);
    if !failures.is_empty() {
        return Err(format!("reference grid failed: {}", failures.join("; ")));
    }
    let geomeans = grid.column_geomeans(&reports);
    let got: Vec<String> = geomeans.iter().map(|g| format!("{g:.2}x")).collect();

    let bin = crate::daemon::build_bin("ftdircmp-bench", "fig3_execution_time")?;
    let output = std::process::Command::new(&bin)
        .args(["--seeds", "3", "--jobs", "2"])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("running {}: {e}", bin.display()))?;
    let printed = geomean_row(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if got != printed {
        return Err(format!(
            "fig3 GEOMEAN row {got:?} differs from the fig3_execution_time bin's {printed:?}"
        ));
    }
    // The paper's bounds; beyond them the model is not validated against
    // the GEMS numbers.
    let (ft0, ft2000) = (geomeans[0], geomeans[geomeans.len() - 1]);
    if (ft0 - 1.0).abs() > 0.05 || ft2000 >= 1.5 {
        return Err(format!(
            "fig3 GEOMEAN outside the paper's bounds: Ft-0 {ft0:.3}, Ft-2000 {ft2000:.3}"
        ));
    }
    let mut lines = vec![format!(
        "fig3 GEOMEAN row equals the fig3_execution_time bin's: {}",
        got.join(" ")
    )];
    match std::fs::read_to_string(stored)
        .map_err(|e| e.to_string())
        .and_then(|t| geomean_row(&t))
    {
        Ok(row) if row == got => lines.push(format!("{} agrees", stored.display())),
        Ok(row) => lines.push(format!(
            "NOTE {} is stale: its GEOMEAN row is {}",
            stored.display(),
            row.join(" ")
        )),
        Err(e) => lines.push(format!("NOTE {}: {e}", stored.display())),
    }
    Ok(lines)
}
