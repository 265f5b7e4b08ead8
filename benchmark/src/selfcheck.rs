//! The modes that run more than one workload: the full set (every
//! workload untraced, then traced) and `--selfcheck`, which measures two
//! full sets back to back the way the benchmark is judged — several seeds
//! per workload, the quartile spread of each end-to-end metric against its
//! bound, the second median against the first — and checks that every
//! exact metric repeats.
//!
//! Each workload runs in a child process of its own, so `peak_rss_mb` is
//! the workload's and nothing leaks from one into the next.

use std::process::{Command, Stdio};

use ftdircmp_serve::json::Json;

use crate::util::{median, Res};
use crate::{contract, workloads, Args, Contract};

/// Per-layer metrics that are simulated results or exact counts: for a
/// given seed they must read the same on every run and on every commit
/// that only changes host speed.
const EXACT: [&str; 14] = [
    "sim.slowdown",
    "sim.fingerprint",
    "noc.msgs_lost",
    "noc.mean_link_util",
    "noc.drop_share_lottery",
    "noc.drop_share_domains",
    "core.l1_miss_share",
    "core.l2_miss_share",
    "core.miss_latency_mean_cycles",
    "core.msgs_total",
    "core.bytes_total",
    "core.timeouts",
    "core.reissues",
    "core.ttr_mean_cycles",
];

struct ChildRun {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
    stdout: String,
}

impl ChildRun {
    /// The printed `sim_fingerprint`: equal between two runs when every
    /// unit's cycles, events, messages, bytes, losses and timeouts are.
    fn fingerprint(&self) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with("sim_fingerprint "))
            .unwrap_or("no sim_fingerprint line")
    }

    fn get(&self, name: &str) -> Res<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("child run printed no {name}"))
    }
}

/// Runs this program again for one workload and parses its result line.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Res<ChildRun> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args(args.child_args(workload, seed, trace))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed} trace {}: no result line ({}): {e}\n{stdout}",
            u8::from(trace),
            output.status
        )
    })?;
    let metrics = match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload}: result line has no metrics")),
    };
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        failed: result
            .get("failed")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX),
        metrics,
        stdout,
    })
}

/// Every workload once untraced and once traced, everything printed.
pub fn full_set(args: &Args) -> Res<bool> {
    let contract = contract()?;
    let mut correct = true;
    for workload in &contract.workloads {
        let untraced = child(args, workload, args.seed, false)?;
        print!("{}", untraced.stdout);
        let traced = child(args, workload, args.seed, true)?;
        print!("{}", traced.stdout);
        correct &= untraced.correct && traced.correct;
        if untraced.fingerprint() != traced.fingerprint() {
            println!("PROBLEM {workload}: traced and untraced runs simulated different things");
            correct = false;
        }
    }
    if args.seed == 0 {
        match workloads::check_fig3_reference("results/fig3_execution_time.txt".as_ref()) {
            Ok(lines) => lines.iter().for_each(|line| println!("{line}")),
            Err(e) => {
                println!("PROBLEM {e}");
                correct = false;
            }
        }
    }
    println!("full set {}", if correct { "correct" } else { "INCORRECT" });
    Ok(correct)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Seeds per workload in each set: the ten the benchmark is judged over.
const RUNS: u64 = 10;

/// One set: per workload, [`RUNS`] untraced readings over consecutive
/// seeds and one traced reading at the first seed.
struct Set {
    untraced: Vec<Vec<ChildRun>>,
    traced: Vec<ChildRun>,
}

fn measure_set(args: &Args, contract: &Contract, label: &str) -> Res<Set> {
    let mut set = Set {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    for workload in &contract.workloads {
        let mut runs = Vec::new();
        for i in 0..RUNS {
            let run = child(args, workload, args.seed + i, false)?;
            println!(
                "set {label} {workload} seed {} wall_s {:.4} setup_s {:.4}",
                args.seed + i,
                run.get("wall_s")?,
                run.get("setup_s")?
            );
            runs.push(run);
        }
        set.untraced.push(runs);
        set.traced.push(child(args, workload, args.seed, true)?);
        println!("set {label} {workload} traced");
    }
    Ok(set)
}

pub fn selfcheck(args: &Args) -> Res<bool> {
    let contract = contract()?;
    let a = measure_set(args, &contract, "A")?;
    let b = measure_set(args, &contract, "B")?;
    let mut ok = true;

    println!(
        "\n{:<17} {:<13} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound"
    );
    for (w, workload) in contract.workloads.iter().enumerate() {
        for (name, higher_better, bound) in &contract.end_to_end {
            let values = |set: &Set| -> Res<Vec<f64>> {
                set.untraced[w].iter().map(|r| r.get(name)).collect()
            };
            let (va, vb) = (values(&a)?, values(&b)?);
            let (ma, mb) = (median(&va), median(&vb));
            let spread = |v: &[f64], m: f64| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / m
            };
            let (sa, sb) = (spread(&va, ma), spread(&vb, mb));
            // How much worse the second set's median is than the first's.
            let gap = if *higher_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            // The driver holds every spread but set-up's against its bound.
            let spread_ok = name == "setup_s" || (sa <= *bound && sb <= *bound);
            let verdict = if gap > *bound {
                "GAP"
            } else if !spread_ok {
                "SPREAD"
            } else {
                ""
            };
            ok &= verdict.is_empty();
            println!(
                "{workload:<17} {name:<13} {ma:>13.5} {mb:>13.5} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}% {verdict}",
                sa * 100.0,
                sb * 100.0,
                gap * 100.0,
                bound * 100.0
            );
        }
    }

    for (w, workload) in contract.workloads.iter().enumerate() {
        for name in EXACT {
            let (va, vb) = (a.traced[w].get(name)?, b.traced[w].get(name)?);
            if va.to_bits() != vb.to_bits() {
                println!("EXACT {workload} {name} differs: {va} vs {vb}");
                ok = false;
            }
        }
        // The same seed must simulate the same thing in both sets.
        for (ra, rb) in a.untraced[w].iter().zip(&b.untraced[w]) {
            let (ca, cb) = (ra.get("sim_cycles")?, rb.get("sim_cycles")?);
            if ca.to_bits() != cb.to_bits() || ra.fingerprint() != rb.fingerprint() {
                println!(
                    "EXACT {workload} sim_cycles {ca} vs {cb}, {} vs {}",
                    ra.fingerprint(),
                    rb.fingerprint()
                );
                ok = false;
            }
        }
        for run in a.untraced[w]
            .iter()
            .chain(&b.untraced[w])
            .chain([&a.traced[w], &b.traced[w]])
        {
            if !run.correct || run.failed != 0 {
                println!("INCORRECT {workload}: a run failed its checks or operations");
                ok = false;
            }
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
