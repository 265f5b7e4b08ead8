//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ftdircmp-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! ftdircmp-benchmark [--seed N] [--seconds S]                           every workload, untraced then traced
//! ftdircmp-benchmark --selfcheck [--seed N] [--seconds S]             two full sets, compared
//! ```
//!
//! One run prints every metric it measured by name with its unit, then,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It exits
//! non-zero if any correctness check failed.

mod daemon;
mod grid;
mod probes;
mod selfcheck;
mod trace;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ftdircmp_serve::json::Json;

use crate::util::Res;
use crate::workloads::{Outcome, CAMPAIGNS, SERVE};

/// Environment switches that silently change what the simulator or the
/// campaign runner does; a reading taken under one would not be
/// comparable with any other.
const FORBIDDEN_ENV: [&str; 3] = [
    "FTDIRCMP_TRACE_LINE",
    "FTDIRCMP_JOBS",
    "FTDIRCMP_WARMUP_CHECKPOINT",
];

/// Seeds are folded below this before use, so that the `1000 + seed` the
/// campaign runner computes cannot overflow.
const SEED_SPACE: u64 = 1 << 32;

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 0.0,
        trace: false,
        selfcheck: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed: bad integer {v:?}"))?
                    % SEED_SPACE;
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: bad duration {v:?}"))?,
                );
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seconds = match seconds {
        Some(s) => s,
        None => contract()?.run_seconds,
    };
    Ok(args)
}

/// What `BENCHMARK.json` declares; the program checks its own output
/// against it, so the two cannot drift apart.
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// `(name, higher is better, bound)`.
    pub end_to_end: Vec<(String, bool, f64)>,
    pub per_layer: Vec<String>,
}

pub fn contract() -> Res<Contract> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
    };
    let name = |v: &Json| {
        v.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("BENCHMARK.json: entry without a name")
    };
    Ok(Contract {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(name)
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|v| {
                let better = v.get("better").and_then(Json::as_str);
                let bound = v.get("bound").and_then(Json::as_f64);
                match (better, bound) {
                    (Some(b @ ("higher" | "lower")), Some(bound)) => {
                        Ok((name(v)?, b == "higher", bound))
                    }
                    _ => Err(format!("BENCHMARK.json: bad end_to_end entry {v}")),
                }
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(name)
            .collect::<Result<_, _>>()?,
    })
}

fn out_dir() -> Res<PathBuf> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("run from the repository root (no benchmark/Cargo.toml here)".to_string());
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One run of one workload.
fn run_one(args: &Args, workload: &str) -> Res<Outcome> {
    let out_dir = out_dir()?;
    println!(
        "workload {workload} seed {} trace {}",
        args.seed,
        u8::from(args.trace)
    );
    println!("{}", util::host_facts(&out_dir));
    let campaign = CAMPAIGNS.iter().find(|w| w.name == workload);
    if campaign.is_none() && workload != SERVE {
        return Err(format!("unknown workload {workload:?}"));
    }

    if !args.trace {
        let Some(w) = campaign else {
            let bin = daemon::build_serve_bin()?;
            return workloads::run_serve(&bin, &out_dir, args.seed, args.seconds);
        };
        return workloads::run_campaign(w, args.seed, args.seconds);
    }

    // Every traced run also runs the layer probes, the daemon's among them.
    let bin = daemon::build_serve_bin()?;
    let (mut out, counts, tracer) = match campaign {
        Some(w) => workloads::trace_campaign(w, args.seed)?,
        None => workloads::trace_serve(&bin, &out_dir, args.seed)?,
    };
    let trace_path = out_dir.join("trace.json");
    std::fs::write(
        &trace_path,
        format!("{}\n", tracer.to_json(workload, args.seed)),
    )
    .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!(
        "trace {} spans -> {}",
        tracer.span_count(),
        trace_path.display()
    );

    probes::run_all(&mut out.metrics, &bin, &out_dir, args.seed)?;
    // Estimates, not measurements: a probe's cost per operation times the
    // operations the traced pass counted, over the pass's wall time.
    let probe = |name: &str| out.metrics.get(name).expect("probe ran");
    let queue_ns = probe("sim.queue_ns_per_op") * counts.events as f64;
    let noc_ns = probe("noc.send_ns_clean") * counts.noc_messages as f64;
    out.metrics
        .push("est.queue_share", queue_ns / counts.pass_ns, "share");
    out.metrics
        .push("est.noc_share", noc_ns / counts.pass_ns, "share");
    Ok(out)
}

/// Checks the run's metric names against `BENCHMARK.json`, prints the
/// metrics and the result line.
fn report(args: &Args, workload: &str, mut out: Outcome) -> Res<bool> {
    let contract = contract()?;
    if !contract.workloads.iter().any(|w| w == workload) {
        out.problems
            .push(format!("BENCHMARK.json does not list workload {workload}"));
    }
    let declared: Vec<&str> = if args.trace {
        contract.per_layer.iter().map(String::as_str).collect()
    } else {
        contract.end_to_end.iter().map(|e| e.0.as_str()).collect()
    };
    let measured: Vec<&str> = out.metrics.0.iter().map(|m| m.0.as_str()).collect();
    let unmeasured: Vec<&&str> = declared.iter().filter(|d| !measured.contains(d)).collect();
    let undeclared: Vec<&&str> = measured.iter().filter(|m| !declared.contains(m)).collect();
    if !(unmeasured.is_empty() && undeclared.is_empty()) {
        out.problems.push(format!(
            "metrics differ from BENCHMARK.json: declared but not measured {unmeasured:?}, \
             measured but not declared {undeclared:?}"
        ));
    }

    out.metrics.print();
    println!("sim_fingerprint {:016x}", out.fingerprint);
    println!(
        "failed_share {:.6} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        println!("PROBLEM {p}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num_u64(out.attempted.max(1))),
            ("failed", Json::num_u64(out.failed)),
            ("metrics", out.metrics.to_json()),
        ])
    );
    Ok(correct)
}

fn run() -> Res<bool> {
    let args = parse_args()?;
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it, it changes what is measured"
            ));
        }
    }
    match &args.workload {
        Some(workload) => {
            let out = run_one(&args, workload)?;
            report(&args, workload, out)
        }
        None if args.selfcheck => selfcheck::selfcheck(&args),
        None => selfcheck::full_set(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ftdircmp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

impl Args {
    /// The command line of a child run of `workload` under these settings.
    pub fn child_args(&self, workload: &str, seed: u64, trace: bool) -> Vec<String> {
        vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(trace).to_string(),
        ]
    }
}
