//! Protocol exploration CLI: guided fault-schedule search with schedule
//! perturbation and a minimizing shrinker (DESIGN.md §9).
//!
//! ```text
//! ftdircmp-explore explore [--smoke] [--protocol ft|dircmp]
//!                          [--workloads a,b,c] [--schedule-seeds N]
//!                          [--budget N] [--shrink-runs N] [--jobs N]
//!                          [--out DIR]
//! ftdircmp-explore replay FILE.json
//! ```
//!
//! A flag `explore` does not take, and a `replay` without exactly one
//! readable repro file, exits with status 2. `explore` exits
//! nonzero if any failure was found (CI runs `--smoke`
//! against FtDirCMP and asserts a clean sweep); `replay` exits zero only
//! if the repro file (one JSON object, see `repro.rs`) still reproduces
//! its recorded failure kind.

use std::path::PathBuf;
use std::process::ExitCode;

use ftdircmp_bench::BenchArgs;
use ftdircmp_core::print_stdout;
use ftdircmp_explore::repro::read_repro;
use ftdircmp_explore::{explore, ExploreOptions};
use ftdircmp_workloads::{suite, WorkloadSpec};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("explore") => cmd_explore(&argv[2..]),
        Some("replay") => cmd_replay(&argv[2..]),
        _ => {
            eprintln!("usage: ftdircmp-explore explore [flags] | replay FILE.json");
            eprintln!("flags: --smoke --protocol ft|dircmp --workloads a,b,c");
            eprintln!("       --schedule-seeds N --budget N --shrink-runs N");
            eprintln!("       --jobs N --out DIR");
            ExitCode::from(2)
        }
    }
}

/// The flags `explore` takes.
const FLAGS: [&str; 8] = [
    "--smoke",
    "--protocol",
    "--workloads",
    "--schedule-seeds",
    "--budget",
    "--shrink-runs",
    "--jobs",
    "--out",
];

fn cmd_explore(argv: &[String]) -> ExitCode {
    let args = BenchArgs::from_vec(argv.to_vec());
    args.positionals(&FLAGS).unwrap_or_else(|e| e.exit());
    let smoke = args.has("--smoke");
    let protocol = match args.value_of("--protocol").unwrap_or("ft").parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--protocol: {e}");
            return ExitCode::from(2);
        }
    };

    let mut opts = ExploreOptions::new(protocol);
    opts.jobs = args.jobs().unwrap_or_else(|e| e.exit());
    opts.progress = true;
    if let Some(names) = args.value_of("--workloads") {
        let mut specs = Vec::new();
        for name in names.split(',').filter(|n| !n.is_empty()) {
            if let Some(s) = WorkloadSpec::named(name) {
                specs.push(s);
            } else {
                eprintln!(
                    "unknown workload {name:?}; available: {}",
                    suite()
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::from(2);
            }
        }
        opts.specs = specs;
    }
    let count = |name, default: usize| {
        args.u64_flag(name, default as u64)
            .unwrap_or_else(|e| e.exit())
    };
    opts.schedule_seeds =
        (0..count("--schedule-seeds", opts.schedule_seeds.len()).max(1)).collect();
    opts.drop_budget = count("--budget", opts.drop_budget) as usize;
    opts.shrink_runs = count("--shrink-runs", opts.shrink_runs) as usize;
    opts.out_dir = Some(
        args.value_of("--out")
            .map_or_else(|| PathBuf::from("results/repros"), PathBuf::from),
    );
    if smoke {
        // Fixed small campaign for CI: 2 workloads at reduced size, seeds
        // {0, 1}, modest budget. FtDirCMP must survive every cell.
        for spec in &mut opts.specs {
            spec.ops_per_core = spec.ops_per_core.min(150);
        }
        opts.drop_budget = opts.drop_budget.min(12);
        opts.schedule_seeds = vec![0, 1];
    }

    eprintln!(
        "[explore] {} | {} workload(s) x {} schedule seed(s), budget {} drops/cell, {} job(s)",
        opts.config.protocol,
        opts.specs.len(),
        opts.schedule_seeds.len(),
        opts.drop_budget,
        opts.jobs
    );
    let report = explore(&opts);
    let mut out = format!(
        "explored {} reference + {} faulty runs: {} failing cell(s), {} minimized repro(s)\n",
        report.reference_runs,
        report.fault_runs,
        report.failing_cells,
        report.failures.len()
    );
    for f in &report.failures {
        out += &format!(
            "  {} ss={} drops {:?} -> {:?} ({} probe runs, {} -> {} ops): {}\n",
            f.workload,
            f.schedule_seed,
            f.original_drops,
            f.repro.drops(),
            f.shrink.probe_runs,
            f.shrink.ops_before,
            f.shrink.ops_after,
            f.failure.detail
        );
    }
    for p in &report.repro_paths {
        out += &format!("  repro: {}\n", p.display());
    }
    print_stdout(&out);
    if report.failing_cells > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_replay(argv: &[String]) -> ExitCode {
    let [path] = argv else {
        let got = argv.len();
        eprintln!("error: replay: expected one FILE.json, got {got} arguments");
        eprintln!("usage: ftdircmp-explore replay FILE.json");
        return ExitCode::from(2);
    };
    let repro = match read_repro(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: replay: {e}");
            return ExitCode::from(2);
        }
    };
    print_stdout(&format!(
        "replaying {path}: {} workload {:?}, schedule seed {}, drops {:?}, expecting {}\n",
        repro.config.protocol.name(),
        repro.workload.name,
        repro.config.schedule_seed,
        repro.drops(),
        repro.failure
    ));
    match repro.replay() {
        Some(f) if f.kind == repro.failure => {
            print_stdout(&format!("reproduced: {}\n", f.detail));
            ExitCode::SUCCESS
        }
        Some(f) => {
            print_stdout(&format!(
                "failure kind changed: recorded {}, observed {} ({})\n",
                repro.failure, f.kind, f.detail
            ));
            ExitCode::FAILURE
        }
        None => {
            print_stdout("did not reproduce: run completed cleanly\n");
            ExitCode::FAILURE
        }
    }
}
