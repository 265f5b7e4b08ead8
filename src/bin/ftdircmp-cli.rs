//! `ftdircmp-cli` — command-line front end to the simulator.
//!
//! ```text
//! ftdircmp-cli [--bench NAME|list] [--ops N] [--trace-line HEX] [--dump-trace FILE]
//!              [--trace-file FILE] [--summary-only] [--KEY VALUE ...]
//! ```
//!
//! `--bench` picks a suite benchmark (default barnes), `--ops` its operations
//! per core; `--trace-line` prints every event touching the given line(s);
//! `--dump-trace` writes the generated trace and exits; `--trace-file` runs a
//! trace file instead. Every other `--key value` sets key `key`, `-` read as
//! `_`, of the run's config document (`SystemConfig::from_json`): e.g.
//! `--protocol dir`, `--fault-rate 2000`, `--mesh 8x4`, `--routing adaptive`
//! or `--fault-classes '["ping"]'`. A value is JSON if it parses as JSON,
//! else a string. The document starts as `{"seed":42}`; a faulty run without
//! `--watchdog-cycles` gets a 5 000 000-cycle watchdog. A config the flags
//! cannot make, an unknown benchmark, a malformed `--ops` or a trace file
//! that cannot be read or written exits with status 2, naming the flag (and
//! the path).
//!
//! ```text
//! cargo run --release --bin ftdircmp-cli -- --bench ocean --fault-rate 2000
//! ```

use ftdircmp::core_protocol::tracelog::StderrSink;
use ftdircmp::core_protocol::{json::Json, print_stdout, trace_io};
use ftdircmp::{workloads, System, SystemConfig};

/// The CLI's own flags; every other `--key value` patches the config.
const RUN_FLAGS: &str = "--bench --ops --trace-line --dump-trace --trace-file";

/// Prints a usage error naming `flag` and exits with status 2.
fn usage_error(flag: &str, message: impl std::fmt::Display) -> ! {
    eprintln!("error: {flag}: {message}");
    std::process::exit(2)
}

/// The config `(flag, key, value)` patches make; an error names the first
/// flag the document cannot take.
fn config(patches: &[(String, String, Json)]) -> SystemConfig {
    let read = |n: usize| {
        let pairs = patches[..n].iter().map(|(_, k, v)| (k.clone(), v.clone()));
        SystemConfig::from_json(&Json::Obj(pairs.collect()))
    };
    read(patches.len()).unwrap_or_else(|e| {
        let bad = (1..patches.len()).find(|&n| read(n).is_err());
        usage_error(&patches[bad.unwrap_or(patches.len()) - 1].0, e)
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut run = std::collections::HashMap::new();
    let mut patches = vec![("--seed".into(), "seed".into(), Json::num_u64(42))];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--summary-only" {
            run.insert(flag, String::new());
            continue;
        }
        let Some(key) = flag.strip_prefix("--") else {
            usage_error(&flag, "expected a --flag")
        };
        let value = args
            .next()
            .unwrap_or_else(|| usage_error(&flag, "expected a value"));
        if RUN_FLAGS.split(' ').any(|f| f == flag) {
            run.insert(flag, value);
        } else {
            let key = key.replace('-', "_");
            patches.push((flag, key, Json::parse(&value).unwrap_or(Json::Str(value))));
        }
    }
    let value = |name: &str| run.get(name).map(String::as_str);

    let bench = value("--bench").unwrap_or("barnes");
    if bench == "list" {
        let names: Vec<&str> = workloads::suite().iter().map(|s| s.name).collect();
        let names = names.join("\n  ");
        print_stdout(&format!("available benchmarks:\n  {names}\n"));
        return Ok(());
    }
    let mut config = config(&patches);
    if config.mesh.faults.is_faulty() && !patches.iter().any(|(_, k, _)| k == "watchdog_cycles") {
        config.watchdog_cycles = 5_000_000;
    }
    let trace_lines = value("--trace-line")
        .map(|raw| StderrSink::parse_lines(raw).unwrap_or_else(|e| usage_error("--trace-line", e)));

    let wl = if let Some(path) = value("--trace-file") {
        trace_io::read_file(path)
            .unwrap_or_else(|e| usage_error("--trace-file", format!("{path}: {e}")))
    } else {
        let mut spec = workloads::WorkloadSpec::named(bench).unwrap_or_else(|| {
            usage_error(
                "--bench",
                format!("unknown benchmark {bench} (try --bench list)"),
            )
        });
        if let Some(ops) = value("--ops") {
            spec.ops_per_core = ops
                .parse()
                .unwrap_or_else(|e| usage_error("--ops", format!("{ops:?}: {e}")));
        }
        spec.generate(config.tiles, config.seed)
    };
    if let Some(path) = value("--dump-trace") {
        trace_io::write_file(&wl, path)
            .unwrap_or_else(|e| usage_error("--dump-trace", format!("{path}: {e}")));
        let (cores, ops) = (wl.traces.len(), wl.total_mem_ops());
        print_stdout(&format!("wrote {path} ({cores} cores, {ops} memory ops)\n"));
        return Ok(());
    }
    let mut system = System::new(config, &wl)?;
    if let Some(lines) = trace_lines {
        system.set_trace_sink(Box::new(StderrSink::for_lines(lines)));
    }
    let report = system.run()?;

    print_stdout(&if value("--summary-only").is_some() {
        format!(
            "{} {} cycles={} msgs={} bytes={} lost={} violations={}\n",
            report.workload,
            report.protocol,
            report.cycles,
            report.stats.total_messages(),
            report.stats.total_bytes(),
            report.messages_lost,
            report.violations.len()
        )
    } else {
        report.render_summary()
    });
    if !report.violations.is_empty() {
        return Err("coherence violations detected".into());
    }
    Ok(())
}
