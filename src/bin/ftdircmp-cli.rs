//! `ftdircmp-cli` — command-line front end to the simulator.
//!
//! ```text
//! ftdircmp-cli [OPTIONS]
//!
//! Options:
//!   --bench NAME          benchmark from the suite (default: barnes; `list` to enumerate)
//!   --protocol ft|dir     protocol variant (default: ft)
//!   --fault-rate R        lost messages per million (default: 0)
//!   --burst P             burst-continue probability for losses (default: 0 = isolated)
//!   --seed N              master seed (default: 42)
//!   --adaptive            use randomized adaptive routing (unordered network)
//!   --no-migratory        disable the migratory-sharing optimization
//!   --timeout N           base for all detection timeouts, cycles
//!   --serial-bits N       request serial number width
//!   --mesh WxH            mesh dimensions (default 4x4; tiles scale along)
//!   --mlp N               outstanding misses per core (default 1 = blocking)
//!   --ops N               operations per core (default: benchmark-specific)
//!   --trace-line HEX      print every event touching the given line(s)
//!   --dump-trace FILE     write the generated workload trace to FILE and exit
//!   --trace-file FILE     run a workload from a trace file instead of --bench
//!   --summary-only        print only the one-line result
//! ```
//!
//! Example:
//!
//! ```text
//! cargo run --release --bin ftdircmp-cli -- --bench ocean --fault-rate 2000
//! ```

use ftdircmp::{workloads, FaultConfig, System, SystemConfig};

struct Args {
    flags: Vec<String>,
}

impl Args {
    fn new() -> Self {
        Args {
            flags: std::env::args().skip(1).collect(),
        }
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.flags.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for {name}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|a| a == name)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::new();

    let bench = args.value("--bench").unwrap_or("barnes").to_string();
    if bench == "list" {
        println!("available benchmarks:");
        for s in workloads::suite() {
            println!("  {}", s.name);
        }
        return Ok(());
    }
    let seed: u64 = args.parsed("--seed", 42)?;
    let mut config = SystemConfig {
        protocol: args.value("--protocol").unwrap_or("ft").parse()?,
        ..SystemConfig::default()
    }
    .with_seed(seed);

    let rate: f64 = args.parsed("--fault-rate", 0.0)?;
    let burst: f64 = args.parsed("--burst", 0.0)?;
    if rate > 0.0 {
        config.mesh.faults = if burst > 0.0 {
            FaultConfig::bursts(rate, burst, 16)
        } else {
            FaultConfig::per_million(rate)
        };
        config.watchdog_cycles = 5_000_000;
    }
    if args.has("--adaptive") {
        config = config.with_adaptive_routing();
    }
    if args.has("--no-migratory") {
        config.migratory_sharing = false;
    }
    if let Some(t) = args.value("--timeout") {
        let t: u64 = t.parse()?;
        config.ft.lost_request_timeout = t;
        config.ft.lost_unblock_timeout = t;
        config.ft.lost_ackbd_timeout = t * 2 / 3;
        config.ft.lost_data_timeout = t * 2;
    }
    if let Some(b) = args.value("--serial-bits") {
        config.ft.serial_bits = b.parse()?;
    }
    if let Some(mlp) = args.value("--mlp") {
        config.max_outstanding_misses = mlp.parse()?;
    }
    if let Some(mesh) = args.value("--mesh") {
        let (w, h) = mesh
            .split_once('x')
            .ok_or("expected --mesh WxH, e.g. 4x4")?;
        config = config.with_mesh(w.parse()?, h.parse()?);
    }
    if let Some(lines) = args.value("--trace-line") {
        std::env::set_var("FTDIRCMP_TRACE_LINE", lines);
    }

    let wl = if let Some(path) = args.value("--trace-file") {
        ftdircmp::core_protocol::trace_io::read_file(path)?
    } else {
        let mut spec = workloads::WorkloadSpec::named(&bench)
            .ok_or_else(|| format!("unknown benchmark {bench:?} (try --bench list)"))?;
        if let Some(ops) = args.value("--ops") {
            spec.ops_per_core = ops.parse()?;
        }
        spec.generate(config.tiles, seed)
    };
    if let Some(path) = args.value("--dump-trace") {
        ftdircmp::core_protocol::trace_io::write_file(&wl, path)?;
        println!(
            "wrote {} ({} cores, {} memory ops)",
            path,
            wl.traces.len(),
            wl.total_mem_ops()
        );
        return Ok(());
    }
    let report = System::run_workload(config, &wl)?;

    if args.has("--summary-only") {
        println!(
            "{} {} cycles={} msgs={} bytes={} lost={} violations={}",
            report.workload,
            report.protocol,
            report.cycles,
            report.stats.total_messages(),
            report.stats.total_bytes(),
            report.messages_lost,
            report.violations.len()
        );
    } else {
        print!("{}", report.render_summary());
    }
    if !report.violations.is_empty() {
        return Err("coherence violations detected".into());
    }
    Ok(())
}
