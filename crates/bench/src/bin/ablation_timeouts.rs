//! Experiment E9 — ablation of the fault-detection timeout values
//! (the trade-off the paper discusses in §4.2: "shortening the fault
//! detection timeouts can reduce performance degradation when faults happen
//! but at the risk of increasing the number of false positives").
//!
//! Sweeps the lost-request/lost-unblock timeout base across a fault-free
//! and a faulty network and reports execution time, false positives and
//! recovery traffic.
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin ablation_timeouts [-- --seeds N --jobs N]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{geomean_ratio, mean, BenchArgs};
use ftdircmp_core::{SimReport, SystemConfig};
use ftdircmp_stats::table::{times, Table};
use ftdircmp_workloads::WorkloadSpec;

const TIMEOUTS: [u64; 6] = [300, 600, 1200, 2400, 4800, 9600];
const RATES: [f64; 2] = [0.0, 1000.0];

fn timeout_config(rate: f64, timeout: u64) -> SystemConfig {
    let mut cfg = SystemConfig::ftdircmp().with_fault_rate(rate);
    cfg.ft.lost_request_timeout = timeout;
    cfg.ft.lost_unblock_timeout = timeout;
    cfg.ft.lost_ackbd_timeout = (timeout * 2 / 3).max(50);
    cfg.ft.lost_data_timeout = timeout * 2;
    cfg.watchdog_cycles = 4_000_000;
    cfg
}

fn render(spec: &WorkloadSpec, rate: f64, baseline: &[SimReport], sweeps: &[Vec<SimReport>]) {
    println!("benchmark {} at {rate:.0} lost msgs/million:\n", spec.name);
    let mut t = Table::with_columns(&[
        "timeout base",
        "rel. exec. time",
        "timeouts fired",
        "false positives",
        "ping msgs",
    ]);
    for (timeout, runs) in TIMEOUTS.iter().zip(sweeps) {
        t.row(vec![
            format!("{timeout}"),
            times(geomean_ratio(runs, baseline, |r| r.cycles as f64)),
            format!("{:.0}", mean(runs, |r| r.stats.total_timeouts() as f64)),
            format!(
                "{:.0}",
                mean(runs, |r| r.stats.false_positives.get() as f64)
            ),
            format!(
                "{:.0}",
                mean(runs, |r| {
                    r.stats.messages_by_class(ftdircmp_noc::VcClass::Ping) as f64
                })
            ),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    println!(
        "Ablation E9: fault-detection timeout length vs. performance and false\n\
         positives (relative to the default-timeout fault-free run).\n"
    );
    let spec = WorkloadSpec::named("unstructured").expect("in suite");

    // Per rate: one default-timeout baseline cell plus one cell per timeout.
    let mut cells = Vec::new();
    for rate in RATES {
        cells.push(Cell::new(
            format!("{}/baseline-{rate:.0}", spec.name),
            spec.clone(),
            SystemConfig::ftdircmp(),
            seeds,
        ));
        for timeout in TIMEOUTS {
            cells.push(Cell::new(
                format!("{}/t{timeout}-{rate:.0}", spec.name),
                spec.clone(),
                timeout_config(rate, timeout),
                seeds,
            ));
        }
    }
    let results = run_campaign(&cells, &opts);

    let cols = 1 + TIMEOUTS.len();
    for (ri, rate) in RATES.iter().enumerate() {
        let baseline = &results[ri * cols];
        let sweeps = &results[ri * cols + 1..(ri + 1) * cols];
        render(&spec, *rate, baseline, sweeps);
    }
    println!(
        "Shape to observe (paper §4.2): with faults, short timeouts recover\n\
         faster but below the service latency they only add false positives;\n\
         very long timeouts leave cores blocked longer per fault."
    );
}
