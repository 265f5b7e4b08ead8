//! Quantifies the paper's §5 argument: checkpoint/rollback schemes
//! (ReVive, SafetyNet) pay overhead even without faults, while FtDirCMP's
//! fault-free overhead is ≈ 0 and its per-fault cost is a localized retry
//! rather than a rollback.
//!
//! FtDirCMP's column is *measured* (simulated); the checkpoint column is
//! the Young/Daly analytical optimum fed with the same run's message
//! throughput (see `ftdircmp_bench::checkpoint`).
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin ext_checkpoint_comparison [-- --seeds N --jobs N]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::checkpoint::{rate_per_cycle, CheckpointModel};
use ftdircmp_bench::{geomean_ratio, mean, BenchArgs};
use ftdircmp_core::SystemConfig;
use ftdircmp_stats::table::{times, Table};
use ftdircmp_workloads::WorkloadSpec;

const RATES: [f64; 5] = [0.0, 125.0, 500.0, 1000.0, 2000.0];

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    let spec = WorkloadSpec::named("ocean").expect("in suite");
    let model = CheckpointModel::default();
    println!(
        "Checkpoint/rollback vs. FtDirCMP (benchmark {}, {seeds} seeds).\n\
         Checkpoint column: Young-optimal analytical model (cost {:.0} cycles,\n\
         detection {:.0}, restore {:.0}); FtDirCMP column: measured.\n",
        spec.name, model.checkpoint_cost, model.detection_latency, model.restore_cost
    );

    // Cell 0: DirCMP baseline; then one FtDirCMP cell per fault rate.
    let mut cells = vec![Cell::new(
        format!("{}/dircmp", spec.name),
        spec.clone(),
        SystemConfig::dircmp(),
        seeds,
    )];
    for rate in RATES {
        let mut cfg = SystemConfig::ftdircmp().with_fault_rate(rate);
        cfg.watchdog_cycles = 3_000_000;
        cells.push(Cell::new(
            format!("{}/ft-{rate:.0}", spec.name),
            spec.clone(),
            cfg,
            seeds,
        ));
    }
    let results = run_campaign(&cells, &opts);

    let base = &results[0];
    let base_cycles = mean(base, |r| r.cycles as f64) as u64;
    let base_msgs = mean(base, |r| r.stats.total_messages() as f64) as u64;

    let mut t = Table::with_columns(&[
        "lost msgs/million",
        "faults/Mcycle",
        "checkpoint (model)",
        "FtDirCMP (measured)",
    ]);
    for (ri, rate) in RATES.iter().enumerate() {
        let ft = &results[ri + 1];
        let measured = geomean_ratio(ft, base, |r| r.cycles as f64);
        let per_cycle = rate_per_cycle(*rate, base_msgs, base_cycles);
        let model_time = model.optimal_relative_time(per_cycle);
        t.row(vec![
            format!("{rate:.0}"),
            format!("{:.2}", per_cycle * 1e6),
            times(model_time),
            times(measured),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Reading: the checkpoint machine pays its flush cost even at rate 0 and\n\
         loses half an interval per fault; FtDirCMP pays ≈ nothing fault-free\n\
         and only a localized timeout+retry per fault — the quantitative form\n\
         of the paper's §5 comparison."
    );
}
