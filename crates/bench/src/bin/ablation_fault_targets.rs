//! Per-class fault-vulnerability study: losses targeted at one message
//! class at a time, isolating which recovery mechanism (Table 3) covers
//! which traffic — an extension of the paper's uniform-loss fault model.
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin ablation_fault_targets [-- --seeds N --jobs N]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{geomean_ratio, mean, BenchArgs};
use ftdircmp_core::{SystemConfig, TimeoutKind};
use ftdircmp_noc::{FaultConfig, VcClass};
use ftdircmp_stats::table::{times, Table};
use ftdircmp_workloads::WorkloadSpec;

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    let rate = 5000.0;
    let spec = WorkloadSpec::named("barnes").expect("in suite");
    println!(
        "Targeted-loss ablation: {rate:.0} lost msgs/million aimed at ONE class\n\
         (benchmark {}, {seeds} seeds; relative to the fault-free run).\n",
        spec.name
    );

    // Cell 0: fault-free baseline; then one targeted-loss cell per class.
    let mut cells = vec![Cell::new(
        format!("{}/baseline", spec.name),
        spec.clone(),
        SystemConfig::ftdircmp(),
        seeds,
    )];
    for class in VcClass::ALL {
        let mut cfg = SystemConfig::ftdircmp();
        cfg.mesh.faults = FaultConfig::targeting(rate, vec![class]);
        cfg.watchdog_cycles = 4_000_000;
        cells.push(Cell::new(
            format!("{}/target-{}", spec.name, class.label()),
            spec.clone(),
            cfg,
            seeds,
        ));
    }
    let results = run_campaign(&cells, &opts);
    let baseline = &results[0];

    let mut t = Table::with_columns(&[
        "targeted class",
        "rel. exec. time",
        "lost",
        "lost-request",
        "lost-unblock",
        "lost-ackbd",
        "lost-data",
    ]);
    for (ci, class) in VcClass::ALL.iter().enumerate() {
        let runs = &results[ci + 1];
        t.row(vec![
            class.label().into(),
            times(geomean_ratio(runs, baseline, |r| r.cycles as f64)),
            format!("{:.0}", mean(runs, |r| r.messages_lost as f64)),
            format!(
                "{:.0}",
                mean(runs, |r| r.stats.timeouts(TimeoutKind::LostRequest) as f64)
            ),
            format!(
                "{:.0}",
                mean(runs, |r| r.stats.timeouts(TimeoutKind::LostUnblock) as f64)
            ),
            format!(
                "{:.0}",
                mean(runs, |r| r.stats.timeouts(TimeoutKind::LostAckBd) as f64)
            ),
            format!(
                "{:.0}",
                mean(runs, |r| r.stats.timeouts(TimeoutKind::LostData) as f64)
            ),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Reading the rows against Table 3: request/forward/response losses are\n\
         detected by the requester's lost-request timer; unblock losses by the\n\
         directory's lost-unblock timer (pings); ownership-ack losses by the\n\
         lost-AckBD timer; and data lost after an ownership transfer also\n\
         engages the backup holder's lost-data/OwnershipPing path."
    );
}
