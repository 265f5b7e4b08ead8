//! Ablation of the migratory-sharing optimization (paper §2: DirCMP
//! "includes a migratory sharing optimization to accelerate
//! read-modify-write sharing behavior") — run the suite with it on and off
//! and measure what it buys, under both protocols.
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin ablation_migratory [-- --seeds N --jobs N]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{benchmarks, geomean_ratio, mean, BenchArgs};
use ftdircmp_core::SystemConfig;
use ftdircmp_stats::table::{times, Table};

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    println!(
        "Migratory-sharing ablation ({seeds} seeds): execution time without the\n\
         optimization relative to with it (values > 1.0 = the optimization helps).\n"
    );

    // Four cells per benchmark: (DirCMP, FtDirCMP) × (on, off).
    let specs = benchmarks();
    let mut cells = Vec::new();
    for spec in &specs {
        for (proto, base_cfg) in [
            ("dircmp", SystemConfig::dircmp()),
            ("ftdircmp", SystemConfig::ftdircmp()),
        ] {
            cells.push(Cell::new(
                format!("{}/{proto}-on", spec.name),
                spec.clone(),
                base_cfg.clone(),
                seeds,
            ));
            let mut off_cfg = base_cfg;
            off_cfg.migratory_sharing = false;
            cells.push(Cell::new(
                format!("{}/{proto}-off", spec.name),
                spec.clone(),
                off_cfg,
                seeds,
            ));
        }
    }
    let results = run_campaign(&cells, &opts);

    let mut t = Table::with_columns(&[
        "benchmark",
        "grants (FtDirCMP)",
        "DirCMP off/on",
        "FtDirCMP off/on",
    ]);
    for (si, spec) in specs.iter().enumerate() {
        let mut rows: Vec<String> = vec![spec.name.to_string()];
        let mut grants = 0.0;
        for proto in 0..2 {
            let on = &results[si * 4 + proto * 2];
            let off = &results[si * 4 + proto * 2 + 1];
            if proto == 1 {
                grants = mean(on, |r| r.stats.migratory_grants.get() as f64);
            }
            rows.push(times(geomean_ratio(off, on, |r| r.cycles as f64)));
        }
        rows.insert(1, format!("{grants:.0}"));
        t.row(rows);
    }
    println!("{}", t.render());
    println!(
        "Shape to observe: benchmarks dominated by read-modify-write sharing\n\
         (barnes, water-*, sjbb) gain the most; streaming benchmarks are\n\
         unaffected (no migratory grants to make)."
    );
}
