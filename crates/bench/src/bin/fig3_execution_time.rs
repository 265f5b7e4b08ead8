//! Experiment E7 — regenerates the paper's **Figure 3**: execution time of
//! FtDirCMP relative to DirCMP, per benchmark, for fault rates from 0 to
//! 2000 messages lost per million (plus the fault-free DirCMP baseline).
//!
//! The paper's headline results this reproduces:
//! * at fault rate 0, FtDirCMP's bar is ≈ 1.0 (no overhead);
//! * bars grow with the fault rate, staying moderate (average < 1.5x even
//!   at 2000/M, with a few benchmarks up to ≈ 2x);
//! * DirCMP cannot execute at all for any nonzero rate.
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin fig3_execution_time \
//!     [-- --seeds N --jobs N --csv FILE]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{benchmarks, geomean_ratio, BenchArgs};
use ftdircmp_core::SystemConfig;
use ftdircmp_stats::table::{times, Table};

const RATES: [f64; 6] = [0.0, 125.0, 250.0, 500.0, 1000.0, 2000.0];

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    println!(
        "Figure 3. Execution time of FtDirCMP relative to DirCMP (fault-free),\n\
         for fault rates of 0..2000 messages lost per million. {seeds} seeds per cell.\n"
    );

    // One cell per (benchmark, column): the DirCMP baseline plus one
    // FtDirCMP cell per fault rate, in table order.
    let specs = benchmarks();
    let mut cells = Vec::new();
    for spec in &specs {
        cells.push(Cell::new(
            format!("{}/dircmp", spec.name),
            spec.clone(),
            SystemConfig::dircmp(),
            seeds,
        ));
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
    }
    let results = run_campaign(&cells, &opts);

    let mut header: Vec<String> = vec!["benchmark".into(), "DirCMP".into()];
    header.extend(RATES.iter().map(|r| format!("Ft-{r:.0}")));
    let mut t = Table::new(header);

    let cols = 1 + RATES.len();
    let mut per_rate_ratios: Vec<Vec<f64>> = vec![Vec::new(); RATES.len()];
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let base = &results[si * cols];
        let mut row = vec![spec.name.to_string(), times(1.0)];
        let mut csv_row = vec![spec.name.to_string()];
        for i in 0..RATES.len() {
            let ft = &results[si * cols + 1 + i];
            let rel = geomean_ratio(ft, base, |r| r.cycles as f64);
            per_rate_ratios[i].push(rel);
            row.push(times(rel));
            csv_row.push(format!("{rel:.4}"));
        }
        t.row(row);
        csv_rows.push(csv_row);
    }
    if let Some(path) = args.value_of("--csv") {
        let header: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(RATES.iter().map(|r| format!("ft_{r:.0}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        ftdircmp_bench::write_csv(path, &header_refs, &csv_rows).expect("write csv");
        println!("(wrote {path})\n");
    }
    let mut avg_row = vec!["GEOMEAN".to_string(), times(1.0)];
    for ratios in &per_rate_ratios {
        let g = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        avg_row.push(times(g));
    }
    t.row(avg_row);
    println!("{}", t.render());
    println!(
        "(Columns are lost messages per million. DirCMP deadlocks at any nonzero\n\
         rate — see `cargo test --test dircmp_deadlock` — so only its fault-free\n\
         bar exists, exactly as in the paper.)"
    );
}
