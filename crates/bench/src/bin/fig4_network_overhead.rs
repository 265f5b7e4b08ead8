//! Experiment E8 — regenerates the paper's **Figure 4**: relative network
//! overhead of FtDirCMP over DirCMP in the fault-free case, measured in
//! messages and in bytes, categorized by message class.
//!
//! The paper's results this reproduces: ≈ +30% messages on average,
//! dropping to ≈ +10% in bytes, with the entire overhead in the
//! ownership-acknowledgment category.
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin fig4_network_overhead [-- --seeds N --jobs N]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{benchmarks, mean, BenchArgs};
use ftdircmp_core::SystemConfig;
use ftdircmp_noc::VcClass;
use ftdircmp_stats::table::{signed_percent, Table};

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    println!(
        "Figure 4. Network overhead of FtDirCMP compared to DirCMP without faults\n\
         ({seeds} seeds per benchmark; overhead = FtDirCMP/DirCMP - 1).\n"
    );

    // Two cells per benchmark: DirCMP baseline then FtDirCMP.
    let specs = benchmarks();
    let mut cells = Vec::new();
    for spec in &specs {
        cells.push(Cell::new(
            format!("{}/dircmp", spec.name),
            spec.clone(),
            SystemConfig::dircmp(),
            seeds,
        ));
        cells.push(Cell::new(
            format!("{}/ftdircmp", spec.name),
            spec.clone(),
            SystemConfig::ftdircmp(),
            seeds,
        ));
    }
    let results = run_campaign(&cells, &opts);

    let mut t = Table::with_columns(&[
        "benchmark",
        "msgs overhead",
        "bytes overhead",
        "ownership share of added msgs",
    ]);
    let (mut sum_msg, mut sum_byte) = (0.0, 0.0);
    let mut n = 0.0;
    for (si, spec) in specs.iter().enumerate() {
        let base = &results[si * 2];
        let ft = &results[si * 2 + 1];
        let m_base = mean(base, |r| r.stats.total_messages() as f64);
        let m_ft = mean(ft, |r| r.stats.total_messages() as f64);
        let b_base = mean(base, |r| r.stats.total_bytes() as f64);
        let b_ft = mean(ft, |r| r.stats.total_bytes() as f64);
        let ownership = mean(ft, |r| {
            r.stats.messages_by_class(VcClass::OwnershipAck) as f64
        });
        let msg_ov = m_ft / m_base - 1.0;
        let byte_ov = b_ft / b_base - 1.0;
        sum_msg += msg_ov;
        sum_byte += byte_ov;
        n += 1.0;
        t.row(vec![
            spec.name.into(),
            signed_percent(msg_ov),
            signed_percent(byte_ov),
            format!("{:.0}%", 100.0 * ownership / (m_ft - m_base)),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        signed_percent(sum_msg / n),
        signed_percent(sum_byte / n),
        String::new(),
    ]);
    println!("{}", t.render());

    // Per-class breakdown for one representative benchmark (the stacked
    // bars of the paper's figure). The campaign already ran these cells;
    // determinism makes reuse identical to a fresh run.
    let spec = &specs[0];
    let base = &results[0];
    let ft = &results[1];
    println!(
        "Per-class breakdown for {} (messages, then bytes):\n",
        spec.name
    );
    let mut t = Table::with_columns(&["class", "DirCMP", "FtDirCMP", "DirCMP B", "FtDirCMP B"]);
    for class in VcClass::ALL {
        t.row(vec![
            class.label().into(),
            format!(
                "{:.0}",
                mean(base, |r| r.stats.messages_by_class(class) as f64)
            ),
            format!(
                "{:.0}",
                mean(ft, |r| r.stats.messages_by_class(class) as f64)
            ),
            format!(
                "{:.0}",
                mean(base, |r| r.stats.bytes_by_class(class) as f64)
            ),
            format!("{:.0}", mean(ft, |r| r.stats.bytes_by_class(class) as f64)),
        ]);
    }
    println!("{}", t.render());
    println!("(The overhead comes entirely from the ownership acknowledgments, §3.6.)");
}
