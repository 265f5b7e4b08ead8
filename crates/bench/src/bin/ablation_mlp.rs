//! Memory-level-parallelism ablation: non-blocking cores (several
//! outstanding misses) overlap miss latency and multiply the concurrent
//! transactions each L1 presents to the protocol. The paper's protocol
//! claims correctness independent of the core model (§2); this sweep
//! measures the performance side and confirms the FT overhead stays flat.
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin ablation_mlp [-- --seeds N --jobs N]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{geomean_ratio, BenchArgs};
use ftdircmp_core::SystemConfig;
use ftdircmp_stats::table::{times, Table};
use ftdircmp_workloads::WorkloadSpec;

const WINDOWS: [u8; 4] = [1, 2, 4, 8];
const NAMES: [&str; 4] = ["fft", "radix", "barnes", "apache"];

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    println!(
        "MLP ablation ({seeds} seeds): execution time with a miss window of N\n\
         relative to the blocking core (window 1), plus the FtDirCMP/DirCMP\n\
         overhead at each window.\n"
    );
    let mut header: Vec<String> = vec!["benchmark".into()];
    for w in WINDOWS {
        header.push(format!("w={w}"));
    }
    header.push("ft ovh w=1".into());
    header.push(format!("ft ovh w={}", WINDOWS[WINDOWS.len() - 1]));
    let mut t = Table::new(header);

    // Two cells (DirCMP, FtDirCMP) per (benchmark, window).
    let mut cells = Vec::new();
    for name in NAMES {
        let spec = WorkloadSpec::named(name).expect("in suite");
        for w in WINDOWS {
            let mut dir_cfg = SystemConfig::dircmp();
            dir_cfg.max_outstanding_misses = w;
            let mut ft_cfg = SystemConfig::ftdircmp();
            ft_cfg.max_outstanding_misses = w;
            cells.push(Cell::new(
                format!("{name}/dircmp-w{w}"),
                spec.clone(),
                dir_cfg,
                seeds,
            ));
            cells.push(Cell::new(
                format!("{name}/ftdircmp-w{w}"),
                spec.clone(),
                ft_cfg,
                seeds,
            ));
        }
    }
    let results = run_campaign(&cells, &opts);

    for (ni, name) in NAMES.iter().enumerate() {
        let mut row = vec![name.to_string()];
        let mut base1 = None;
        let mut ft_ovh = Vec::new();
        for (wi, w) in WINDOWS.iter().enumerate() {
            let dir = &results[(ni * WINDOWS.len() + wi) * 2];
            let ft = &results[(ni * WINDOWS.len() + wi) * 2 + 1];
            if *w == 1 {
                base1 = Some(dir.iter().map(|r| r.cycles as f64).sum::<f64>());
            }
            let sum: f64 = dir.iter().map(|r| r.cycles as f64).sum();
            row.push(times(sum / base1.as_ref().unwrap()));
            if *w == WINDOWS[0] || *w == WINDOWS[WINDOWS.len() - 1] {
                ft_ovh.push(times(geomean_ratio(ft, dir, |r| r.cycles as f64)));
            }
        }
        row.extend(ft_ovh);
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "Shape to observe: miss-bound benchmarks speed up with the window as\n\
         misses overlap, while the FtDirCMP overhead stays ≈ 1.0x at every\n\
         window — the handshakes remain off the critical path even with many\n\
         concurrent transactions per L1."
    );
}
