//! Scalability ablation: how FtDirCMP's overhead behaves as the CMP grows
//! (paper §1 motivates directory protocols by their scalability; this sweep
//! confirms the fault-tolerance overhead does not grow with the mesh).
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin ablation_mesh_scaling [-- --seeds N --jobs N]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{geomean_ratio, BenchArgs};
use ftdircmp_core::SystemConfig;
use ftdircmp_stats::table::{signed_percent, times, Table};
use ftdircmp_workloads::WorkloadSpec;

const MESHES: [(u16, u16); 4] = [(2, 2), (4, 2), (4, 4), (8, 4)];

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    let spec = WorkloadSpec::named("ocean").expect("in suite");
    println!(
        "Scalability ablation: FtDirCMP overhead vs. mesh size\n\
         (benchmark {}, {seeds} seeds per cell).\n",
        spec.name
    );

    // Two cells per mesh size: DirCMP baseline then FtDirCMP.
    let mut cells = Vec::new();
    for (w, hgt) in MESHES {
        cells.push(Cell::new(
            format!("{}/{w}x{hgt}-dircmp", spec.name),
            spec.clone(),
            SystemConfig::dircmp().with_mesh(w, hgt),
            seeds,
        ));
        cells.push(Cell::new(
            format!("{}/{w}x{hgt}-ftdircmp", spec.name),
            spec.clone(),
            SystemConfig::ftdircmp().with_mesh(w, hgt),
            seeds,
        ));
    }
    let results = run_campaign(&cells, &opts);

    let mut t = Table::with_columns(&[
        "mesh",
        "cores",
        "exec. time overhead",
        "message overhead",
        "byte overhead",
    ]);
    for (mi, (w, hgt)) in MESHES.iter().enumerate() {
        let base = &results[mi * 2];
        let ft = &results[mi * 2 + 1];
        let time = geomean_ratio(ft, base, |r| r.cycles as f64);
        let msgs = geomean_ratio(ft, base, |r| r.stats.total_messages() as f64) - 1.0;
        let bytes = geomean_ratio(ft, base, |r| r.stats.total_bytes() as f64) - 1.0;
        t.row(vec![
            format!("{w}x{hgt}"),
            (u32::from(*w) * u32::from(*hgt)).to_string(),
            times(time),
            signed_percent(msgs),
            signed_percent(bytes),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape to observe: the ownership-acknowledgment overhead is per-transfer,\n\
         so it stays flat as the system scales — the scalability argument for\n\
         attaching fault tolerance to a directory protocol (paper §1/§5)."
    );
}
