//! Names each item of this crate that the repo benchmark (`benchmark/src`, not
//! built by tier-1) uses, so narrowing one fails `cargo test` here. The
//! benchmark also builds and runs the `fig3_execution_time` bin by name.

use ftdircmp_bench::campaign::{run_units_caught, Campaign, CellError, Unit};
use ftdircmp_bench::{benchmarks, geomean_ratio};
use ftdircmp_core::{RunError, SimReport, SystemConfig};

#[test]
fn benchmark_api_is_public() {
    let spec = benchmarks().remove(0);
    let unit = Unit {
        label: format!("{}/dircmp", spec.name),
        spec,
        config: SystemConfig::dircmp(),
        seed: 0,
    };
    let opts = Campaign {
        jobs: 1,
        progress: false,
        warmup_checkpoint: None,
    };
    let _ = |units: &[Unit], opts: &Campaign| {
        let results = run_units_caught(units, opts);
        results
            .iter()
            .filter(|r: &&Result<SimReport, CellError>| r.is_ok())
            .count()
    };
    let _ = (unit, opts);
    let _ = |e: RunError| CellError::Run(e);
    let _ = |a: &[SimReport], b: &[SimReport]| geomean_ratio(a, b, |r| r.cycles as f64);
}

#[test]
fn fig3_bin_keeps_its_name() {
    let bin = std::path::Path::new(env!("CARGO_BIN_EXE_fig3_execution_time"));
    assert!(bin.is_file(), "{}", bin.display());
}
