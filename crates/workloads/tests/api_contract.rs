//! Names each item of this crate that the repo benchmark (`benchmark/src`, not
//! built by tier-1) uses, so narrowing one fails `cargo test` here.

use ftdircmp_core::Workload;
use ftdircmp_workloads::{suite_names, WorkloadSpec};

#[test]
fn benchmark_api_is_public() {
    assert!(!suite_names().is_empty());
    let spec: WorkloadSpec = WorkloadSpec::parse("barnes:ops=1").unwrap();
    let wl: Workload = spec.generate(16, 1000);
    assert_eq!(wl.name, spec.name);
}
