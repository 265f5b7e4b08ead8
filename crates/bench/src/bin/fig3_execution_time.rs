//! `ftdircmp-bench fig3_execution_time` under the bin name the repo benchmark runs.
fn main() {
    let name = "fig3_execution_time".to_string();
    ftdircmp_bench::experiments::cli(std::iter::once(name).chain(std::env::args().skip(1)));
}
