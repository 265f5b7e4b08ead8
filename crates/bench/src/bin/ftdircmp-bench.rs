//! Runs experiments of the evaluation by name (see
//! `ftdircmp_bench::experiments`): `ftdircmp-bench [NAME...|all]
//! [--seeds N] [--jobs N] [--warmup-checkpoint [PCT]] [--out DIR]`.
fn main() {
    ftdircmp_bench::experiments::cli(std::env::args().skip(1));
}
