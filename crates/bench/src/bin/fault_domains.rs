//! Experiment E13 — degradation curves under **correlated fault domains**
//! (DESIGN.md §12): link flaps of growing duration and region bursts of
//! growing radius, run through FtDirCMP with the per-fault-epoch recovery
//! telemetry the campaigns plot.
//!
//! Unlike Figure 3's uniform message-loss lottery, these faults are
//! spatially and temporally correlated: one link goes hard-down over a
//! window, or every link within a Manhattan radius of an epicenter is
//! degraded together. The experiment answers two questions the uniform
//! model cannot:
//!
//! * how does execution time degrade with the *duration* of an outage and
//!   the *extent* of a degraded region, and
//! * how long after the fault clears does the protocol take to recover
//!   (first retirement after the window, from `SimReport::fault_epochs`)?
//!
//! ```text
//! cargo run --release -p ftdircmp-bench --bin fault_domains \
//!     [-- --seeds N --jobs N --csv FILE]
//! ```

use ftdircmp_bench::campaign::{run_campaign, Cell};
use ftdircmp_bench::{benchmarks, geomean_ratio, mean, BenchArgs};
use ftdircmp_core::{SimReport, SystemConfig};
use ftdircmp_noc::{Direction, FaultDomainConfig, FaultEvent, RouterId};
use ftdircmp_stats::table::{times, Table};

/// Flap outages on the central r5→east link, all starting at cycle 2000.
const FLAP_DURATIONS: [u64; 3] = [2_000, 8_000, 20_000];
/// Region bursts centered on r5 over [2000, 10000), by Manhattan radius.
const BURST_RADII: [u32; 3] = [0, 1, 2];
const FAULT_START: u64 = 2_000;
const BURST_END: u64 = 10_000;

fn flap_domain(duration: u64) -> FaultDomainConfig {
    FaultDomainConfig::events(vec![FaultEvent::LinkFlap {
        from: RouterId::new(5),
        dir: Direction::East,
        start: FAULT_START,
        end: FAULT_START + duration,
    }])
}

fn burst_domain(radius: u32) -> FaultDomainConfig {
    FaultDomainConfig::events(vec![FaultEvent::RegionBurst {
        epicenter: RouterId::new(5),
        radius,
        start: FAULT_START,
        end: BURST_END,
    }])
}

/// Mean time-to-recover across the seeds of one cell, and how many seeds
/// never recovered inside the run (epoch outlived the workload).
fn recovery_stats(reports: &[SimReport]) -> (Option<f64>, usize) {
    let mut ttrs = Vec::new();
    let mut unrecovered = 0;
    for r in reports {
        for e in &r.fault_epochs {
            match e.time_to_recover() {
                Some(t) => ttrs.push(t as f64),
                None => unrecovered += 1,
            }
        }
    }
    let mean_ttr = (!ttrs.is_empty()).then(|| ttrs.iter().sum::<f64>() / ttrs.len() as f64);
    (mean_ttr, unrecovered)
}

fn main() {
    let args = BenchArgs::parse();
    let (seeds, opts) = args.sweep();
    println!(
        "Correlated fault domains: FtDirCMP under link flaps (r5-east, growing\n\
         duration) and region bursts (epicenter r5, growing radius), relative to\n\
         fault-free FtDirCMP. {seeds} seeds per cell.\n"
    );

    // One cell per (benchmark, column): the fault-free baseline, one cell
    // per flap duration, one per burst radius — in table order.
    let specs = benchmarks();
    let mut cells = Vec::new();
    for spec in &specs {
        let base = || {
            let mut cfg = SystemConfig::ftdircmp();
            cfg.watchdog_cycles = 3_000_000;
            cfg
        };
        cells.push(Cell::new(
            format!("{}/ft-clean", spec.name),
            spec.clone(),
            base(),
            seeds,
        ));
        for d in FLAP_DURATIONS {
            cells.push(Cell::new(
                format!("{}/flap-{d}", spec.name),
                spec.clone(),
                base().with_fault_domains(flap_domain(d)),
                seeds,
            ));
        }
        for r in BURST_RADII {
            cells.push(Cell::new(
                format!("{}/burst-r{r}", spec.name),
                spec.clone(),
                base().with_fault_domains(burst_domain(r)),
                seeds,
            ));
        }
    }
    let results = run_campaign(&cells, &opts);

    let mut header: Vec<String> = vec!["benchmark".into()];
    header.extend(FLAP_DURATIONS.iter().map(|d| format!("flap-{d}")));
    header.extend(BURST_RADII.iter().map(|r| format!("burst-r{r}")));
    let mut t = Table::new(header.clone());
    let mut rec = Table::new({
        let mut h = header;
        h[0] = "mean recovery (cycles)".into();
        h
    });

    let cols = 1 + FLAP_DURATIONS.len() + BURST_RADII.len();
    let mut per_col_ratios: Vec<Vec<f64>> = vec![Vec::new(); cols - 1];
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let base = &results[si * cols];
        let mut row = vec![spec.name.to_string()];
        let mut rec_row = vec![spec.name.to_string()];
        let mut csv_row = vec![spec.name.to_string()];
        for col in 0..cols - 1 {
            let faulty = &results[si * cols + 1 + col];
            let rel = geomean_ratio(faulty, base, |r| r.cycles as f64);
            per_col_ratios[col].push(rel);
            row.push(times(rel));
            csv_row.push(format!("{rel:.4}"));
            let (ttr, unrecovered) = recovery_stats(faulty);
            let lost = mean(faulty, |r| r.messages_lost as f64);
            rec_row.push(match ttr {
                Some(v) if unrecovered == 0 => format!("{v:.0} ({lost:.0} lost)"),
                Some(v) => format!("{v:.0} ({unrecovered} open, {lost:.0} lost)"),
                None => format!("open ({lost:.0} lost)"),
            });
            csv_row.push(ttr.map_or_else(|| "-".into(), |v| format!("{v:.0}")));
        }
        t.row(row);
        rec.row(rec_row);
        csv_rows.push(csv_row);
    }
    let mut avg_row = vec!["GEOMEAN".to_string()];
    for ratios in &per_col_ratios {
        let g = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        avg_row.push(times(g));
    }
    t.row(avg_row);
    println!("{}", t.render());
    println!("{}", rec.render());
    println!(
        "(Execution time relative to fault-free FtDirCMP; recovery is the mean\n\
         gap between the fault window closing and the first retirement after it.\n\
         DirCMP deadlocks under any of these schedules — see the negative\n\
         control in `crates/core/tests/fault_domains.rs`.)"
    );

    if let Some(path) = args.value_of("--csv") {
        let mut header: Vec<String> = vec!["benchmark".into()];
        for d in FLAP_DURATIONS {
            header.push(format!("flap_{d}"));
            header.push(format!("flap_{d}_ttr"));
        }
        for r in BURST_RADII {
            header.push(format!("burst_r{r}"));
            header.push(format!("burst_r{r}_ttr"));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        ftdircmp_bench::write_csv(path, &header_refs, &csv_rows).expect("write csv");
        println!("(wrote {path})");
    }
}
