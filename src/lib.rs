//! # ftdircmp — a fault-tolerant directory coherence protocol for CMPs
//!
//! A complete reproduction of *"A fault-tolerant directory-based cache
//! coherence protocol for CMP architectures"* (Fernández-Pascual, García,
//! Acacio, Duato — DSN 2008): a simulated 16-tile chip multiprocessor
//! running either the baseline **DirCMP** MOESI directory protocol or the
//! paper's fault-tolerant **FtDirCMP** extension, on a 2D-mesh on-chip
//! network with transient-fault injection.
//!
//! ## What's in the box
//!
//! * [`SystemConfig`] — the paper's Table 4 architecture, fully
//!   configurable (protocol variant, cache geometry, mesh timing, fault
//!   rate, timeout values, serial-number width).
//! * [`System`] — builds and runs a workload, returning a [`SimReport`]
//!   with execution cycles, traffic by message type, timeout/reissue
//!   counters and invariant-checker results.
//! * [`workloads::suite`] — ten synthetic benchmarks reproducing the
//!   coherence event mixes of classic parallel applications.
//! * Fault injection ([`FaultConfig`]): isolated or bursty message losses
//!   at a configurable rate per million messages, as in the paper's
//!   Figure 3 sweep.
//!
//! ## Quick start
//!
//! ```
//! use ftdircmp::{System, SystemConfig, workloads};
//!
//! // Run the `fft` stand-in workload under FtDirCMP with a network that
//! // loses 250 messages per million.
//! let spec = workloads::WorkloadSpec::named("fft").expect("in suite");
//! let wl = spec.generate(16, 42);
//! let config = SystemConfig::ftdircmp().with_fault_rate(250.0);
//! let report = System::run_workload(config, &wl)?;
//!
//! assert!(report.violations.is_empty(), "coherence must hold under faults");
//! assert_eq!(report.total_mem_ops as usize, wl.total_mem_ops());
//! # Ok::<(), ftdircmp::RunError>(())
//! ```
//!
//! The same workload under the baseline [`SystemConfig::dircmp`] and a
//! faulty network deadlocks — that contrast is the paper's motivation; see
//! `examples/fault_injection.rs`.

pub use ftdircmp_core as core_protocol;

pub use ftdircmp_core::config::{ProtocolVariant, SystemConfig};
pub use ftdircmp_core::ids::{Addr, LineAddr};
pub use ftdircmp_core::msg::MsgType;
pub use ftdircmp_core::proto::TimeoutKind;
pub use ftdircmp_core::system::{RunError, SimReport, System};
pub use ftdircmp_core::trace::{CoreTrace, TraceOp, Workload};
pub use ftdircmp_noc::{FaultConfig, VcClass};

/// Synthetic benchmark suite (re-export of [`ftdircmp_workloads`]).
pub mod workloads {
    pub use ftdircmp_workloads::{suite, WorkloadSpec};
}

/// Runs one workload under both protocols and returns
/// `(dircmp, ftdircmp)` reports — the comparison at the heart of the
/// paper's evaluation. Both runs are fault-free.
///
/// # Errors
///
/// Propagates [`RunError`] from either run (neither should fail on a
/// fault-free network).
///
/// # Example
///
/// ```
/// let wl = ftdircmp::workloads::WorkloadSpec::named("water-sp")
///     .unwrap()
///     .generate(16, 1);
/// let (base, ft) = ftdircmp::compare_protocols(&wl, 1)?;
/// // Fault-free execution-time overhead is minimal (paper Figure 3).
/// let rel = ft.relative_execution_time(&base);
/// assert!(rel < 1.2);
/// # Ok::<(), ftdircmp::RunError>(())
/// ```
pub fn compare_protocols(
    workload: &Workload,
    seed: u64,
) -> Result<(SimReport, SimReport), RunError> {
    let base = System::run_workload(SystemConfig::dircmp().with_seed(seed), workload)?;
    let ft = System::run_workload(SystemConfig::ftdircmp().with_seed(seed), workload)?;
    Ok((base, ft))
}
