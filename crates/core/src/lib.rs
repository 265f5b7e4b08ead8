//! # FtDirCMP core: fault-tolerant directory coherence for tiled CMPs
//!
//! This crate implements the system of *"A fault-tolerant directory-based
//! cache coherence protocol for CMP architectures"* (DSN 2008): a 16-tile
//! chip multiprocessor with private L1 caches, a shared distributed L2 that
//! doubles as the directory, memory controllers, and two coherence
//! protocols —
//!
//! * [`config::ProtocolVariant::DirCmp`]: the baseline MOESI directory
//!   protocol, which **deadlocks if the network loses any message**;
//! * [`config::ProtocolVariant::FtDirCmp`]: the paper's fault-tolerant
//!   extension, which guarantees correct execution on a network that drops
//!   messages, using backup copies, ownership acknowledgments, detection
//!   timeouts and request serial numbers.
//!
//! # Quick start
//!
//! ```
//! use ftdircmp_core::{System, SystemConfig};
//! use ftdircmp_core::trace::{CoreTrace, TraceOp, Workload};
//! use ftdircmp_core::ids::Addr;
//!
//! // One core stores a value; another loads it back.
//! let writer = CoreTrace::new(vec![TraceOp::Store(Addr(0x100))]);
//! let reader = CoreTrace::new(vec![TraceOp::Think(500), TraceOp::Load(Addr(0x100))]);
//! let wl = Workload::new("hello", vec![writer, reader]);
//!
//! let report = System::run_workload(SystemConfig::ftdircmp(), &wl)?;
//! assert!(report.violations.is_empty());
//! assert_eq!(report.total_mem_ops, 2);
//! # Ok::<(), ftdircmp_core::system::RunError>(())
//! ```

pub mod cache;
pub mod checker;
pub mod config;
pub(crate) mod cpu;
mod data;
pub mod hardware;
pub mod ids;
pub mod json;
pub(crate) mod l1;
pub(crate) mod l2;
mod linetab;
pub(crate) mod mem;
pub mod msc;
pub mod msg;
pub mod proto;
mod report;
pub mod search;
mod serial;
pub mod stats;
pub mod system;
#[cfg(test)]
mod testharness;
pub mod trace;
pub mod trace_io;
pub mod tracelog;
pub mod transitions;

pub use config::{FtConfig, ProtocolVariant, SystemConfig};
pub use data::LineData;
pub use ids::{Addr, LineAddr, NodeId, SharerSet};
pub use msg::{Message, MsgType};
pub use proto::TimeoutKind;
pub use serial::{SerialAllocator, SerialNum};
pub use system::{FaultEpochReport, RunError, SimReport, StalledCore, System, SystemSnapshot};
pub use trace::{CoreTrace, TraceOp, Workload};
