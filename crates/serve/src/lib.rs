//! `ftdircmp-serve`: a crash-safe campaign service daemon.
//!
//! The daemon accepts campaign submissions (workload × config × seed
//! grids), fault-search jobs and repro replays over a line-delimited JSON
//! socket API, runs them through the parallel checkpoint-fork campaign
//! runner (`ftdircmp-bench`), and records every result durably under a
//! queue root so a killed daemon resumes exactly where it stopped:
//!
//! * [`json`] — the workspace's one JSON codec, re-exported from
//!   `ftdircmp-core` (canonical output keeps stored results
//!   byte-comparable);
//! * [`job`] — submission types, validation, and the deterministic
//!   expansion of a campaign grid into simulation units;
//! * [`store`] — the durable result store: per-job unit-record journals
//!   (append + fsync) and atomic final summaries (tmp-file + rename);
//! * [`queue`] — the persistent work queue: an append-only submit/done
//!   journal replayed on boot to re-enqueue half-finished jobs;
//! * [`runner`] — executes one job (shared by the daemon worker and the
//!   synchronous `run-local` subcommand, so both produce identical bytes);
//! * `notifier` — fan-out of streamed progress events to subscribed
//!   connections;
//! * [`server`] — the TCP listener, wire protocol, and executor thread.
//!
//! See DESIGN.md §11 for the architecture and the crash-safe resume
//! contract.

pub mod job;
pub(crate) mod notifier;
pub mod queue;
pub mod runner;
pub mod server;
pub mod store;

pub use ftdircmp_core::json;
