//! Structured simulation tracing.
//!
//! A [`TraceSink`] attached to a [`crate::System`] observes every delivered
//! message, fired timeout and retired operation — the protocol activity the
//! paper's figures narrate. Two sinks are provided:
//!
//! * [`StderrSink`] — prints events (optionally filtered to a set of lines)
//!   as they happen; also installable via the `FTDIRCMP_TRACE_LINE`
//!   environment variable (comma-separated hex line addresses).
//! * [`CollectSink`] — records events into a shared buffer for programmatic
//!   inspection (used by tests and the walkthrough example).
//!
//! # Example
//!
//! ```
//! use ftdircmp_core::tracelog::{CollectSink, TraceEventKind};
//! use ftdircmp_core::trace::{CoreTrace, TraceOp, Workload};
//! use ftdircmp_core::ids::Addr;
//! use ftdircmp_core::{System, SystemConfig};
//!
//! let (sink, handle) = CollectSink::new(10_000);
//! let wl = Workload::new("t", vec![CoreTrace::new(vec![TraceOp::Store(Addr(0x40))])]);
//! let mut sys = System::new(SystemConfig::ftdircmp(), &wl)?;
//! sys.set_trace_sink(Box::new(sink));
//! sys.run()?;
//! let events = handle.take();
//! assert!(events.iter().any(|e| matches!(e.kind, TraceEventKind::Delivered(_))));
//! # Ok::<(), ftdircmp_core::system::RunError>(())
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use ftdircmp_sim::Cycle;

use crate::ids::{LineAddr, NodeId};
use crate::msg::Message;
use crate::proto::TimeoutKind;
use crate::trace::TraceOp;

/// One observed simulation event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Cycle,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The kinds of observable events.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A coherence message arrived at its destination.
    Delivered(Message),
    /// A fault-detection timer fired (possibly as a stale no-op).
    TimeoutFired {
        /// Owning node.
        node: NodeId,
        /// Guarded line.
        addr: LineAddr,
        /// Timer kind.
        kind: TimeoutKind,
    },
    /// A core retired an operation.
    OpRetired {
        /// Core index.
        core: u8,
        /// The retired operation.
        op: TraceOp,
    },
}

impl TraceEvent {
    /// The line this event concerns, if any.
    pub fn line(&self) -> Option<LineAddr> {
        match &self.kind {
            TraceEventKind::Delivered(m) => Some(m.addr),
            TraceEventKind::TimeoutFired { addr, .. } => Some(*addr),
            TraceEventKind::OpRetired { .. } => None,
        }
    }
}

/// Receiver of simulation events.
pub trait TraceSink {
    /// Called once per event, in simulation order.
    fn record(&mut self, event: TraceEvent);
}

/// Prints events to stderr, optionally filtered to a set of line addresses.
#[derive(Debug, Default)]
pub(crate) struct StderrSink {
    lines: Option<Vec<u64>>,
}

impl StderrSink {
    /// Builds a sink from the `FTDIRCMP_TRACE_LINE` environment variable
    /// (comma-separated hex line addresses), if set.
    pub(crate) fn from_env() -> Option<Self> {
        let raw = std::env::var("FTDIRCMP_TRACE_LINE").ok()?;
        let lines: Vec<u64> = raw
            .split(',')
            .filter_map(|t| u64::from_str_radix(t.trim().trim_start_matches("0x"), 16).ok())
            .collect();
        Some(StderrSink { lines: Some(lines) })
    }

    fn wants(&self, event: &TraceEvent) -> bool {
        match (&self.lines, event.line()) {
            (None, _) => true,
            (Some(lines), Some(l)) => lines.contains(&l.0),
            (Some(_), None) => false,
        }
    }
}

impl TraceSink for StderrSink {
    fn record(&mut self, event: TraceEvent) {
        if !self.wants(&event) {
            return;
        }
        match &event.kind {
            TraceEventKind::Delivered(m) => {
                eprintln!(
                    "[{}] {} -> {} {} serial={} acks={} data={} dirty={} acko={} stale={}",
                    event.at,
                    m.src,
                    m.dst,
                    m.mtype,
                    m.serial,
                    m.ack_count,
                    m.data.map_or(-1, |d| d.version() as i64),
                    m.data_dirty,
                    m.piggy_acko,
                    m.wb_stale,
                );
            }
            TraceEventKind::TimeoutFired { node, addr, kind } => {
                eprintln!("[{}] TIMEOUT {node} {addr} {kind}", event.at);
            }
            TraceEventKind::OpRetired { core, op } => {
                eprintln!("[{}] RETIRE core{core} {op:?}", event.at);
            }
        }
    }
}

/// Shared handle to the events collected by a [`CollectSink`].
#[derive(Debug, Clone, Default)]
pub struct CollectHandle {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl CollectHandle {
    /// Takes all collected events, leaving the buffer empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.borrow_mut())
    }
}

/// Collects events into a bounded in-memory buffer.
#[derive(Debug)]
pub struct CollectSink {
    events: Rc<RefCell<Vec<TraceEvent>>>,
    cap: usize,
}

impl CollectSink {
    /// Creates a sink capped at `cap` events, plus a handle to read them.
    pub fn new(cap: usize) -> (Self, CollectHandle) {
        let events = Rc::new(RefCell::new(Vec::new()));
        (
            CollectSink {
                events: events.clone(),
                cap,
            },
            CollectHandle { events },
        )
    }
}

impl TraceSink for CollectSink {
    fn record(&mut self, event: TraceEvent) {
        let mut v = self.events.borrow_mut();
        if v.len() < self.cap {
            v.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;

    fn event(line: u64) -> TraceEvent {
        TraceEvent {
            at: Cycle::new(5),
            kind: TraceEventKind::Delivered(Message::new(
                MsgType::GetS,
                LineAddr(line),
                NodeId::L1(0),
                NodeId::L2(1),
            )),
        }
    }

    #[test]
    fn collect_sink_caps_and_takes() {
        let (mut sink, handle) = CollectSink::new(2);
        for i in 0..5 {
            sink.record(event(i));
        }
        assert_eq!(handle.events.borrow().len(), 2);
        let taken = handle.take();
        assert_eq!(taken.len(), 2);
        assert!(handle.events.borrow().is_empty());
        assert_eq!(taken[0].line(), Some(LineAddr(0)));
    }

    #[test]
    fn stderr_sink_filters_by_line() {
        let sink = StderrSink {
            lines: Some(vec![7]),
        };
        assert!(sink.wants(&event(7)));
        assert!(!sink.wants(&event(8)));
        assert!(StderrSink { lines: None }.wants(&event(8)));
    }

    #[test]
    fn op_retired_has_no_line_and_is_filtered_out_by_line_filters() {
        let e = TraceEvent {
            at: Cycle::ZERO,
            kind: TraceEventKind::OpRetired {
                core: 0,
                op: TraceOp::Think(3),
            },
        };
        assert_eq!(e.line(), None);
        assert!(!StderrSink {
            lines: Some(vec![1])
        }
        .wants(&e));
    }

    #[test]
    fn from_env_parses_hex_lists() {
        std::env::set_var("FTDIRCMP_TRACE_LINE", "0x6, 1d");
        let sink = StderrSink::from_env().unwrap();
        assert!(sink.wants(&event(0x6)));
        assert!(sink.wants(&event(0x1d)));
        assert!(!sink.wants(&event(0x7)));
        std::env::remove_var("FTDIRCMP_TRACE_LINE");
    }
}
