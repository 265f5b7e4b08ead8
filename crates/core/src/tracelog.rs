//! Structured simulation tracing.
//!
//! A [`TraceSink`] attached to a [`crate::System`] observes every delivered
//! message, fired timeout and retired operation — the protocol activity the
//! paper's figures narrate. Two sinks are provided:
//!
//! * [`StderrSink`] — prints events (optionally filtered to a set of lines)
//!   as they happen; `ftdircmp-cli --trace-line` installs one for the lines
//!   it names ([`StderrSink::parse_lines`]).
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
/// `Default` prints every event.
#[derive(Debug, Default)]
pub struct StderrSink {
    lines: Option<Vec<u64>>,
}

impl StderrSink {
    /// A sink printing only the events on `lines` (line addresses).
    pub fn for_lines(lines: Vec<u64>) -> Self {
        StderrSink { lines: Some(lines) }
    }

    /// Parses a comma-separated list of hex line addresses, each with or
    /// without a `0x` prefix (`"0x6, 1d"`).
    ///
    /// # Errors
    ///
    /// Names the first token that is not a hex line address.
    pub fn parse_lines(raw: &str) -> Result<Vec<u64>, String> {
        raw.split(',')
            .map(|token| {
                let t = token.trim();
                u64::from_str_radix(t.strip_prefix("0x").unwrap_or(t), 16)
                    .map_err(|_| format!("{t:?} is not a hex line address"))
            })
            .collect()
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
    fn line_lists_parse_hex_and_name_a_bad_token() {
        let sink = StderrSink::for_lines(StderrSink::parse_lines("0x6, 1d").unwrap());
        assert!(sink.wants(&event(0x6)));
        assert!(sink.wants(&event(0x1d)));
        assert!(!sink.wants(&event(0x7)));
        for (raw, bad) in [("zz", "\"zz\""), ("6,", "\"\""), ("6, 0x0x7", "\"0x0x7\"")] {
            let err = StderrSink::parse_lines(raw).unwrap_err();
            assert_eq!(err, format!("{bad} is not a hex line address"), "{raw}");
        }
    }
}
