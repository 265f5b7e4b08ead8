//! Trace-driven core model.
//!
//! The paper assumes in-order processors (§2); with the default of one
//! outstanding miss the core blocks on every L1 miss, which is exactly the
//! coupling the coherence protocol sees in the paper's evaluation. The
//! model also supports non-blocking caches (several outstanding misses,
//! [`crate::config::SystemConfig::max_outstanding_misses`]): the core keeps
//! issuing subsequent trace operations past a miss, stalling only on a
//! same-line dependence or a full miss window — the paper notes protocol
//! correctness is unaffected (§2), and the MLP ablation measures the
//! overlap.

use crate::ids::LineAddr;
use crate::trace::{CoreTrace, TraceOp};

/// Why the core cannot issue right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IssueBlock {
    /// Ready to issue the next operation.
    Ready,
    /// The next operation touches a line with a miss already in flight.
    SameLine(LineAddr),
    /// The miss window is full.
    WindowFull,
    /// Trace exhausted (misses may still be draining).
    Drained,
}

/// A trace-driven core with a bounded miss window.
#[derive(Debug, Clone)]
pub(crate) struct Cpu {
    core: u8,
    trace: CoreTrace,
    pc: usize,
    window: usize,
    outstanding: Vec<LineAddr>,
    ops_done: u64,
    mem_ops_done: u64,
}

impl Cpu {
    /// Creates core `core` running `trace` with a miss window of `window`
    /// (≥ 1; 1 = blocking core).
    pub(crate) fn new(core: u8, trace: CoreTrace, window: u8) -> Self {
        Cpu {
            core,
            trace,
            pc: 0,
            window: usize::from(window.max(1)),
            outstanding: Vec::new(),
            ops_done: 0,
            mem_ops_done: 0,
        }
    }

    /// Core index.
    pub(crate) fn core(&self) -> u8 {
        self.core
    }

    /// Whether the trace is exhausted **and** all misses have drained.
    pub(crate) fn is_done(&self) -> bool {
        self.pc >= self.trace.len() && self.outstanding.is_empty()
    }

    /// Operations retired.
    pub(crate) fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Memory operations retired.
    pub(crate) fn mem_ops_done(&self) -> u64 {
        self.mem_ops_done
    }

    /// Line addresses of the misses currently in flight (issue order).
    /// Watchdog diagnostics use this to name the lines a stalled core is
    /// blocked on.
    pub(crate) fn outstanding_lines(&self) -> &[LineAddr] {
        &self.outstanding
    }

    /// The operation at the program counter, if any.
    pub(crate) fn current_op(&self) -> Option<TraceOp> {
        self.trace.ops().get(self.pc).copied()
    }

    /// Whether the next operation may issue now (and if not, why), given
    /// the line it would touch.
    pub(crate) fn issue_state(&self, line_of: impl Fn(TraceOp) -> Option<LineAddr>) -> IssueBlock {
        let Some(op) = self.current_op() else {
            return IssueBlock::Drained;
        };
        match line_of(op) {
            None => IssueBlock::Ready, // Think never blocks
            Some(line) => {
                if self.outstanding.contains(&line) {
                    IssueBlock::SameLine(line)
                } else if self.outstanding.len() >= self.window {
                    IssueBlock::WindowFull
                } else {
                    IssueBlock::Ready
                }
            }
        }
    }

    /// Retires the current operation immediately (hits and thinks).
    ///
    /// # Panics
    ///
    /// Panics if the trace is exhausted.
    pub(crate) fn retire_now(&mut self) {
        let op = self.trace.ops()[self.pc];
        self.pc += 1;
        self.ops_done += 1;
        if op.is_mem() {
            self.mem_ops_done += 1;
        }
    }

    /// Marks the current operation as an in-flight miss on `line` and
    /// advances the program counter; the op retires at [`Cpu::complete`].
    ///
    /// # Panics
    ///
    /// Panics if the line already has a miss in flight or the window is
    /// full.
    pub(crate) fn issue_miss(&mut self, line: LineAddr) {
        assert!(
            !self.outstanding.contains(&line),
            "core {}: second miss on {line}",
            self.core
        );
        assert!(
            self.outstanding.len() < self.window,
            "core {}: miss window overflow",
            self.core
        );
        self.outstanding.push(line);
        self.pc += 1;
    }

    /// Retires the in-flight miss on `line`.
    ///
    /// # Panics
    ///
    /// Panics if no miss on `line` is in flight.
    pub(crate) fn complete(&mut self, line: LineAddr) {
        let pos = self
            .outstanding
            .iter()
            .position(|l| *l == line)
            .unwrap_or_else(|| panic!("core {}: completion for idle line {line}", self.core));
        self.outstanding.swap_remove(pos);
        self.ops_done += 1;
        self.mem_ops_done += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;

    fn line_of(op: TraceOp) -> Option<LineAddr> {
        op.addr().map(|a| a.line(64))
    }

    fn trace() -> CoreTrace {
        CoreTrace::new(vec![
            TraceOp::Load(Addr(0)),
            TraceOp::Think(10),
            TraceOp::Store(Addr(64)),
        ])
    }

    #[test]
    fn blocking_core_walks_the_trace() {
        let mut c = Cpu::new(0, trace(), 1);
        assert_eq!(c.issue_state(line_of), IssueBlock::Ready);
        c.issue_miss(LineAddr(0));
        // Thinks never block on the window...
        assert_eq!(c.issue_state(line_of), IssueBlock::Ready);
        c.retire_now(); // Think
                        // ...but the store does while the load is outstanding.
        assert_eq!(c.issue_state(line_of), IssueBlock::WindowFull);
        c.complete(LineAddr(0));
        assert_eq!(c.issue_state(line_of), IssueBlock::Ready);
        c.issue_miss(LineAddr(1));
        c.complete(LineAddr(1));
        assert!(c.is_done());
        assert_eq!(c.ops_done(), 3);
        assert_eq!(c.mem_ops_done(), 2);
    }

    #[test]
    fn window_allows_overlapping_misses() {
        let t = CoreTrace::new(vec![
            TraceOp::Load(Addr(0)),
            TraceOp::Load(Addr(64)),
            TraceOp::Load(Addr(128)),
        ]);
        let mut c = Cpu::new(0, t, 2);
        c.issue_miss(LineAddr(0));
        assert_eq!(c.issue_state(line_of), IssueBlock::Ready);
        c.issue_miss(LineAddr(1));
        assert_eq!(c.issue_state(line_of), IssueBlock::WindowFull);
        assert_eq!(c.outstanding.len(), 2);
        c.complete(LineAddr(0));
        assert_eq!(c.issue_state(line_of), IssueBlock::Ready);
        c.issue_miss(LineAddr(2));
        c.complete(LineAddr(2));
        c.complete(LineAddr(1));
        assert!(c.is_done());
    }

    #[test]
    fn same_line_dependence_blocks_issue() {
        let t = CoreTrace::new(vec![TraceOp::Load(Addr(0)), TraceOp::Store(Addr(8))]);
        let mut c = Cpu::new(0, t, 4);
        c.issue_miss(LineAddr(0));
        // The store touches the same 64-byte line: must wait.
        assert_eq!(c.issue_state(line_of), IssueBlock::SameLine(LineAddr(0)));
        c.complete(LineAddr(0));
        assert_eq!(c.issue_state(line_of), IssueBlock::Ready);
    }

    #[test]
    fn empty_trace_is_immediately_done() {
        let c = Cpu::new(3, CoreTrace::default(), 1);
        assert!(c.is_done());
        assert_eq!(c.issue_state(line_of), IssueBlock::Drained);
        assert_eq!(c.core(), 3);
    }

    #[test]
    fn done_requires_drained_misses() {
        let t = CoreTrace::new(vec![TraceOp::Load(Addr(0))]);
        let mut c = Cpu::new(0, t, 1);
        c.issue_miss(LineAddr(0));
        assert!(!c.is_done(), "miss still in flight");
        c.complete(LineAddr(0));
        assert!(c.is_done());
    }

    #[test]
    #[should_panic(expected = "second miss")]
    fn double_issue_on_a_line_panics() {
        let t = CoreTrace::new(vec![TraceOp::Load(Addr(0)), TraceOp::Load(Addr(1))]);
        let mut c = Cpu::new(0, t, 4);
        c.issue_miss(LineAddr(0));
        c.issue_miss(LineAddr(0));
    }

    #[test]
    #[should_panic(expected = "completion for idle line")]
    fn spurious_completion_panics() {
        let mut c = Cpu::new(0, trace(), 1);
        c.complete(LineAddr(5));
    }
}
