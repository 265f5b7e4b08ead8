//! `ftdircmp-lint` — static protocol analyzer for the reified FtDirCMP
//! transition tables (`ftdircmp_core::transitions`).
//!
//! Five lints, run by `ftdircmp-lint check`:
//!
//! 1. **Completeness** — every (state, event) pair either has a transition
//!    row or is explicitly declared impossible/ignored.  No silent gaps.
//! 2. **Spec drift** — the machine-readable tables embedded in PROTOCOL.md
//!    §5 match the tables compiled into the simulator.
//! 3. **Abstract reachability** — an abstract single-line model of two L1s,
//!    the home L2 bank and memory is explored exhaustively; transitions
//!    that never fire and "impossible" pairs that are actually reachable
//!    are flagged.
//! 4. **Resource pairing** — per row, the resource book-keeping balances:
//!    `implied(src) + alloc - free == Σ implied(next)` in each mode, timers
//!    are armed/disarmed in matching pairs, and at most one backup per line
//!    can exist at a node (§3.1).
//! 5. **FT gating** — fault-tolerance-only states and rows are unreachable
//!    when fault tolerance is disabled.

use std::fmt;

use ftdircmp_core::msg::MsgType;
use ftdircmp_core::proto::TimeoutKind;
use ftdircmp_core::transitions::{Controller, CpuOp, Event};

pub mod lints;
pub mod model;
pub mod spec;

/// Severity of a finding.  `Error` findings fail `check`; `Note`s do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Note,
    Error,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub(crate) lint: &'static str,
    pub severity: Severity,
    pub(crate) controller: Option<Controller>,
    pub message: String,
}

impl Finding {
    #[must_use]
    pub(crate) fn error(
        lint: &'static str,
        controller: Option<Controller>,
        message: String,
    ) -> Self {
        Finding {
            lint,
            severity: Severity::Error,
            controller,
            message,
        }
    }

    #[must_use]
    pub(crate) fn note(
        lint: &'static str,
        controller: Option<Controller>,
        message: String,
    ) -> Self {
        Finding {
            lint,
            severity: Severity::Note,
            controller,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Note => "note",
        };
        match self.controller {
            Some(c) => write!(f, "{sev}[{}] {}: {}", self.lint, c.name(), self.message),
            None => write!(f, "{sev}[{}] {}", self.lint, self.message),
        }
    }
}

/// Parses an event from its display form (`GetS`, `cpu:Load`,
/// `timeout:lost-request`, `victim`), the inverse of `Event`'s `Display`.
#[must_use]
pub fn parse_event(s: &str) -> Option<Event> {
    if s == "victim" {
        return Some(Event::Victim);
    }
    if let Some(op) = s.strip_prefix("cpu:") {
        return CpuOp::ALL
            .into_iter()
            .find(|o| o.name() == op)
            .map(Event::Cpu);
    }
    if let Some(k) = s.strip_prefix("timeout:") {
        return TimeoutKind::ALL
            .into_iter()
            .find(|t| t.label() == k)
            .map(Event::Timeout);
    }
    MsgType::ALL
        .into_iter()
        .find(|t| t.name() == s)
        .map(Event::Msg)
}

/// Options for a `check` run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Path to PROTOCOL.md (lint 2).  `None` skips the spec-drift lint.
    pub spec_path: Option<std::path::PathBuf>,
    /// State-count cap for the abstract model exploration.
    pub max_states: usize,
    /// In-flight message cap for the abstract model.
    pub max_inflight: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            spec_path: Some(std::path::PathBuf::from("PROTOCOL.md")),
            max_states: 400_000,
            max_inflight: 7,
        }
    }
}

/// Runs all five lints over the compiled-in tables.
#[must_use]
pub fn run_check(opts: &CheckOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in Controller::ALL {
        let table = ftdircmp_core::transitions::table(c);
        findings.extend(lints::completeness(table));
        findings.extend(lints::resource_pairing(table));
        findings.extend(lints::ft_gating(table));
    }
    if let Some(path) = &opts.spec_path {
        match std::fs::read_to_string(path) {
            Ok(text) => findings.extend(spec::drift(&text)),
            Err(e) => findings.push(Finding::error(
                "spec-drift",
                None,
                format!("cannot read {}: {e}", path.display()),
            )),
        }
    }
    findings.extend(model::reachability(opts.max_states, opts.max_inflight));
    findings.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.lint.cmp(b.lint)));
    findings
}
