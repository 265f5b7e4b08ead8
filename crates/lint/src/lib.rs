//! `ftdircmp-lint` — static protocol analyzer for the reified FtDirCMP
//! transition tables (`ftdircmp_core::transitions`).
//!
//! Five lints, run by `ftdircmp-lint check`:
//!
//! 1. **Completeness** — every (state, event) pair either has a transition
//!    row or is explicitly declared impossible/ignored.  No silent gaps.
//! 2. **Spec drift** — the machine-readable tables embedded in PROTOCOL.md
//!    §5 match the tables compiled into the simulator.
//! 3. **Reachability** — a bounded explicit-state search
//!    ([`ftdircmp_core::search`]) runs the real controllers on two L1s, one
//!    home bank and memory over two lines, without and with fault
//!    tolerance, and exhausts every state within [`BOUNDS`]. A checker
//!    violation (an `Impossible` or uncovered pair delivered among them), a
//!    lost last copy or a stuck state is an error with its path; rows that
//!    never fire are noted.
//! 4. **Resource pairing** — per row, the resource book-keeping balances:
//!    `implied(src) + alloc - free == Σ implied(next)` in each mode, timers
//!    are armed/disarmed in matching pairs, and at most one backup per line
//!    can exist at a node (§3.1).
//! 5. **FT gating** — fault-tolerance-only states and rows are unreachable
//!    when fault tolerance is disabled: statically from the rows, and by
//!    the rows the search fires without fault tolerance.

use std::fmt;

use ftdircmp_core::msg::MsgType;
use ftdircmp_core::proto::TimeoutKind;
use ftdircmp_core::search::Bounds;
use ftdircmp_core::transitions::{table, Controller, CpuOp, Event};

pub mod lints;
pub mod spec;

/// The search bounds of lint 3, without and with fault tolerance: two ops
/// per L1 (79 thousand states); one op per L1, one drop and one early
/// firing (1.7 million states, about 25 s and 0.5 GB in release). Two ops
/// per L1 with a drop ran past 2.5 GB, so fault tolerance runs with one.
pub const BOUNDS: [Bounds; 2] = [
    Bounds {
        ops: 2,
        drops: 0,
        early: 0,
    },
    Bounds {
        ops: 1,
        drops: 1,
        early: 1,
    },
];

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

/// Runs all five lints over the compiled-in tables, reading PROTOCOL.md
/// for lint 2 from `spec_path` (`None` skips it).
#[must_use]
pub fn run_check(spec_path: Option<&std::path::Path>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in Controller::ALL {
        let table = table(c);
        findings.extend(lints::completeness(table));
        findings.extend(lints::resource_pairing(table));
        findings.extend(lints::ft_gating(table));
    }
    if let Some(path) = spec_path {
        match std::fs::read_to_string(path) {
            Ok(text) => findings.extend(spec::drift(&text)),
            Err(e) => findings.push(Finding::error(
                "spec-drift",
                None,
                format!("cannot read {}: {e}", path.display()),
            )),
        }
    }
    let tables = Controller::ALL.map(table);
    findings.extend(lints::reachability(tables, BOUNDS));
    findings.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.lint.cmp(b.lint)));
    findings
}
