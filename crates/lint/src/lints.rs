//! The table lints: completeness (1), reachability (3), resource pairing
//! (4) and FT gating (5). Spec drift (2) lives in [`crate::spec`].

use std::collections::BTreeMap;

use ftdircmp_core::search::{search, Bounds, Failure, ON_TIME};
use ftdircmp_core::transitions::{
    Controller, ControllerTable, Coverage, Gate, Resource, Transition,
};

use crate::Finding;

/// Lint 1 — completeness.  Every (state, event) pair in the controller's
/// event universe must be covered by a row or an explicit exception, and
/// exact-state exceptions must not contradict rows for the same pair.
#[must_use]
pub fn completeness(table: &ControllerTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    for state in &table.states {
        for event in table.event_universe() {
            if table.coverage(state.name, event) == Coverage::Uncovered {
                findings.push(Finding::error(
                    "completeness",
                    Some(table.controller),
                    format!(
                        "({}, {event}) is neither handled nor declared impossible/ignored",
                        state.name
                    ),
                ));
            }
        }
    }
    for ex in &table.exceptions {
        if ex.state != "*" && table.rows_for(ex.state, ex.event).next().is_some() {
            findings.push(Finding::error(
                "completeness",
                Some(table.controller),
                format!(
                    "({}, {}) has both a transition row and an explicit exception",
                    ex.state, ex.event
                ),
            ));
        }
    }
    findings
}

/// Signed resource multiset.
type Books = BTreeMap<Resource, i64>;

fn add(books: &mut Books, rs: &[Resource], delta: i64) {
    for &r in rs {
        *books.entry(r).or_insert(0) += delta;
    }
}

fn books_of(table: &ControllerTable, row: &Transition, ft: bool) -> Books {
    let mut books = Books::new();
    let src = table.state(row.src).expect("validated");
    add(&mut books, &src.implied(ft), 1);
    add(&mut books, &row.alloc, 1);
    add(&mut books, &row.free, -1);
    if ft {
        add(&mut books, &row.ft_alloc, 1);
        add(&mut books, &row.ft_free, -1);
    }
    for next in &row.next {
        let n = table.state(next).expect("validated");
        add(&mut books, &n.implied(ft), -1);
    }
    books.retain(|_, v| *v != 0);
    books
}

fn describe(books: &Books) -> String {
    books
        .iter()
        .map(|(r, v)| {
            if *v > 0 {
                format!("{} leaked x{v}", r.name())
            } else {
                format!("{} double-freed x{}", r.name(), -v)
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// A row as a finding names it: `` `src @ event` `` and its guard, if any.
fn row_name(row: &Transition) -> String {
    match row.guard {
        "" => format!("`{} @ {}`", row.src, row.event),
        guard => format!("`{} @ {}` [{guard}]", row.src, row.event),
    }
}

/// Lint 4 — resource pairing.  For each row and each mode in which it is
/// active, `implied(src) + alloc - free` must equal the sum of the
/// resources implied by the next states: MSHRs/TBEs/backups are allocated
/// and freed in pairs, and timers are armed exactly when a state that
/// implies them is entered (and disarmed when it is left).  Also enforces
/// the at-most-one-backup invariant (§3.1) structurally.
#[must_use]
pub fn resource_pairing(table: &ControllerTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    for row in &table.rows {
        for ft in [false, true] {
            if !row.gate.active(ft) {
                continue;
            }
            let books = books_of(table, row, ft);
            if !books.is_empty() {
                findings.push(Finding::error(
                    "resource-pairing",
                    Some(table.controller),
                    format!(
                        "row {} ({} mode): {}",
                        row_name(row),
                        if ft { "ft" } else { "non-ft" },
                        describe(&books)
                    ),
                ));
            }
        }
    }
    // At most one backup per line per node: only a single facet family may
    // contain states that imply a backup resource, so no facet combination
    // can ever hold two.
    for resource in [Resource::Backup, Resource::MemBackup] {
        let families: Vec<&str> = table
            .states
            .iter()
            .filter(|s| s.implies.contains(&resource) || s.ft_implies.contains(&resource))
            .map(|s| s.family)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        if families.len() > 1 {
            findings.push(Finding::error(
                "resource-pairing",
                Some(table.controller),
                format!(
                    "states implying {} span families {:?}: a line could hold two backups at once (§3.1)",
                    resource.name(),
                    families
                ),
            ));
        }
    }
    findings
}

/// Lint 5 — FT gating (static half).  Rows active without fault tolerance
/// must not produce FT-only states, rows that can never run are flagged,
/// and `ft_alloc`/`ft_free` on a row that never runs with FT is
/// contradictory.  The dynamic half — no FT-only state reached in the
/// search without fault tolerance — is in [`reachability`].
#[must_use]
pub fn ft_gating(table: &ControllerTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    for row in &table.rows {
        let src_ft = table.state(row.src).expect("validated").ft_only;
        if src_ft && row.gate == Gate::NonFtOnly {
            findings.push(Finding::error(
                "ft-gating",
                Some(table.controller),
                format!(
                    "row `{} @ {}` is non-ft-gated but its source state only exists with FT",
                    row.src, row.event
                ),
            ));
        }
        if row.gate == Gate::NonFtOnly && !(row.ft_alloc.is_empty() && row.ft_free.is_empty()) {
            findings.push(Finding::error(
                "ft-gating",
                Some(table.controller),
                format!(
                    "row `{} @ {}` is non-ft-gated but declares ft resource deltas",
                    row.src, row.event
                ),
            ));
        }
        // A row reachable without FT (gate both/non-ft, non-FT source) must
        // not enter an FT-only state.
        if row.gate != Gate::FtOnly && !src_ft {
            for next in &row.next {
                if table.state(next).expect("validated").ft_only {
                    findings.push(Finding::error(
                        "ft-gating",
                        Some(table.controller),
                        format!(
                            "row `{} @ {}` can run without FT but enters FT-only state {next}",
                            row.src, row.event
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Failures of defects that are known and open (ROADMAP.md, Known
/// defects), each pinned by its exact text: noted instead of failing the
/// gate. Any other failure, however alike, is an error.
const KNOWN_DEFECTS: [&str; 4] = [
    // ROADMAP item 1(f): a GetX that outlived its reissue is served as a new
    // request: the other L1 keeps its forwarded-data backup for good and
    // the directory names an owner without the data. No row can tell it
    // from a new request. Four shortest paths: a slow GetX at either L1, a
    // lost GetX at L1-0 and a lost DataEx at L1-1, each reissued early.
    "records left at quiescence: L1-1 backup line:0x0 dest=L1-0 serial=#236 kind=ForwardedData { acks: 0 }",
    "records left at quiescence: L1-0 backup line:0x0 dest=L1-1 serial=#149 kind=ForwardedData { acks: 0 }",
    "records left at quiescence: L1-1 backup line:0x0 dest=L1-0 serial=#237 kind=ForwardedData { acks: 0 }",
    "records left at quiescence: L1-0 backup line:0x0 dest=L1-1 serial=#150 kind=ForwardedData { acks: 0 }",
];

/// A failure of the `mode` search: an error with its path, or a note if it
/// is a known defect's.
fn failure(mode: &str, f: &Failure) -> Finding {
    let message = format!(
        "{mode} search: {}; path:\n    {}",
        f.what,
        f.steps.join("\n    ")
    );
    if KNOWN_DEFECTS.contains(&f.what.as_str()) {
        Finding::note("reachability", None, format!("known defect: {message}"))
    } else {
        Finding::error("reachability", None, message)
    }
}

/// Lint 3 — reachability, and the dynamic half of lint 5: the state search
/// of `ftdircmp_core::search` over the real controllers running `tables`
/// (L1, L2, memory), without and then with fault tolerance, at `bounds`.
/// Each failure is an error with its path, unless it is a known defect's, a
/// note. A line's facet enters a state only through a row that names it, so
/// a row fired without fault tolerance that names an FT-only state is lint
/// 5's error. A row that fires in neither search is noted: it lies beyond
/// the bounds, or no state reaches it.
#[must_use]
pub fn reachability(tables: [&'static ControllerTable; 3], bounds: [Bounds; 2]) -> Vec<Finding> {
    let (mut findings, mut fired) = (Vec::new(), std::collections::BTreeSet::new());
    for (ft, bounds) in [false, true].into_iter().zip(bounds) {
        let mode = if ft { "ft" } else { "non-ft" };
        let report = match search(tables, ft, bounds) {
            Ok(report) => report,
            Err(e) => return vec![Finding::error("reachability", None, e)],
        };
        let (states, rows) = (report.states, report.fired.len());
        let fair = if ft {
            format!("; on-time firings fair, at most {ON_TIME} per record")
        } else {
            String::new()
        };
        let summary = format!(
            "{mode} search exhausted {states} states ({bounds:?}{fair}); {rows} rows fired"
        );
        findings.push(Finding::note("reachability", None, summary));
        findings.extend(report.failures.iter().map(|f| failure(mode, f)));
        for &(c, i) in report.fired.iter().filter(|_| !ft) {
            let (table, row) = (tables[c as usize], &tables[c as usize].rows[i]);
            let named = std::iter::once(&row.src).chain(&row.next);
            for s in named.filter(|s| table.state(s).is_some_and(|s| s.ft_only)) {
                let (src, event) = (row.src, row.event);
                let what = format!(
                    "FT-only state {s} reached without fault tolerance (`{src} @ {event}`)"
                );
                findings.push(Finding::error("ft-gating", Some(c), what));
            }
        }
        fired.extend(report.fired);
    }
    for (c, table) in Controller::ALL.into_iter().zip(tables) {
        for (_, row) in (table.rows.iter().enumerate()).filter(|(i, _)| !fired.contains(&(c, *i))) {
            let message = format!("row {} never fires in the search", row_name(row));
            findings.push(Finding::note("reachability", Some(c), message));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    /// The stale request's known failure, and the same failure one serial
    /// on, with the first steps of its path: a slow `GetX` and an early
    /// firing on `A`.
    #[test]
    fn only_a_known_defects_exact_failure_is_a_note() {
        let steps = [
            "L1-0 issues Store A",
            "L1-1 issues Store A",
            "L1-0's lost-request timer on A fires early",
        ];
        let at = |what: &str| Failure {
            what: what.to_owned(),
            steps: steps.map(str::to_owned).to_vec(),
        };
        let known = failure("ft", &at(KNOWN_DEFECTS[0]));
        assert_eq!(known.severity, Severity::Note, "{known}");
        assert!(known
            .message
            .starts_with("known defect: ft search: records left"));
        let other = KNOWN_DEFECTS[0].replace("#236", "#238");
        let other = failure("ft", &at(&other));
        assert_eq!(other.severity, Severity::Error, "{other}");
        assert!(other.message.contains("fires early"), "{other}");
    }
}
