//! Global coherence and data-integrity checker.
//!
//! The checker observes every permission change, store commit, load
//! observation and backup-copy event in the system and verifies the
//! invariants the protocols must uphold:
//!
//! * **SWMR** — at any instant a line has at most one writer, and no reader
//!   other than the writer while a writer exists.
//! * **Data-value integrity** — every load observes the version produced by
//!   the most recent committed store to that line (coherence order), and
//!   every store builds on the latest version: a transient fault that
//!   destroyed the only up-to-date copy of a dirty line surfaces here.
//! * **Bounded backups** — FtDirCMP keeps at most one backup copy per line
//!   in the chip plus at most one at the memory side (paper §3.1.1).
//!
//! Violations are recorded, not panicked on, so a simulation run can report
//! them alongside its other results (and tests can assert their absence).

use ftdircmp_sim::FxHashMap;

use ftdircmp_sim::Cycle;

use crate::ids::{LineAddr, NodeId};

/// Permission a node holds on a line, from the checker's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perm {
    /// No access (Invalid / Backup).
    None,
    /// Read permission (S, O, Ob).
    Read,
    /// Write permission (M, E, Mb, Eb — E counts as write: it may upgrade
    /// silently).
    Write,
}

#[derive(Debug, Default, Clone, Hash)]
struct LineTrack {
    writer: Option<NodeId>,
    readers: Vec<NodeId>,
    version: u64,
    backups: Vec<NodeId>,
}

/// The system-wide invariant checker.
///
/// # Example
///
/// ```
/// use ftdircmp_core::checker::{Checker, Perm};
/// use ftdircmp_core::{LineAddr, NodeId};
/// use ftdircmp_sim::Cycle;
///
/// let mut c = Checker::new(true);
/// c.set_perm(NodeId::L1(0), LineAddr(1), Perm::Write, Cycle::ZERO);
/// c.set_perm(NodeId::L1(1), LineAddr(1), Perm::Read, Cycle::ZERO); // violation!
/// assert_eq!(c.violations().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Checker {
    enabled: bool,
    lines: FxHashMap<LineAddr, LineTrack>,
    violations: Vec<String>,
    max_violations: usize,
}

impl Checker {
    /// Creates a checker; a disabled checker records nothing (useful for
    /// pure performance runs).
    pub fn new(enabled: bool) -> Self {
        Checker {
            enabled,
            lines: FxHashMap::default(),
            violations: Vec::new(),
            max_violations: 64,
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    fn violation(&mut self, at: Cycle, text: String) {
        if self.violations.len() < self.max_violations {
            self.violations.push(format!("[{at}] {text}"));
        }
    }

    /// Records a protocol-level error: a message or timeout that the reified
    /// transition tables declare impossible for the controller's current
    /// state, or one that no handler accepts.  Surfaced as a `PROTOCOL:`
    /// violation instead of panicking a campaign worker mid-sweep.
    pub(crate) fn protocol_error(&mut self, node: NodeId, addr: LineAddr, what: &str, at: Cycle) {
        if !self.enabled {
            return;
        }
        let msg = format!("PROTOCOL: {node} on {addr}: {what}");
        self.violation(at, msg);
    }

    /// Records that `node` now holds `perm` on `addr`.
    pub fn set_perm(&mut self, node: NodeId, addr: LineAddr, perm: Perm, at: Cycle) {
        if !self.enabled {
            return;
        }
        let t = self.lines.entry(addr).or_default();
        // Remove the node's previous standing.
        if t.writer == Some(node) {
            t.writer = None;
        }
        t.readers.retain(|n| *n != node);
        match perm {
            Perm::None => {}
            Perm::Read => {
                if let Some(w) = t.writer {
                    let msg = format!("SWMR: {node} granted READ on {addr} while {w} holds WRITE");
                    self.violation(at, msg);
                }
                let t = self.lines.entry(addr).or_default();
                t.readers.push(node);
            }
            Perm::Write => {
                let writer = t.writer;
                let readers: Vec<NodeId> = t.readers.clone();
                if let Some(w) = writer {
                    let msg = format!("SWMR: {node} granted WRITE on {addr} while {w} holds WRITE");
                    self.violation(at, msg);
                }
                for r in readers {
                    if r != node {
                        let msg =
                            format!("SWMR: {node} granted WRITE on {addr} while {r} holds READ");
                        self.violation(at, msg);
                    }
                }
                let t = self.lines.entry(addr).or_default();
                t.writer = Some(node);
            }
        }
    }

    /// Records a committed store producing `new_version`.
    ///
    /// The new version must be exactly one past the last committed version:
    /// a store built on stale data (lost update) shows up as a skip or
    /// repeat.
    pub fn store_committed(&mut self, node: NodeId, addr: LineAddr, new_version: u64, at: Cycle) {
        if !self.enabled {
            return;
        }
        let expected = self.lines.entry(addr).or_default().version + 1;
        if new_version != expected {
            let msg = format!(
                "DATA: store by {node} on {addr} produced v{new_version}, expected v{expected} (lost update?)"
            );
            self.violation(at, msg);
        }
        let t = self.lines.entry(addr).or_default();
        t.version = t.version.max(new_version);
    }

    /// Records a load that observed `version`.
    pub fn load_observed(&mut self, node: NodeId, addr: LineAddr, version: u64, at: Cycle) {
        if !self.enabled {
            return;
        }
        let current = self.lines.entry(addr).or_default().version;
        if version != current {
            let msg = format!(
                "DATA: load by {node} on {addr} observed v{version}, but last committed is v{current}"
            );
            self.violation(at, msg);
        }
    }

    /// Records creation of a backup copy at `node`.
    pub(crate) fn backup_created(&mut self, node: NodeId, addr: LineAddr, at: Cycle) {
        if !self.enabled {
            return;
        }
        let t = self.lines.entry(addr).or_default();
        if t.backups.contains(&node) {
            let msg = format!("BACKUP: duplicate backup at {node} for {addr}");
            self.violation(at, msg);
            return;
        }
        t.backups.push(node);
        let count = t.backups.len();
        if count > 2 {
            // §3.1.1 allows one backup in-chip plus one at the memory side.
            let msg = format!("BACKUP: {count} simultaneous backups for {addr}");
            self.violation(at, msg);
        }
    }

    /// The version of `addr`'s latest committed store (0: never written).
    pub(crate) fn version(&self, addr: LineAddr) -> u64 {
        self.lines.get(&addr).map_or(0, |t| t.version)
    }

    /// Hashes what the checker tracks of `addr`: its writer, readers,
    /// committed version and backups.
    pub(crate) fn hash_line(&self, addr: LineAddr, h: &mut impl std::hash::Hasher) {
        std::hash::Hash::hash(&self.lines.get(&addr), h);
    }

    /// Records deletion of the backup copy at `node`.
    pub(crate) fn backup_deleted(&mut self, node: NodeId, addr: LineAddr, _at: Cycle) {
        if !self.enabled {
            return;
        }
        let t = self.lines.entry(addr).or_default();
        t.readers.len(); // keep borrowck simple
        t.backups.retain(|n| *n != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: LineAddr = LineAddr(7);

    fn l1(i: u8) -> NodeId {
        NodeId::L1(i)
    }

    #[test]
    fn single_writer_is_fine() {
        let mut c = Checker::new(true);
        c.set_perm(l1(0), A, Perm::Write, Cycle::ZERO);
        c.set_perm(l1(0), A, Perm::None, Cycle::ZERO);
        c.set_perm(l1(1), A, Perm::Write, Cycle::ZERO);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn many_readers_are_fine() {
        let mut c = Checker::new(true);
        for i in 0..8 {
            c.set_perm(l1(i), A, Perm::Read, Cycle::ZERO);
        }
        assert!(c.violations().is_empty());
    }

    #[test]
    fn writer_plus_reader_violates() {
        let mut c = Checker::new(true);
        c.set_perm(l1(0), A, Perm::Write, Cycle::ZERO);
        c.set_perm(l1(1), A, Perm::Read, Cycle::new(5));
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("SWMR"));
        assert!(c.violations()[0].contains("[5c]"));
    }

    #[test]
    fn reader_then_writer_violates() {
        let mut c = Checker::new(true);
        c.set_perm(l1(0), A, Perm::Read, Cycle::ZERO);
        c.set_perm(l1(1), A, Perm::Write, Cycle::ZERO);
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn upgrade_by_same_node_is_fine() {
        let mut c = Checker::new(true);
        c.set_perm(l1(0), A, Perm::Read, Cycle::ZERO);
        c.set_perm(l1(0), A, Perm::Write, Cycle::ZERO);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn two_writers_violate() {
        let mut c = Checker::new(true);
        c.set_perm(l1(0), A, Perm::Write, Cycle::ZERO);
        c.set_perm(l1(1), A, Perm::Write, Cycle::ZERO);
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn version_sequence_checks() {
        let mut c = Checker::new(true);
        c.store_committed(l1(0), A, 1, Cycle::ZERO);
        c.store_committed(l1(0), A, 2, Cycle::ZERO);
        c.load_observed(l1(1), A, 2, Cycle::ZERO);
        assert!(c.violations().is_empty());
        assert_eq!(c.lines[&A].version, 2);
    }

    #[test]
    fn stale_load_is_flagged() {
        let mut c = Checker::new(true);
        c.store_committed(l1(0), A, 1, Cycle::ZERO);
        c.load_observed(l1(1), A, 0, Cycle::ZERO);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("observed v0"));
    }

    #[test]
    fn lost_update_is_flagged() {
        let mut c = Checker::new(true);
        c.store_committed(l1(0), A, 1, Cycle::ZERO);
        // A second store built on the pristine copy (lost update).
        c.store_committed(l1(1), A, 1, Cycle::ZERO);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("lost update"));
    }

    #[test]
    fn backups_bounded_by_two() {
        let mut c = Checker::new(true);
        c.backup_created(l1(0), A, Cycle::ZERO);
        c.backup_created(NodeId::L2(4), A, Cycle::ZERO);
        assert!(c.violations().is_empty());
        c.backup_created(NodeId::Mem(0), A, Cycle::ZERO);
        assert_eq!(c.violations().len(), 1);
        c.backup_deleted(l1(0), A, Cycle::ZERO);
        c.backup_deleted(NodeId::L2(4), A, Cycle::ZERO);
    }

    #[test]
    fn backup_delete_then_recreate_is_legal() {
        // Ownership migration (paper §3.1.1): each hop creates a backup at
        // the previous owner and deletes it once AckBD arrives. Any chain
        // of create/delete pairs must stay inside the bound.
        let mut c = Checker::new(true);
        for hop in 0..10u8 {
            c.backup_created(l1(hop % 4), A, Cycle::new(u64::from(hop) * 100));
            c.backup_created(NodeId::Mem(0), A, Cycle::new(u64::from(hop) * 100 + 10));
            c.backup_deleted(NodeId::Mem(0), A, Cycle::new(u64::from(hop) * 100 + 20));
            c.backup_deleted(l1(hop % 4), A, Cycle::new(u64::from(hop) * 100 + 30));
        }
        assert!(c.violations().is_empty(), "{:#?}", c.violations());
    }

    #[test]
    fn third_simultaneous_backup_violates_even_after_churn() {
        // The bound is on *simultaneous* backups: deletions must free the
        // slot, and a third live backup must still be flagged afterwards.
        let mut c = Checker::new(true);
        c.backup_created(l1(0), A, Cycle::ZERO);
        c.backup_created(NodeId::Mem(0), A, Cycle::ZERO);
        c.backup_deleted(l1(0), A, Cycle::ZERO);
        c.backup_created(l1(1), A, Cycle::ZERO);
        assert!(c.violations().is_empty());
        c.backup_created(l1(2), A, Cycle::new(9));
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("3 simultaneous backups"));
        assert!(c.violations()[0].contains("[9c]"));
    }

    #[test]
    fn backup_bound_is_per_line() {
        // Two backups on each of several distinct lines never interact.
        let mut c = Checker::new(true);
        for line in 0..8u64 {
            c.backup_created(l1(0), LineAddr(line), Cycle::ZERO);
            c.backup_created(NodeId::Mem(0), LineAddr(line), Cycle::ZERO);
        }
        assert!(c.violations().is_empty());
        assert_eq!(c.lines.len(), 8);
    }

    #[test]
    fn deleting_a_nonexistent_backup_is_harmless() {
        let mut c = Checker::new(true);
        c.backup_deleted(l1(3), A, Cycle::ZERO);
        c.backup_created(l1(0), A, Cycle::ZERO);
        c.backup_deleted(l1(1), A, Cycle::ZERO); // wrong node: no effect
        c.backup_created(NodeId::Mem(0), A, Cycle::ZERO);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn duplicate_backup_at_same_node_flagged() {
        let mut c = Checker::new(true);
        c.backup_created(l1(0), A, Cycle::ZERO);
        c.backup_created(l1(0), A, Cycle::ZERO);
        assert_eq!(c.violations().len(), 1);
        assert!(c.violations()[0].contains("duplicate"));
    }

    #[test]
    fn disabled_checker_records_nothing() {
        let mut c = Checker::new(false);
        c.set_perm(l1(0), A, Perm::Write, Cycle::ZERO);
        c.set_perm(l1(1), A, Perm::Write, Cycle::ZERO);
        c.store_committed(l1(0), A, 99, Cycle::ZERO);
        assert!(c.violations().is_empty());
        assert!(!c.enabled);
        assert_eq!(c.lines.len(), 0);
    }

    #[test]
    fn violation_list_is_capped() {
        let mut c = Checker::new(true);
        for i in 0..100u8 {
            c.set_perm(l1(i % 16), A, Perm::Write, Cycle::ZERO);
        }
        assert!(c.violations().len() <= 64);
    }
}
