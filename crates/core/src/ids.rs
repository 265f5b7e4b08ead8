//! Node and address identifiers.

use std::fmt;

/// A coherence protocol node: an L1 cache, an L2 cache bank, or a memory
/// controller (paper §3.1 footnote: "a node can be either an L1 cache, an L2
/// cache bank or a memory bank").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// Private L1 cache of tile `0..n_tiles`.
    L1(u8),
    /// Shared L2 bank at tile `0..n_tiles` (home for an address slice).
    L2(u8),
    /// Memory controller `0..n_mems`.
    Mem(u8),
}

impl NodeId {
    /// Tile or controller index.
    pub(crate) fn index(self) -> u8 {
        match self {
            NodeId::L1(i) | NodeId::L2(i) | NodeId::Mem(i) => i,
        }
    }

    /// Whether this node is a memory controller.
    pub(crate) fn is_mem(self) -> bool {
        matches!(self, NodeId::Mem(_))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::L1(i) => write!(f, "L1-{i}"),
            NodeId::L2(i) => write!(f, "L2-{i}"),
            NodeId::Mem(i) => write!(f, "Mem-{i}"),
        }
    }
}

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address, for a line size of
    /// `line_bytes` (must be a power of two).
    pub(crate) fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 / line_bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line address (byte address divided by the line size).
///
/// All coherence state is tracked at line granularity; the protocols never
/// look inside a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Home L2 bank for this line (line-interleaved across banks).
    pub(crate) fn home_bank(self, n_banks: u8) -> u8 {
        (self.0 % u64::from(n_banks)) as u8
    }

    /// Home memory controller for this line (line-interleaved).
    pub(crate) fn home_mem(self, n_mems: u8) -> u8 {
        (self.0 % u64::from(n_mems)) as u8
    }

    /// First byte address of the line.
    pub(crate) fn base_addr(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A compact set of L1 node indices (the directory's sharer vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// Creates an empty set.
    pub(crate) const fn new() -> Self {
        SharerSet(0)
    }

    /// Adds tile `i`.
    pub(crate) fn insert(&mut self, i: u8) {
        self.0 |= 1 << i;
    }

    /// Removes tile `i`.
    pub(crate) fn remove(&mut self, i: u8) {
        self.0 &= !(1 << i);
    }

    /// Whether tile `i` is present.
    pub(crate) fn contains(self, i: u8) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of tiles present.
    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Removes all tiles.
    pub(crate) fn clear(&mut self) {
        self.0 = 0;
    }

    /// Iterates over the tile indices present.
    pub(crate) fn iter(self) -> impl Iterator<Item = u8> {
        (0..64u8).filter(move |i| self.contains(*i))
    }
}

impl FromIterator<u8> for SharerSet {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut s = SharerSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_predicates() {
        assert!(NodeId::Mem(0).is_mem());
        assert!(!NodeId::L1(3).is_mem());
        assert_eq!(NodeId::L2(7).index(), 7);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::L1(2).to_string(), "L1-2");
        assert_eq!(NodeId::Mem(1).to_string(), "Mem-1");
        assert_eq!(Addr(0x40).to_string(), "0x40");
    }

    #[test]
    fn addr_to_line_mapping() {
        assert_eq!(Addr(0).line(64), LineAddr(0));
        assert_eq!(Addr(63).line(64), LineAddr(0));
        assert_eq!(Addr(64).line(64), LineAddr(1));
        assert_eq!(LineAddr(1).base_addr(64), Addr(64));
    }

    #[test]
    fn home_mapping_is_interleaved() {
        assert_eq!(LineAddr(0).home_bank(16), 0);
        assert_eq!(LineAddr(17).home_bank(16), 1);
        assert_eq!(LineAddr(5).home_mem(4), 1);
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(10);
        s.insert(3);
        assert_eq!(s.0.count_ones(), 2);
        assert!(s.contains(3));
        assert!(!s.contains(4));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.0.count_ones(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn sharer_set_iteration_and_collect() {
        let s: SharerSet = [1u8, 5, 9].into_iter().collect();
        let got: Vec<u8> = s.iter().collect();
        assert_eq!(got, vec![1, 5, 9]);
        assert_eq!(s.to_string(), "{1,5,9}");
    }
}
