//! Indexed per-line controller state storage.
//!
//! The controllers used to keep one `FxHashMap<LineAddr, _>` per kind of
//! in-flight structure (miss MSHRs, writeback MSHRs, backups, TBEs, waiting
//! queues, …), costing one hash lookup per structure per message. A
//! [`LineTable`] replaces them with a single *slab*: one hash lookup maps a
//! line address to a compact `u32` handle, and the handle indexes a dense
//! `Vec` of per-line state structs that hold every facet together. A message
//! handler therefore resolves all of a line's in-flight state with one
//! lookup, and facet updates are plain field stores.
//!
//! # Slot lifetime and iteration order
//!
//! Slots are allocated on first touch and never freed; a facet going away is
//! represented by `None`/empty rather than map removal (the same policy the
//! old `unblocked` map already used). Memory is bounded by the number of
//! distinct lines a controller ever touches.
//!
//! # Iteration-order independence (determinism contract)
//!
//! [`LineTable::iter`] yields slots in **first-touch order**, which is a
//! pure function of the execution history and therefore deterministic. More
//! importantly, *no protocol decision may depend on iteration order at all*:
//! the iterator is only used for end-of-run idleness accounting and
//! human-readable deadlock diagnostics. The old per-facet hash maps were
//! never iterated on the protocol path either — this type makes that
//! guarantee explicit and structural.

use ftdircmp_sim::FxHashMap;

use crate::ids::LineAddr;

/// Slab of per-line state, indexed by a compact handle.
#[derive(Debug, Clone)]
pub(crate) struct LineTable<T> {
    index: FxHashMap<LineAddr, u32>,
    slots: Vec<(LineAddr, T)>,
}

impl<T: Default> LineTable<T> {
    pub(crate) fn new() -> Self {
        LineTable {
            index: FxHashMap::default(),
            slots: Vec::new(),
        }
    }

    /// The line's state, if it was ever touched.
    #[inline]
    pub(crate) fn get(&self, addr: LineAddr) -> Option<&T> {
        self.index.get(&addr).map(|&i| &self.slots[i as usize].1)
    }

    /// The handle of `addr`'s slot, if the line was ever touched.
    #[inline]
    pub(crate) fn find(&self, addr: LineAddr) -> Option<u32> {
        self.index.get(&addr).copied()
    }

    /// The handle of `addr`'s slot, allocated on first touch. A handle stays
    /// valid for the table's lifetime: slots are never freed.
    #[inline]
    pub(crate) fn handle(&mut self, addr: LineAddr) -> u32 {
        let slots = &mut self.slots;
        *self.index.entry(addr).or_insert_with(|| {
            let i = u32::try_from(slots.len()).expect("line table exceeds u32 handles");
            slots.push((addr, T::default()));
            i
        })
    }

    /// The slot of handle `h`.
    #[inline]
    pub(crate) fn at(&self, h: u32) -> &T {
        &self.slots[h as usize].1
    }

    /// The slot of handle `h`, mutably.
    #[inline]
    pub(crate) fn at_mut(&mut self, h: u32) -> &mut T {
        &mut self.slots[h as usize].1
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.slots.iter().map(|(a, t)| (*a, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_allocates_and_get_finds() {
        let mut t: LineTable<u64> = LineTable::new();
        assert_eq!((t.get(LineAddr(7)), t.find(LineAddr(7))), (None, None));
        let h = t.handle(LineAddr(7));
        *t.at_mut(h) = 42;
        assert_eq!(t.get(LineAddr(7)), Some(&42));
        assert_eq!(t.find(LineAddr(7)), Some(h));
    }

    #[test]
    fn slots_persist_after_reset_to_default() {
        let mut t: LineTable<Option<u32>> = LineTable::new();
        let h = t.handle(LineAddr(1));
        *t.at_mut(h) = Some(9);
        t.at_mut(h).take();
        // The slot survives; the facet is simply absent.
        assert_eq!(t.get(LineAddr(1)), Some(&None));
    }

    #[test]
    fn iter_is_first_touch_order() {
        let mut t: LineTable<u8> = LineTable::new();
        for a in [5u64, 1, 9, 3] {
            t.handle(LineAddr(a));
        }
        t.handle(LineAddr(1)); // re-touch must not reorder
        let order: Vec<u64> = t.iter().map(|(a, _)| a.0).collect();
        assert_eq!(order, vec![5, 1, 9, 3]);
    }
}
