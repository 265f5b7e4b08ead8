//! Generic set-associative cache array with LRU replacement.
//!
//! Used for both the L1 arrays and the L2 bank arrays. Entries that cannot
//! be evicted (mid-transaction lines) are pinned by the caller's victim
//! filter; when a fill finds every way pinned, the new line is parked in a
//! small *overflow buffer* (a victim-buffer analogue) so the protocol never
//! stalls on replacement. Overflow occupancy is reported in the statistics.

use ftdircmp_sim::FxHashMap;

use crate::ids::LineAddr;

/// Result of inserting a line into the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome<V> {
    /// A victim evicted to make room, if any.
    pub evicted: Option<(LineAddr, V)>,
    /// The line landed in the overflow buffer because every way was pinned.
    pub overflowed: bool,
}

#[derive(Debug, Clone)]
struct Way<V> {
    addr: LineAddr,
    value: V,
    stamp: u64,
}

/// A set-associative cache keyed by [`LineAddr`] with LRU replacement and an
/// overflow buffer.
///
/// # Example
///
/// ```
/// use ftdircmp_core::cache::SetAssocCache;
/// use ftdircmp_core::LineAddr;
///
/// let mut c: SetAssocCache<&str> = SetAssocCache::new(2, 2);
/// c.insert(LineAddr(0), "a", |_, _| true);
/// assert_eq!(c.get(LineAddr(0)), Some(&"a"));
/// assert_eq!(c.get(LineAddr(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    /// The `sets × assoc` way slots in one block, each the index in `ways`
    /// of the line it holds: set `i` owns slots `i * assoc..(i + 1) * assoc`,
    /// of which the first `occupied[i]` are in use, in insertion order.
    /// Free slots hold stale values.
    way_of: Vec<u32>,
    /// Occupied way slots per set.
    occupied: Vec<u32>,
    /// The resident lines of the array, packed in no particular order, so
    /// that building and cloning a cache costs what it holds, not what it
    /// could hold.
    ways: Vec<Way<V>>,
    assoc: usize,
    clock: u64,
    overflow: FxHashMap<LineAddr, V>,
    overflow_peak: usize,
    evictions: u64,
}

impl<V> SetAssocCache<V> {
    /// Creates a cache with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero, or if there are more than
    /// `u32::MAX` way slots.
    pub fn new(sets: u64, assoc: u32) -> Self {
        assert!(sets > 0 && assoc > 0, "cache dimensions must be positive");
        let slots = sets
            .checked_mul(u64::from(assoc))
            .and_then(|n| u32::try_from(n).ok())
            .expect("cache has at most u32::MAX ways") as usize;
        SetAssocCache {
            way_of: vec![0; slots],
            occupied: vec![0; sets as usize],
            ways: Vec::new(),
            assoc: assoc as usize,
            clock: 0,
            overflow: FxHashMap::default(),
            overflow_peak: 0,
            evictions: 0,
        }
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.0 % self.occupied.len() as u64) as usize
    }

    /// The occupied way slots of set `idx`.
    fn set_slots(&self, idx: usize) -> std::ops::Range<usize> {
        let base = idx * self.assoc;
        base..base + self.occupied[idx] as usize
    }

    /// The line held by an occupied way slot.
    fn way(&self, slot: usize) -> &Way<V> {
        &self.ways[self.way_of[slot] as usize]
    }

    /// The way slot holding `addr`, if the line is in the array.
    fn slot_of(&self, addr: LineAddr) -> Option<usize> {
        self.set_slots(self.set_index(addr))
            .find(|&slot| self.way(slot).addr == addr)
    }

    /// Appends `way` to set `idx`, which must have a free way slot.
    fn push_way(&mut self, idx: usize, way: Way<V>) {
        let slot = self.set_slots(idx).end;
        self.way_of[slot] = self.ways.len() as u32;
        self.ways.push(way);
        self.occupied[idx] += 1;
    }

    /// Looks up a line without touching LRU state.
    pub fn get(&self, addr: LineAddr) -> Option<&V> {
        match self.slot_of(addr) {
            Some(slot) => Some(&self.way(slot).value),
            None if self.overflow.is_empty() => None,
            None => self.overflow.get(&addr),
        }
    }

    /// Looks up a line mutably and refreshes its LRU position.
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut V> {
        self.clock += 1;
        match self.slot_of(addr) {
            Some(slot) => {
                let way = &mut self.ways[self.way_of[slot] as usize];
                way.stamp = self.clock;
                Some(&mut way.value)
            }
            None if self.overflow.is_empty() => None,
            None => self.overflow.get_mut(&addr),
        }
    }

    /// Whether the line is present (in the array or overflow buffer).
    pub(crate) fn contains(&self, addr: LineAddr) -> bool {
        self.get(addr).is_some()
    }

    /// Inserts a line, evicting the LRU way for which `evictable` returns
    /// true if the set is full. If every way is pinned the line goes to the
    /// overflow buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (protocol bugs should be loud).
    pub fn insert(
        &mut self,
        addr: LineAddr,
        value: V,
        evictable: impl Fn(LineAddr, &V) -> bool,
    ) -> InsertOutcome<V> {
        assert!(!self.contains(addr), "line {addr} inserted twice");
        self.clock += 1;
        let way = Way {
            addr,
            value,
            stamp: self.clock,
        };
        let idx = self.set_index(addr);
        if (self.occupied[idx] as usize) < self.assoc {
            self.push_way(idx, way);
            return InsertOutcome {
                evicted: None,
                overflowed: false,
            };
        }
        // Evict the least-recently-used evictable way.
        let victim = self
            .set_slots(idx)
            .filter(|&slot| evictable(self.way(slot).addr, &self.way(slot).value))
            .min_by_key(|&slot| self.way(slot).stamp);
        if let Some(slot) = victim {
            // The newcomer takes over the victim's way slot.
            let old = std::mem::replace(&mut self.ways[self.way_of[slot] as usize], way);
            self.evictions += 1;
            InsertOutcome {
                evicted: Some((old.addr, old.value)),
                overflowed: false,
            }
        } else {
            self.overflow.insert(addr, way.value);
            self.overflow_peak = self.overflow_peak.max(self.overflow.len());
            InsertOutcome {
                evicted: None,
                overflowed: true,
            }
        }
    }

    /// Removes a line, returning its value. Overflowed lines mapping to the
    /// freed set are promoted back into the array opportunistically.
    pub fn remove(&mut self, addr: LineAddr) -> Option<V> {
        if !self.overflow.is_empty() {
            if let Some(v) = self.overflow.remove(&addr) {
                return Some(v);
            }
        }
        let slot = self.slot_of(addr)?;
        let idx = self.set_index(addr);
        // Close the gap so the set's remaining ways keep their insertion
        // order.
        let rest = slot..self.set_slots(idx).end;
        let freed = self.way_of[slot] as usize;
        self.way_of[rest].rotate_left(1);
        self.occupied[idx] -= 1;
        // Keep `ways` packed: the last line moves into the hole, and the
        // one way slot that pointed at it follows.
        let way = self.ways.swap_remove(freed);
        let last = self.ways.len();
        if freed != last {
            let moved_slot = self
                .set_slots(self.set_index(self.ways[freed].addr))
                .find(|&slot| self.way_of[slot] as usize == last)
                .expect("resident line has a way slot");
            self.way_of[moved_slot] = freed as u32;
        }
        self.promote_overflow(idx);
        Some(way.value)
    }

    fn promote_overflow(&mut self, set_idx: usize) {
        if self.overflow.is_empty() {
            return;
        }
        let sets_len = self.occupied.len() as u64;
        let candidate = self
            .overflow
            .keys()
            .find(|a| (a.0 % sets_len) as usize == set_idx)
            .copied();
        if let Some(addr) = candidate {
            if (self.occupied[set_idx] as usize) < self.assoc {
                let value = self.overflow.remove(&addr).expect("candidate present");
                self.clock += 1;
                let stamp = self.clock;
                self.push_way(set_idx, Way { addr, value, stamp });
            }
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.ways.len() + self.overflow.len()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the overflow buffer.
    pub fn overflow_peak(&self) -> usize {
        self.overflow_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        c.insert(LineAddr(5), 55, |_, _| true);
        assert_eq!(c.get(LineAddr(5)), Some(&55));
        assert!(c.contains(LineAddr(5)));
        assert_eq!(c.remove(LineAddr(5)), Some(55));
        assert!(!c.contains(LineAddr(5)));
        assert_eq!(c.remove(LineAddr(5)), None);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(LineAddr(0), 0, |_, _| true);
        c.insert(LineAddr(1), 1, |_, _| true);
        // Touch 0 so that 1 becomes LRU.
        c.get_mut(LineAddr(0));
        let out = c.insert(LineAddr(2), 2, |_, _| true);
        assert_eq!(out.evicted, Some((LineAddr(1), 1)));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(2)));
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn pinned_ways_are_not_victims() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(LineAddr(0), 0, |_, _| true);
        c.insert(LineAddr(1), 1, |_, _| true);
        // Only value 1 is evictable.
        let out = c.insert(LineAddr(2), 2, |_, v| *v == 1);
        assert_eq!(out.evicted, Some((LineAddr(1), 1)));
    }

    #[test]
    fn all_pinned_goes_to_overflow() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(LineAddr(0), 0, |_, _| true);
        c.insert(LineAddr(1), 1, |_, _| true);
        let out = c.insert(LineAddr(2), 2, |_, _| false);
        assert!(out.overflowed);
        assert_eq!(out.evicted, None);
        assert_eq!(c.get(LineAddr(2)), Some(&2));
        assert_eq!(c.overflow.len(), 1);
        assert_eq!(c.overflow_peak(), 1);
    }

    #[test]
    fn overflow_promotes_when_way_frees() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 1);
        c.insert(LineAddr(0), 0, |_, _| true);
        c.insert(LineAddr(1), 1, |_, _| false);
        assert_eq!(c.overflow.len(), 1);
        c.remove(LineAddr(0));
        assert_eq!(c.overflow.len(), 0, "overflowed line should be promoted");
        assert_eq!(c.get(LineAddr(1)), Some(&1));
    }

    #[test]
    fn get_mut_updates_value() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 1);
        c.insert(LineAddr(0), 10, |_, _| true);
        *c.get_mut(LineAddr(0)).unwrap() = 20;
        assert_eq!(c.get(LineAddr(0)), Some(&20));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 1);
        c.insert(LineAddr(0), 0, |_, _| true);
        let out = c.insert(LineAddr(1), 1, |_, _| true);
        assert_eq!(out.evicted, None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(LineAddr(0), 0, |_, _| true);
        c.insert(LineAddr(0), 0, |_, _| true);
    }
}
