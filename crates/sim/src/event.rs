//! Time-ordered event queue.
//!
//! Implemented as a *calendar queue*: a power-of-two ring of per-cycle
//! slots covering the next [`RING_CYCLES`] cycles, plus a spill-over
//! binary heap for the rare event scheduled further out (timeout backoff
//! can exceed the ring window; ordinary protocol delays — link hops,
//! cache lookups, memory latency, first-shot timeouts — all fit).
//!
//! A ring slot is not a container of its own: it is the head and tail
//! index of a singly linked list threaded through one shared slab of
//! nodes, and popped nodes go onto an intrusive free list inside the same
//! slab. The whole queue is therefore two flat vectors (128 KiB of ring,
//! plus a slab as large as the peak number of pending events), a
//! steady-state `schedule`/`pop` pair touches no allocator, and cloning the
//! queue for a checkpoint copies those two vectors.
//!
//! Each list is kept in pop order from the head, so `pop` unlinks the head
//! node. Under FIFO tie-breaking, appending at the tail *is* pop order
//! (keys are the ascending sequence numbers), so entering a cycle costs
//! nothing; a cycle's list is sorted once, on entry, only when a schedule
//! seed permutes the keys or when overflow events migrated into it.
//!
//! The simulator's event density is roughly one event per cycle, so the
//! scan to the next occupied cycle is short. The repo benchmark's
//! `sim.queue_ns_per_op` probe (`--trace 1`) times schedule + pop on a
//! recorded fig3 delay mix; DESIGN.md §8.4 gives its numbers and the
//! comparison against the `BinaryHeap` this queue replaced.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Width of the calendar ring in cycles. Must be a power of two.
///
/// Sized so every common delay lands in the ring: same-cycle churn and
/// link hops (≤ a few cycles), memory latency (~160), and the FT
/// timeouts with backoff (base 2 000–8 000 cycles). Only deep backoff
/// retries spill to the overflow heap.
const RING_CYCLES: u64 = 16_384;

/// "No node": the empty list head/tail and the end-of-list link.
const NIL: u32 = u32::MAX;

/// A deterministic, time-ordered event queue.
///
/// Events scheduled for the same cycle are delivered in the order they were
/// scheduled (FIFO tie-breaking), which keeps simulations reproducible.
///
/// The queue tracks the current simulated time: [`EventQueue::pop`] advances
/// [`EventQueue::now`] to the popped event's timestamp. Scheduling an event in
/// the past is a logic error and panics.
///
/// # Schedule perturbation
///
/// [`EventQueue::with_schedule_seed`] replaces FIFO tie-breaking with a
/// seeded pseudo-random permutation of same-cycle events: each scheduled
/// event gets a tie-break key mixed from `(schedule_seed, seq)`, so events
/// landing on the same cycle can be delivered in any order — but the order
/// is a pure function of the schedule seed, so every run is exactly
/// reproducible. Seed `0` is the identity permutation (plain FIFO), which
/// keeps all pre-perturbation expected outputs unchanged. Time order across
/// cycles is never affected.
///
/// Pop order is always the minimum of `(at, key, seq)` — byte-for-byte the
/// order the previous `BinaryHeap` implementation produced, for every seed.
///
/// # Example
///
/// ```
/// use ftdircmp_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle::new(3), 'b');
/// q.schedule(Cycle::new(3), 'c'); // same time: FIFO order preserved
/// q.schedule(Cycle::new(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `(head, tail)` node index of each cycle's list, `(NIL, NIL)` when
    /// empty; slot `c & (RING_CYCLES - 1)` holds cycle `c`. All resident
    /// timestamps lie in `[now, now + RING_CYCLES)`, so no two distinct
    /// cycles ever share a slot.
    ring: Vec<(u32, u32)>,
    /// Slab holding every ring-resident event and every free node.
    nodes: Vec<Node<E>>,
    /// Head of the free list threaded through `nodes` (`NIL` when empty).
    free: u32,
    /// Events currently stored in the ring (across all slots).
    ring_events: usize,
    /// Events scheduled `>= RING_CYCLES` cycles out, ordered like the
    /// classic heap; migrated into the ring slot when their cycle is
    /// entered.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Timestamp of the next event, kept exact across all operations.
    next_at: Option<Cycle>,
    /// Whether the list for `now` has been entered (migrated + in pop
    /// order from the head) and is being drained.
    entered: bool,
    /// Node indices of the list being sorted in `enter_cycle`; kept so a
    /// seeded run does not allocate per cycle.
    sort_scratch: Vec<u32>,
    seq: u64,
    now: Cycle,
    scheduled_total: u64,
    schedule_seed: u64,
}

/// A slab node: a ring-resident event, or a free node (`event` is `None`).
/// The cycle is implicit in the ring slot whose list the node is on.
#[derive(Debug, Clone)]
struct Node<E> {
    /// Tie-break key: equals `seq` under FIFO, a seeded hash of `seq` under
    /// schedule perturbation.
    key: u64,
    seq: u64,
    /// Next node of the same list (cycle list or free list), or `NIL`.
    next: u32,
    event: Option<E>,
}

#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: Cycle,
    key: u64,
    seq: u64,
    event: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event
// (and, within a cycle, the lowest tie-break key) first. `seq` is unique and
// breaks key collisions, keeping the order total in every case.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero with FIFO tie-breaking.
    pub fn new() -> Self {
        EventQueue::with_schedule_seed(0)
    }

    /// Creates an empty queue whose same-cycle tie-breaking is a seeded
    /// permutation. Seed `0` is plain FIFO (identical to [`EventQueue::new`]).
    pub fn with_schedule_seed(schedule_seed: u64) -> Self {
        EventQueue {
            ring: vec![(NIL, NIL); RING_CYCLES as usize],
            nodes: Vec::new(),
            free: NIL,
            ring_events: 0,
            overflow: BinaryHeap::new(),
            next_at: None,
            entered: false,
            sort_scratch: Vec::new(),
            seq: 0,
            now: Cycle::ZERO,
            scheduled_total: 0,
            schedule_seed,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    fn slot_of(at: Cycle) -> usize {
        (at.as_u64() & (RING_CYCLES - 1)) as usize
    }

    /// Takes a node off the free list (or grows the slab) and fills it.
    fn alloc_node(&mut self, key: u64, seq: u64, event: E) -> u32 {
        let node = Node {
            key,
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than u32::MAX pending events");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        }
    }

    /// Appends node `idx` at the tail of `slot`'s list.
    fn link_tail(&mut self, slot: usize, idx: u32) {
        let (head, tail) = self.ring[slot];
        if head == NIL {
            self.ring[slot] = (idx, idx);
        } else {
            self.nodes[tail as usize].next = idx;
            self.ring[slot].1 = idx;
        }
    }

    /// Links node `idx` into `slot`'s list, which is ascending by
    /// `(key, seq)`, at its sorted position.
    fn link_sorted(&mut self, slot: usize, idx: u32) {
        let rank = |n: &Node<E>| (n.key, n.seq);
        let mine = rank(&self.nodes[idx as usize]);
        let mut prev = NIL;
        let mut cur = self.ring[slot].0;
        while cur != NIL && rank(&self.nodes[cur as usize]) < mine {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes[idx as usize].next = cur;
        if prev == NIL {
            self.ring[slot].0 = idx;
        } else {
            self.nodes[prev as usize].next = idx;
        }
        if cur == NIL {
            self.ring[slot].1 = idx;
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`].
    pub fn schedule(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {} < {}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_total += 1;
        let key = if self.schedule_seed == 0 {
            seq
        } else {
            crate::rng::splitmix64(self.schedule_seed ^ crate::rng::splitmix64(seq))
        };
        if at.as_u64() - self.now.as_u64() < RING_CYCLES {
            let slot = Self::slot_of(at);
            let idx = self.alloc_node(key, seq, event);
            if self.schedule_seed != 0 && self.entered && at == self.now {
                // The list for `now` is mid-drain and already in pop order;
                // a seeded key can land anywhere in it.
                self.link_sorted(slot, idx);
            } else {
                // Not entered yet (sorted on entry if need be), or FIFO,
                // where the new event has the largest key of its cycle.
                self.link_tail(slot, idx);
            }
            self.ring_events += 1;
        } else {
            self.overflow.push(Scheduled {
                at,
                key,
                seq,
                event,
            });
        }
        self.next_at = Some(self.next_at.map_or(at, |n| n.min(at)));
    }

    /// Prepares the list for cycle `at` for draining: migrates any overflow
    /// events that landed on this cycle and, if tail appends are not already
    /// pop order, relinks the list ascending by `(key, seq)`.
    fn enter_cycle(&mut self, at: Cycle) {
        let slot = Self::slot_of(at);
        let mut migrated = false;
        while self.overflow.peek().is_some_and(|s| s.at == at) {
            let s = self.overflow.pop().expect("peeked");
            let idx = self.alloc_node(s.key, s.seq, s.event);
            self.link_tail(slot, idx);
            self.ring_events += 1;
            migrated = true;
        }
        // FIFO appends arrive in ascending (key == seq) order already and
        // pops come off the head, so the common case does nothing here.
        if self.schedule_seed != 0 || migrated {
            self.sort_list(slot);
        }
        self.entered = true;
    }

    /// Relinks `slot`'s list ascending by `(key, seq)`.
    fn sort_list(&mut self, slot: usize) {
        let mut order = std::mem::take(&mut self.sort_scratch);
        order.clear();
        let mut cur = self.ring[slot].0;
        while cur != NIL {
            order.push(cur);
            cur = self.nodes[cur as usize].next;
        }
        order.sort_unstable_by_key(|&i| {
            let n = &self.nodes[i as usize];
            (n.key, n.seq)
        });
        for pair in order.windows(2) {
            self.nodes[pair[0] as usize].next = pair[1];
        }
        if let (Some(&head), Some(&tail)) = (order.first(), order.last()) {
            self.nodes[tail as usize].next = NIL;
            self.ring[slot] = (head, tail);
        }
        self.sort_scratch = order;
    }

    /// Earliest event time strictly after `t`, across ring and overflow.
    fn find_next_after(&self, t: Cycle) -> Option<Cycle> {
        let over = self.overflow.peek().map(|s| s.at);
        if self.ring_events > 0 {
            let tu = t.as_u64();
            for d in 1..RING_CYCLES {
                let at = tu + d;
                if over.is_some_and(|o| o.as_u64() < at) {
                    return over;
                }
                if self.ring[(at & (RING_CYCLES - 1)) as usize].0 != NIL {
                    return Some(Cycle::new(at));
                }
            }
            debug_assert!(false, "ring_events > 0 but no occupied slot in window");
        }
        over
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (the clock does not
    /// move).
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let at = self.next_at?;
        if !self.entered || at != self.now {
            self.enter_cycle(at);
        }
        let slot = Self::slot_of(at);
        let idx = self.ring[slot].0;
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("slot holds the next event");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        self.ring_events -= 1;
        self.now = at;
        if next == NIL {
            self.ring[slot] = (NIL, NIL);
            self.next_at = self.find_next_after(at);
        } else {
            self.ring[slot].0 = next;
        }
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_events + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for diagnostics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30), 3);
        q.schedule(Cycle::new(10), 1);
        q.schedule(Cycle::new(20), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop_only() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(7), ());
        assert_eq!(q.now(), Cycle::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycle::new(7));
        // Popping an empty queue leaves the clock alone.
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), Cycle::new(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.schedule(Cycle::new(9), ());
    }

    #[test]
    fn peek_and_len_track_contents() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_at, None);
        q.schedule(Cycle::new(4), 0);
        q.schedule(Cycle::new(2), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_at, Some(Cycle::new(2)));
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(3), "near");
        q.schedule(Cycle::new(5 * RING_CYCLES), "far");
        q.schedule(Cycle::new(5 * RING_CYCLES), "far2");
        q.schedule(Cycle::new(RING_CYCLES + 1), "mid");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((Cycle::new(3), "near")));
        assert_eq!(q.pop(), Some((Cycle::new(RING_CYCLES + 1), "mid")));
        assert_eq!(q.pop(), Some((Cycle::new(5 * RING_CYCLES), "far")));
        assert_eq!(q.pop(), Some((Cycle::new(5 * RING_CYCLES), "far2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_and_ring_events_on_the_same_cycle_stay_fifo() {
        let mut q = EventQueue::new();
        let t = Cycle::new(RING_CYCLES + 7);
        q.schedule(t, 0); // overflow: RING_CYCLES + 7 cycles out
        q.schedule(Cycle::new(10), 100);
        q.pop(); // now = 10; t is within the ring window now
        q.schedule(t, 1); // ring
        q.schedule(t, 2); // ring
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn ring_slots_are_reusable_across_windows() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        // Same slot (addr mod RING_CYCLES), several windows apart, plus
        // neighbours — exercises slot reuse after draining.
        for w in 0..4u64 {
            for off in [0u64, 1, 3] {
                let at = Cycle::new(w * RING_CYCLES + 100 + off);
                q.schedule(at, (w, off));
                expect.push((at, (w, off)));
            }
        }
        expect.sort_by_key(|&(at, _)| at);
        for e in expect {
            assert_eq!(q.pop(), Some(e));
        }
        assert_eq!(q.pop(), None);
    }

    /// Drains a queue seeded with `seed` after scheduling `n` events on the
    /// same cycle, returning the delivery order.
    fn same_cycle_order(seed: u64, n: u64) -> Vec<u64> {
        let mut q = EventQueue::with_schedule_seed(seed);
        for i in 0..n {
            q.schedule(Cycle::new(5), i);
        }
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn schedule_seed_zero_is_fifo() {
        assert_eq!(same_cycle_order(0, 64), (0..64).collect::<Vec<u64>>());
        assert_eq!(EventQueue::<u8>::new().schedule_seed, 0);
    }

    #[test]
    fn schedule_seed_permutes_same_cycle_events() {
        let perturbed = same_cycle_order(0xC0FFEE, 64);
        assert_ne!(perturbed, (0..64).collect::<Vec<u64>>());
        // Still a permutation: every event delivered exactly once.
        let mut sorted = perturbed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn schedule_seed_is_reproducible_and_seed_sensitive() {
        assert_eq!(same_cycle_order(7, 32), same_cycle_order(7, 32));
        assert_ne!(same_cycle_order(7, 32), same_cycle_order(8, 32));
    }

    #[test]
    fn perturbation_never_reorders_across_cycles() {
        let mut q = EventQueue::with_schedule_seed(99);
        for i in 0..100u64 {
            q.schedule(Cycle::new(i / 10), i);
        }
        let mut last = Cycle::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "time order violated");
            last = at;
            count += 1;
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(1), 'a');
        q.schedule(Cycle::new(5), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.schedule(Cycle::new(3), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    #[test]
    fn exactly_ring_cycles_ahead_takes_the_overflow_path() {
        // The overflow boundary: `at - now == RING_CYCLES` must spill to the
        // heap — in the ring it would share slot_of(now) with cycle-`now`
        // events and corrupt pop order.
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(0), "now");
        q.schedule(Cycle::new(RING_CYCLES), "boundary"); // same slot as 0
        q.schedule(Cycle::new(RING_CYCLES - 1), "last-in-ring");
        assert_eq!(q.pop(), Some((Cycle::new(0), "now")));
        assert_eq!(q.pop(), Some((Cycle::new(RING_CYCLES - 1), "last-in-ring")));
        assert_eq!(q.pop(), Some((Cycle::new(RING_CYCLES), "boundary")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn boundary_event_migrates_once_now_advances() {
        // An event exactly RING_CYCLES ahead spills to overflow; after the
        // clock advances it is within the ring window and must interleave
        // correctly with ring-resident events on the same cycle.
        let mut q = EventQueue::new();
        let t = Cycle::new(RING_CYCLES);
        q.schedule(t, 0); // overflow (exactly RING_CYCLES ahead of now=0)
        q.schedule(Cycle::new(1), 100);
        assert_eq!(q.pop(), Some((Cycle::new(1), 100))); // now = 1
        q.schedule(t, 1); // now a ring event (RING_CYCLES - 1 ahead)
        q.schedule(t, 2);
        // FIFO: the overflow event was scheduled first.
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), None);
    }

    /// Reference key for seeded tie-breaking, mirroring `schedule`.
    fn key_for(seed: u64, seq: u64) -> u64 {
        if seed == 0 {
            seq
        } else {
            crate::rng::splitmix64(seed ^ crate::rng::splitmix64(seq))
        }
    }

    #[test]
    fn overflow_migration_under_nonzero_seed_follows_key_order() {
        // Events landing on one far cycle via both paths (overflow spill,
        // then ring once `now` advanced) must drain in (key, seq) order
        // under a nonzero schedule seed, exactly like the old BinaryHeap.
        let seed = 0xDECAF;
        let mut q = EventQueue::with_schedule_seed(seed);
        let t = Cycle::new(RING_CYCLES + 5);
        q.schedule(t, 0u64); // seq 0: overflow
        q.schedule(t, 1); // seq 1: overflow
        q.schedule(Cycle::new(10), 99); // seq 2
        q.pop(); // now = 10; t is ring-resident from here on
        q.schedule(t, 3); // seq 3: ring
        q.schedule(t, 4); // seq 4: ring
        let mut expect: Vec<(u64, u64)> = [(0u64, 0u64), (1, 1), (3, 3), (4, 4)]
            .iter()
            .map(|&(seq, id)| (key_for(seed, seq), id))
            .collect();
        expect.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<u64> = expect.into_iter().map(|(_, id)| id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn mid_drain_same_cycle_inserts_under_seed_follow_key_order() {
        // Schedule-at-`now` while the current bucket is mid-drain, under a
        // nonzero seed: the remaining pops must deliver the minimum
        // (key, seq) first, counting the late insert.
        let seed = 0xBEEF;
        let mut q = EventQueue::with_schedule_seed(seed);
        for i in 0..8u64 {
            q.schedule(Cycle::new(5), i); // seqs 0..8
        }
        let first = q.pop().unwrap().1; // enters cycle 5, drains one
                                        // Late arrivals on the mid-drain cycle: seqs 8 and 9.
        q.schedule(Cycle::new(5), 8);
        q.schedule(Cycle::new(5), 9);
        let mut remaining: Vec<(u64, u64)> = (0..10u64)
            .filter(|&i| i != first)
            .map(|i| (key_for(seed, i), i))
            .collect();
        remaining.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<u64> = remaining.into_iter().map(|(_, id)| id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn mid_drain_same_cycle_inserts_keep_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5), 0);
        q.schedule(Cycle::new(5), 1);
        assert_eq!(q.pop(), Some((Cycle::new(5), 0)));
        // Inserted while cycle 5 is mid-drain: delivered after 1 (FIFO).
        q.schedule(Cycle::new(5), 2);
        q.schedule(Cycle::new(6), 3);
        assert_eq!(q.pop(), Some((Cycle::new(5), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(5), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(6), 3)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping always yields events in (time, insertion) order, no
        /// matter how schedules and pops interleave.
        #[test]
        fn pops_are_globally_ordered(delays in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, d) in delays.iter().enumerate() {
                q.schedule(Cycle::new(*d), i);
            }
            let mut last: Option<(Cycle, usize)> = None;
            let mut seen = 0;
            while let Some((at, id)) = q.pop() {
                if let Some((lt, lid)) = last {
                    prop_assert!(at > lt || (at == lt && id > lid),
                        "order violated: ({lt},{lid}) then ({at},{id})");
                }
                last = Some((at, id));
                seen += 1;
            }
            prop_assert_eq!(seen, delays.len());
        }

        /// Interleaved schedule/pop keeps the clock monotone and never
        /// loses an event.
        #[test]
        fn interleaved_operations_preserve_counts(
            script in proptest::collection::vec((0u64..100, any::<bool>()), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut scheduled = 0u64;
            let mut popped = 0u64;
            let mut clock = Cycle::ZERO;
            for (delay, do_pop) in script {
                if do_pop {
                    if let Some((at, _)) = q.pop() {
                        prop_assert!(at >= clock);
                        clock = at;
                        popped += 1;
                    }
                } else {
                    q.schedule(q.now() + delay, scheduled);
                    scheduled += 1;
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            prop_assert_eq!(popped, scheduled);
            prop_assert_eq!(q.scheduled_total(), scheduled);
        }

        /// The calendar queue pops the exact order a reference binary heap
        /// over `(at, key, seq)` would, under FIFO and seeded tie-breaking,
        /// including delays past the ring window.
        #[test]
        fn matches_reference_heap_order(
            seed in any::<u64>().prop_map(|s| if s % 2 == 0 { 0 } else { s }),
            script in proptest::collection::vec(
                (0u64..(2 * RING_CYCLES), 0u8..4), 1..300),
        ) {
            let mut q = EventQueue::with_schedule_seed(seed);
            let mut reference: Vec<(Cycle, u64, u64, usize)> = Vec::new();
            let mut next_id = 0usize;
            let mut seq = 0u64;
            let mut clock = Cycle::ZERO;
            let mut popped: Vec<usize> = Vec::new();
            let mut expected: Vec<usize> = Vec::new();
            for (delay, op) in script {
                if op == 0 && !reference.is_empty() {
                    // Reference pop: minimum (at, key, seq).
                    let i = (0..reference.len()).min_by_key(|&i| {
                        let (at, key, s, _) = reference[i];
                        (at, key, s)
                    }).unwrap();
                    let (at, _, _, id) = reference.remove(i);
                    expected.push(id);
                    clock = at;
                    let got = q.pop().unwrap();
                    popped.push(got.1);
                    prop_assert_eq!(got.0, at);
                } else {
                    let at = clock + delay;
                    let key = if seed == 0 {
                        seq
                    } else {
                        crate::rng::splitmix64(seed ^ crate::rng::splitmix64(seq))
                    };
                    reference.push((at, key, seq, next_id));
                    q.schedule(at, next_id);
                    seq += 1;
                    next_id += 1;
                }
            }
            while let Some((_, id)) = q.pop() {
                popped.push(id);
            }
            while !reference.is_empty() {
                let i = (0..reference.len()).min_by_key(|&i| {
                    let (at, key, s, _) = reference[i];
                    (at, key, s)
                }).unwrap();
                expected.push(reference.remove(i).3);
            }
            prop_assert_eq!(popped, expected);
        }

        /// Like `matches_reference_heap_order`, but with delays drawn from
        /// the overflow-boundary neighbourhood (0, ring edge ± 1, exactly
        /// `RING_CYCLES`, multiples beyond) so the ring/overflow handoff and
        /// schedule-at-`now` mid-drain paths are hit on almost every case,
        /// under FIFO and seeded tie-breaking alike.
        #[test]
        fn boundary_delays_match_reference_heap_order(
            seed in proptest::sample::select(vec![0u64, 7, 0xC0FFEE, 0xDEAD_BEEF]),
            script in proptest::collection::vec(
                (proptest::sample::select(vec![
                    0u64, 1, 2,
                    RING_CYCLES - 1, RING_CYCLES, RING_CYCLES + 1,
                    2 * RING_CYCLES, 2 * RING_CYCLES + 1, 3 * RING_CYCLES,
                ]), 0u8..4), 1..300),
        ) {
            let mut q = EventQueue::with_schedule_seed(seed);
            let mut reference: Vec<(Cycle, u64, u64, usize)> = Vec::new();
            let mut next_id = 0usize;
            let mut seq = 0u64;
            let mut clock = Cycle::ZERO;
            let mut popped: Vec<usize> = Vec::new();
            let mut expected: Vec<usize> = Vec::new();
            for (delay, op) in script {
                if op == 0 && !reference.is_empty() {
                    let i = (0..reference.len()).min_by_key(|&i| {
                        let (at, key, s, _) = reference[i];
                        (at, key, s)
                    }).unwrap();
                    let (at, _, _, id) = reference.remove(i);
                    expected.push(id);
                    clock = at;
                    let got = q.pop().unwrap();
                    popped.push(got.1);
                    prop_assert_eq!(got.0, at);
                } else {
                    let at = clock + delay;
                    let key = if seed == 0 {
                        seq
                    } else {
                        crate::rng::splitmix64(seed ^ crate::rng::splitmix64(seq))
                    };
                    reference.push((at, key, seq, next_id));
                    q.schedule(at, next_id);
                    seq += 1;
                    next_id += 1;
                }
            }
            while let Some((_, id)) = q.pop() {
                popped.push(id);
            }
            while !reference.is_empty() {
                let i = (0..reference.len()).min_by_key(|&i| {
                    let (at, key, s, _) = reference[i];
                    (at, key, s)
                }).unwrap();
                expected.push(reference.remove(i).3);
            }
            prop_assert_eq!(popped, expected);
        }
    }
}
