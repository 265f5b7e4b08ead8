//! Allocation budget of the event path (ROADMAP item 9a).
//!
//! A steady-state event must not touch the allocator: the calendar queue
//! recycles slab nodes, the dispatch scratch vectors are reused, and the
//! table cross-check works on state ids. `System::new` must not make one
//! allocation per cache set either. Both are pinned here by counting the
//! calls a thread makes into the global allocator.
//!
//! The counter is per thread, so the test harness and tests running beside
//! this one do not disturb it.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;

use ftdircmp_core::transitions::{l1_table, l2_table, mem_table};
use ftdircmp_core::{System, SystemConfig};
use ftdircmp_workloads::WorkloadSpec;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator is still called while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose contract is the one the caller upholds; the counter is a
// const-initialised `Cell` with no destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller passed under `GlobalAlloc::alloc`'s contract.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls this thread makes while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// At most this many allocator calls per simulated event inside `run()`
/// (slab and scratch growth to their high-water marks, plus the report).
const MAX_ALLOCATIONS_PER_EVENT: f64 = 0.1;
/// At most this many allocator calls in `System::new` for a 16-tile chip.
const MAX_ALLOCATIONS_IN_NEW: u64 = 200;

#[test]
fn event_path_and_system_construction_stay_within_the_allocation_budget() {
    let configs = [
        ("DirCMP", SystemConfig::dircmp()),
        ("Ft-2000", SystemConfig::ftdircmp().with_fault_rate(2000.0)),
    ];
    // The transition tables are compiled once per process, by whichever
    // message is delivered first; that is not the steady state pinned here.
    for table in [l1_table, l2_table, mem_table] {
        assert!(!table().states.is_empty());
    }
    for workload in ["ocean", "barnes"] {
        let spec = WorkloadSpec::named(workload).expect("suite workload");
        for (label, config) in &configs {
            let wl = spec.generate(config.tiles, 7);
            let (in_new, system) =
                allocations_during(|| System::new(config.clone(), &wl).expect("valid config"));
            let (in_run, report) = allocations_during(|| system.run().expect("run completes"));
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            let per_event = in_run as f64 / report.events as f64;
            println!(
                "{workload} {label}: {in_new} allocations in new, {in_run} in run over {} events = {per_event:.4}/event",
                report.events
            );
            assert!(
                in_new <= MAX_ALLOCATIONS_IN_NEW,
                "{workload} {label}: System::new made {in_new} allocations"
            );
            assert!(
                per_event <= MAX_ALLOCATIONS_PER_EVENT,
                "{workload} {label}: {in_run} allocations over {} events = {per_event:.3}/event",
                report.events
            );
        }
    }
}
