//! Names each item of this crate that the repo benchmark (`benchmark/src`, not
//! built by tier-1) uses, so narrowing one fails `cargo test` here.

use ftdircmp_sim::{Cycle, DetRng, EventQueue};

#[test]
fn benchmark_api_is_public() {
    let mut rng = DetRng::from_seed(0xBE9C);
    let delay = rng.below(100) + rng.range(2, 4);
    let mut fifo: EventQueue<u64> = EventQueue::new();
    let mut seeded: EventQueue<u64> = EventQueue::with_schedule_seed(0x5EED);
    fifo.schedule(Cycle::new(delay), 1);
    seeded.schedule(Cycle::new(delay), 2);
    assert_eq!(fifo.pop(), Some((Cycle::new(delay), 1)));
    assert_eq!(seeded.pop(), Some((Cycle::new(delay), 2)));
}
