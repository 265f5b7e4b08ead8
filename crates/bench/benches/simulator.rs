//! Criterion benchmarks: wall-clock performance of the simulator itself.
//!
//! These measure the *simulator* (events/second), complementing the
//! figure-regeneration binaries which measure the *simulated system*.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftdircmp_core::{System, SystemConfig};
use ftdircmp_noc::{Mesh, MeshConfig, RouterId, Topology, VcClass};
use ftdircmp_sim::{Cycle, DetRng, EventQueue};
use ftdircmp_workloads::WorkloadSpec;

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_system");
    g.sample_size(10);
    for name in ["water-sp", "ocean"] {
        let spec = WorkloadSpec::named(name).unwrap();
        let wl = spec.generate(16, 1);
        g.bench_with_input(BenchmarkId::new("dircmp", name), &wl, |b, wl| {
            b.iter(|| System::run_workload(SystemConfig::dircmp(), wl).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("ftdircmp", name), &wl, |b, wl| {
            b.iter(|| System::run_workload(SystemConfig::ftdircmp(), wl).unwrap());
        });
        let faulty = SystemConfig::ftdircmp().with_fault_rate(2000.0);
        g.bench_with_input(BenchmarkId::new("ftdircmp_faulty", name), &wl, |b, wl| {
            let cfg = faulty.clone();
            b.iter(|| System::run_workload(cfg.clone(), wl).unwrap());
        });
    }
    g.finish();
}

fn bench_mesh(c: &mut Criterion) {
    c.bench_function("mesh_send_10k", |b| {
        b.iter(|| {
            let mut mesh = Mesh::new(MeshConfig::default(), DetRng::from_seed(1));
            for i in 0..10_000u64 {
                let src = RouterId::new((i % 16) as u16);
                let dst = RouterId::new(((i * 7 + 3) % 16) as u16);
                std::hint::black_box(mesh.send(
                    Cycle::new(i),
                    src,
                    dst,
                    if i % 3 == 0 { 72 } else { 8 },
                    VcClass::Request,
                ));
            }
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    // Schedule/pop churn with the simulator's typical shape: a rolling
    // window of in-flight events, each pop scheduling a couple more.
    c.bench_function("event_queue_churn_100k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..64u64 {
                q.schedule(Cycle::new(i), i);
            }
            let mut popped = 0u64;
            while popped < 100_000 {
                let (now, e) = q.pop().expect("queue never drains");
                popped += 1;
                if popped + q.len() as u64 * 2 < 100_000 + 64 {
                    q.schedule(now + 1 + (e % 7), e.wrapping_mul(31));
                    q.schedule(now + 3 + (e % 13), e.wrapping_mul(17));
                }
                std::hint::black_box(e);
            }
            std::hint::black_box(q.len())
        });
    });
}

/// Delay distribution recorded from a fig3 release profile (4M scheduled
/// events, log₂ histogram of `at - now`): ~55% link/router hops and cache
/// latencies of 1–63 cycles, ~9% memory accesses around 160 cycles, and a
/// heavy ~33% tail of detection-timeout arms at 1k–8k cycles.
fn recorded_delays(n: usize) -> Vec<u64> {
    let mut rng = DetRng::from_seed(0xBE9C);
    (0..n)
        .map(|_| match rng.below(100) {
            0..=6 => 1,
            7..=23 => rng.range(2, 4),
            24..=31 => rng.range(4, 8),
            32..=38 => rng.range(8, 16),
            39..=50 => rng.range(16, 32),
            51..=54 => rng.range(32, 64),
            55..=56 => rng.range(64, 128),
            57..=65 => 160, // memory controller
            66..=74 => rng.range(1_024, 2_048),
            75..=95 => rng.range(2_048, 4_096), // detection timeouts
            _ => rng.range(4_096, 8_192),
        })
        .collect()
}

/// Payload the size of the simulator's `Event` enum (a `Deliver` carries a
/// full `Message`): what the old heap actually sifted on every push/pop.
type EventPayload = [u64; 6];

/// The replaced `BinaryHeap` queue versus the calendar queue, driven by the
/// same recorded churn script: the delay mix above at the in-flight
/// population a 16-tile fig3 run sustains (roughly a thousand events —
/// in-flight messages, pipelined cache accesses and armed detection
/// timeouts). The heap reference reproduces the old implementation:
/// `Reverse<(at, seq)>` entries, FIFO within a cycle.
fn bench_queue_comparison(c: &mut Criterion) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const POPS: u64 = 100_000;
    const IN_FLIGHT: u64 = 1024;
    let delays = recorded_delays(4096);
    let mut g = c.benchmark_group("queue_comparison");

    g.bench_function("binary_heap_recorded_churn_100k", |b| {
        b.iter(|| {
            let mut q: BinaryHeap<Reverse<(u64, u64, EventPayload)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for i in 0..IN_FLIGHT {
                q.push(Reverse((i % 8, seq, [i; 6])));
                seq += 1;
            }
            let mut popped = 0u64;
            let mut di = 0usize;
            while popped < POPS {
                let Reverse((now, _, ev)) = q.pop().expect("heap never drains");
                popped += 1;
                if popped + q.len() as u64 * 2 < POPS + IN_FLIGHT {
                    for _ in 0..2 {
                        let delay = delays[di % delays.len()];
                        di += 1;
                        q.push(Reverse((now + delay, seq, [ev[0].wrapping_mul(31); 6])));
                        seq += 1;
                    }
                }
                std::hint::black_box(ev);
            }
            std::hint::black_box(q.len())
        });
    });

    g.bench_function("calendar_queue_recorded_churn_100k", |b| {
        b.iter(|| {
            let mut q: EventQueue<EventPayload> = EventQueue::new();
            for i in 0..IN_FLIGHT {
                q.schedule(Cycle::new(i % 8), [i; 6]);
            }
            let mut popped = 0u64;
            let mut di = 0usize;
            while popped < POPS {
                let (now, ev) = q.pop().expect("queue never drains");
                popped += 1;
                if popped + q.len() as u64 * 2 < POPS + IN_FLIGHT {
                    for _ in 0..2 {
                        let delay = delays[di % delays.len()];
                        di += 1;
                        q.schedule(now + delay, [ev[0].wrapping_mul(31); 6]);
                    }
                }
                std::hint::black_box(ev);
            }
            std::hint::black_box(q.len())
        });
    });

    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let topo = Topology::new(8, 8);
    // The allocation-free walker used by Mesh::send.
    c.bench_function("route_xy_iter_all_pairs", |b| {
        b.iter(|| {
            let mut hops = 0usize;
            for a in 0..64u16 {
                for bb in 0..64u16 {
                    hops += topo
                        .route_xy_iter(RouterId::new(a), RouterId::new(bb))
                        .fold(0, |acc, l| {
                            std::hint::black_box(l.dense_index());
                            acc + 1
                        });
                }
            }
            std::hint::black_box(hops)
        });
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("generate_suite", |b| {
        b.iter(|| {
            for spec in ftdircmp_workloads::suite() {
                std::hint::black_box(spec.generate(16, 7));
            }
        });
    });
}

criterion_group!(
    benches,
    bench_protocols,
    bench_mesh,
    bench_event_queue,
    bench_queue_comparison,
    bench_routing,
    bench_workload_generation
);
criterion_main!(benches);
