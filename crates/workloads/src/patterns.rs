//! Memory-reference pattern generators.
//!
//! Each pattern emits a short burst of trace operations reproducing one of
//! the classic sharing behaviours of parallel programs; a workload is a
//! weighted mix of patterns (see [`crate::WorkloadSpec`]).

use ftdircmp_core::ids::Addr;
use ftdircmp_core::trace::TraceOp;
use ftdircmp_sim::DetRng;

/// Line-granular address regions used by the generators. Regions are
/// disjoint so patterns never interfere by accident.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Regions {
    /// Cache line size in bytes (addresses are `line * line_bytes`).
    pub(crate) line_bytes: u64,
}

impl Regions {
    const LOCK_BASE: u64 = 0x80;
    const MIGRATORY_BASE: u64 = 0x100;
    const SHARED_BASE: u64 = 0x2_000;
    const PRODUCER_BASE: u64 = 0x8_000;
    const PRIVATE_BASE: u64 = 0x100_000;
    const STREAM_BASE: u64 = 0x400_000;

    fn addr(&self, line: u64) -> Addr {
        Addr(line * self.line_bytes)
    }

    /// A contended lock line (one of a few).
    pub(crate) fn lock_line(&self, lock: u64) -> Addr {
        self.addr(Self::LOCK_BASE + lock)
    }

    /// A migratory read-modify-write line.
    pub(crate) fn migratory_line(&self, i: u64) -> Addr {
        self.addr(Self::MIGRATORY_BASE + i)
    }

    /// A line in the read-mostly shared region.
    pub(crate) fn shared_line(&self, i: u64) -> Addr {
        self.addr(Self::SHARED_BASE + i)
    }

    /// A line in core `c`'s producer chunk.
    pub(crate) fn producer_line(&self, core: u8, chunk_lines: u64, i: u64) -> Addr {
        self.addr(Self::PRODUCER_BASE + u64::from(core) * chunk_lines + i)
    }

    /// A line in core `c`'s private region.
    pub(crate) fn private_line(&self, core: u8, region_lines: u64, i: u64) -> Addr {
        self.addr(Self::PRIVATE_BASE + u64::from(core) * region_lines + i)
    }

    /// A line in the streaming region (shared cursor space).
    pub(crate) fn stream_line(&self, i: u64) -> Addr {
        self.addr(Self::STREAM_BASE + i)
    }
}

/// Per-core generator state (streaming cursors etc.).
#[derive(Debug, Clone)]
pub(crate) struct PatternState {
    pub(crate) core: u8,
    pub(crate) cores: u8,
    pub(crate) stream_cursor: u64,
}

/// Emits a private-region access.
pub(crate) fn private(
    regions: &Regions,
    st: &PatternState,
    region_lines: u64,
    store_fraction: f64,
    rng: &mut DetRng,
    out: &mut Vec<TraceOp>,
) {
    let line = rng.below(region_lines.max(1));
    let a = regions.private_line(st.core, region_lines, line);
    if rng.chance(store_fraction) {
        out.push(TraceOp::Store(a));
    } else {
        out.push(TraceOp::Load(a));
    }
    // Temporal locality: re-touch the same line a few times, as real code
    // does with stack slots and loop-carried scalars.
    let extra = rng.below(4);
    for _ in 0..extra {
        if rng.chance(store_fraction) {
            out.push(TraceOp::Store(a));
        } else {
            out.push(TraceOp::Load(a));
        }
    }
}

/// Emits a read from the shared read-mostly region, with a hot subset.
pub(crate) fn read_shared(
    regions: &Regions,
    shared_lines: u64,
    rng: &mut DetRng,
    out: &mut Vec<TraceOp>,
) {
    let lines = shared_lines.max(1);
    // 75% of accesses hit the hottest eighth of the region.
    let line = if rng.chance(0.75) {
        rng.below((lines / 8).max(1))
    } else {
        rng.below(lines)
    };
    out.push(TraceOp::Load(regions.shared_line(line)));
}

/// Producer–consumer: write into our chunk, read the neighbour's.
pub(crate) fn producer_consumer(
    regions: &Regions,
    st: &PatternState,
    chunk_lines: u64,
    rng: &mut DetRng,
    out: &mut Vec<TraceOp>,
) {
    let chunk = chunk_lines.max(1);
    let i = rng.below(chunk);
    if rng.chance(0.5) {
        out.push(TraceOp::Store(regions.producer_line(st.core, chunk, i)));
    } else {
        let neighbour = (st.core + 1) % st.cores.max(1);
        out.push(TraceOp::Load(regions.producer_line(neighbour, chunk, i)));
    }
}

/// Migratory read-modify-write: load then store the same shared line, the
/// pattern the directory's migratory optimization accelerates (paper §2).
pub(crate) fn migratory(
    regions: &Regions,
    migratory_lines: u64,
    rng: &mut DetRng,
    out: &mut Vec<TraceOp>,
) {
    let line = rng.below(migratory_lines.max(1));
    let a = regions.migratory_line(line);
    out.push(TraceOp::Load(a));
    out.push(TraceOp::Store(a));
}

/// Lock-like contention: spin-read then write a hot line, then "hold" it.
pub(crate) fn lock(regions: &Regions, locks: u64, rng: &mut DetRng, out: &mut Vec<TraceOp>) {
    let a = regions.lock_line(rng.below(locks.max(1)));
    out.push(TraceOp::Load(a));
    out.push(TraceOp::Store(a));
    out.push(TraceOp::Think(20 + rng.below(60)));
    out.push(TraceOp::Store(a));
}

/// Streaming sweep: sequential lines, mostly loads with occasional stores —
/// generates capacity misses and evictions.
pub(crate) fn streaming(
    regions: &Regions,
    st: &mut PatternState,
    stream_lines: u64,
    store_fraction: f64,
    rng: &mut DetRng,
    out: &mut Vec<TraceOp>,
) {
    let span = stream_lines.max(1);
    // Interleave cores through the region so neighbours share boundary lines.
    let line = (st.stream_cursor * u64::from(st.cores.max(1)) + u64::from(st.core)) % span;
    st.stream_cursor += 1;
    let a = regions.stream_line(line);
    if rng.chance(store_fraction) {
        out.push(TraceOp::Store(a));
    } else {
        out.push(TraceOp::Load(a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::from_seed(1)
    }

    fn regions() -> Regions {
        Regions { line_bytes: 64 }
    }

    fn state() -> PatternState {
        PatternState {
            core: 2,
            cores: 16,
            stream_cursor: 0,
        }
    }

    #[test]
    fn regions_are_disjoint() {
        let r = regions();
        let private = r.private_line(0, 64, 63).0 / 64;
        let shared = r.shared_line(1023).0 / 64;
        let lockl = r.lock_line(7).0 / 64;
        let mig = r.migratory_line(63).0 / 64;
        let prod = r.producer_line(15, 64, 63).0 / 64;
        let stream = r.stream_line(100_000).0 / 64;
        let mut all = [private, shared, lockl, mig, prod, stream];
        all.sort_unstable();
        for w in all.windows(2) {
            assert_ne!(w[0], w[1], "regions overlap");
        }
    }

    #[test]
    fn private_stays_in_own_region() {
        let r = regions();
        let st = state();
        let mut g = rng();
        let mut out = Vec::new();
        for _ in 0..100 {
            private(&r, &st, 32, 0.5, &mut g, &mut out);
        }
        for op in &out {
            let line = op.addr().unwrap().0 / 64;
            let base = 0x100_000 + 2 * 32;
            assert!((base..base + 32).contains(&line));
        }
    }

    #[test]
    fn migratory_emits_load_store_pairs() {
        let r = regions();
        let mut g = rng();
        let mut out = Vec::new();
        migratory(&r, 8, &mut g, &mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], TraceOp::Load(_)));
        assert!(matches!(out[1], TraceOp::Store(_)));
        assert_eq!(out[0].addr(), out[1].addr());
    }

    #[test]
    fn lock_touches_one_hot_line() {
        let r = regions();
        let mut g = rng();
        let mut out = Vec::new();
        lock(&r, 1, &mut g, &mut out);
        let addrs: Vec<_> = out.iter().filter_map(|o| o.addr()).collect();
        assert!(addrs.iter().all(|a| *a == addrs[0]));
        assert!(out.iter().any(|o| matches!(o, TraceOp::Think(_))));
    }

    #[test]
    fn streaming_advances_cursor() {
        let r = regions();
        let mut st = state();
        let mut g = rng();
        let mut out = Vec::new();
        streaming(&r, &mut st, 1024, 0.2, &mut g, &mut out);
        streaming(&r, &mut st, 1024, 0.2, &mut g, &mut out);
        assert_eq!(st.stream_cursor, 2);
        assert_ne!(out[0].addr(), out[1].addr());
    }

    #[test]
    fn producer_consumer_reads_neighbour_chunk() {
        let r = regions();
        let st = state();
        let mut g = rng();
        let mut stores_own = 0;
        let mut loads_neighbour = 0;
        for _ in 0..200 {
            let mut out = Vec::new();
            producer_consumer(&r, &st, 16, &mut g, &mut out);
            let line = out[0].addr().unwrap().0 / 64 - 0x8_000;
            let chunk = line / 16;
            match out[0] {
                TraceOp::Store(_) => {
                    assert_eq!(chunk, 2);
                    stores_own += 1;
                }
                TraceOp::Load(_) => {
                    assert_eq!(chunk, 3);
                    loads_neighbour += 1;
                }
                TraceOp::Think(_) => unreachable!(),
            }
        }
        assert!(stores_own > 50 && loads_neighbour > 50);
    }
}
