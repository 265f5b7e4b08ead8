//! Regression corpus: every protocol bug found while developing this
//! reproduction, pinned with the exact workload/configuration that exposed
//! it. Each test names the bug, the faulty behaviour, and the fix.
//!
//! These overlap with the stress sweeps by construction — the point is that
//! *these exact* scenarios stay green even if the sweeps' seeds drift.

use ftdircmp_core::ids::Addr;
use ftdircmp_core::trace::{CoreTrace, TraceOp, Workload};
use ftdircmp_core::{System, SystemConfig};
use ftdircmp_noc::FaultConfig;
use ftdircmp_workloads::WorkloadSpec;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The contended workload generator used by the stress suite at the time
/// the bugs were found (kept verbatim so the seeds reproduce).
fn contended_workload(seed: u64, cores: u8, ops: usize, hot_lines: u64) -> Workload {
    let mut traces = Vec::new();
    for c in 0..cores {
        let mut st = seed ^ (u64::from(c) + 1).wrapping_mul(0x2545F4914F6CDD1D);
        let mut v = Vec::with_capacity(ops);
        for _ in 0..ops {
            let r = xorshift(&mut st);
            let line = if r.is_multiple_of(4) {
                1000 + u64::from(c) * 64 + (r >> 8) % 16
            } else {
                (r >> 8) % hot_lines
            };
            let a = Addr(line * 64);
            if r.is_multiple_of(3) {
                v.push(TraceOp::Store(a));
            } else {
                v.push(TraceOp::Load(a));
            }
            if r.is_multiple_of(11) {
                v.push(TraceOp::Think(r % 30));
            }
        }
        traces.push(CoreTrace::new(v));
    }
    Workload::new("regression", traces)
}

fn assert_clean(cfg: SystemConfig, wl: &Workload, bug: &str) {
    match System::run_workload(cfg, wl) {
        Ok(r) => {
            assert!(
                r.violations.is_empty(),
                "[{bug}] violations: {:#?}",
                r.violations
            );
            assert_eq!(r.total_mem_ops as usize, wl.total_mem_ops(), "[{bug}]");
        }
        Err(e) => panic!("[{bug}] {e}"),
    }
}

/// BUG 1 — reissue detection ignored the request kind: a GetX arriving
/// while the same node's completed GetS still awaited its (lost) unblock
/// was treated as a reissue of the GetS, and the directory resent the old
/// shared grant; the L1 then installed Modified without invalidations
/// (SWMR violation, lost update). Fix: a reissue must match the open
/// transaction's kind (l2.rs/mem.rs `same_kind`).
#[test]
fn reissue_must_match_transaction_kind() {
    let wl = contended_workload(17 * 8 + 3, 8, 120, 12); // bursty seed=8 workload
    let mut cfg = SystemConfig::ftdircmp().with_seed(8 + 5000);
    cfg.mesh.faults = FaultConfig::bursts(5000.0, 0.6, 6);
    cfg.watchdog_cycles = 3_000_000;
    assert_clean(cfg, &wl, "reissue-kind");
}

/// BUG 2 — UnblockPing matching by pending-MSHR only: a ping for an *old*
/// completed transaction was ignored forever because a *new* miss on the
/// same line was pending, deadlocking the directory. Fix: the L1 records
/// the last unblock it sent per line and answers pings for completed
/// transactions; pings are matched by transaction *kind*, which per-line
/// serialization makes unique (l1.rs `on_unblock_ping`).
#[test]
fn unblock_ping_for_old_transaction_with_new_miss_pending() {
    let wl = contended_workload(0u64.wrapping_mul(17) + 3, 8, 120, 12);
    let mut cfg = SystemConfig::ftdircmp().with_seed(5000);
    cfg.mesh.faults = FaultConfig::bursts(5000.0, 0.6, 6);
    cfg.watchdog_cycles = 3_000_000;
    assert_clean(cfg, &wl, "ping-old-tx");
}

/// BUG 3 — timeout livelock: a lost-request timeout shorter than the
/// instantaneous service latency (150 < 160-cycle memory) made every
/// response arrive after the next reissue bumped the serial — discarded as
/// stale, forever. Fix: exponential backoff on every recovery retry
/// (proto.rs `backoff_delay`).
#[test]
fn sub_latency_timeouts_converge_via_backoff() {
    let wl = contended_workload(0u64.wrapping_mul(13) + 1, 8, 120, 10); // seed 0
    let mut cfg = SystemConfig::ftdircmp().with_seed(900);
    cfg.ft.lost_request_timeout = 150; // below the 160-cycle memory latency
    cfg.ft.lost_unblock_timeout = 150;
    cfg.ft.lost_ackbd_timeout = 120;
    cfg.ft.lost_data_timeout = 300;
    cfg.watchdog_cycles = 3_000_000;
    assert_clean(cfg, &wl, "timeout-livelock");

    // The seed that originally wedged (stress short-timeouts seed=18).
    let wl = contended_workload(18 * 13 + 1, 8, 120, 10);
    let mut cfg = SystemConfig::ftdircmp().with_seed(18 + 900);
    cfg.ft.lost_request_timeout = 150;
    cfg.ft.lost_unblock_timeout = 150;
    cfg.ft.lost_ackbd_timeout = 120;
    cfg.ft.lost_data_timeout = 300;
    cfg.watchdog_cycles = 3_000_000;
    assert_clean(cfg, &wl, "timeout-livelock-seed18");
}

/// BUG 4 — serial collision across transactions: reissues advanced a
/// request's serial with `+1` while fresh requests drew from the same
/// counter's older position, so an old transaction's serial could equal a
/// new transaction's — and a crossing stale ping-reply completed a GetX
/// with a plain Unblock, leaving the directory pointing at a node that had
/// surrendered its data (two writers). Fix: reissue serials come from the
/// same per-node sequential allocator as fresh requests, plus a plain
/// Unblock can never complete a GetX transaction.
#[test]
fn cross_transaction_serial_collision() {
    // Originally failed with serial_bits = 4 AND 2 at seed 3 (identical
    // timestamps proved it was not wraparound).
    for bits in [2u8, 4, 8] {
        let wl = contended_workload(3 * 23 + 9, 8, 100, 10);
        let mut cfg = SystemConfig::ftdircmp()
            .with_fault_rate(5_000.0)
            .with_seed(3 + 77);
        cfg.ft.serial_bits = bits;
        cfg.watchdog_cycles = 3_000_000;
        assert_clean(cfg, &wl, &format!("serial-collision bits={bits}"));
    }
}

/// BUG 5 — recall invalidations were never re-sent: a lost recall `Inv`
/// (or its ack) left the bank's eviction waiting forever on a counter that
/// could also be corrupted by duplicate acks. Fix: set-based tracking of
/// outstanding recall acks, with re-invalidation of exactly the missing
/// members on the lost-unblock timer (l2.rs `Tbe::invs`).
#[test]
fn lost_recall_invalidations_are_resent() {
    // Originally wedged at stress tiny-caches seed=17.
    let wl = contended_workload(17u64.wrapping_mul(37) + 13, 8, 120, 40);
    let mut cfg = SystemConfig::ftdircmp()
        .with_fault_rate(2_000.0)
        .with_seed(17 + 404);
    cfg.l1_bytes = 2 * 1024;
    cfg.l2_bank_bytes = 4 * 1024;
    cfg.watchdog_cycles = 3_000_000;
    assert_clean(cfg, &wl, "recall-inv-resend");
}

/// BUG 6 — DirCMP deadlocks silently drained the event queue and the run
/// reported success with zero cycles. Fix: an empty queue with blocked
/// cores is reported as a deadlock (system.rs).
#[test]
fn drained_queue_with_blocked_cores_is_a_deadlock() {
    let wl = contended_workload(99, 16, 200, 24);
    let mut cfg = SystemConfig::dircmp()
        .with_fault_rate(20_000.0)
        .with_seed(99);
    cfg.watchdog_cycles = 150_000;
    match System::run_workload(cfg, &wl) {
        Err(ftdircmp_core::RunError::Deadlock { .. }) => {}
        Ok(r) => assert_eq!(r.messages_lost, 0, "losses must imply deadlock"),
        Err(e) => panic!("unexpected: {e}"),
    }
}

/// BUG 7 — a recall whose `DataEx` was lost answered the owner's
/// `OwnershipPing` with `AckO`: `WaitRecall` had no row for it, so the
/// line's unconditional `AckO` ran, and the owner dropped its backup, the
/// last copy. The bank then re-sent its forward to a node at `I` until the
/// watchdog fired (`Deadlock` near 5.3 M cycles). Fix: `WaitRecall`
/// refuses with `NackO` while the owner's data is missing (l2 table).
/// Found by the lint's state search; these are `ftdircmp-cli --bench ocean
/// --protocol ft --fault-rate 8000 --ops 1000 --seed 2` and `--seed 4`.
#[test]
fn a_recall_refuses_ownership_until_the_owners_data_arrives() {
    let mut spec = WorkloadSpec::named("ocean").expect("a suite benchmark");
    spec.ops_per_core = 1000;
    for seed in [2, 4] {
        let mut cfg = SystemConfig::ftdircmp()
            .with_fault_rate(8_000.0)
            .with_seed(seed);
        cfg.watchdog_cycles = 5_000_000;
        let wl = spec.generate(cfg.tiles, cfg.seed);
        assert_clean(cfg, &wl, &format!("recall-ownership-ping seed {seed}"));
    }
}
