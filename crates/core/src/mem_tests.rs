//! Unit tests for the memory controller in isolation.

use crate::data::LineData;
use crate::ids::{LineAddr, NodeId};
use crate::mem::MemController;
use crate::msg::{Message, MsgType};
use crate::proto::TimeoutKind;
use crate::serial::SerialNum;
use crate::testharness::Harness;

const ME: NodeId = NodeId::Mem(3);
const L: LineAddr = LineAddr(3);
const BANK: NodeId = NodeId::L2(3);

fn mem(ft: bool) -> MemController {
    MemController::new(3, ft)
}

fn sn(v: u16) -> SerialNum {
    SerialNum::new(v, 8)
}

/// Fill + exclusive unblock: leaves the line chip-owned.
fn grant_to_l2(c: &mut MemController, h: &mut Harness, serial: u16) {
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(serial)),
        &mut h.ctx(),
    );
    h.sent_one(MsgType::DataEx);
    h.clear();
    let mut unblock = Message::new(MsgType::UnblockEx, L, BANK, ME).serial(sn(serial));
    if h.config.protocol.is_fault_tolerant() {
        unblock = unblock.with_acko();
    }
    c.handle_message(unblock, &mut h.ctx());
    h.clear();
}

#[test]
fn fill_grants_pristine_data_exclusively() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(10)),
        &mut h.ctx(),
    );
    let grant = h.sent_one(MsgType::DataEx);
    assert_eq!(grant.dst, BANK);
    assert_eq!(grant.data.unwrap().version(), 0);
    assert!(!grant.data_dirty, "memory data is clean by definition");
    assert!(h.armed(ME, TimeoutKind::LostUnblock).is_some());
    assert!(!c.l2_owned.contains(&L), "ownership moves at the unblock");
}

#[test]
fn unblock_with_acko_marks_chip_owned_and_answers_ackbd() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(10)),
        &mut h.ctx(),
    );
    h.clear();
    c.handle_message(
        Message::new(MsgType::UnblockEx, L, BANK, ME)
            .serial(sn(10))
            .with_acko(),
        &mut h.ctx(),
    );
    assert_eq!(h.sent_one(MsgType::AckBD).dst, BANK);
    assert!(c.l2_owned.contains(&L));
    assert!(c.is_idle());
}

#[test]
fn stale_unblock_with_acko_still_gets_ackbd() {
    // Idempotence: a resent UnblockEx+AckO after the transaction closed
    // must still release the L2's external-blocked state.
    let mut h = Harness::ft();
    let mut c = mem(true);
    grant_to_l2(&mut c, &mut h, 10);
    c.handle_message(
        Message::new(MsgType::UnblockEx, L, BANK, ME)
            .serial(sn(10))
            .with_acko(),
        &mut h.ctx(),
    );
    h.sent_one(MsgType::AckBD);
    assert!(h.stats.stale_discards.get() > 0);
}

#[test]
fn writeback_roundtrip_updates_the_store() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    grant_to_l2(&mut c, &mut h, 10);
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    let wback = h.sent_one(MsgType::WbAck);
    assert!(!wback.wb_stale);
    h.clear();
    let mut dirty = LineData::pristine();
    dirty.write(NodeId::L1(5));
    dirty.write(NodeId::L1(6));
    c.handle_message(
        Message::new(MsgType::WbData, L, BANK, ME)
            .serial(sn(20))
            .data(dirty)
            .dirty(true),
        &mut h.ctx(),
    );
    assert_eq!(c.store[&L].version(), 2);
    assert!(!c.l2_owned.contains(&L));
    // FT: ownership handshake.
    let acko = h.sent_one(MsgType::AckO);
    c.handle_message(
        Message::new(MsgType::AckBD, L, BANK, ME).serial(acko.serial),
        &mut h.ctx(),
    );
    assert!(c.is_idle());
}

#[test]
fn put_from_non_owner_is_stale() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    assert!(h.sent_one(MsgType::WbAck).wb_stale);
    assert!(c.is_idle(), "stale puts create no transaction");
}

#[test]
fn refill_after_writeback_returns_the_new_version() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    grant_to_l2(&mut c, &mut h, 10);
    // Write back version 1.
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    h.clear();
    let mut v1 = LineData::pristine();
    v1.write(NodeId::L1(5));
    c.handle_message(
        Message::new(MsgType::WbData, L, BANK, ME)
            .serial(sn(20))
            .data(v1)
            .dirty(true),
        &mut h.ctx(),
    );
    let acko = h.sent_one(MsgType::AckO);
    c.handle_message(
        Message::new(MsgType::AckBD, L, BANK, ME).serial(acko.serial),
        &mut h.ctx(),
    );
    h.clear();
    // A new fill must carry version 1.
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(30)),
        &mut h.ctx(),
    );
    assert_eq!(h.sent_one(MsgType::DataEx).data.unwrap().version(), 1);
}

#[test]
fn reissued_fill_resends_data_with_new_serial() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(10)),
        &mut h.ctx(),
    );
    h.clear();
    // The DataEx was lost; the bank reissues with serial 11.
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(11)),
        &mut h.ctx(),
    );
    assert_eq!(h.sent_one(MsgType::DataEx).serial, sn(11));
    assert!(h.stats.false_positives.get() > 0);
    // The same request under the same serial again is a duplicate: dropped.
    let deferred = h.stats.deferred_requests.get();
    let false_positives = h.stats.false_positives.get();
    h.clear();
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(11)),
        &mut h.ctx(),
    );
    assert!(h.out.is_empty(), "{:?}", h.out);
    assert!(c.waiting.get(&L).is_none_or(|q| q.is_empty()));
    assert_eq!(h.stats.deferred_requests.get(), deferred);
    assert_eq!(h.stats.false_positives.get(), false_positives);
}

#[test]
fn put_while_fill_unblock_pending_queues() {
    // Different kind from the same blocker = a new transaction (the fill's
    // unblock is still owed); it must wait, not alias as a reissue.
    let mut h = Harness::ft();
    let mut c = mem(true);
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(10)),
        &mut h.ctx(),
    );
    h.clear();
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    h.sent_none(MsgType::WbAck);
    assert_eq!(h.stats.deferred_requests.get(), 1);
    // A reissue of the queued Put only refreshes its serial (§3.5).
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(21)),
        &mut h.ctx(),
    );
    h.sent_none(MsgType::WbAck);
    assert_eq!(h.stats.deferred_requests.get(), 1, "merged, not queued");
    // The unblock closes the fill; the queued Put is then serviced, once,
    // under the reissue's serial.
    c.handle_message(
        Message::new(MsgType::UnblockEx, L, BANK, ME)
            .serial(sn(10))
            .with_acko(),
        &mut h.ctx(),
    );
    assert_eq!(h.sent_one(MsgType::WbAck).serial, sn(21));
}

#[test]
fn lost_unblock_timeout_pings_the_bank() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(10)),
        &mut h.ctx(),
    );
    let t = h.armed(ME, TimeoutKind::LostUnblock).unwrap();
    h.clear();
    c.handle_timeout(TimeoutKind::LostUnblock, L, t.gen, &mut h.ctx());
    let ping = h.sent_one(MsgType::UnblockPing);
    assert_eq!(ping.dst, BANK);
    assert!(ping.ping_for_store);
    // Backoff applies.
    let t2 = h.armed(ME, TimeoutKind::LostUnblock).unwrap();
    assert_eq!(t2.delay, h.config.ft.lost_unblock_timeout * 2);
}

#[test]
fn lost_wbdata_timeout_sends_wbping() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    grant_to_l2(&mut c, &mut h, 10);
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    let t = h.armed(ME, TimeoutKind::LostUnblock).unwrap();
    h.clear();
    c.handle_timeout(TimeoutKind::LostUnblock, L, t.gen, &mut h.ctx());
    h.sent_one(MsgType::WbPing);
}

#[test]
fn lost_ackbd_timeout_resends_acko_with_new_serial() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    grant_to_l2(&mut c, &mut h, 10);
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    h.clear();
    c.handle_message(
        Message::new(MsgType::WbData, L, BANK, ME)
            .serial(sn(20))
            .data(LineData::pristine())
            .dirty(true),
        &mut h.ctx(),
    );
    let first = h.sent_one(MsgType::AckO);
    let t = h.armed(ME, TimeoutKind::LostAckBd).unwrap();
    h.clear();
    c.handle_timeout(TimeoutKind::LostAckBd, L, t.gen, &mut h.ctx());
    let second = h.sent_one(MsgType::AckO);
    assert_ne!(
        second.serial, first.serial,
        "reissued AckO gets a new serial"
    );
    // The matching AckBD closes it.
    c.handle_message(
        Message::new(MsgType::AckBD, L, BANK, ME).serial(second.serial),
        &mut h.ctx(),
    );
    assert!(c.is_idle());
}

#[test]
fn taking_wbdata_disarms_the_lost_unblock_timer() {
    // The unblock timer armed at the WbAck must not fire in WaitAckBd.
    let mut h = Harness::ft();
    let mut c = mem(true);
    grant_to_l2(&mut c, &mut h, 10);
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    let t = h.armed(ME, TimeoutKind::LostUnblock).unwrap();
    c.handle_message(
        Message::new(MsgType::WbData, L, BANK, ME)
            .serial(sn(20))
            .data(LineData::pristine())
            .dirty(true),
        &mut h.ctx(),
    );
    h.clear();
    c.handle_timeout(TimeoutKind::LostUnblock, L, t.gen, &mut h.ctx());
    assert_eq!(h.stats.timeouts(TimeoutKind::LostUnblock), 0);
    assert!(h.out.is_empty() && h.timeouts.is_empty(), "{:?}", h.out);
}

#[test]
fn ownership_ping_reports_wbdata_receipt() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    grant_to_l2(&mut c, &mut h, 10);
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    h.clear();
    // The WbData has not arrived: NackO (the bank will resend it).
    c.handle_message(
        Message::new(MsgType::OwnershipPing, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    h.sent_one(MsgType::NackO);
    h.clear();
    // After the data arrives: AckO.
    c.handle_message(
        Message::new(MsgType::WbData, L, BANK, ME)
            .serial(sn(20))
            .data(LineData::pristine())
            .dirty(true),
        &mut h.ctx(),
    );
    h.clear();
    c.handle_message(
        Message::new(MsgType::OwnershipPing, L, BANK, ME).serial(sn(20)),
        &mut h.ctx(),
    );
    h.sent_one(MsgType::AckO);
}

#[test]
fn dircmp_memory_uses_no_timers_or_handshakes() {
    let mut h = Harness::dircmp();
    let mut c = mem(false);
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(SerialNum::ZERO),
        &mut h.ctx(),
    );
    assert!(h.timeouts.is_empty());
    h.clear();
    c.handle_message(
        Message::new(MsgType::UnblockEx, L, BANK, ME).serial(SerialNum::ZERO),
        &mut h.ctx(),
    );
    h.sent_none(MsgType::AckBD);
    assert!(c.l2_owned.contains(&L));
    // Writeback without the FT handshake.
    c.handle_message(
        Message::new(MsgType::Put, L, BANK, ME).serial(SerialNum::ZERO),
        &mut h.ctx(),
    );
    h.clear();
    c.handle_message(
        Message::new(MsgType::WbData, L, BANK, ME)
            .serial(SerialNum::ZERO)
            .data(LineData::pristine())
            .dirty(true),
        &mut h.ctx(),
    );
    h.sent_none(MsgType::AckO);
    assert!(c.is_idle());
}

#[test]
fn misrouted_gets_is_reported_by_the_table_cross_check() {
    let mut h = Harness::ft();
    let mut c = mem(true);
    // The L2 always fetches exclusively: the table declares GetS impossible.
    c.handle_message(
        Message::new(MsgType::GetS, L, BANK, ME).serial(sn(10)),
        &mut h.ctx(),
    );
    assert_eq!(
        h.checker.violations(),
        ["[0c] PROTOCOL: Mem-3 on line:0x3: unexpected GetS in state U"]
    );
    // Reported and dropped: it is not served as a GetX.
    assert!(h.out.is_empty(), "{:?}", h.out);
    assert!(c.is_idle(), "no transaction opened");
    // A legal fill leaves the checker alone.
    let mut h = Harness::ft();
    let mut c = mem(true);
    c.handle_message(
        Message::new(MsgType::GetX, L, BANK, ME).serial(sn(10)),
        &mut h.ctx(),
    );
    assert!(h.checker.violations().is_empty());
}
