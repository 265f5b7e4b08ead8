//! The memory controller: directory of last resort and backing store.
//!
//! Each controller serves a line-interleaved slice of the address space.
//! From the coherence protocol's point of view it is just another node
//! (paper §3.1 footnote): it grants exclusive data to the home L2 bank,
//! coordinates L2 writebacks with the same three-phase scheme, and — under
//! FtDirCMP — participates in the ownership handshakes. Its resident copy
//! doubles as the backup for outgoing data, so fills need no extra storage.

use ftdircmp_sim::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

use crate::data::LineData;
use crate::ids::{LineAddr, NodeId};
use crate::msg::{Message, MsgType};
use crate::proto::{defer_request, table_check, Ctx, Facets, TimeoutKind, Timer, Timers};
use crate::serial::SerialNum;

#[allow(clippy::enum_variant_names)] // Wait* mirrors the protocol's terminology
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemStage {
    /// DataEx sent; waiting for the L2's UnblockEx (+AckO under FT).
    WaitUnblock,
    /// WbAck sent; waiting for WbData/WbNoData.
    WaitWbData,
    /// FT: AckO sent for received WbData; waiting for AckBD.
    WaitAckBd,
}

#[derive(Debug, Clone)]
struct MemTbe {
    blocker: NodeId,
    serial: SerialNum,
    stage: MemStage,
    unblock: Timer,
    ackbd: Timer,
    acko_serial: SerialNum,
}

/// One memory controller.
#[derive(Debug, Clone)]
pub(crate) struct MemController {
    me: NodeId,
    ft: bool,
    store: FxHashMap<LineAddr, LineData>,
    l2_owned: FxHashSet<LineAddr>,
    tbes: FxHashMap<LineAddr, MemTbe>,
    waiting: FxHashMap<LineAddr, VecDeque<Message>>,
    timers: Timers,
}

impl MemController {
    /// Creates memory controller `index`.
    pub(crate) fn new(index: u8, fault_tolerant: bool) -> Self {
        MemController {
            me: NodeId::Mem(index),
            ft: fault_tolerant,
            store: FxHashMap::default(),
            l2_owned: FxHashSet::default(),
            tbes: FxHashMap::default(),
            waiting: FxHashMap::default(),
            timers: Timers::new(NodeId::Mem(index)),
        }
    }

    /// Whether no transactions are in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.tbes.is_empty() && self.waiting.values().all(VecDeque::is_empty)
    }

    /// Human-readable summary of in-flight state (deadlock diagnostics).
    pub(crate) fn pending_summary(&self) -> String {
        let mut out = String::new();
        for (a, t) in &self.tbes {
            out.push_str(&format!(
                "{} tbe {a} stage={:?} blocker={} serial={}\n",
                self.me, t.stage, t.blocker, t.serial
            ));
        }
        for (a, q) in &self.waiting {
            if !q.is_empty() {
                out.push_str(&format!("{} waiting {a} n={}\n", self.me, q.len()));
            }
        }
        out
    }

    fn data_of(&self, addr: LineAddr) -> LineData {
        self.store.get(&addr).copied().unwrap_or_default()
    }

    /// The exclusive grant of the stored line that answers `request`, and
    /// answers its reissues. Memory always grants exclusively: the home bank
    /// is the only L2-level requester for its slice. Memory's retained copy
    /// is the implicit backup (FT).
    fn data_ex(&self, request: &Message) -> Message {
        request
            .reply(MsgType::DataEx)
            .requester(request.src)
            .data(self.data_of(request.addr))
    }

    /// The line's current facet configuration, in the state vocabulary of
    /// the reified transition table ([`crate::transitions::mem_table`]).
    /// The first entry is always the mandatory `Line` facet.
    pub(crate) fn table_facets(&self, addr: LineAddr) -> Facets {
        let ids = &crate::transitions::mem().1;
        let mut f = Facets::new();
        f.push(if self.l2_owned.contains(&addr) {
            ids.c
        } else {
            ids.u
        });
        if let Some(tbe) = self.tbes.get(&addr) {
            f.push(match tbe.stage {
                MemStage::WaitUnblock => ids.wait_unblock,
                MemStage::WaitWbData => ids.wait_wb_data,
                MemStage::WaitAckBd => ids.wait_ack_bd,
            });
        }
        f
    }

    /// Handles an incoming network message.
    pub(crate) fn handle_message(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let facets = || self.table_facets(msg.addr);
        table_check(crate::transitions::mem_table(), facets, self.me, &msg, ctx);
        match msg.mtype {
            MsgType::GetX | MsgType::GetS | MsgType::Put => self.on_request(msg, ctx),
            MsgType::Unblock | MsgType::UnblockEx => self.on_unblock(msg, ctx),
            MsgType::WbData | MsgType::WbNoData | MsgType::WbCancel => self.on_wb_data(msg, ctx),
            MsgType::AckBD => self.on_ackbd(msg, ctx),
            MsgType::AckO => {
                // Not part of any expected flow (memory's backups are
                // implicit), but answer idempotently.
                ctx.send(msg.reply(MsgType::AckBD));
            }
            MsgType::OwnershipPing => self.on_ownership_ping(msg, ctx),
            MsgType::WbAck
            | MsgType::Inv
            | MsgType::Ack
            | MsgType::Data
            | MsgType::DataEx
            | MsgType::FwdGetS
            | MsgType::FwdGetX
            | MsgType::UnblockPing
            | MsgType::WbPing
            | MsgType::NackO => {
                // Misrouted: no memory handler. `table_check` above recorded
                // the protocol violation; drop the message instead of
                // panicking.
            }
        }
    }

    /// Handles a fired timeout.
    pub(crate) fn handle_timeout(
        &mut self,
        kind: TimeoutKind,
        addr: LineAddr,
        gen: u64,
        ctx: &mut Ctx<'_>,
    ) {
        match kind {
            TimeoutKind::LostUnblock => self.on_lost_unblock(addr, gen, ctx),
            TimeoutKind::LostAckBd => self.on_lost_ackbd(addr, gen, ctx),
            _ => {}
        }
    }

    fn on_request(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        if let Some(tbe) = self.tbes.get(&msg.addr) {
            // Same-kind check: a Put from the blocker while its fill awaits
            // an unblock is a new transaction, not a reissue (and vice
            // versa) — it must queue.
            let same_kind = match tbe.stage {
                MemStage::WaitUnblock => msg.mtype == MsgType::GetX || msg.mtype == MsgType::GetS,
                MemStage::WaitWbData | MemStage::WaitAckBd => msg.mtype == MsgType::Put,
            };
            if tbe.blocker == msg.src && same_kind {
                if self.ft && tbe.serial != msg.serial {
                    self.on_reissue(msg, ctx);
                }
                return;
            }
            defer_request(self.waiting.entry(msg.addr).or_default(), msg, ctx);
            return;
        }
        self.service_request(msg, ctx);
    }

    fn on_reissue(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        ctx.stats.false_positives.incr();
        let Some(tbe) = self.tbes.get_mut(&msg.addr) else {
            return;
        };
        tbe.serial = msg.serial;
        match tbe.stage {
            MemStage::WaitUnblock => ctx.send(self.data_ex(&msg)),
            MemStage::WaitWbData => ctx.send(msg.reply(MsgType::WbAck)),
            MemStage::WaitAckBd => {}
        }
    }

    fn service_request(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        match msg.mtype {
            MsgType::GetX | MsgType::GetS => {
                let mut tbe = MemTbe {
                    blocker: msg.src,
                    serial: msg.serial,
                    stage: MemStage::WaitUnblock,
                    unblock: Timer::default(),
                    ackbd: Timer::default(),
                    acko_serial: SerialNum::ZERO,
                };
                if self.ft {
                    tbe.unblock
                        .arm(&mut self.timers, msg.addr, TimeoutKind::LostUnblock, ctx);
                }
                self.tbes.insert(msg.addr, tbe);
                ctx.send(self.data_ex(&msg));
            }
            MsgType::Put => {
                if !self.l2_owned.contains(&msg.addr) {
                    let mut wback = msg.reply(MsgType::WbAck);
                    wback.wb_stale = true;
                    ctx.send(wback);
                    return;
                }
                let mut tbe = MemTbe {
                    blocker: msg.src,
                    serial: msg.serial,
                    stage: MemStage::WaitWbData,
                    unblock: Timer::default(),
                    ackbd: Timer::default(),
                    acko_serial: SerialNum::ZERO,
                };
                if self.ft {
                    tbe.unblock
                        .arm(&mut self.timers, msg.addr, TimeoutKind::LostUnblock, ctx);
                }
                self.tbes.insert(msg.addr, tbe);
                ctx.send(msg.reply(MsgType::WbAck));
            }
            other => {
                ctx.checker.protocol_error(
                    self.me,
                    msg.addr,
                    &format!("{other} reached request servicing"),
                    ctx.now,
                );
            }
        }
    }

    fn on_unblock(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let stale = match self.tbes.get(&msg.addr) {
            None => true,
            Some(tbe) => {
                tbe.stage != MemStage::WaitUnblock
                    || tbe.blocker != msg.src
                    || (self.ft && tbe.serial != msg.serial)
            }
        };
        if stale {
            // Stale or duplicate unblock: still acknowledge a piggybacked
            // AckO so the L2's external-blocked state can always drain.
            if msg.piggy_acko {
                ctx.send(msg.reply(MsgType::AckBD));
            }
            ctx.stats.stale_discards.incr();
            return;
        }
        self.tbes.remove(&msg.addr);
        self.l2_owned.insert(msg.addr);
        if self.ft && msg.piggy_acko {
            ctx.send(msg.reply(MsgType::AckBD));
        }
        self.pump_waiting(msg.addr, ctx);
    }

    fn on_wb_data(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let Some(tbe) = self.tbes.get_mut(&msg.addr) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if tbe.stage != MemStage::WaitWbData
            || tbe.blocker != msg.src
            || (self.ft && tbe.serial != msg.serial)
        {
            ctx.stats.stale_discards.incr();
            return;
        }
        match msg.mtype {
            MsgType::WbData => {
                let data = msg.data.expect("WbData carries data");
                debug_assert!(
                    data.version() >= self.store.get(&msg.addr).map_or(0, |d| d.version()),
                    "writeback would regress memory contents"
                );
                self.store.insert(msg.addr, data);
                self.l2_owned.remove(&msg.addr);
                if self.ft {
                    tbe.stage = MemStage::WaitAckBd;
                    tbe.acko_serial = msg.serial;
                    ctx.send(msg.reply(MsgType::AckO));
                    tbe.ackbd
                        .arm(&mut self.timers, msg.addr, TimeoutKind::LostAckBd, ctx);
                    return;
                }
                self.tbes.remove(&msg.addr);
            }
            MsgType::WbNoData | MsgType::WbCancel => {
                self.l2_owned.remove(&msg.addr);
                self.tbes.remove(&msg.addr);
            }
            other => {
                ctx.checker.protocol_error(
                    self.me,
                    msg.addr,
                    &format!("{other} reached writeback-data handling"),
                    ctx.now,
                );
                return;
            }
        }
        self.pump_waiting(msg.addr, ctx);
    }

    fn on_ackbd(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let Some(tbe) = self.tbes.get(&msg.addr) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if tbe.stage != MemStage::WaitAckBd || tbe.acko_serial != msg.serial {
            ctx.stats.stale_discards.incr();
            return;
        }
        self.tbes.remove(&msg.addr);
        self.pump_waiting(msg.addr, ctx);
    }

    fn on_ownership_ping(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // The L2 holds a writeback backup and asks whether its WbData made
        // it here.
        let still_waiting = self
            .tbes
            .get(&msg.addr)
            .is_some_and(|t| t.stage == MemStage::WaitWbData);
        let reply = if still_waiting {
            MsgType::NackO
        } else {
            MsgType::AckO
        };
        ctx.send(msg.reply(reply));
    }

    fn pump_waiting(&mut self, addr: LineAddr, ctx: &mut Ctx<'_>) {
        loop {
            if self.tbes.contains_key(&addr) {
                return;
            }
            let Some(q) = self.waiting.get_mut(&addr) else {
                return;
            };
            // The drained queue keeps its buffer for the next deferral
            // instead of being dropped from the map.
            let Some(msg) = q.pop_front() else {
                return;
            };
            self.service_request(msg, ctx);
        }
    }

    fn on_lost_unblock(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        let kind = TimeoutKind::LostUnblock;
        let Some(tbe) = self.tbes.get_mut(&addr) else {
            return;
        };
        if !tbe.unblock.fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        let ping = |mtype| Message::new(mtype, addr, self.me, tbe.blocker).serial(tbe.serial);
        match tbe.stage {
            MemStage::WaitUnblock => {
                let mut ping = ping(MsgType::UnblockPing);
                ping.ping_for_store = true;
                ctx.send(ping);
            }
            MemStage::WaitWbData => ctx.send(ping(MsgType::WbPing)),
            MemStage::WaitAckBd => return,
        }
        tbe.unblock.rearm(&self.timers, addr, kind, ctx);
    }

    fn on_lost_ackbd(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        let kind = TimeoutKind::LostAckBd;
        let Some(tbe) = self.tbes.get_mut(&addr) else {
            return;
        };
        if tbe.stage != MemStage::WaitAckBd || !tbe.ackbd.fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        tbe.acko_serial = tbe.acko_serial.next(ctx.config.ft.serial_bits);
        ctx.send(Message::new(MsgType::AckO, addr, self.me, tbe.blocker).serial(tbe.acko_serial));
        tbe.ackbd.rearm(&self.timers, addr, kind, ctx);
    }
}

#[cfg(test)]
#[path = "mem_tests.rs"]
mod tests;
