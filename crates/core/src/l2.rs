//! The L2 bank controller: shared cache bank + on-chip directory.
//!
//! Each bank is the *home* for a slice of the address space and acts as the
//! directory for the L1 caches (paper §2): per-line busy states serialize
//! transactions, three-phase writebacks coordinate evictions, and the
//! migratory-sharing optimization converts read requests to migratory lines
//! into exclusive grants.
//!
//! Under FtDirCMP the bank additionally implements the §3.1.1 relaxation:
//! data arriving from memory is forwarded to the requesting L1 immediately,
//! with the bank keeping a backup and the line marked *internally* blocked
//! (L1-facing handshake pending) and *externally* blocked (memory-facing
//! handshake pending) — so L2 misses see no added latency, yet at most one
//! backup exists outside the chip.

use std::collections::VecDeque;

use ftdircmp_sim::DetRng;

use crate::cache::SetAssocCache;
use crate::config::SystemConfig;
use crate::data::LineData;
use crate::ids::{LineAddr, NodeId, SharerSet};
use crate::linetab::LineTable;
use crate::msg::{Message, MsgType};
use crate::proto::{defer_request, table_check, Ctx, Facets, TimeoutKind, Timer, Timers};
use crate::serial::{SerialAllocator, SerialNum};

/// Directory + data state of one line resident in this bank.
#[derive(Debug, Clone)]
struct L2Line {
    /// Data held by the bank (`None` while an L1 owns the line).
    data: Option<LineData>,
    /// Bank data differs from memory.
    dirty: bool,
    /// L1 tile currently owning the line (M/E/O), if any.
    owner: Option<u8>,
    /// L1 tiles holding shared copies (may overapproximate: S evictions are
    /// silent).
    sharers: SharerSet,
    /// Migratory-sharing bit (paper §2).
    migratory: bool,
    /// Most recent requester, for migratory detection.
    last_getter: Option<u8>,
    /// Whether the most recent request was a GetS.
    last_was_gets: bool,
    /// Consecutive GetS transactions (≥2 clears the migratory bit).
    consecutive_gets: u8,
    /// FtDirCMP: externally blocked — the memory-side backup handshake is
    /// pending, so this line must not be written back or evicted (§3.1.1).
    ext_blocked: bool,
}

impl L2Line {
    fn fresh() -> Self {
        L2Line {
            data: None,
            dirty: false,
            owner: None,
            sharers: SharerSet::new(),
            migratory: false,
            last_getter: None,
            last_was_gets: false,
            consecutive_gets: 0,
            ext_blocked: false,
        }
    }
}

/// What the bank last sent for the active transaction — kept so a reissued
/// request can be answered by resending it (§3.2).
#[derive(Debug, Clone)]
enum Resp {
    Data {
        data: LineData,
    },
    DataEx {
        data: Option<LineData>,
        dirty: bool,
        acks: u8,
    },
}

impl Resp {
    /// The response granting this to `requester` under `serial`.
    fn message(&self, addr: LineAddr, me: NodeId, requester: NodeId, serial: SerialNum) -> Message {
        let (mtype, data, dirty, acks) = match *self {
            Resp::Data { data } => (MsgType::Data, Some(data), false, 0),
            Resp::DataEx { data, dirty, acks } => (MsgType::DataEx, data, dirty, acks),
        };
        let msg = Message::new(mtype, addr, me, requester)
            .requester(requester)
            .serial(serial)
            .acks(acks);
        match data {
            Some(d) => msg.data(d).dirty(dirty),
            None => msg,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TbeKind {
    /// An L1 miss (GetS or GetX) being serviced.
    Miss { store: bool },
    /// A three-phase writeback from an L1.
    Wb,
    /// Directory-initiated recall of a line with L1 copies (bank eviction).
    Recall,
    /// Bank eviction writeback to memory.
    L2Evict,
}

#[allow(clippy::enum_variant_names)] // Wait* mirrors the protocol's terminology
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Fill: GetX sent to memory, waiting for DataEx.
    WaitMem,
    /// Response or forward sent, waiting for Unblock/UnblockEx.
    WaitUnblock,
    /// WbAck sent, waiting for WbData/WbNoData.
    WaitWbData,
    /// FT: AckO sent for received WbData, waiting for AckBD.
    WaitWbAckBd,
    /// Recall in progress (data and/or invalidation acks outstanding).
    WaitRecall,
    /// FT: recall data received, AckO sent, waiting for AckBD.
    WaitRecallAckBd,
    /// Bank eviction: Put sent to memory, waiting for WbAck.
    WaitMemWbAck,
}

/// Per-line transaction state (the paper's MSHR/TBE at the directory, which
/// also remembers the *blocker* so reissued requests can be recognized).
#[derive(Debug, Clone)]
struct Tbe {
    kind: TbeKind,
    stage: Stage,
    blocker: NodeId,
    serial: SerialNum,
    own_serial: SerialNum,
    inv_targets: Vec<u8>,
    fwd_to: Option<u8>,
    fwd_gets: bool,
    resp: Option<Resp>,
    /// Fill: data received from memory. Recall/evict: data being saved.
    data: Option<LineData>,
    data_dirty: bool,
    /// Recall: sharers whose invalidation acks are still outstanding.
    recall_acks: SharerSet,
    /// Recall: waiting for the owner's data.
    recall_needs_data: bool,
    /// This transaction was filled from memory (FT: run the §3.1.1 external
    /// handshake after the L1 unblocks).
    from_mem: bool,
    /// The bank sent data itself and (FT) holds it as backup until AckO.
    sent_data_backup: bool,
    unblock: Timer,
    req: Timer,
    ackbd: Timer,
    acko_serial: SerialNum,
}

impl Tbe {
    fn new(kind: TbeKind, blocker: NodeId, serial: SerialNum) -> Self {
        Tbe {
            kind,
            stage: Stage::WaitUnblock,
            blocker,
            serial,
            own_serial: SerialNum::ZERO,
            inv_targets: Vec::new(),
            fwd_to: None,
            fwd_gets: false,
            resp: None,
            data: None,
            data_dirty: false,
            recall_acks: SharerSet::new(),
            recall_needs_data: false,
            from_mem: false,
            sent_data_backup: false,
            unblock: Timer::default(),
            req: Timer::default(),
            ackbd: Timer::default(),
            acko_serial: SerialNum::ZERO,
        }
    }

    /// The forward this transaction sends, and re-sends, to the owning L1,
    /// if it has one: on behalf of its blocker (the bank itself for a
    /// recall), under its serial, counting its invalidations.
    fn fwd(&self, addr: LineAddr, me: NodeId) -> Option<Message> {
        let mtype = if self.fwd_gets {
            MsgType::FwdGetS
        } else {
            MsgType::FwdGetX
        };
        let owner = NodeId::L1(self.fwd_to?);
        let msg = Message::new(mtype, addr, me, owner).requester(self.blocker);
        Some(msg.serial(self.serial).acks(self.inv_targets.len() as u8))
    }

    /// Sends this transaction's invalidations to `targets`, to be
    /// acknowledged to its blocker under its serial.
    fn send_invs(
        &self,
        addr: LineAddr,
        me: NodeId,
        targets: impl IntoIterator<Item = u8>,
        ctx: &mut Ctx<'_>,
    ) {
        for t in targets {
            ctx.send(
                Message::new(MsgType::Inv, addr, me, NodeId::L1(t))
                    .requester(self.blocker)
                    .serial(self.serial),
            );
        }
    }

    /// The request to memory this transaction issues, and reissues: the
    /// fill's `GetX`, or the bank eviction's `Put`.
    fn mem_request(&self, addr: LineAddr, me: NodeId, mem: NodeId) -> Message {
        let mtype = if self.stage == Stage::WaitMemWbAck {
            MsgType::Put
        } else {
            MsgType::GetX
        };
        Message::new(mtype, addr, me, mem).serial(self.own_serial)
    }
}

/// FT: memory-facing ownership handshake pending after a fill (§3.1.1).
#[derive(Debug, Clone)]
struct ExtPending {
    serial: SerialNum,
    timer: Timer,
}

impl ExtPending {
    /// The `UnblockEx` with piggybacked `AckO` this handshake sends, and
    /// re-sends with the same serial, to memory.
    fn unblock(&self, addr: LineAddr, me: NodeId, mem: NodeId) -> Message {
        Message::new(MsgType::UnblockEx, addr, me, mem)
            .serial(self.serial)
            .with_acko()
    }
}

/// FT: backup of data written back to memory, held until memory's AckO.
#[derive(Debug, Clone)]
struct MemBackup {
    data: LineData,
    serial: SerialNum,
    timer: Timer,
}

impl MemBackup {
    /// The `WbData` this backup sends, and re-sends, to memory.
    fn wb_data(&self, addr: LineAddr, me: NodeId, mem: NodeId) -> Message {
        Message::new(MsgType::WbData, addr, me, mem)
            .serial(self.serial)
            .data(self.data)
            .dirty(true)
    }
}

/// Every in-flight facet of one line at this bank, held together in one
/// [`LineTable`] slot so a message handler resolves all of them with a
/// single lookup. The deferred-request queue keeps its buffer across
/// drain/refill cycles instead of being dropped when it empties.
#[derive(Debug, Clone, Default)]
struct L2LineState {
    tbe: Option<Tbe>,
    waiting: VecDeque<Message>,
    ext_pending: Option<ExtPending>,
    mem_backup: Option<MemBackup>,
}

/// The L2 bank controller for one tile.
#[derive(Debug, Clone)]
pub(crate) struct L2Controller {
    me: NodeId,
    ft: bool,
    cache: SetAssocCache<L2Line>,
    lines: LineTable<L2LineState>,
    /// Number of slots currently holding a TBE (occupancy statistics).
    tbe_count: usize,
    serials: SerialAllocator,
    timers: Timers,
}

impl L2Controller {
    /// Creates the bank controller for `tile`.
    pub(crate) fn new(tile: u8, config: &SystemConfig, rng: &mut DetRng) -> Self {
        L2Controller {
            me: NodeId::L2(tile),
            ft: config.protocol.is_fault_tolerant(),
            cache: SetAssocCache::new(config.l2_sets(), config.l2_assoc),
            lines: LineTable::new(),
            tbe_count: 0,
            serials: SerialAllocator::new(config.ft.serial_bits, rng),
            timers: Timers::new(NodeId::L2(tile)),
        }
    }

    /// Whether no transactions or handshakes are in flight.
    pub(crate) fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.tbe_count,
            self.lines.iter().filter(|(_, st)| st.tbe.is_some()).count()
        );
        self.lines.iter().all(|(_, st)| {
            st.tbe.is_none()
                && st.ext_pending.is_none()
                && st.mem_backup.is_none()
                && st.waiting.is_empty()
        })
    }

    /// Human-readable summary of in-flight state (deadlock diagnostics).
    pub(crate) fn pending_summary(&self) -> String {
        let mut out = String::new();
        for (a, st) in self.lines.iter() {
            if let Some(t) = &st.tbe {
                out.push_str(&format!(
                    "{} tbe {a} kind={:?} stage={:?} blocker={} serial={} own={} recall_acks={} needs_data={}\n",
                    self.me, t.kind, t.stage, t.blocker, t.serial, t.own_serial, t.recall_acks, t.recall_needs_data
                ));
            }
        }
        for (a, st) in self.lines.iter() {
            if !st.waiting.is_empty() {
                let kinds: Vec<String> = st
                    .waiting
                    .iter()
                    .map(|m| format!("{}:{}", m.src, m.mtype))
                    .collect();
                out.push_str(&format!("{} waiting {a} [{}]\n", self.me, kinds.join(", ")));
            }
        }
        for (a, st) in self.lines.iter() {
            if let Some(e) = &st.ext_pending {
                out.push_str(&format!(
                    "{} ext-pending {a} serial={}\n",
                    self.me, e.serial
                ));
            }
        }
        for (a, st) in self.lines.iter() {
            if let Some(b) = &st.mem_backup {
                out.push_str(&format!("{} mem-backup {a} serial={}\n", self.me, b.serial));
            }
        }
        out
    }

    fn mem_of(addr: LineAddr, config: &SystemConfig) -> NodeId {
        NodeId::Mem(addr.home_mem(config.mem_controllers))
    }

    fn fresh_serial(&mut self) -> SerialNum {
        if self.ft {
            self.serials.fresh()
        } else {
            SerialNum::ZERO
        }
    }

    /// Stores `tbe` in the line's slot; the line must not already have one.
    fn set_tbe(&mut self, addr: LineAddr, tbe: Tbe) {
        let slot = &mut self.lines.entry(addr).tbe;
        debug_assert!(slot.is_none(), "tbe already present");
        *slot = Some(tbe);
        self.tbe_count += 1;
    }

    /// Removes and returns the line's TBE, if any.
    fn take_tbe(&mut self, addr: LineAddr) -> Option<Tbe> {
        let t = self.lines.get_mut(addr).and_then(|s| s.tbe.take());
        if t.is_some() {
            self.tbe_count -= 1;
        }
        t
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// The line's current facet configuration, in the state vocabulary of
    /// the reified transition table ([`crate::transitions::l2_table`]).
    /// The first entry is always the mandatory `Line` facet.
    pub(crate) fn table_facets(&self, addr: LineAddr) -> Facets {
        let ids = &crate::transitions::l2().1;
        let mut f = Facets::new();
        f.push(match self.cache.get(addr) {
            None => ids.np,
            Some(line) if line.owner.is_some() => ids.mt,
            Some(_) => ids.ro,
        });
        if let Some(st) = self.lines.get(addr) {
            if let Some(tbe) = &st.tbe {
                f.push(match tbe.stage {
                    Stage::WaitMem => ids.wait_mem,
                    Stage::WaitUnblock => ids.wait_unblock,
                    Stage::WaitWbData => ids.wait_wb_data,
                    Stage::WaitWbAckBd => ids.wait_wb_ack_bd,
                    Stage::WaitRecall => ids.wait_recall,
                    Stage::WaitRecallAckBd => ids.wait_recall_ack_bd,
                    Stage::WaitMemWbAck => ids.wait_mem_wb_ack,
                });
            }
            if st.ext_pending.is_some() {
                f.push(ids.ext);
            }
            if st.mem_backup.is_some() {
                f.push(ids.mb);
            }
        }
        f
    }

    /// Handles an incoming network message.
    pub(crate) fn handle_message(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let facets = || self.table_facets(msg.addr);
        table_check(crate::transitions::l2_table(), facets, self.me, &msg, ctx);
        match msg.mtype {
            MsgType::GetS | MsgType::GetX | MsgType::Put => self.on_request(msg, ctx),
            MsgType::Unblock | MsgType::UnblockEx => self.on_unblock(msg, ctx),
            MsgType::WbData | MsgType::WbNoData | MsgType::WbCancel => self.on_wb_data(msg, ctx),
            MsgType::Data | MsgType::DataEx => self.on_data(msg, ctx),
            MsgType::Ack => self.on_ack(msg, ctx),
            MsgType::WbAck => self.on_mem_wback(msg, ctx),
            MsgType::AckO => self.on_acko(msg, ctx),
            MsgType::AckBD => self.on_ackbd(msg, ctx),
            MsgType::UnblockPing => self.on_unblock_ping(msg, ctx),
            MsgType::WbPing => self.on_wb_ping(msg, ctx),
            MsgType::OwnershipPing => self.on_ownership_ping(msg, ctx),
            MsgType::NackO => self.on_nacko(msg, ctx),
            MsgType::Inv | MsgType::FwdGetS | MsgType::FwdGetX => {
                // Misrouted: no L2 handler. `table_check` above recorded the
                // protocol violation; drop the message instead of panicking.
            }
        }
    }

    /// Handles a fired timeout; stale generations are ignored.
    pub(crate) fn handle_timeout(
        &mut self,
        kind: TimeoutKind,
        addr: LineAddr,
        gen: u64,
        ctx: &mut Ctx<'_>,
    ) {
        match kind {
            TimeoutKind::LostUnblock => self.on_lost_unblock(addr, gen, ctx),
            TimeoutKind::LostRequest => self.on_lost_request(addr, gen, ctx),
            TimeoutKind::LostAckBd => self.on_lost_ackbd(addr, gen, ctx),
            TimeoutKind::LostData => self.on_lost_data(addr, gen, ctx),
        }
    }

    // ------------------------------------------------------------------
    // Request admission (busy lines, reissue detection, queuing)
    // ------------------------------------------------------------------

    fn on_request(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        if let Some(st) = self.lines.get_mut(msg.addr) {
            if let Some(tbe) = &st.tbe {
                // A message is a *reissue* of the in-service transaction only if
                // it comes from the blocker AND is the same kind of request
                // (§3.2: "same requestor and address ... but a different request
                // serial number"). A different kind from the same node is a new
                // transaction (e.g. a GetX issued right after a GetS whose
                // unblock is still in flight) and must be deferred like any
                // other.
                let same_kind = match tbe.kind {
                    TbeKind::Miss { store } => {
                        msg.mtype == if store { MsgType::GetX } else { MsgType::GetS }
                    }
                    TbeKind::Wb => msg.mtype == MsgType::Put,
                    TbeKind::Recall | TbeKind::L2Evict => false,
                };
                if tbe.blocker == msg.src && same_kind {
                    if self.ft && tbe.serial != msg.serial {
                        // A reissued request from the current blocker (§3.2):
                        // adopt the new serial and repeat the service action.
                        self.on_reissue(msg, ctx);
                    } // else: duplicate of the in-service request; ignore.
                    return;
                }
                // Busy with another requester: defer (per-line busy states, §2).
                defer_request(&mut st.waiting, msg, ctx);
                return;
            }
        }
        self.service_request(msg, ctx);
    }

    fn on_reissue(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        ctx.stats.false_positives.incr();
        let Some(tbe) = self.lines.get_mut(msg.addr).and_then(|s| s.tbe.as_mut()) else {
            return;
        };
        // The reissue comes from the blocker, so the TBE's blocker and
        // (now) serial are the request's.
        tbe.serial = msg.serial;
        let addr = msg.addr;
        match tbe.stage {
            Stage::WaitMem => {
                // The response will be generated when memory answers; it
                // will carry the updated serial.
            }
            Stage::WaitUnblock => {
                // Resend invalidations (sharers will re-ack with the new
                // serial; the requester discards old-serial acks).
                tbe.send_invs(addr, self.me, tbe.inv_targets.iter().copied(), ctx);
                if let Some(fwd) = tbe.fwd(addr, self.me) {
                    ctx.send(fwd);
                } else if let Some(resp) = &tbe.resp {
                    ctx.send(resp.message(addr, self.me, msg.src, msg.serial));
                }
            }
            Stage::WaitWbData => ctx.send(msg.reply(MsgType::WbAck)),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Fresh request servicing
    // ------------------------------------------------------------------

    fn service_request(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        ctx.stats.l2_tbe_occupancy.record(self.tbe_count as u64 + 1);
        match msg.mtype {
            MsgType::GetS | MsgType::GetX => self.service_get(msg, ctx),
            MsgType::Put => self.service_put(msg, ctx),
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

    fn service_get(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let store = msg.mtype == MsgType::GetX;
        let requester_tile = msg.src.index();
        let addr = msg.addr;

        let Some(line) = self.cache.get_mut(addr) else {
            // L2 miss: fill from memory (always granted exclusively; this
            // bank is the only L2-level requester for its slice).
            ctx.stats.l2_misses.incr();
            let mut tbe = Tbe::new(TbeKind::Miss { store }, msg.src, msg.serial);
            tbe.stage = Stage::WaitMem;
            tbe.own_serial = self.fresh_serial();
            if self.ft {
                tbe.req
                    .arm(&mut self.timers, addr, TimeoutKind::LostRequest, ctx);
            }
            ctx.send(tbe.mem_request(addr, self.me, Self::mem_of(addr, ctx.config)));
            self.set_tbe(addr, tbe);
            return;
        };

        ctx.stats.l2_hits.incr();

        // Migratory-sharing bookkeeping (paper §2).
        let migratory_grant = if store {
            if ctx.config.migratory_sharing
                && line.last_getter == Some(requester_tile)
                && line.last_was_gets
            {
                line.migratory = true;
            }
            line.consecutive_gets = 0;
            line.last_getter = Some(requester_tile);
            line.last_was_gets = false;
            false
        } else {
            line.consecutive_gets = line.consecutive_gets.saturating_add(1);
            if line.consecutive_gets >= 2 {
                line.migratory = false;
            }
            line.last_getter = Some(requester_tile);
            line.last_was_gets = true;
            line.migratory && line.owner.is_some() && line.sharers.is_empty()
        };
        if migratory_grant {
            ctx.stats.migratory_grants.incr();
        }
        let exclusive = store || migratory_grant;

        let mut tbe = Tbe::new(TbeKind::Miss { store }, msg.src, msg.serial);

        if let Some(owner) = line.owner {
            if store && owner == requester_tile {
                // Upgrade by the current (O-state) owner: permission plus
                // ack count, no data (the owner already has it).
                let invs: Vec<u8> = line
                    .sharers
                    .iter()
                    .filter(|t| *t != requester_tile)
                    .collect();
                let resp = Resp::DataEx {
                    data: None,
                    dirty: false,
                    acks: invs.len() as u8,
                };
                ctx.send(resp.message(addr, self.me, msg.src, msg.serial));
                tbe.send_invs(addr, self.me, invs.iter().copied(), ctx);
                tbe.resp = Some(resp);
                tbe.inv_targets = invs;
            } else {
                // Forward to the L1 owner.
                let invs: Vec<u8> = if exclusive {
                    line.sharers
                        .iter()
                        .filter(|t| *t != requester_tile)
                        .collect()
                } else {
                    Vec::new()
                };
                tbe.fwd_to = Some(owner);
                tbe.fwd_gets = !exclusive;
                tbe.inv_targets = invs;
                ctx.send(tbe.fwd(addr, self.me).expect("forwarding to the owner"));
                tbe.send_invs(addr, self.me, tbe.inv_targets.iter().copied(), ctx);
            }
        } else {
            // The bank itself owns the data.
            let data = line
                .data
                .expect("resident line without owner must hold data");
            let dirty = line.dirty;
            if exclusive || line.sharers.is_empty() {
                // Exclusive grant (GetX, migratory GetS, or GetS with no
                // sharers → E).
                let invs: Vec<u8> = line
                    .sharers
                    .iter()
                    .filter(|t| *t != requester_tile)
                    .collect();
                let resp = Resp::DataEx {
                    data: Some(data),
                    dirty,
                    acks: invs.len() as u8,
                };
                ctx.send(resp.message(addr, self.me, msg.src, msg.serial));
                tbe.send_invs(addr, self.me, invs.iter().copied(), ctx);
                tbe.resp = Some(resp);
                tbe.inv_targets = invs;
                tbe.sent_data_backup = true;
            } else {
                let resp = Resp::Data { data };
                ctx.send(resp.message(addr, self.me, msg.src, msg.serial));
                tbe.resp = Some(resp);
            }
        }

        tbe.stage = Stage::WaitUnblock;
        self.arm_unblock(&mut tbe, addr, ctx);
        self.set_tbe(addr, tbe);
    }

    fn arm_unblock(&mut self, tbe: &mut Tbe, addr: LineAddr, ctx: &mut Ctx<'_>) {
        if !self.ft {
            return;
        }
        tbe.unblock
            .arm(&mut self.timers, addr, TimeoutKind::LostUnblock, ctx);
    }

    fn service_put(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        let requester_tile = msg.src.index();
        let is_owner = self
            .cache
            .get(addr)
            .is_some_and(|l| l.owner == Some(requester_tile));
        if !is_owner {
            // Stale Put: ownership already moved (raced with a forward).
            let mut wback = msg.reply(MsgType::WbAck);
            wback.wb_stale = true;
            ctx.send(wback);
            return;
        }
        let mut tbe = Tbe::new(TbeKind::Wb, msg.src, msg.serial);
        tbe.stage = Stage::WaitWbData;
        self.arm_unblock(&mut tbe, addr, ctx);
        self.set_tbe(addr, tbe);
        ctx.send(msg.reply(MsgType::WbAck));
    }

    // ------------------------------------------------------------------
    // Unblocks and writeback data
    // ------------------------------------------------------------------

    fn on_unblock(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        let tbe_ref = self.lines.get(addr).and_then(|s| s.tbe.as_ref());
        let stale = match tbe_ref {
            None => true,
            Some(tbe) => {
                tbe.stage != Stage::WaitUnblock
                    || tbe.blocker != msg.src
                    || (self.ft && tbe.serial != msg.serial)
            }
        };
        let wrong_kind = matches!(tbe_ref.map(|t| t.kind), Some(TbeKind::Miss { store: true }))
            && msg.mtype == MsgType::Unblock;
        if stale || wrong_kind {
            // A duplicate/stale unblock; still answer a piggybacked AckO so
            // the sender's blocked-ownership state can always drain (§3.4
            // idempotence). A plain Unblock can also never complete a GetX
            // transaction (it would record a sharer where an owner is
            // required) — only a crossing stale ping-reply can produce one.
            if msg.piggy_acko {
                ctx.send(msg.reply(MsgType::AckBD));
            }
            ctx.stats.stale_discards.incr();
            return;
        }
        let tbe = self.take_tbe(addr).expect("checked above");
        let requester_tile = msg.src.index();

        // Update the directory.
        {
            let line = self
                .cache
                .get_mut(addr)
                .expect("unblocked line must be resident");
            if msg.mtype == MsgType::UnblockEx {
                line.owner = Some(requester_tile);
                line.sharers.clear();
                // Any bank copy is now stale (or was handed over).
                line.data = None;
                line.dirty = false;
            } else {
                line.sharers.insert(requester_tile);
            }
        }

        // FT: L1-facing ownership handshake (AckO piggybacked, §3.1).
        if self.ft && msg.piggy_acko {
            ctx.send(msg.reply(MsgType::AckBD));
            if tbe.sent_data_backup {
                ctx.checker.backup_deleted(self.me, addr, ctx.now);
            }
        }

        // FT §3.1.1: the fill's memory-facing handshake starts now.
        // (DirCMP sends its unblock to memory as soon as the data arrives;
        // see on_data.)
        if tbe.from_mem && self.ft {
            let mut pending = ExtPending {
                serial: tbe.own_serial,
                timer: Timer::default(),
            };
            pending
                .timer
                .arm(&mut self.timers, addr, TimeoutKind::LostAckBd, ctx);
            if let Some(line) = self.cache.get_mut(addr) {
                line.ext_blocked = true;
            }
            ctx.send(pending.unblock(addr, self.me, Self::mem_of(addr, ctx.config)));
            self.lines.entry(addr).ext_pending = Some(pending);
        }

        self.pump_waiting(addr, ctx);
    }

    fn on_wb_data(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        let Some(tbe) = self.lines.get(addr).and_then(|s| s.tbe.as_ref()) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if tbe.kind != TbeKind::Wb
            || tbe.stage != Stage::WaitWbData
            || tbe.blocker != msg.src
            || (self.ft && tbe.serial != msg.serial)
        {
            ctx.stats.stale_discards.incr();
            return;
        }
        let mut tbe = self.take_tbe(addr).expect("checked above");

        match msg.mtype {
            MsgType::WbData => {
                {
                    let line = self
                        .cache
                        .get_mut(addr)
                        .expect("writeback line must be resident");
                    line.data = Some(msg.data.expect("WbData carries data"));
                    line.dirty = msg.data_dirty || line.dirty;
                    line.owner = None;
                }
                if self.ft {
                    // The bank is the new owner: acknowledge ownership and
                    // stay blocked until the backup is deleted (§3.1).
                    tbe.stage = Stage::WaitWbAckBd;
                    tbe.acko_serial = msg.serial;
                    ctx.send(msg.reply(MsgType::AckO));
                    tbe.ackbd
                        .arm(&mut self.timers, addr, TimeoutKind::LostAckBd, ctx);
                    self.set_tbe(addr, tbe);
                    return;
                }
            }
            MsgType::WbNoData | MsgType::WbCancel => {
                let remove = {
                    let line = self
                        .cache
                        .get_mut(addr)
                        .expect("writeback line must be resident");
                    line.owner = None;
                    line.data.is_none() && line.sharers.is_empty()
                };
                if remove {
                    // Clean line with no copies anywhere on chip: memory is
                    // the owner again.
                    self.cache.remove(addr);
                }
            }
            other => {
                // Only writeback-data messages are dispatched here; anything
                // else is a protocol error, not a panic.
                ctx.checker.protocol_error(
                    self.me,
                    addr,
                    &format!("{other} reached writeback-data handling"),
                    ctx.now,
                );
                self.set_tbe(addr, tbe);
                return;
            }
        }
        self.pump_waiting(addr, ctx);
    }

    // ------------------------------------------------------------------
    // Memory-facing handlers
    // ------------------------------------------------------------------

    fn on_data(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // DataEx from memory (fill) or from an L1 owner (recall).
        let addr = msg.addr;
        let Some(tbe) = self.lines.get_mut(addr).and_then(|s| s.tbe.as_mut()) else {
            ctx.stats.stale_discards.incr();
            ctx.stats.false_positives.incr();
            return;
        };
        match tbe.stage {
            Stage::WaitMem => {
                if self.ft && tbe.own_serial != msg.serial {
                    ctx.stats.stale_discards.incr();
                    return;
                }
                let data = msg.data.expect("memory fill carries data");
                tbe.stage = Stage::WaitUnblock;
                tbe.from_mem = true;
                tbe.sent_data_backup = true;
                tbe.data = Some(data);
                let serial = tbe.serial;
                let blocker = tbe.blocker;
                let resp = Resp::DataEx {
                    data: Some(data),
                    dirty: false,
                    acks: 0,
                };
                tbe.resp = Some(resp.clone());
                // Install the line (may evict a victim).
                self.install_line(addr, data, ctx);
                // §3.1.1: answer the L1 immediately, keeping a backup.
                ctx.send(resp.message(addr, self.me, blocker, serial));
                if self.ft {
                    ctx.checker.backup_created(self.me, addr, ctx.now);
                } else {
                    // DirCMP: unblock memory right away.
                    let mem = Self::mem_of(addr, ctx.config);
                    ctx.send(
                        Message::new(MsgType::UnblockEx, addr, self.me, mem).serial(msg.serial),
                    );
                }
                if self.ft {
                    let tbe = self.lines.get_mut(addr).and_then(|s| s.tbe.as_mut());
                    let tbe = tbe.expect("still present");
                    tbe.unblock
                        .arm(&mut self.timers, addr, TimeoutKind::LostUnblock, ctx);
                }
            }
            Stage::WaitRecall => {
                if self.ft && tbe.own_serial != msg.serial {
                    ctx.stats.stale_discards.incr();
                    return;
                }
                tbe.data = msg.data;
                tbe.data_dirty = msg.data_dirty;
                tbe.recall_needs_data = false;
                if self.ft {
                    // Acknowledge ownership to the old owner; wait for the
                    // backup deletion before moving the data off-chip.
                    tbe.acko_serial = msg.serial;
                    ctx.send(msg.reply(MsgType::AckO));
                    tbe.ackbd
                        .arm(&mut self.timers, addr, TimeoutKind::LostAckBd, ctx);
                    tbe.stage = Stage::WaitRecallAckBd;
                    return;
                }
                self.try_finish_recall(addr, ctx);
            }
            _ => {
                ctx.stats.stale_discards.incr();
            }
        }
    }

    fn on_ack(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // Invalidation acks for a recall (the bank is the requester).
        let addr = msg.addr;
        let Some(tbe) = self.lines.get_mut(addr).and_then(|s| s.tbe.as_mut()) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if !matches!(tbe.stage, Stage::WaitRecall | Stage::WaitRecallAckBd)
            || (self.ft && tbe.own_serial != msg.serial)
        {
            ctx.stats.stale_discards.incr();
            return;
        }
        // Set-based removal: duplicate acks (possible after Inv resends) are
        // no-ops.
        tbe.recall_acks.remove(msg.src.index());
        if tbe.stage == Stage::WaitRecall {
            self.try_finish_recall(addr, ctx);
        }
    }

    fn on_mem_wback(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // WbAck from memory for a bank eviction.
        let addr = msg.addr;
        let Some(tbe) = self.lines.get(addr).and_then(|s| s.tbe.as_ref()) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if tbe.stage != Stage::WaitMemWbAck || (self.ft && tbe.own_serial != msg.serial) {
            ctx.stats.stale_discards.incr();
            return;
        }
        let tbe = self.take_tbe(addr).expect("checked above");
        if msg.wb_stale {
            // Memory does not consider us the owner; drop the eviction.
            self.pump_waiting(addr, ctx);
            return;
        }
        let mut backup = MemBackup {
            data: tbe.data.expect("bank eviction holds data"),
            serial: msg.serial,
            timer: Timer::default(),
        };
        ctx.send(backup.wb_data(addr, self.me, msg.src));
        if self.ft {
            backup
                .timer
                .arm(&mut self.timers, addr, TimeoutKind::LostData, ctx);
            self.lines.entry(addr).mem_backup = Some(backup);
            ctx.checker.backup_created(self.me, addr, ctx.now);
        }
        self.pump_waiting(addr, ctx);
    }

    fn on_acko(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        if msg.src.is_mem() {
            // Memory acknowledges our WbData: delete the backup.
            if self
                .lines
                .get_mut(addr)
                .is_some_and(|s| s.mem_backup.take().is_some())
            {
                ctx.checker.backup_deleted(self.me, addr, ctx.now);
            }
            ctx.send(msg.reply(MsgType::AckBD));
            return;
        }
        // Standalone AckO from an L1 (its UnblockEx with the piggyback was
        // lost, or a reissued AckO): delete our grant backup and reply.
        if let Some(tbe) = self.lines.get(addr).and_then(|s| s.tbe.as_ref()) {
            if tbe.sent_data_backup && tbe.blocker == msg.src {
                ctx.checker.backup_deleted(self.me, addr, ctx.now);
            }
        }
        ctx.send(msg.reply(MsgType::AckBD));
    }

    fn on_ackbd(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        if msg.src.is_mem() {
            // Memory-facing §3.1.1 handshake complete.
            if let Some(st) = self.lines.get_mut(addr) {
                if let Some(p) = &st.ext_pending {
                    if p.serial == msg.serial || !self.ft {
                        st.ext_pending = None;
                        if let Some(line) = self.cache.get_mut(addr) {
                            line.ext_blocked = false;
                        }
                    }
                }
            }
            return;
        }
        // AckBD from an L1: completes a writeback or recall handshake.
        let Some(tbe) = self.lines.get_mut(addr).and_then(|s| s.tbe.as_mut()) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if tbe.acko_serial != msg.serial {
            ctx.stats.stale_discards.incr();
            return;
        }
        match tbe.stage {
            Stage::WaitWbAckBd => {
                self.take_tbe(addr);
                self.pump_waiting(addr, ctx);
            }
            Stage::WaitRecallAckBd => {
                tbe.ackbd.disarm(); // handshake done
                tbe.stage = Stage::WaitRecall;
                tbe.recall_needs_data = false;
                self.try_finish_recall(addr, ctx);
            }
            _ => {
                ctx.stats.stale_discards.incr();
            }
        }
    }

    // ------------------------------------------------------------------
    // Fills, evictions and recalls
    // ------------------------------------------------------------------

    fn install_line(&mut self, addr: LineAddr, data: LineData, ctx: &mut Ctx<'_>) {
        let mut line = L2Line::fresh();
        line.data = Some(data);
        let lines = &self.lines;
        let outcome = self.cache.insert(addr, line, |a, l| {
            !l.ext_blocked
                && lines
                    .get(a)
                    .is_none_or(|s| s.tbe.is_none() && s.ext_pending.is_none())
        });
        if let Some((vaddr, vline)) = outcome.evicted {
            self.dispose_victim(vaddr, vline, ctx);
        }
    }

    fn dispose_victim(&mut self, vaddr: LineAddr, vline: L2Line, ctx: &mut Ctx<'_>) {
        if vline.owner.is_some() || !vline.sharers.is_empty() {
            self.start_recall(vaddr, vline, ctx);
        } else if vline.dirty {
            let data = vline.data.expect("dirty line holds data");
            self.start_mem_writeback(vaddr, data, ctx);
        }
        // Clean, uncached-above victim: silent drop (memory copy is valid).
    }

    fn start_recall(&mut self, vaddr: LineAddr, vline: L2Line, ctx: &mut Ctx<'_>) {
        ctx.stats.recalls.incr();
        let mut tbe = Tbe::new(TbeKind::Recall, self.me, SerialNum::ZERO);
        tbe.own_serial = self.fresh_serial();
        tbe.serial = tbe.own_serial;
        tbe.stage = Stage::WaitRecall;
        tbe.data = vline.data;
        tbe.data_dirty = vline.dirty;
        tbe.recall_acks = vline.sharers;
        tbe.recall_needs_data = vline.owner.is_some();
        tbe.fwd_to = vline.owner;
        if let Some(fwd) = tbe.fwd(vaddr, self.me) {
            ctx.send(fwd);
        }
        tbe.send_invs(vaddr, self.me, tbe.recall_acks.iter(), ctx);
        if self.ft {
            tbe.unblock
                .arm(&mut self.timers, vaddr, TimeoutKind::LostUnblock, ctx);
        }
        self.set_tbe(vaddr, tbe);
    }

    fn try_finish_recall(&mut self, addr: LineAddr, ctx: &mut Ctx<'_>) {
        let Some(tbe) = self.lines.get(addr).and_then(|s| s.tbe.as_ref()) else {
            return;
        };
        if tbe.stage != Stage::WaitRecall || tbe.recall_needs_data || !tbe.recall_acks.is_empty() {
            return;
        }
        let tbe = self.take_tbe(addr).expect("checked above");
        if tbe.data_dirty {
            let data = tbe.data.expect("dirty recall holds data");
            self.start_mem_writeback(addr, data, ctx);
        } else {
            self.pump_waiting(addr, ctx);
        }
    }

    fn start_mem_writeback(&mut self, addr: LineAddr, data: LineData, ctx: &mut Ctx<'_>) {
        ctx.stats.l2_writebacks.incr();
        let mut tbe = Tbe::new(TbeKind::L2Evict, self.me, SerialNum::ZERO);
        tbe.stage = Stage::WaitMemWbAck;
        tbe.own_serial = self.fresh_serial();
        tbe.serial = tbe.own_serial;
        tbe.data = Some(data);
        tbe.data_dirty = true;
        if self.ft {
            tbe.req
                .arm(&mut self.timers, addr, TimeoutKind::LostRequest, ctx);
        }
        ctx.send(tbe.mem_request(addr, self.me, Self::mem_of(addr, ctx.config)));
        self.set_tbe(addr, tbe);
    }

    /// After a transaction completes, service deferred requests for the
    /// line until one blocks it again (or the queue drains). The queue's
    /// buffer stays in the slot, ready for the next deferral.
    fn pump_waiting(&mut self, addr: LineAddr, ctx: &mut Ctx<'_>) {
        loop {
            let Some(st) = self.lines.get_mut(addr) else {
                return;
            };
            if st.tbe.is_some() {
                return;
            }
            let Some(msg) = st.waiting.pop_front() else {
                return;
            };
            self.service_request(msg, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Fault-recovery handlers (FtDirCMP only)
    // ------------------------------------------------------------------

    fn on_unblock_ping(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // From memory: "is your fill still in progress?"
        let addr = msg.addr;
        if let Some(st) = self.lines.get(addr) {
            if st.tbe.as_ref().is_some_and(|t| t.stage == Stage::WaitMem) {
                return; // fill unresolved: nothing was lost (§3.3)
            }
            if let Some(p) = &st.ext_pending {
                ctx.send(p.unblock(addr, self.me, msg.src));
                return;
            }
        }
        // Handshake fully complete (or never ours): answer idempotently.
        ctx.send(msg.reply(MsgType::UnblockEx).with_acko());
    }

    fn on_wb_ping(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        if let Some(st) = self.lines.get_mut(addr) {
            if let Some(tbe) = &st.tbe {
                if tbe.stage == Stage::WaitMemWbAck {
                    // Our Put is in flight and memory answered it (the WbAck was
                    // lost): the ping substitutes for the WbAck.
                    let as_wback =
                        Message::new(MsgType::WbAck, addr, msg.src, self.me).serial(tbe.own_serial);
                    self.on_mem_wback(as_wback, ctx);
                    return;
                }
            }
            if let Some(b) = st.mem_backup.as_mut() {
                b.serial = msg.serial;
                ctx.send(b.wb_data(addr, self.me, msg.src));
                return;
            }
        }
        ctx.send(msg.reply(MsgType::WbCancel));
    }

    fn on_ownership_ping(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // An L1 holding a writeback backup asks whether we received its
        // WbData.
        let addr = msg.addr;
        let still_waiting = self
            .lines
            .get(addr)
            .and_then(|s| s.tbe.as_ref())
            .is_some_and(|t| t.kind == TbeKind::Wb && t.stage == Stage::WaitWbData);
        let reply = if still_waiting {
            MsgType::NackO
        } else {
            MsgType::AckO
        };
        ctx.send(msg.reply(reply));
    }

    fn on_nacko(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // Memory never received our WbData: resend it from the backup.
        let Some(b) = self.lines.get(msg.addr).and_then(|s| s.mem_backup.as_ref()) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if b.serial != msg.serial {
            ctx.stats.stale_discards.incr();
            return;
        }
        ctx.send(b.wb_data(msg.addr, self.me, msg.src));
    }

    // ------------------------------------------------------------------
    // Timeout handlers
    // ------------------------------------------------------------------

    fn on_lost_unblock(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        let kind = TimeoutKind::LostUnblock;
        let Some(tbe) = self.lines.get_mut(addr).and_then(|s| s.tbe.as_mut()) else {
            return;
        };
        if !tbe.unblock.fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        let ping = |mtype| Message::new(mtype, addr, self.me, tbe.blocker).serial(tbe.serial);
        match tbe.stage {
            Stage::WaitUnblock => {
                let mut ping = ping(MsgType::UnblockPing);
                ping.ping_for_store = matches!(tbe.kind, TbeKind::Miss { store: true });
                ctx.send(ping);
            }
            Stage::WaitWbData => ctx.send(ping(MsgType::WbPing)),
            stage @ (Stage::WaitRecall | Stage::WaitRecallAckBd) => {
                // Re-prod the recall participants: the owner if its data is
                // still outstanding, and every sharer whose ack is missing
                // (re-invalidation is idempotent; duplicate acks are no-ops
                // thanks to set-based tracking).
                if tbe.recall_needs_data && stage == Stage::WaitRecall {
                    if let Some(fwd) = tbe.fwd(addr, self.me) {
                        ctx.send(fwd);
                    }
                }
                tbe.send_invs(addr, self.me, tbe.recall_acks.iter(), ctx);
            }
            _ => {}
        }
        tbe.unblock.rearm(&self.timers, addr, kind, ctx);
    }

    fn on_lost_request(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        // Reissue serials come from the allocator stream (see the L1-side
        // comment: avoids cross-transaction serial collisions).
        let fresh = self.serials.fresh();
        let kind = TimeoutKind::LostRequest;
        let Some(tbe) = self.lines.get_mut(addr).and_then(|s| s.tbe.as_mut()) else {
            return;
        };
        if !tbe.req.fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        ctx.stats.reissues.incr();
        tbe.own_serial = fresh;
        if !matches!(tbe.stage, Stage::WaitMem | Stage::WaitMemWbAck) {
            return;
        }
        ctx.send(tbe.mem_request(addr, self.me, Self::mem_of(addr, ctx.config)));
        tbe.req.rearm(&self.timers, addr, kind, ctx);
    }

    fn on_lost_ackbd(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        let fresh = self.serials.fresh();
        let kind = TimeoutKind::LostAckBd;
        if let Some(tbe) = self.lines.get_mut(addr).and_then(|s| s.tbe.as_mut()) {
            if matches!(tbe.stage, Stage::WaitWbAckBd | Stage::WaitRecallAckBd)
                && tbe.ackbd.fire(gen, &mut self.timers, kind, ctx)
            {
                tbe.acko_serial = fresh;
                let peer = if tbe.stage == Stage::WaitWbAckBd {
                    tbe.blocker
                } else {
                    NodeId::L1(tbe.fwd_to.expect("recall has an owner"))
                };
                ctx.send(Message::new(MsgType::AckO, addr, self.me, peer).serial(fresh));
                tbe.ackbd.rearm(&self.timers, addr, kind, ctx);
                return;
            }
        }
        if let Some(p) = self
            .lines
            .get_mut(addr)
            .and_then(|s| s.ext_pending.as_mut())
        {
            if !p.timer.fire(gen, &mut self.timers, kind, ctx) {
                return;
            }
            // Resend with the same serial: memory matches its TBE by it.
            ctx.send(p.unblock(addr, self.me, Self::mem_of(addr, ctx.config)));
            p.timer.rearm(&self.timers, addr, kind, ctx);
        }
    }

    fn on_lost_data(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        let kind = TimeoutKind::LostData;
        let Some(b) = self.lines.get_mut(addr).and_then(|s| s.mem_backup.as_mut()) else {
            return;
        };
        if !b.timer.fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        let mem = Self::mem_of(addr, ctx.config);
        ctx.send(Message::new(MsgType::OwnershipPing, addr, self.me, mem).serial(b.serial));
        b.timer.rearm(&self.timers, addr, kind, ctx);
    }
}

#[cfg(test)]
#[path = "l2_tests.rs"]
mod tests;
