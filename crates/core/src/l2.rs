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
//!
//! The bank runs from its reified table ([`crate::transitions::l2_table`]):
//! every message, timeout and victim is dispatched once at the line's
//! facets, and the first row whose typed guard holds runs — its sends, its
//! next stage, its records (TBE, `EXT`, `MB`) and timers, and a queue pump
//! when the TBE frees. Only what a row cannot say is written here: message
//! contents, the directory and the data, migratory bookkeeping, installs and
//! victim choice, the checker's backup notifications, and the admission of
//! a request that finds its line busy.

use std::collections::VecDeque;

use ftdircmp_sim::DetRng;

use crate::cache::SetAssocCache;
use crate::config::SystemConfig;
use crate::data::LineData;
use crate::ids::{LineAddr, NodeId, SharerSet};
use crate::linetab::LineTable;
use crate::msg::{Message, MsgType};
use crate::proto::{admit_busy, unexpected, Ctx, Facets, TimeoutKind, Timer, Timers};
use crate::serial::{SerialAllocator, SerialNum};
use crate::transitions::{
    l2, ControllerTable, Dispatch, Event, Guard, L2Ids, Plan, Resource, Role,
};

/// Directory + data state of one line resident in this bank.
#[derive(Debug, Clone, Copy, Default)]
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
    /// Migratory-sharing bookkeeping (paper §2) for a request from `tile`:
    /// a store right after the same tile's read marks the line migratory,
    /// a second read in a row clears the mark.
    fn record_request(&mut self, tile: u8, store: bool, migratory_sharing: bool) {
        if store {
            if migratory_sharing && self.last_getter == Some(tile) && self.last_was_gets {
                self.migratory = true;
            }
            self.consecutive_gets = 0;
        } else {
            self.consecutive_gets = self.consecutive_gets.saturating_add(1);
            if self.consecutive_gets >= 2 {
                self.migratory = false;
            }
        }
        self.last_getter = Some(tile);
        self.last_was_gets = !store;
    }
}

/// Per-line transaction state (the paper's MSHR/TBE at the directory, which
/// also remembers the *blocker* so reissued requests can be recognized).
#[derive(Debug, Clone)]
struct Tbe {
    /// The request that opened the transaction (`GetS`, `GetX` or `Put`);
    /// none for the bank's own recall or writeback.
    request: Option<MsgType>,
    /// The TBE facet's state id: `WaitMem`, `WaitUnblock`, … (the L2 table's
    /// `Tbe` family).
    stage: u8,
    blocker: NodeId,
    serial: SerialNum,
    /// The serial of the bank's own request: its fill, recall or writeback.
    own_serial: SerialNum,
    /// Miss: what answered the request — `Data`/`DataEx` to the requester or
    /// `FwdGetS`/`FwdGetX` to the owner — re-sent to a reissue (§3.2).
    grant: Option<MsgType>,
    /// Miss: the granted data. Recall and bank writeback: the data saved.
    data: Option<LineData>,
    dirty: bool,
    /// Miss: the sharers invalidated for the requester. Recall: the sharers
    /// whose acks are still outstanding.
    invs: SharerSet,
    /// The L1 owner a miss or a recall is forwarded to.
    fwd_to: Option<u8>,
    /// Recall: the owner's data is still outstanding.
    needs_data: bool,
    /// Filled from memory: the §3.1.1 handshake follows the unblock (FT).
    from_mem: bool,
    unblock: Timer,
    req: Timer,
    ackbd: Timer,
    acko_serial: SerialNum,
}

impl Tbe {
    fn new(request: Option<MsgType>, stage: u8, blocker: NodeId, serial: SerialNum) -> Self {
        Tbe {
            request,
            stage,
            blocker,
            serial,
            own_serial: SerialNum::ZERO,
            grant: None,
            data: None,
            dirty: false,
            invs: SharerSet::new(),
            fwd_to: None,
            needs_data: false,
            from_mem: false,
            unblock: Timer::default(),
            req: Timer::default(),
            ackbd: Timer::default(),
            acko_serial: SerialNum::ZERO,
        }
    }

    /// The timer slot of `kind`.
    fn timer(&mut self, kind: TimeoutKind) -> &mut Timer {
        match kind {
            TimeoutKind::LostRequest => &mut self.req,
            TimeoutKind::LostAckBd => &mut self.ackbd,
            _ => &mut self.unblock,
        }
    }

    /// Whether the grant handed out the bank's own data (an exclusive grant
    /// from the bank or from a memory fill), the backup the requester's
    /// `AckO` deletes.
    fn holds_backup(&self) -> bool {
        self.grant == Some(MsgType::DataEx) && self.data.is_some()
    }

    /// The grant `mtype` (`Data` or `DataEx`) this transaction sends, and
    /// re-sends, to its blocker under its serial.
    fn grant(&self, mtype: MsgType, addr: LineAddr, me: NodeId) -> Message {
        let msg = Message::new(mtype, addr, me, self.blocker)
            .requester(self.blocker)
            .serial(self.serial)
            .acks(self.invs.len() as u8);
        match self.data {
            Some(d) => msg.data(d).dirty(self.dirty),
            None => msg,
        }
    }

    /// The forward `mtype` this transaction sends, and re-sends, to the
    /// owning L1: on behalf of its blocker (the bank itself for a recall),
    /// under its serial, counting the requester's invalidations (a recall
    /// collects its acks itself).
    fn fwd(&self, mtype: MsgType, addr: LineAddr, me: NodeId) -> Message {
        let owner = NodeId::L1(self.fwd_to.expect("forwarded to the owner"));
        let acks = if self.request.is_none() {
            0
        } else {
            self.invs.len() as u8
        };
        let msg = Message::new(mtype, addr, me, owner).requester(self.blocker);
        msg.serial(self.serial).acks(acks)
    }

    /// Sends this transaction's invalidations, to be acknowledged to its
    /// blocker under its serial.
    fn send_invs(&self, addr: LineAddr, me: NodeId, ctx: &mut Ctx<'_>) {
        for t in self.invs.iter() {
            ctx.send(
                Message::new(MsgType::Inv, addr, me, NodeId::L1(t))
                    .requester(self.blocker)
                    .serial(self.serial),
            );
        }
    }

    /// The message a timeout re-sends to the transaction's peer: a ping to
    /// its blocker under its serial, or the handshake's `AckO` under its
    /// latest serial to the writer (`Blocker`) or the recalled owner.
    fn ping(&self, mtype: MsgType, role: Role, addr: LineAddr, me: NodeId) -> Message {
        let peer = match role {
            Role::OwnerL1 => NodeId::L1(self.fwd_to.expect("a recall has an owner")),
            _ => self.blocker,
        };
        let serial = if mtype == MsgType::AckO {
            self.acko_serial
        } else {
            self.serial
        };
        let mut ping = Message::new(mtype, addr, me, peer).serial(serial);
        ping.ping_for_store = mtype == MsgType::UnblockPing && self.request == Some(MsgType::GetX);
        ping
    }

    /// The recall once `msg` is taken — a sharer's `Ack`, the owner's
    /// `DataEx`, or the `AckBD` closing its handshake: the acks still
    /// outstanding, whether the owner's data still is, and whether the data
    /// is dirty.
    fn recall_after(&self, msg: &Message) -> (SharerSet, bool, bool) {
        let mut acks = self.invs;
        match msg.mtype {
            MsgType::Ack => {
                // Set-based: a duplicate ack (after an Inv resend) is a no-op.
                acks.remove(msg.src.index());
                (acks, self.needs_data, self.dirty)
            }
            MsgType::DataEx => (acks, false, msg.data_dirty),
            _ => (acks, false, self.dirty),
        }
    }

    /// The backup of this bank writeback's data, under its serial.
    fn backup(&self) -> MemBackup {
        MemBackup {
            data: self.data.expect("a bank writeback holds data"),
            serial: self.own_serial,
            timer: Timer::default(),
        }
    }
}

/// FT: memory-facing ownership handshake pending after a fill (§3.1.1).
#[derive(Debug, Clone)]
struct ExtPending {
    serial: SerialNum,
    timer: Timer,
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
/// [`LineTable`] slot so an event resolves all of them with a single
/// lookup. The deferred-request queue keeps its buffer across drain/refill
/// cycles instead of being dropped when it empties.
#[derive(Debug, Clone, Default)]
struct L2LineState {
    tbe: Option<Tbe>,
    waiting: VecDeque<Message>,
    ext_pending: Option<ExtPending>,
    mem_backup: Option<MemBackup>,
}

impl L2LineState {
    /// The `kind` timer slot: the `MB` record's for `LostData`, the `EXT`
    /// record's for `LostAckBd` when `ext`, else the TBE's.
    fn timer(&mut self, kind: TimeoutKind, ext: bool) -> Option<&mut Timer> {
        match kind {
            TimeoutKind::LostData => self.mem_backup.as_mut().map(|b| &mut b.timer),
            TimeoutKind::LostAckBd if ext => self.ext_pending.as_mut().map(|e| &mut e.timer),
            _ => self.tbe.as_mut().map(|t| t.timer(kind)),
        }
    }
}

/// One row about to run at one line: what its actions read.
#[derive(Clone, Copy)]
struct Step<'m> {
    /// The line's slot and address.
    h: u32,
    addr: LineAddr,
    /// The row, compiled.
    plan: &'static Plan,
    /// The message it takes (none for a timeout or a victim).
    msg: Option<&'m Message>,
    /// The directory entry the row reads: the line as the message found
    /// it, or a victim event's evicted line.
    line: Option<&'m L2Line>,
}

/// The Line facet of `line`: `NP` when absent, `MT` with an L1 owner, else
/// `RO`.
fn line_facet(ids: &L2Ids, line: Option<&L2Line>) -> u8 {
    match line {
        None => ids.np,
        Some(l) if l.owner.is_some() => ids.mt,
        Some(_) => ids.ro,
    }
}

/// The L2 bank controller for one tile.
#[derive(Debug, Clone)]
pub(crate) struct L2Controller {
    me: NodeId,
    ft: bool,
    /// The L2 table this bank runs, and its state ids.
    table: &'static ControllerTable,
    ids: &'static L2Ids,
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
        let (table, ids) = l2();
        L2Controller {
            me: NodeId::L2(tile),
            ft: config.protocol.is_fault_tolerant(),
            table,
            ids,
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
                    "{} tbe {a} request={:?} stage={} blocker={} serial={} own={} invs={} needs_data={}\n",
                    self.me,
                    t.request,
                    self.table.facet_names(&[t.stage]),
                    t.blocker,
                    t.serial,
                    t.own_serial,
                    t.invs,
                    t.needs_data
                ));
            }
            if !st.waiting.is_empty() {
                let kinds: Vec<String> = (st.waiting.iter())
                    .map(|m| format!("{}:{}", m.src, m.mtype))
                    .collect();
                out.push_str(&format!("{} waiting {a} [{}]\n", self.me, kinds.join(", ")));
            }
            if let Some(e) = &st.ext_pending {
                out.push_str(&format!(
                    "{} ext-pending {a} serial={}\n",
                    self.me, e.serial
                ));
            }
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

    /// The line's facets in the state vocabulary of the L2 table: the TBE's
    /// stage, `EXT`, `MB`, and the Line facet of `line`. An `AckO` or
    /// `AckBD` answers by its sender (`from_mem` is `Some`): from memory the
    /// `EXT` and `MB` records or the line, from an L1 the TBE or the line.
    fn facets(&self, st: &L2LineState, line: Option<&L2Line>, from_mem: Option<bool>) -> Facets {
        let ids = self.ids;
        let mut f = Facets::new();
        if let Some(t) = st.tbe.as_ref().filter(|_| from_mem != Some(true)) {
            f.push(t.stage);
        }
        if from_mem != Some(false) {
            if st.ext_pending.is_some() {
                f.push(ids.ext);
            }
            if st.mem_backup.is_some() {
                f.push(ids.mb);
            }
        }
        f.push(line_facet(ids, line));
        f
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Handles an incoming network message. A piggybacked `AckO` is
    /// delivered as an `AckO` event before its unblock, even a stale one,
    /// so the sender's blocked-ownership state can always drain (§3.1,
    /// §3.4 idempotence); its rows leave the directory entry as it was, so
    /// the unblock reuses it.
    pub(crate) fn handle_message(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let h = self.lines.handle(msg.addr);
        let line = self.cache.get(msg.addr).copied();
        if msg.piggy_acko {
            self.run(h, line, MsgType::AckO, &msg, ctx);
        }
        if let Some(msg) = self.admit(h, msg, ctx) {
            self.run(h, line, msg.mtype, &msg, ctx);
        }
    }

    /// Handles a fired timeout. A firing answers the record whose timer
    /// slot carries its generation; its row runs, counted by [`Timer::fire`],
    /// and the slot re-arms. Reissue serials come from the allocator stream,
    /// drawn even by a stale firing (avoids cross-transaction serial
    /// collisions, as at the L1).
    pub(crate) fn handle_timeout(
        &mut self,
        kind: TimeoutKind,
        addr: LineAddr,
        gen: u64,
        ctx: &mut Ctx<'_>,
    ) {
        let fresh = matches!(kind, TimeoutKind::LostRequest | TimeoutKind::LostAckBd)
            .then(|| self.serials.fresh());
        let (table, ids) = (self.table, self.ids);
        let h = self.lines.handle(addr);
        let st = self.lines.at_mut(h);
        let ext = kind == TimeoutKind::LostAckBd
            && (st.ext_pending.as_ref()).is_some_and(|e| e.timer.carries(gen));
        if !st.timer(kind, ext).is_some_and(|t| t.carries(gen)) {
            return;
        }
        let facet = match (kind, &st.tbe) {
            (TimeoutKind::LostData, _) => ids.mb,
            _ if ext => ids.ext,
            (_, tbe) => tbe.as_ref().expect("the slot is the TBE's").stage,
        };
        let Dispatch::Rows(rows) = table.dispatch(&[facet], Event::Timeout(kind), self.ft) else {
            return;
        };
        let Some(row) = Self::pick(table, rows, None, None, st.tbe.as_ref()) else {
            return;
        };
        let slot = st.timer(kind, ext).expect("checked above");
        slot.fire(gen, &mut self.timers, kind, ctx);
        if let (Some(fresh), Some(tbe)) = (fresh, st.tbe.as_mut().filter(|_| !ext)) {
            if kind == TimeoutKind::LostRequest {
                ctx.stats.reissues.incr();
                tbe.own_serial = fresh;
            } else {
                tbe.acko_serial = fresh;
            }
        }
        self.apply(self.step(h, addr, row, None, None), ctx);
        // The slot re-arms unless the row moved its TBE out of the stage.
        let in_stage = self.ids.is_stage(facet);
        let st = self.lines.at_mut(h);
        let moved = in_stage && st.tbe.as_ref().is_none_or(|t| t.stage != facet);
        if let Some(t) = st.timer(kind, ext).filter(|_| !moved) {
            t.rearm(&self.timers, addr, kind, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Admits a request that finds its line busy ([`admit_busy`]). A
    /// message is a *reissue* of the transaction only if it comes from the
    /// blocker and is the same kind of request (§3.2: "same requestor and
    /// address ... but a different request serial number"): a GetX issued
    /// right after a GetS whose unblock is still in flight is a new
    /// transaction. A reissue adopts its serial and is returned to run; a
    /// duplicate is dropped and anything else queued. Every other message
    /// is returned as is.
    fn admit(&mut self, h: u32, msg: Message, ctx: &mut Ctx<'_>) -> Option<Message> {
        let L2LineState { tbe, waiting, .. } = self.lines.at_mut(h);
        let request = matches!(msg.mtype, MsgType::GetS | MsgType::GetX | MsgType::Put);
        let Some(tbe) = tbe.as_mut().filter(|_| request) else {
            return Some(msg);
        };
        let same_kind = tbe.request == Some(msg.mtype);
        let reissue = admit_busy(tbe.blocker, tbe.serial, same_kind, msg, ctx, || waiting)?;
        ctx.stats.false_positives.incr();
        tbe.serial = reissue.serial;
        Some(reissue)
    }

    /// Runs event `mtype`, carried by `msg`, at the line of slot `h` whose
    /// directory entry is `line`: the first row
    /// [`crate::transitions::ControllerTable::dispatch`] picks at the line's
    /// facets whose guard holds, if `msg` answers the record the rows act on
    /// ([`Self::answers`]). A message the table ignores, that answers no
    /// record, or whose rows' guards all fail is stale.
    fn run(
        &mut self,
        h: u32,
        line: Option<L2Line>,
        mtype: MsgType,
        msg: &Message,
        ctx: &mut Ctx<'_>,
    ) {
        let table = self.table;
        let st = self.lines.at(h);
        let handshake = matches!(mtype, MsgType::AckO | MsgType::AckBD);
        let facets = self.facets(st, line.as_ref(), handshake.then(|| msg.src.is_mem()));
        let event = Event::Msg(mtype);
        let dispatch = table.dispatch(&facets, event, self.ft);
        if unexpected(dispatch, table, &facets, self.me, msg.addr, event, ctx) {
            return;
        }
        let row = match dispatch {
            Dispatch::Rows(rows) if Self::answers(st, mtype, msg) => {
                Self::pick(table, rows, Some(msg), line.as_ref(), st.tbe.as_ref())
            }
            _ => None,
        };
        if let Some(row) = row {
            return self.apply(self.step(h, msg.addr, row, Some(msg), line.as_ref()), ctx);
        }
        // A DataEx with no transaction open answers a request already
        // satisfied: a false-positive timeout (§3.2).
        if matches!(mtype, MsgType::Data | MsgType::DataEx) && st.tbe.is_none() {
            ctx.stats.false_positives.incr();
        }
        ctx.stale();
    }

    /// The §3.5 stale rule, by event: whether `msg`, delivered as `mtype`,
    /// answers the record its rows act on. A response answers the TBE's
    /// transaction — from its blocker under its serial, or under the bank's
    /// own serial; an `AckBD` answers its handshake's `AckO`, a `NackO` the
    /// backup's `WbData`.
    fn answers(st: &L2LineState, mtype: MsgType, msg: &Message) -> bool {
        let tbe = st.tbe.as_ref();
        let from_blocker = || tbe.is_some_and(|t| t.blocker == msg.src && t.serial == msg.serial);
        let own = || tbe.is_some_and(|t| t.own_serial == msg.serial);
        match mtype {
            // A plain Unblock never completes a GetX (it would record a
            // sharer where an owner is required): only a crossing stale
            // ping reply produces one.
            MsgType::Unblock => {
                from_blocker() && tbe.is_some_and(|t| t.request != Some(MsgType::GetX))
            }
            MsgType::UnblockEx | MsgType::WbData | MsgType::WbNoData | MsgType::WbCancel => {
                from_blocker()
            }
            MsgType::DataEx | MsgType::Ack | MsgType::WbAck => own(),
            MsgType::AckBD if msg.src.is_mem() => {
                (st.ext_pending.as_ref()).is_some_and(|e| e.serial == msg.serial)
            }
            MsgType::AckBD => tbe.is_some_and(|t| t.acko_serial == msg.serial),
            MsgType::NackO => (st.mem_backup.as_ref()).is_some_and(|b| b.serial == msg.serial),
            _ => true,
        }
    }

    /// The first of `table`'s `rows` whose guard holds.
    fn pick(
        table: &ControllerTable,
        rows: &[u16],
        msg: Option<&Message>,
        line: Option<&L2Line>,
        tbe: Option<&Tbe>,
    ) -> Option<u16> {
        (rows.iter().copied())
            .find(|&r| Self::holds(table.plans[usize::from(r)].when, msg, line, tbe))
    }

    /// Whether `guard` holds for `msg` (none for a timeout or a victim) at a
    /// line whose directory entry is `line` (the evicted line itself for a
    /// victim) and whose TBE is `tbe`, before the row runs.
    fn holds(
        guard: Guard,
        msg: Option<&Message>,
        line: Option<&L2Line>,
        tbe: Option<&Tbe>,
    ) -> bool {
        let recall = || {
            let (t, m) = (tbe.expect("a recall row"), msg.expect("taken by a message"));
            t.recall_after(m)
        };
        match guard {
            Guard::Always => true,
            Guard::Sharers => line.is_some_and(|l| !l.sharers.is_empty()),
            Guard::Dirty => line.is_some_and(|l| l.dirty),
            // A read keeps the migratory mark only right after a store.
            Guard::Migratory => line.is_some_and(|l| {
                l.migratory && l.consecutive_gets == 0 && l.owner.is_some() && l.sharers.is_empty()
            }),
            Guard::FromOwner => line
                .and_then(|l| l.owner)
                .is_some_and(|o| msg.is_some_and(|m| m.src.index() == o)),
            Guard::NoCopies => line.is_some_and(|l| l.data.is_none() && l.sharers.is_empty()),
            Guard::FromMem => tbe.is_some_and(|t| t.from_mem),
            Guard::Granted(mtype) => tbe.is_some_and(|t| t.grant == Some(mtype)),
            Guard::NeedsData => tbe.is_some_and(|t| t.needs_data),
            Guard::RecallPending => {
                let (acks, needs_data, _) = recall();
                needs_data || !acks.is_empty()
            }
            Guard::RecallDirty => recall().2,
            Guard::WbStale => msg.is_some_and(|m| m.wb_stale),
            _ => unreachable!("{guard:?} is not an L2 guard"),
        }
    }

    // ------------------------------------------------------------------
    // Rows
    // ------------------------------------------------------------------

    /// Row `row` about to run at `addr`, the line of slot `h`.
    fn step<'m>(
        &self,
        h: u32,
        addr: LineAddr,
        row: u16,
        msg: Option<&'m Message>,
        line: Option<&'m L2Line>,
    ) -> Step<'m> {
        let plan = &self.table.plans[usize::from(row)];
        Step {
            h,
            addr,
            plan,
            msg,
            line,
        }
    }

    /// Applies row `s`: first what the row cannot say ([`Self::by_hand`]),
    /// then its sends, built from the records as they now are; its next
    /// stage; its timers and the records it frees
    /// ([`Self::move_resources`]). Freeing the TBE services the line's
    /// queue.
    fn apply(&mut self, s: Step<'_>, ctx: &mut Ctx<'_>) {
        let (p, ids) = (s.plan, self.ids);
        self.by_hand(s, ctx);
        for &(mtype, role) in p.sends() {
            // An AckO to the role of an UnblockEx rides on it.
            let rides = |t| p.sends().contains(&(t, role));
            match mtype {
                MsgType::AckO if rides(MsgType::UnblockEx) => {}
                MsgType::UnblockEx => self.send(s, mtype, role, rides(MsgType::AckO), ctx),
                _ => self.send(s, mtype, role, false, ctx),
            }
        }
        let stage = s.plan.next().iter().find(|&&id| self.ids.is_stage(id));
        if let Some(&stage) = stage {
            let st = self.lines.at_mut(s.h);
            st.tbe.as_mut().expect("a stage is a TBE's").stage = stage;
        }
        let closes = s.plan.moves_resources(self.ft) && self.move_resources(s, ctx);
        if cfg!(debug_assertions) {
            // The Line facet is derived from the directory: it must be the
            // row's, or `NP` when the row leaves the Line family.
            let lines = [ids.np, ids.ro, ids.mt];
            let want = (s.plan.next().iter().copied().find(|id| lines.contains(id)))
                .or_else(|| lines.contains(&s.plan.src).then_some(ids.np));
            let got = line_facet(ids, self.cache.get(s.addr));
            let src = || self.table.facet_names(&[p.src]);
            let what = || format!("{} @ {}: line facet after the row", src(), p.event);
            debug_assert!(want.is_none_or(|want| want == got), "{}", what());
        }
        if closes {
            self.pump_waiting(s.h, ctx);
        }
    }

    /// Arms and disarms row `s`'s timers and drops the records it frees;
    /// returns whether it closed the TBE.
    fn move_resources(&mut self, s: Step<'_>, ctx: &mut Ctx<'_>) -> bool {
        let (me, ft) = (self.me, self.ft);
        let st = self.lines.at_mut(s.h);
        // `LostAckBd` is the EXT record's in a row that opens or closes it.
        let ext = s.plan.allocs(Resource::ExtPending, ft) || s.plan.frees(Resource::ExtPending, ft);
        for kind in s.plan.timers(false, ft) {
            st.timer(kind, ext)
                .expect("a freed timer's record")
                .disarm();
        }
        for kind in s.plan.timers(true, ft) {
            if kind == TimeoutKind::LostAckBd && !ext {
                // The handshake's AckO answers the trigger, under its serial.
                let serial = s.msg.expect("a message starts the handshake").serial;
                st.tbe.as_mut().expect("the handshake's TBE").acko_serial = serial;
            }
            let slot = st.timer(kind, ext).expect("an armed timer's record");
            slot.arm(&mut self.timers, s.addr, kind, ctx);
        }
        if s.plan.frees(Resource::MemBackup, ft) && st.mem_backup.take().is_some() {
            ctx.checker.backup_deleted(me, s.addr, ctx.now);
        }
        if s.plan.frees(Resource::ExtPending, ft) {
            st.ext_pending = None;
            if let Some(line) = self.cache.get_mut(s.addr) {
                line.ext_blocked = false;
            }
        }
        let st = self.lines.at_mut(s.h);
        let closes = s.plan.frees(Resource::Tbe, ft) && !s.plan.allocs(Resource::Tbe, ft);
        if closes && st.tbe.take().is_some() {
            self.tbe_count -= 1;
        }
        closes
    }

    /// What row `s` does that it cannot say, before its sends: its message
    /// taken into the directory and the TBE (with the install a fill makes,
    /// the checker's notice of an `AckO` deleting a grant's backup, and a
    /// request's hit, miss and migratory statistics), and the records it
    /// opens — a TBE for its next stage, `EXT`, `MB` — with their contents.
    fn by_hand(&mut self, s: Step<'_>, ctx: &mut Ctx<'_>) {
        let (ids, ft) = (self.ids, self.ft);
        if let (Event::Msg(mtype), Some(m)) = (s.plan.event, s.msg) {
            let (tile, serving) = (m.src.index(), !self.ids.is_stage(s.plan.src));
            let st = self.lines.at_mut(s.h);
            match mtype {
                MsgType::GetS | MsgType::GetX | MsgType::Put if serving => {
                    ctx.stats.l2_tbe_occupancy.record(self.tbe_count as u64 + 1);
                    if mtype != MsgType::Put {
                        let store = mtype == MsgType::GetX;
                        match self.cache.get_mut(s.addr) {
                            Some(line) => {
                                ctx.stats.l2_hits.incr();
                                line.record_request(tile, store, ctx.config.migratory_sharing);
                            }
                            None => ctx.stats.l2_misses.incr(),
                        }
                    }
                    if s.plan.when == Guard::Migratory {
                        ctx.stats.migratory_grants.incr();
                    }
                }
                MsgType::UnblockEx
                | MsgType::Unblock
                | MsgType::WbData
                | MsgType::WbNoData
                | MsgType::WbCancel => {
                    let line = self.cache.get_mut(s.addr).expect("the line is resident");
                    match mtype {
                        MsgType::UnblockEx => {
                            line.owner = Some(tile);
                            line.sharers.clear();
                            // Any bank copy is now stale (or was handed over).
                            (line.data, line.dirty) = (None, false);
                        }
                        MsgType::Unblock => line.sharers.insert(tile),
                        _ => line.owner = None,
                    }
                    if mtype == MsgType::WbData {
                        line.data = Some(m.data.expect("WbData carries data"));
                        line.dirty |= m.data_dirty;
                    }
                    if s.plan.next().contains(&ids.np) {
                        // No copy is left on chip: memory owns the line again.
                        self.cache.remove(s.addr);
                    }
                }
                MsgType::DataEx if s.plan.src == ids.wait_mem => {
                    // §3.1.1: the fill answers the L1 at once; under FT the
                    // bank keeps its data as backup until the L1's AckO.
                    let data = m.data.expect("memory fill carries data");
                    let tbe = st.tbe.as_mut().expect("a fill's TBE");
                    (tbe.grant, tbe.data, tbe.from_mem) = (Some(MsgType::DataEx), Some(data), true);
                    self.install(s.addr, data, ctx);
                    if self.ft {
                        ctx.checker.backup_created(self.me, s.addr, ctx.now);
                    }
                }
                MsgType::DataEx | MsgType::Ack | MsgType::AckBD
                    if s.plan.src == ids.wait_recall || s.plan.src == ids.wait_recall_ack_bd =>
                {
                    let tbe = st.tbe.as_mut().expect("a recall's TBE");
                    (tbe.invs, tbe.needs_data, tbe.dirty) = tbe.recall_after(m);
                    if mtype == MsgType::DataEx {
                        tbe.data = m.data;
                    }
                }
                MsgType::AckO
                    if s.plan.src == ids.wait_unblock || s.plan.src == ids.wait_fill_unblock =>
                {
                    let tbe = st.tbe.as_ref().expect("a grant's TBE");
                    if tbe.holds_backup() && tbe.blocker == m.src {
                        ctx.checker.backup_deleted(self.me, s.addr, ctx.now);
                    }
                }
                MsgType::WbPing if s.plan.src == ids.mb => {
                    st.mem_backup.as_mut().expect("a backup").serial = m.serial;
                }
                _ => {}
            }
        }
        if s.plan.allocs(Resource::Tbe, ft) {
            self.open(s, ctx);
        }
        let st = self.lines.at_mut(s.h);
        if s.plan.allocs(Resource::ExtPending, ft) {
            let serial = st.tbe.as_ref().expect("the fill's TBE").own_serial;
            let timer = Timer::default();
            st.ext_pending = Some(ExtPending { serial, timer });
            if let Some(line) = self.cache.get_mut(s.addr) {
                line.ext_blocked = true;
            }
        }
        if s.plan.allocs(Resource::MemBackup, ft) {
            st.mem_backup = Some(st.tbe.as_ref().expect("the writeback's TBE").backup());
            ctx.checker.backup_created(self.me, s.addr, ctx.now);
        }
    }

    /// Opens the TBE of row `s`'s next stage, replacing any TBE the row
    /// frees: a request's miss, grant or writeback; the recall or bank
    /// writeback of a victim; the writeback a dirty recall ends in.
    fn open(&mut self, s: Step<'_>, ctx: &mut Ctx<'_>) {
        let ids = self.ids;
        let stage = (s.plan.next().iter().copied())
            .find(|&id| self.ids.is_stage(id))
            .expect("a TBE opens in a stage");
        let tbe = if let Some(m) = s.msg.filter(|_| stage != ids.wait_mem_wb_ack) {
            let mut tbe = Tbe::new(Some(m.mtype), stage, m.src, m.serial);
            if stage == ids.wait_mem {
                tbe.own_serial = self.fresh_serial();
            } else if stage == ids.wait_unblock {
                // The grant is the row's first send. An owned line holds no
                // bank data, so an owner's upgrade grants none.
                let line = s.line.expect("a grant's line is resident");
                let grant = s.plan.sends()[0].0;
                tbe.grant = Some(grant);
                if matches!(grant, MsgType::DataEx | MsgType::FwdGetX) {
                    tbe.invs = line.sharers;
                    tbe.invs.remove(m.src.index());
                }
                if matches!(grant, MsgType::FwdGetS | MsgType::FwdGetX) {
                    tbe.fwd_to = line.owner;
                } else {
                    debug_assert!(line.owner.is_none() || line.data.is_none());
                    (tbe.data, tbe.dirty) = (line.data, grant == MsgType::DataEx && line.dirty);
                }
            }
            tbe
        } else {
            // The bank's own transaction, under a fresh serial: a victim's
            // recall or writeback, or the writeback a recall ends in.
            let old = self.lines.at(s.h).tbe.as_ref().and_then(|t| t.data);
            let mut tbe = Tbe::new(None, stage, self.me, self.fresh_serial());
            tbe.own_serial = tbe.serial;
            match s.line {
                Some(v) if stage == ids.wait_recall => {
                    ctx.stats.recalls.incr();
                    (tbe.data, tbe.dirty, tbe.invs) = (v.data, v.dirty, v.sharers);
                    (tbe.needs_data, tbe.fwd_to) = (v.owner.is_some(), v.owner);
                }
                v => {
                    ctx.stats.l2_writebacks.incr();
                    (tbe.data, tbe.dirty) = (v.map_or(old, |v| v.data), true);
                }
            }
            tbe
        };
        if self.lines.at_mut(s.h).tbe.replace(tbe).is_none() {
            self.tbe_count += 1;
        }
    }

    /// Sends the message row `s` names as `mtype` to `role`, built from the
    /// record it sends or re-sends (the row's source facet picks the
    /// `WbData`'s), or as a reply to its message. `piggy`: an `AckO` rides
    /// on this `UnblockEx`.
    fn send(&self, s: Step<'_>, mtype: MsgType, role: Role, piggy: bool, ctx: &mut Ctx<'_>) {
        let (me, addr) = (self.me, s.addr);
        let mem = |config| Self::mem_of(addr, config);
        let st = self.lines.at(s.h);
        let tbe = || st.tbe.as_ref().expect("the row acts on the TBE");
        let m = || s.msg.expect("a reply answers a message");
        let out = match (mtype, role) {
            (MsgType::Inv, _) => return tbe().send_invs(addr, me, ctx),
            (MsgType::FwdGetS | MsgType::FwdGetX, _) => tbe().fwd(mtype, addr, me),
            (MsgType::Data | MsgType::DataEx, _) => tbe().grant(mtype, addr, me),
            (MsgType::GetX | MsgType::Put, _) => {
                // The fill's GetX, or the bank writeback's Put, and reissues.
                Message::new(mtype, addr, me, mem(ctx.config)).serial(tbe().own_serial)
            }
            (_, Role::Blocker | Role::OwnerL1) => tbe().ping(mtype, role, addr, me),
            (MsgType::UnblockEx, _) => {
                // The EXT record's serial, re-sent alike; else the fill's or
                // the ping's.
                let serial = (st.ext_pending.as_ref()).map_or_else(|| m().serial, |e| e.serial);
                let unblock =
                    Message::new(MsgType::UnblockEx, addr, me, mem(ctx.config)).serial(serial);
                if piggy {
                    unblock.with_acko()
                } else {
                    unblock
                }
            }
            (MsgType::WbData, _) if s.plan.src == self.ids.mb => (st.mem_backup.as_ref())
                .expect("a backup")
                .wb_data(addr, me, mem(ctx.config)),
            (MsgType::WbData, _) => tbe().backup().wb_data(addr, me, mem(ctx.config)),
            (MsgType::OwnershipPing, _) => {
                let b = st.mem_backup.as_ref().expect("a backup");
                Message::new(MsgType::OwnershipPing, addr, me, mem(ctx.config)).serial(b.serial)
            }
            (MsgType::WbAck, _) => {
                // Stale unless the writer still owns the line.
                let mut ack = m().reply(MsgType::WbAck);
                let owner = s.line.and_then(|l| l.owner);
                ack.wb_stale = owner != Some(m().src.index());
                ack
            }
            _ => m().reply(mtype),
        };
        ctx.send(out);
    }

    // ------------------------------------------------------------------
    // Fills, evictions and the queue
    // ------------------------------------------------------------------

    /// Installs a filled line, evicting a victim if its set is full: only a
    /// line with no transaction or external handshake in flight.
    fn install(&mut self, addr: LineAddr, data: LineData, ctx: &mut Ctx<'_>) {
        let lines = &self.lines;
        let line = L2Line {
            data: Some(data),
            ..L2Line::default()
        };
        let outcome = self.cache.insert(addr, line, |a, l| {
            !l.ext_blocked
                && lines
                    .get(a)
                    .is_none_or(|s| s.tbe.is_none() && s.ext_pending.is_none())
        });
        if let Some((vaddr, vline)) = outcome.evicted {
            self.evict(vaddr, &vline, ctx);
        }
    }

    /// Runs the victim event at `vaddr`, whose line `vline` the bank just
    /// evicted: a recall, a writeback to memory, or a silent drop.
    fn evict(&mut self, vaddr: LineAddr, vline: &L2Line, ctx: &mut Ctx<'_>) {
        let table = self.table;
        let h = self.lines.handle(vaddr);
        let st = self.lines.at(h);
        let facets = self.facets(st, Some(vline), None);
        let dispatch = table.dispatch(&facets, Event::Victim, self.ft);
        if unexpected(dispatch, table, &facets, self.me, vaddr, Event::Victim, ctx) {
            return;
        }
        if let Dispatch::Rows(rows) = dispatch {
            if let Some(row) = Self::pick(table, rows, None, Some(vline), st.tbe.as_ref()) {
                self.apply(self.step(h, vaddr, row, None, Some(vline)), ctx);
            }
        }
    }

    /// After a transaction completes, services deferred requests for the
    /// line until one blocks it again (or the queue drains). The queue's
    /// buffer stays in the slot, ready for the next deferral.
    fn pump_waiting(&mut self, h: u32, ctx: &mut Ctx<'_>) {
        while self.lines.at(h).tbe.is_none() {
            let Some(msg) = self.lines.at_mut(h).waiting.pop_front() else {
                return;
            };
            let line = self.cache.get(msg.addr).copied();
            self.run(h, line, msg.mtype, &msg, ctx);
        }
    }
}

#[cfg(test)]
#[path = "l2_tests.rs"]
mod tests;
