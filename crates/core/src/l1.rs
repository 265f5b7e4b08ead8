//! The L1 cache controller.
//!
//! Implements the requester side of both protocols:
//!
//! * **DirCMP** (paper §2): MOESI stable states, misses through the home L2
//!   bank, invalidation acks collected at the requester, three-phase
//!   writebacks.
//! * **FtDirCMP** (paper §3): on top of DirCMP, the *backup* state when
//!   sending owned data (§3.1 step 1), the *blocked-ownership* states
//!   `Mb`/`Eb` while waiting for the backup-deletion acknowledgment
//!   (§3.1 steps 2–4), the lost-request and lost-backup-deletion-ack
//!   timeouts (§3.2, §3.4), request serial numbers with reissue (§3.5), and
//!   the recovery responses to `UnblockPing`/`WbPing`/`OwnershipPing`.
//!
//! The controller runs from its reified table
//! ([`crate::transitions::l1_table`]): every message, live timeout, CPU op
//! and victim is dispatched once at the line's facets, and the first row
//! whose typed guard holds runs — its sends, next state, records (miss and
//! writeback MSHRs, backup, AckBD handshake) and timers. Only what a row
//! cannot say is written here: message contents, the line's data, the
//! checker's permissions and backup notices, committing the CPU op and
//! completing the core, installs and victim choice, and statistics. A
//! line's records live together in one [`LineTable`] slot (see `linetab`
//! for the iteration-order contract).

use std::hash::{Hash, Hasher};

use ftdircmp_sim::{Cycle, DetRng};

use crate::cache::SetAssocCache;
use crate::checker::Perm;
use crate::config::SystemConfig;
use crate::data::LineData;
use crate::ids::{LineAddr, NodeId};
use crate::linetab::LineTable;
use crate::msg::{Message, MsgType};
use crate::proto::{unexpected, Ctx, Facets, TimeoutKind, Timer, Timers};
use crate::serial::{SerialAllocator, SerialNum};
use crate::transitions::{
    self, l1, Controller, ControllerTable, Dispatch, Event, Guard, L1Ids, Plan, Resource, Role,
};

/// Stable L1 permission states (MOESI; `I` is represented by absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum L1Perm {
    /// Shared, clean, read-only.
    S,
    /// Exclusive, clean (silent upgrade to `M` on store).
    E,
    /// Owned: shared but responsible for supplying data.
    O,
    /// Modified: exclusive and dirty.
    M,
}

impl L1Perm {
    fn checker_perm(self) -> Perm {
        match self {
            L1Perm::S | L1Perm::O => Perm::Read,
            L1Perm::E | L1Perm::M => Perm::Write,
        }
    }
}

/// One resident L1 line. `blocked` marks the blocked-ownership states
/// (`Mb`/`Eb`): the miss is satisfied but ownership must not move until the
/// backup-deletion acknowledgment arrives (paper §3.1 step 2). `slot` is the
/// handle of the line's [`LineTable`] slot, which every resident line has
/// (its miss or writeback made it), so an event at a resident line finds
/// its records without a hash probe.
#[derive(Debug, Clone, Copy)]
struct L1Entry {
    perm: L1Perm,
    data: LineData,
    blocked: bool,
    slot: u32,
}

/// A CPU memory operation presented to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CpuOp {
    /// Line touched.
    pub(crate) addr: LineAddr,
    /// True for stores.
    pub(crate) is_store: bool,
}

/// Outcome of presenting a CPU operation to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CpuOutcome {
    /// Completed locally; the core may continue after the hit latency.
    Hit,
    /// A miss was issued; the L1 will signal completion later.
    Miss,
    /// The line has a writeback in flight; the L1 parked the operation and
    /// will retry it (and signal completion) when the writeback resolves.
    Stalled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MissKind {
    Load,
    Store,
}

#[derive(Debug, Clone, Hash)]
struct MissMshr {
    kind: MissKind,
    serial: SerialNum,
    data: Option<LineData>,
    granted_ex: bool,
    granted_dirty: bool,
    responded: bool,
    acks_needed: u8,
    acks_got: u8,
    supplier: Option<NodeId>,
    issued_at: Cycle,
    timer: Timer,
}

impl MissMshr {
    /// A miss of `kind` under `serial`, issued at `issued_at`, that nothing
    /// has answered yet.
    fn new(kind: MissKind, serial: SerialNum, issued_at: Cycle) -> Self {
        MissMshr {
            kind,
            serial,
            data: None,
            granted_ex: false,
            granted_dirty: false,
            responded: false,
            acks_needed: 0,
            acks_got: 0,
            supplier: None,
            issued_at,
            timer: Timer::default(),
        }
    }

    /// The request this miss issues, and reissues, to the line's home bank.
    fn request(&self, addr: LineAddr, me: NodeId, home: NodeId) -> Message {
        let mtype = match self.kind {
            MissKind::Load => MsgType::GetS,
            MissKind::Store => MsgType::GetX,
        };
        Message::new(mtype, addr, me, home).serial(self.serial)
    }

    /// The miss once `msg` — its grant (`Data`, `DataEx`) or an invalidation
    /// `Ack` — is taken into it.
    fn after(&self, msg: &Message) -> MissMshr {
        let mut m = self.clone();
        if msg.mtype == MsgType::Ack {
            m.acks_got += 1;
        } else {
            m.responded = true;
            m.granted_ex = msg.mtype == MsgType::DataEx;
            m.granted_dirty = msg.data_dirty;
            m.acks_needed = msg.ack_count;
            m.supplier = Some(msg.src);
            if msg.data.is_some() {
                m.data = msg.data;
            }
        }
        m
    }

    /// Whether the miss is satisfied: granted, with an exclusive grant's
    /// invalidation acks all in.
    fn complete(&self) -> bool {
        self.responded && !(self.granted_ex && self.acks_got < self.acks_needed)
    }
}

#[derive(Debug, Clone, Hash)]
struct WbMshr {
    data: Option<LineData>,
    was_exclusive: bool,
    dirty: bool,
    serial: SerialNum,
    timer: Timer,
}

impl WbMshr {
    /// The `Put` this writeback issues, and reissues, to the line's home bank.
    fn put(&self, addr: LineAddr, me: NodeId, home: NodeId) -> Message {
        Message::new(MsgType::Put, addr, me, home).serial(self.serial)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BackupKind {
    /// Backup created when answering a forwarded request with owned data.
    ForwardedData {
        /// Invalidation-ack count the reissued `DataEx` must carry.
        acks: u8,
    },
    /// Backup created when sending `WbData` (kept in the writeback buffer).
    Writeback,
}

#[derive(Debug, Clone, Hash)]
struct Backup {
    data: LineData,
    dirty: bool,
    dest: NodeId,
    serial: SerialNum,
    kind: BackupKind,
    timer: Timer,
}

impl Backup {
    /// The owned data this backup sends, and re-sends, to its destination
    /// under its serial: the `DataEx` answering a forward, or the `WbData`
    /// of a writeback.
    fn message(&self, addr: LineAddr, me: NodeId) -> Message {
        let msg = match self.kind {
            BackupKind::ForwardedData { acks } => {
                Message::new(MsgType::DataEx, addr, me, self.dest)
                    .requester(self.dest)
                    .acks(acks)
            }
            BackupKind::Writeback => Message::new(MsgType::WbData, addr, me, self.dest),
        };
        msg.serial(self.serial).data(self.data).dirty(self.dirty)
    }
}

/// Record of the most recent unblock this L1 sent for a line, so an
/// `UnblockPing` for that (completed) transaction can be answered exactly.
/// Overwriting per line is safe: the directory serializes transactions, so a
/// newer completion implies the older unblock was received. (In hardware
/// this table would be bounded; see DESIGN.md §4.)
#[derive(Debug, Clone, Copy, Hash)]
struct CompletedTx {
    was_store: bool,
    /// The unblock sent, as [`Guard::Replay`] names it: `Unblock`,
    /// `UnblockEx`, or `AckO` for an `UnblockEx` carrying the `AckO`.
    sent: MsgType,
}

#[derive(Debug, Clone, Hash)]
struct AckBdPending {
    peer: NodeId,
    serial: SerialNum,
    timer: Timer,
}

impl AckBdPending {
    /// The `AckO` this handshake sends, and re-sends, to the data's supplier.
    fn acko(&self, addr: LineAddr, me: NodeId) -> Message {
        Message::new(MsgType::AckO, addr, me, self.peer).serial(self.serial)
    }
}

/// All transient per-line state of one L1, held together in one slab slot.
/// Every facet uses absence (`None`/empty) for "not in flight"; the slot
/// itself persists once allocated.
#[derive(Debug, Clone, Default, Hash)]
struct L1LineState {
    miss: Option<MissMshr>,
    wb: Option<WbMshr>,
    backup: Option<Backup>,
    ackbd: Option<AckBdPending>,
    deferred: Vec<Message>,
    unblocked: Option<CompletedTx>,
}

impl L1LineState {
    /// The `kind` timer slot: the miss's or the writeback's for
    /// `LostRequest` (the two never coexist), the AckBD handshake's for
    /// `LostAckBd`, the backup's for `LostData`.
    fn timer(&mut self, kind: TimeoutKind) -> Option<&mut Timer> {
        match kind {
            TimeoutKind::LostRequest => match (&mut self.miss, &mut self.wb) {
                (Some(m), _) => Some(&mut m.timer),
                (None, wb) => wb.as_mut().map(|w| &mut w.timer),
            },
            TimeoutKind::LostAckBd => self.ackbd.as_mut().map(|p| &mut p.timer),
            TimeoutKind::LostData => self.backup.as_mut().map(|b| &mut b.timer),
            TimeoutKind::LostUnblock => None,
        }
    }
}

/// One row about to run at one line: the line's slot (none if never
/// touched) and address, the row and its compiled form, the message it
/// takes, and the line's entry as the event found it (a victim's evicted
/// entry).
#[derive(Clone, Copy)]
struct Step<'m> {
    h: Option<u32>,
    addr: LineAddr,
    row: u16,
    plan: &'static Plan,
    msg: Option<&'m Message>,
    line: Option<&'m L1Entry>,
}

/// The Cache facet of `entry`: `I` when absent.
fn cache_facet(ids: &L1Ids, entry: Option<&L1Entry>) -> u8 {
    match entry {
        None => ids.i,
        Some(e) => match (e.perm, e.blocked) {
            (L1Perm::S, _) => ids.s,
            (L1Perm::O, _) => ids.o,
            (L1Perm::E, false) => ids.e,
            (L1Perm::E, true) => ids.eb,
            (L1Perm::M, false) => ids.m,
            (L1Perm::M, true) => ids.mb,
        },
    }
}

/// The line's facets in the state vocabulary of the L1 table: the Cache
/// facet of `entry`, then the miss, writeback and backup of `st`.
fn facets(ids: &L1Ids, entry: Option<&L1Entry>, st: Option<&L1LineState>) -> Facets {
    let mut f = Facets::new();
    f.push(cache_facet(ids, entry));
    let Some(st) = st else {
        return f;
    };
    if let Some(m) = &st.miss {
        f.push(match (m.kind, entry.map(|e| e.perm)) {
            (MissKind::Load, _) => ids.is,
            (MissKind::Store, Some(L1Perm::S)) => ids.sm,
            (MissKind::Store, Some(L1Perm::O)) => ids.om,
            (MissKind::Store, _) => ids.im,
        });
    }
    if let Some(w) = &st.wb {
        f.push(match (w.data.is_some(), w.was_exclusive, w.dirty) {
            (false, _, _) => ids.ii,
            (true, true, true) => ids.mi,
            (true, true, false) => ids.ei,
            (true, false, _) => ids.oi,
        });
    }
    if let Some(b) = &st.backup {
        f.push(match b.kind {
            BackupKind::ForwardedData { .. } => ids.b,
            BackupKind::Writeback => ids.bw,
        });
    }
    f
}

/// The home L2 bank of `addr`.
fn home(addr: LineAddr, config: &SystemConfig) -> NodeId {
    NodeId::L2(addr.home_bank(config.tiles))
}

/// The L1 cache controller for one tile.
#[derive(Debug, Clone)]
pub(crate) struct L1Controller {
    tile: u8,
    me: NodeId,
    ft: bool,
    /// The L1 table this cache runs, and its state ids.
    table: &'static ControllerTable,
    ids: L1Ids,
    cache: SetAssocCache<L1Entry>,
    lines: LineTable<L1LineState>,
    /// Number of slots with a live miss MSHR (for occupancy stats).
    miss_count: usize,
    stalled_ops: Vec<CpuOp>,
    serials: SerialAllocator,
    timers: Timers,
    /// Reused buffer for draining deferred forwards without allocating.
    deferred_scratch: Vec<Message>,
    /// Reused buffer for replaying stalled CPU ops without allocating.
    stalled_scratch: Vec<CpuOp>,
}

impl L1Controller {
    /// Creates the controller for `tile`.
    pub(crate) fn new(tile: u8, config: &SystemConfig, rng: &mut DetRng) -> Self {
        let (table, ids) = l1();
        L1Controller {
            tile,
            me: NodeId::L1(tile),
            ft: config.protocol.is_fault_tolerant(),
            table,
            ids: *ids,
            cache: SetAssocCache::new(config.l1_sets(), config.l1_assoc),
            lines: LineTable::new(),
            miss_count: 0,
            stalled_ops: Vec::new(),
            serials: SerialAllocator::new(config.ft.serial_bits, rng),
            timers: Timers::new(NodeId::L1(tile)),
            deferred_scratch: Vec::new(),
            stalled_scratch: Vec::new(),
        }
    }

    /// Whether a miss or writeback is in flight for any line.
    pub(crate) fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.miss_count,
            self.lines.iter().filter(|(_, s)| s.miss.is_some()).count(),
            "miss_count out of sync with slab"
        );
        self.lines.iter().all(|(_, s)| {
            s.miss.is_none() && s.wb.is_none() && s.ackbd.is_none() && s.backup.is_none()
        })
    }

    /// Human-readable summary of in-flight state (deadlock diagnostics).
    pub(crate) fn pending_summary(&self) -> String {
        let mut out = String::new();
        for (a, s) in self.lines.iter() {
            if let Some(m) = &s.miss {
                let retries = m.timer.retries();
                out.push_str(&format!(
                    "{} miss {a} kind={:?} serial={} responded={} acks={}/{} retries={retries}\n",
                    self.me, m.kind, m.serial, m.responded, m.acks_got, m.acks_needed
                ));
            }
        }
        for (a, s) in self.lines.iter() {
            if let Some(w) = &s.wb {
                out.push_str(&format!(
                    "{} wb {a} serial={} data={}\n",
                    self.me,
                    w.serial,
                    w.data.is_some()
                ));
            }
        }
        for (a, s) in self.lines.iter() {
            if let Some(b) = &s.backup {
                out.push_str(&format!(
                    "{} backup {a} dest={} serial={} kind={:?}\n",
                    self.me, b.dest, b.serial, b.kind
                ));
            }
        }
        for (a, s) in self.lines.iter() {
            if let Some(p) = &s.ackbd {
                out.push_str(&format!(
                    "{} ackbd-pending {a} peer={} serial={}\n",
                    self.me, p.peer, p.serial
                ));
            }
        }
        for (a, s) in self.lines.iter() {
            if !s.deferred.is_empty() {
                out.push_str(&format!(
                    "{} deferred {a} n={}\n",
                    self.me,
                    s.deferred.len()
                ));
            }
        }
        for op in &self.stalled_ops {
            out.push_str(&format!("{} stalled-op {:?}\n", self.me, op));
        }
        out
    }

    fn fresh_serial(&mut self) -> SerialNum {
        if self.ft {
            self.serials.fresh()
        } else {
            SerialNum::ZERO
        }
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Presents a CPU memory operation; the access refreshes the line's LRU
    /// position, hit or miss. An op on a line whose miss is in flight is a
    /// protocol violation: it is reported and waits on that miss.
    pub(crate) fn cpu_access(&mut self, op: CpuOp, ctx: &mut Ctx<'_>) -> CpuOutcome {
        let (table, addr) = (self.table, op.addr);
        let entry = self.cache.get_mut(addr).map(|e| *e);
        let h = self.slot(addr, entry.as_ref());
        let facets = facets(&self.ids, entry.as_ref(), h.map(|h| self.lines.at(h)));
        let event = Event::Cpu(if op.is_store {
            transitions::CpuOp::Store
        } else {
            transitions::CpuOp::Load
        });
        let dispatch = table.dispatch(&facets, event, self.ft);
        if unexpected(dispatch, table, &facets, self.me, addr, event, ctx) {
            return CpuOutcome::Miss;
        }
        let Dispatch::Rows(&[row, ..]) = dispatch else {
            unreachable!("every CPU op has a row or is impossible");
        };
        let step = self.step(h, addr, row, None, entry.as_ref());
        self.apply(step, ctx);
        if step.plan.allocs(Resource::Mshr, self.ft) {
            CpuOutcome::Miss
        } else if self.ids.is_wb(step.plan.src) {
            CpuOutcome::Stalled
        } else {
            CpuOutcome::Hit
        }
    }

    /// Handles an incoming network message: the first dispatched row whose
    /// guard holds runs, if the message answers the rows' record
    /// ([`Self::answers`]); anything else is stale.
    pub(crate) fn handle_message(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let (table, addr) = (self.table, msg.addr);
        let entry = self.cache.get(addr).copied();
        let h = self.slot(addr, entry.as_ref());
        let st = h.map(|h| self.lines.at(h));
        let facets = facets(&self.ids, entry.as_ref(), st);
        let event = Event::Msg(msg.mtype);
        let dispatch = table.dispatch(&facets, event, self.ft);
        if unexpected(dispatch, table, &facets, self.me, addr, event, ctx) {
            return;
        }
        let row = match dispatch {
            Dispatch::Rows(rows) if Self::answers(st, &msg) => {
                let when = |r: u16| table.plans[usize::from(r)].when;
                (rows.iter().copied()).find(|&r| Self::holds(when(r), Some(&msg), st))
            }
            _ => None,
        };
        if let Some(row) = row {
            return self.apply(self.step(h, addr, row, Some(&msg), entry.as_ref()), ctx);
        }
        match msg.mtype {
            // A grant for a miss already finished or reissued is a duplicate
            // from a reissue whose original was merely slow: a false
            // positive (§3.2).
            MsgType::Data | MsgType::DataEx => ctx.stats.false_positives.incr(),
            // A forward reads the line, stale or not.
            MsgType::FwdGetS => {
                self.cache.get_mut(addr);
            }
            _ => {}
        }
        ctx.stale();
    }

    /// Handles a fired timeout: a firing answers the record whose slot
    /// carries its generation, its row runs and the slot re-arms. Reissue
    /// serials come from the per-node stream of fresh requests, drawn even by
    /// a stale firing (§3.5): chained `.next()` bumps could alias the serial
    /// of the node's next request.
    pub(crate) fn handle_timeout(
        &mut self,
        kind: TimeoutKind,
        addr: LineAddr,
        gen: u64,
        ctx: &mut Ctx<'_>,
    ) {
        let fresh = matches!(kind, TimeoutKind::LostRequest | TimeoutKind::LostAckBd)
            .then(|| self.serials.fresh());
        let table = self.table;
        let h = self.lines.find(addr);
        let live = h
            .and_then(|h| self.lines.at_mut(h).timer(kind))
            .is_some_and(|t| t.carries(gen));
        if !live && kind != TimeoutKind::LostUnblock {
            // Stale: no record's slot carries the generation. No L1 record
            // holds a lost-unblock timer, so that firing goes to the table.
            return;
        }
        let entry = self.cache.get(addr);
        let facets = facets(&self.ids, entry, h.map(|h| self.lines.at(h)));
        let event = Event::Timeout(kind);
        let dispatch = table.dispatch(&facets, event, self.ft);
        if unexpected(dispatch, table, &facets, self.me, addr, event, ctx) {
            return;
        }
        let (Dispatch::Rows(&[row, ..]), Some(h)) = (dispatch, h) else {
            return;
        };
        let st = self.lines.at_mut(h);
        let slot = st.timer(kind).expect("the live slot");
        slot.fire(gen, &mut self.timers, kind, ctx);
        // A reissue forgets whatever answered the old serial.
        match (kind, fresh, &mut st.miss, &mut st.wb, &mut st.ackbd) {
            (TimeoutKind::LostRequest, Some(serial), Some(m), _, _) => {
                ctx.stats.reissues.incr();
                let timer = m.timer;
                *m = MissMshr {
                    timer,
                    ..MissMshr::new(m.kind, serial, m.issued_at)
                };
            }
            (TimeoutKind::LostRequest, Some(serial), None, Some(w), _) => {
                ctx.stats.reissues.incr();
                w.serial = serial;
            }
            (TimeoutKind::LostAckBd, Some(serial), _, _, Some(p)) => p.serial = serial,
            _ => {}
        }
        self.apply(self.step(Some(h), addr, row, None, None), ctx);
        if let Some(t) = self.lines.at_mut(h).timer(kind) {
            t.rearm(&self.timers, addr, kind, ctx);
        }
    }

    /// The §3.5 stale rule, by event: whether `msg` answers, under its
    /// serial, the record its rows act on (miss, writeback, handshake,
    /// backup).
    fn answers(st: Option<&L1LineState>, msg: &Message) -> bool {
        let serial = match msg.mtype {
            MsgType::Data | MsgType::DataEx | MsgType::Ack => {
                st.and_then(|s| s.miss.as_ref()).map(|m| m.serial)
            }
            MsgType::WbAck => st.and_then(|s| s.wb.as_ref()).map(|w| w.serial),
            MsgType::AckBD => st.and_then(|s| s.ackbd.as_ref()).map(|p| p.serial),
            MsgType::NackO => st.and_then(|s| s.backup.as_ref()).map(|b| b.serial),
            _ => return true,
        };
        serial == Some(msg.serial)
    }

    /// Whether `guard` holds for `msg` (none for a CPU op, a timeout or a
    /// victim) at a line whose records are `st`, before the row runs. The
    /// miss guards read the miss once `msg` is taken into it.
    fn holds(guard: Guard, msg: Option<&Message>, st: Option<&L1LineState>) -> bool {
        let m = || msg.expect("a message's guard");
        let miss = || st.and_then(|s| s.miss.as_ref());
        let taken = || miss().map(|miss| miss.after(m()));
        match guard {
            Guard::Always => true,
            Guard::AcksOutstanding => taken().is_some_and(|t| !t.complete()),
            Guard::DirtyGrant => taken().is_some_and(|t| t.granted_dirty),
            Guard::NoData => taken().is_some_and(|t| t.data.is_none()),
            Guard::PingsMiss => {
                miss().is_some_and(|miss| (miss.kind == MissKind::Store) == m().ping_for_store)
            }
            Guard::Replay(sent) => (st.and_then(|s| s.unblocked))
                .is_some_and(|c| c.was_store == m().ping_for_store && c.sent == sent),
            Guard::WbExclusive => (st.and_then(|s| s.wb.as_ref())).is_some_and(|w| w.was_exclusive),
            Guard::OwesAckO => {
                (st.and_then(|s| s.ackbd.as_ref())).is_some_and(|p| p.peer == m().src)
            }
            Guard::WbStale => m().wb_stale,
            _ => unreachable!("{guard:?} is not an L1 guard"),
        }
    }

    /// The handle of `addr`'s slot, if the line was ever touched: a
    /// resident line's `entry` keeps it.
    fn slot(&self, addr: LineAddr, entry: Option<&L1Entry>) -> Option<u32> {
        let h = entry.map_or_else(|| self.lines.find(addr), |e| Some(e.slot));
        debug_assert_eq!(h, self.lines.find(addr), "{addr}: the entry's slot");
        h
    }

    /// Row `row` about to run at `addr`, the line of slot `h`.
    fn step<'m>(
        &self,
        h: Option<u32>,
        addr: LineAddr,
        row: u16,
        msg: Option<&'m Message>,
        line: Option<&'m L1Entry>,
    ) -> Step<'m> {
        let plan = &self.table.plans[usize::from(row)];
        Step {
            h,
            addr,
            row,
            plan,
            msg,
            line,
        }
    }

    /// The slot of row `s`'s line.
    fn st_mut(&mut self, s: Step<'_>) -> &mut L1LineState {
        self.lines.at_mut(s.h.expect("the row's line has a slot"))
    }

    /// Applies row `s`: what it cannot say ([`Self::by_hand`]), its sends,
    /// its records and timers ([`Self::move_resources`]); freeing the
    /// writeback retries the stalled CPU ops, closing the AckBD handshake
    /// replays the deferred forwards.
    fn apply(&mut self, mut s: Step<'_>, ctx: &mut Ctx<'_>) {
        let (p, ft, ids) = (s.plan, self.ft, self.ids);
        let records = [Resource::Mshr, Resource::WbMshr, Resource::Backup];
        if s.h.is_none() && records.iter().any(|&r| p.allocs(r, ft)) {
            // A row that opens a record gives the line its slot.
            s.h = Some(self.lines.handle(s.addr));
        }
        ctx.stats.row_fired(Controller::L1, s.row);
        let owned = self.by_hand(s, ctx);
        // An AckO to the node of the row's UnblockEx rides on it (§3.1).
        let role = |t| p.sends().iter().find(|&&(u, _)| u == t).map(|&(_, r)| r);
        let rides = match (role(MsgType::AckO), role(MsgType::UnblockEx)) {
            (Some(a), Some(u)) => {
                a == u || self.dest(s, a, ctx.config) == self.dest(s, u, ctx.config)
            }
            _ => false,
        };
        for &(mtype, role) in p.sends() {
            match mtype {
                MsgType::AckO if rides => {}
                _ => {
                    let piggy = rides && mtype == MsgType::UnblockEx;
                    self.send(s, mtype, role, owned.as_ref(), piggy, ctx);
                }
            }
        }
        if p.moves_resources(ft) {
            self.move_resources(s, owned, ctx);
        }
        if cfg!(debug_assertions) {
            // The facets derived afterwards must be the row's next states:
            // each of them, and no state of the source's family unless the
            // row names one (`I` stands for an empty Cache family).
            let got = facets(&ids, self.cache.get(s.addr), s.h.map(|h| self.lines.at(h)));
            let family = |id: u8| self.table.states[usize::from(id)].family;
            let left = |g: &u8| family(*g) == family(p.src) && *g != ids.i;
            let ok = p.next().iter().all(|n| got.contains(n))
                && (p.next().iter().any(|&n| family(n) == family(p.src)) || !got.iter().any(left));
            let names = |f: &[u8]| self.table.facet_names(f);
            debug_assert!(
                ok,
                "{} @ {}: {} after it",
                names(&[p.src]),
                p.event,
                names(&got)
            );
        }
        if p.frees(Resource::WbMshr, ft) {
            self.retry_stalled(ctx);
        }
        if let (true, Some(h)) = (p.frees(Resource::AckBdPend, ft), s.h) {
            self.drain_deferred(h, ctx);
        }
    }

    /// The node `role` names for row `s`, where an `AckO` may ride.
    fn dest(&self, s: Step<'_>, role: Role, config: &SystemConfig) -> Option<NodeId> {
        match role {
            Role::Home => Some(home(s.addr, config)),
            Role::Sender => s.msg.map(|m| m.src),
            Role::AckPeer => {
                let st = self.lines.at(s.h?);
                st.ackbd.as_ref().map(|p| p.peer)
            }
            _ => None,
        }
    }

    /// What row `s` does that it cannot say, before its sends: the CPU op,
    /// the message taken into the records, the line's data and permission,
    /// the contents of the records it opens. Returns the owned data it hands
    /// over (a forward's `DataEx`, a writeback's `WbData`).
    fn by_hand(&mut self, s: Step<'_>, ctx: &mut Ctx<'_>) -> Option<Backup> {
        let (p, addr, me, ids) = (s.plan, s.addr, self.me, self.ids);
        let m = match (p.event, s.msg) {
            (Event::Cpu(op), _) => {
                self.cpu_op(s, op == transitions::CpuOp::Store, ctx);
                return None;
            }
            (Event::Victim, _) => {
                self.start_writeback(s, ctx);
                return None;
            }
            (Event::Msg(_), Some(m)) => m,
            _ => return None,
        };
        match m.mtype {
            MsgType::Data | MsgType::DataEx | MsgType::Ack => self.take_grant(s, m, ctx),
            // An Inv whose row names no Cache state but `I` drops the copy.
            MsgType::Inv
                if s.line.is_some() && !p.next().iter().any(|&n| n != ids.i && ids.is_cache(n)) =>
            {
                self.cache.remove(addr).expect("the row's line is resident");
                ctx.checker.set_perm(me, addr, Perm::None, ctx.now);
            }
            MsgType::FwdGetS | MsgType::FwdGetX if p.src == ids.mb || p.src == ids.eb => {
                // Ownership is blocked until the AckBD (§3.1 step 2): the
                // forward waits, and replays once the AckBD arrives.
                self.st_mut(s).deferred.push(m.clone());
                ctx.stats.deferred_forwards.incr();
            }
            MsgType::FwdGetS => {
                // The owner supplies the data and keeps a shared copy; a
                // writeback in flight supplies it from its buffer.
                if let Some(entry) = self.cache.get_mut(addr) {
                    entry.perm = L1Perm::O;
                    ctx.checker.set_perm(me, addr, Perm::Read, ctx.now);
                }
            }
            MsgType::FwdGetX => return self.surrender(s, m, ctx),
            MsgType::WbAck | MsgType::WbPing if ids.is_wb(p.src) => {
                let wb = self.st_mut(s).wb.clone().expect("the row's writeback");
                let data = wb.data?;
                if p.when == Guard::WbStale {
                    // Ownership moved while the Put was queued. If the
                    // forward has not reached us yet (possible on an
                    // unordered network), we still hold the data: reinstate
                    // the line so we can answer it.
                    let perm = if wb.was_exclusive {
                        L1Perm::M
                    } else {
                        L1Perm::O
                    };
                    ctx.checker.set_perm(me, addr, perm.checker_perm(), ctx.now);
                    let entry = L1Entry {
                        perm,
                        data,
                        blocked: false,
                        slot: s.h.expect("the writeback's slot"),
                    };
                    self.install_line(addr, entry, ctx);
                    return None;
                }
                // Clean (E) lines send their data too, marked clean.
                return Some(Backup {
                    data,
                    dirty: wb.dirty,
                    dest: m.src,
                    serial: wb.serial,
                    kind: BackupKind::Writeback,
                    timer: Timer::default(),
                });
            }
            MsgType::WbPing if p.src == ids.bw => {
                self.st_mut(s).backup.as_mut().expect("the backup").serial = m.serial;
            }
            MsgType::AckBD => {
                if let Some(entry) = self.cache.get_mut(addr) {
                    entry.blocked = false;
                }
            }
            _ => {}
        }
        None
    }

    /// A CPU op's row: a hit commits the op, a miss opens the MSHR, and an
    /// op behind a writeback of its line is parked until it resolves.
    fn cpu_op(&mut self, s: Step<'_>, store: bool, ctx: &mut Ctx<'_>) {
        let (addr, me) = (s.addr, self.me);
        if s.plan.allocs(Resource::Mshr, self.ft) {
            if store {
                ctx.stats.l1_store_misses.incr();
            } else {
                ctx.stats.l1_load_misses.incr();
            }
            let serial = self.fresh_serial();
            ctx.stats
                .l1_mshr_occupancy
                .record(self.miss_count as u64 + 1);
            self.miss_count += 1;
            let kind = [MissKind::Load, MissKind::Store][usize::from(store)];
            self.st_mut(s).miss = Some(MissMshr::new(kind, serial, ctx.now));
        } else if self.ids.is_wb(s.plan.src) {
            self.stalled_ops.push(CpuOp {
                addr,
                is_store: store,
            });
        } else if store {
            // A store hit at E is the silent E→M upgrade.
            let entry = self.cache.get_mut(addr).expect("a hit is resident");
            entry.perm = L1Perm::M;
            entry.data.write(me);
            let v = entry.data.version();
            ctx.stats.l1_store_hits.incr();
            ctx.checker.store_committed(me, addr, v, ctx.now);
        } else {
            let v = s.line.expect("a hit is resident").data.version();
            ctx.stats.l1_load_hits.incr();
            ctx.checker.load_observed(me, addr, v, ctx.now);
        }
    }

    /// A victim's row: the line's permission goes, and an owned line opens
    /// its writeback under a fresh serial.
    fn start_writeback(&mut self, s: Step<'_>, ctx: &mut Ctx<'_>) {
        let v = *s.line.expect("a victim event's entry");
        ctx.checker.set_perm(self.me, s.addr, Perm::None, ctx.now);
        if s.plan.allocs(Resource::WbMshr, self.ft) {
            let serial = self.fresh_serial();
            ctx.stats.l1_writebacks.incr();
            self.st_mut(s).wb = Some(WbMshr {
                data: Some(v.data),
                was_exclusive: matches!(v.perm, L1Perm::E | L1Perm::M),
                dirty: matches!(v.perm, L1Perm::M | L1Perm::O),
                serial,
                timer: Timer::default(),
            });
        }
    }

    /// Takes a grant or an invalidation ack into the miss; a row that frees
    /// the miss completes it: install, commit, the AckBD handshake's peer,
    /// the completion record, and the core told.
    fn take_grant(&mut self, s: Step<'_>, msg: &Message, ctx: &mut Ctx<'_>) {
        let (addr, me, ft) = (s.addr, self.me, self.ft);
        let miss = self.st_mut(s).miss.as_mut().expect("the row's miss");
        *miss = miss.after(msg);
        if !s.plan.frees(Resource::Mshr, ft) {
            return;
        }
        let m = miss.clone();
        // An exclusive grant of dirty data must install as M: a clean E could
        // later evict silently (WbNoData) and lose the only up-to-date copy.
        // A GetX is always answered exclusively.
        let perm = match (m.kind, m.granted_ex) {
            (MissKind::Load, false) => L1Perm::S,
            (MissKind::Load, true) if m.granted_dirty => L1Perm::M,
            (MissKind::Load, true) => L1Perm::E,
            (MissKind::Store, _) => L1Perm::M,
        };
        let blocked = ft && m.data.is_some() && m.granted_ex;
        if let Some(entry) = self.cache.get_mut(addr) {
            if let Some(d) = m.data {
                entry.data = d;
            }
            entry.perm = perm;
            entry.blocked = blocked;
        } else {
            let data = m
                .data
                .expect("miss completed without data and without a resident line");
            let entry = L1Entry {
                perm,
                data,
                blocked,
                slot: s.h.expect("the miss's slot"),
            };
            self.install_line(addr, entry, ctx);
        }
        ctx.checker.set_perm(me, addr, perm.checker_perm(), ctx.now);
        let store = m.kind == MissKind::Store;
        let entry = self.cache.get_mut(addr).expect("line just installed");
        if store {
            entry.data.write(me);
            let v = entry.data.version();
            ctx.checker.store_committed(me, addr, v, ctx.now);
        } else {
            let v = entry.data.version();
            ctx.checker.load_observed(me, addr, v, ctx.now);
        }
        let home = home(addr, ctx.config);
        let st = self.st_mut(s);
        if s.plan.allocs(Resource::AckBdPend, ft) {
            let peer = m.supplier.expect("exclusive data has a supplier");
            let timer = Timer::default();
            st.ackbd = Some(AckBdPending {
                peer,
                serial: m.serial,
                timer,
            });
        }
        let sent = match (m.granted_ex, blocked && m.supplier == Some(home)) {
            (false, _) => MsgType::Unblock,
            (true, false) => MsgType::UnblockEx,
            (true, true) => MsgType::AckO,
        };
        st.unblocked = Some(CompletedTx {
            was_store: store,
            sent,
        });
        ctx.stats.miss_latency.record(ctx.now - m.issued_at);
        ctx.complete(self.tile, addr, store, 1);
    }

    /// A `FwdGetX`'s row: an owner gives up its line, a writeback its data,
    /// a backup re-targets the new requester (§3.2: a reissued forward).
    fn surrender(&mut self, s: Step<'_>, msg: &Message, ctx: &mut Ctx<'_>) -> Option<Backup> {
        let (p, addr, me, ids) = (s.plan, s.addr, self.me, self.ids);
        let kind = BackupKind::ForwardedData {
            acks: msg.ack_count,
        };
        let owned = |data, dirty| Backup {
            data,
            dirty,
            dest: msg.requester,
            serial: msg.serial,
            kind,
            timer: Timer::default(),
        };
        if ids.is_wb(p.src) {
            // The Put raced with the forward: ownership goes to the
            // requester, and the eventual WbAck will be stale.
            let wb = self.st_mut(s).wb.as_mut().expect("the row's writeback");
            let data = wb.data.take().expect("a writeback holding data");
            return Some(owned(data, wb.dirty));
        }
        if p.src == ids.b || p.src == ids.bw {
            let b = self.st_mut(s).backup.as_mut().expect("the row's backup");
            (b.serial, b.dest, b.kind) = (msg.serial, msg.requester, kind);
            return None;
        }
        let entry = self.cache.remove(addr).expect("the row's line is resident");
        ctx.checker.set_perm(me, addr, Perm::None, ctx.now);
        if p.src == ids.s {
            // A non-owner holding S should never see FwdGetX: the copy is
            // dropped and the forward is stale.
            ctx.stale();
            return None;
        }
        let dirty = matches!(entry.perm, L1Perm::M | L1Perm::O);
        Some(owned(entry.data, dirty))
    }

    /// Sends row `s`'s `mtype` to `role`, built from the record it sends or
    /// re-sends (`owned` before the backup) or as a reply; `piggy`: an
    /// `AckO` rides on this `UnblockEx`.
    fn send(
        &self,
        s: Step<'_>,
        mtype: MsgType,
        role: Role,
        owned: Option<&Backup>,
        piggy: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let (me, addr) = (self.me, s.addr);
        let home = || home(addr, ctx.config);
        let st = s.h.map(|h| self.lines.at(h));
        let m = || s.msg.expect("a reply answers a message");
        let miss = || st.and_then(|st| st.miss.as_ref()).expect("the row's miss");
        let wb = || {
            st.and_then(|st| st.wb.as_ref())
                .expect("the row's writeback")
        };
        let out = match (mtype, role) {
            (MsgType::GetS | MsgType::GetX, _) => miss().request(addr, me, home()),
            (MsgType::Put, _) => wb().put(addr, me, home()),
            (MsgType::Unblock | MsgType::UnblockEx, Role::Home) => {
                Message::new(mtype, addr, me, home()).serial(miss().serial)
            }
            (MsgType::AckO, Role::AckPeer) => {
                let p = st.and_then(|st| st.ackbd.as_ref());
                p.expect("the row's handshake").acko(addr, me)
            }
            (MsgType::Ack, _) => Message::new(MsgType::Ack, addr, me, m().requester)
                .requester(m().requester)
                .serial(m().serial),
            (MsgType::Data, _) => {
                // The owner's data (the row keeps it), else the writeback's.
                let data = s.line.map(|e| e.data).or_else(|| wb().data);
                Message::new(MsgType::Data, addr, me, m().requester)
                    .requester(m().requester)
                    .serial(m().serial)
                    .data(data.expect("a forward's data"))
            }
            (MsgType::DataEx | MsgType::WbData, _) => {
                let b = owned.or_else(|| st.and_then(|st| st.backup.as_ref()));
                b.expect("the row's owned data").message(addr, me)
            }
            (MsgType::WbNoData, _) => {
                Message::new(MsgType::WbNoData, addr, me, m().src).serial(wb().serial)
            }
            (MsgType::OwnershipPing, _) => {
                let b = st
                    .and_then(|st| st.backup.as_ref())
                    .expect("the row's backup");
                Message::new(MsgType::OwnershipPing, addr, me, b.dest).serial(b.serial)
            }
            _ => m().reply(mtype),
        };
        ctx.send(if piggy { out.with_acko() } else { out });
    }

    /// Arms and disarms row `s`'s timers, drops the records it frees and
    /// keeps the backup it opens, `owned`, telling the checker.
    fn move_resources(&mut self, s: Step<'_>, owned: Option<Backup>, ctx: &mut Ctx<'_>) {
        let (p, ft, me) = (s.plan, self.ft, self.me);
        let st = self
            .lines
            .at_mut(s.h.expect("a row moving records has a slot"));
        for kind in p.timers(false, ft) {
            st.timer(kind).expect("a freed timer's record").disarm();
        }
        if p.frees(Resource::Mshr, ft) && st.miss.take().is_some() {
            self.miss_count -= 1;
        }
        if p.frees(Resource::WbMshr, ft) {
            st.wb = None;
        }
        if p.frees(Resource::AckBdPend, ft) {
            st.ackbd = None;
        }
        if p.frees(Resource::Backup, ft) && st.backup.take().is_some() {
            ctx.checker.backup_deleted(me, s.addr, ctx.now);
        }
        if p.allocs(Resource::Backup, ft) {
            st.backup = Some(owned.expect("the row hands over owned data"));
            ctx.checker.backup_created(me, s.addr, ctx.now);
        }
        for kind in p.timers(true, ft) {
            let slot = st.timer(kind).expect("an armed timer's record");
            slot.arm(&mut self.timers, s.addr, kind, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Fills, evictions, stalled ops and deferred forwards
    // ------------------------------------------------------------------

    /// Installs a line, evicting a victim if its set is full: a line neither
    /// blocked (§3.1) nor upgrading.
    fn install_line(&mut self, addr: LineAddr, entry: L1Entry, ctx: &mut Ctx<'_>) {
        let lines = &self.lines;
        let outcome = self.cache.insert(addr, entry, |_, e| {
            // Only a shared or owned line can be upgrading: E and M hit.
            let upgrading =
                matches!(e.perm, L1Perm::S | L1Perm::O) && lines.at(e.slot).miss.is_some();
            !e.blocked && !upgrading
        });
        if let Some((vaddr, ventry)) = outcome.evicted {
            self.evict(vaddr, &ventry, ctx);
        }
    }

    /// Runs the victim event at `vaddr`, whose entry `ventry` a fill just
    /// evicted: a writeback, or a silent drop.
    fn evict(&mut self, vaddr: LineAddr, ventry: &L1Entry, ctx: &mut Ctx<'_>) {
        let table = self.table;
        let h = Some(ventry.slot);
        let facets = facets(&self.ids, Some(ventry), h.map(|h| self.lines.at(h)));
        let dispatch = table.dispatch(&facets, Event::Victim, self.ft);
        if unexpected(dispatch, table, &facets, self.me, vaddr, Event::Victim, ctx) {
            return;
        }
        if let Dispatch::Rows(&[row, ..]) = dispatch {
            self.apply(self.step(h, vaddr, row, None, Some(ventry)), ctx);
        }
    }

    fn retry_stalled(&mut self, ctx: &mut Ctx<'_>) {
        // Same partition-once semantics as draining into fresh vectors, but
        // the ready buffer is reused across calls and the parked ops are
        // retained in place. Ops re-stalled by `cpu_access` below append
        // after the still-parked ones, preserving the original order.
        let mut ready = std::mem::take(&mut self.stalled_scratch);
        debug_assert!(ready.is_empty());
        let mut parked = std::mem::take(&mut self.stalled_ops);
        let lines = &self.lines;
        parked.retain(|op| {
            let still = lines.get(op.addr).is_some_and(|s| s.wb.is_some());
            if !still {
                ready.push(*op);
            }
            still
        });
        self.stalled_ops = parked;
        for op in ready.drain(..) {
            match self.cpu_access(op, ctx) {
                CpuOutcome::Hit => {
                    ctx.complete(self.tile, op.addr, op.is_store, ctx.config.l1_hit_cycles);
                }
                CpuOutcome::Miss => {}    // completion will come from the fill
                CpuOutcome::Stalled => {} // parked again (new wb appeared)
            }
        }
        self.stalled_scratch = ready;
    }

    /// Whether a `kind` firing for `addr` carrying `gen` is live: a record's
    /// timer slot carries it.
    pub(crate) fn carries(&mut self, addr: LineAddr, kind: TimeoutKind, gen: u64) -> bool {
        let h = self.lines.find(addr);
        h.and_then(|h| self.lines.at_mut(h).timer(kind))
            .is_some_and(|t| t.carries(gen))
    }

    /// Replays the forwards deferred while slot `h`'s line was blocked
    /// (§3.1), in arrival order, through a reused buffer.
    fn drain_deferred(&mut self, h: u32, ctx: &mut Ctx<'_>) {
        let mut drained = std::mem::take(&mut self.deferred_scratch);
        debug_assert!(drained.is_empty());
        std::mem::swap(&mut drained, &mut self.lines.at_mut(h).deferred);
        for m in drained.drain(..) {
            self.handle_message(m, ctx);
        }
        self.deferred_scratch = drained;
    }

    /// This cache running `table`, whose state ids are `ids` (`search`).
    pub(crate) fn with_table(self, table: &'static ControllerTable, ids: L1Ids) -> Self {
        L1Controller { table, ids, ..self }
    }

    /// Hashes the protocol state of `addrs` and the serial counter: each
    /// line's permission, blocked bit and data, its records and its parked
    /// ops; not its slot, LRU position or timer generations.
    pub(crate) fn hash_state(&self, addrs: &[LineAddr], h: &mut impl Hasher) {
        for &addr in addrs {
            let entry = self.cache.get(addr).map(|e| (e.perm, e.blocked, e.data));
            (entry, self.lines.get(addr)).hash(h);
        }
        (&self.stalled_ops, &self.serials).hash(h);
    }

    /// Every copy of `addr`'s data this cache holds: the line, the miss's
    /// grant, the writeback's and the backup's data.
    pub(crate) fn copies(&self, addr: LineAddr) -> impl Iterator<Item = LineData> + '_ {
        let st = self.lines.get(addr);
        let entry = self.cache.get(addr).map(|e| e.data);
        let miss = st.and_then(|s| s.miss.as_ref()).and_then(|m| m.data);
        let wb = st.and_then(|s| s.wb.as_ref()).and_then(|w| w.data);
        let backup = st.and_then(|s| s.backup.as_ref()).map(|b| b.data);
        [entry, miss, wb, backup].into_iter().flatten()
    }
}

#[cfg(test)]
#[path = "l1_tests.rs"]
mod tests;
