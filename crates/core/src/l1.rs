//! The L1 cache controller.
//!
//! Implements the requester side of both protocols:
//!
//! * **DirCMP** (paper §2): MOESI stable states, misses through the home L2
//!   bank, invalidation acks collected at the requester, three-phase
//!   writebacks.
//! * **FtDirCMP** (paper §3): on top of DirCMP, the *backup* state when
//!   sending owned data (§3.1 step 1), the *blocked-ownership* states
//!   `Mb`/`Eb`/`Ob` while waiting for the backup-deletion acknowledgment
//!   (§3.1 steps 2–4), the lost-request and lost-backup-deletion-ack
//!   timeouts (§3.2, §3.4), request serial numbers with reissue (§3.5), and
//!   the recovery responses to `UnblockPing`/`WbPing`/`OwnershipPing`.
//!
//! Per-line transient state (miss/writeback MSHRs, backups, pending
//! handshakes, deferred forwards) lives in a single [`LineTable`] slab: one
//! lookup per message resolves every facet of a line, instead of one hash
//! probe per facet (see `linetab` for the iteration-order contract).

use ftdircmp_sim::{Cycle, DetRng};

use crate::cache::SetAssocCache;
use crate::checker::Perm;
use crate::config::SystemConfig;
use crate::data::LineData;
use crate::ids::{LineAddr, NodeId};
use crate::linetab::LineTable;
use crate::msg::{Message, MsgType};
use crate::proto::{table_check, Ctx, Facets, TimeoutKind, Timer, Timers};
use crate::serial::{SerialAllocator, SerialNum};

/// Stable L1 permission states (MOESI; `I` is represented by absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    fn is_exclusive(self) -> bool {
        matches!(self, L1Perm::E | L1Perm::M)
    }

    fn is_owner(self) -> bool {
        matches!(self, L1Perm::E | L1Perm::M | L1Perm::O)
    }

    fn checker_perm(self) -> Perm {
        match self {
            L1Perm::S | L1Perm::O => Perm::Read,
            L1Perm::E | L1Perm::M => Perm::Write,
        }
    }
}

/// One resident L1 line. `blocked` marks the blocked-ownership states
/// (`Mb`/`Eb`/`Ob`): the miss is satisfied but ownership must not move
/// until the backup-deletion acknowledgment arrives (paper §3.1 step 2).
#[derive(Debug, Clone)]
struct L1Entry {
    perm: L1Perm,
    data: LineData,
    blocked: bool,
}

/// A CPU memory operation presented to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MissKind {
    Load,
    Store,
}

#[derive(Debug, Clone)]
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
    /// The request this miss issues, and reissues, to the line's home bank.
    fn request(&self, addr: LineAddr, me: NodeId, home: NodeId) -> Message {
        let mtype = match self.kind {
            MissKind::Load => MsgType::GetS,
            MissKind::Store => MsgType::GetX,
        };
        Message::new(mtype, addr, me, home).serial(self.serial)
    }
}

#[derive(Debug, Clone)]
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackupKind {
    /// Backup created when answering a forwarded request with owned data.
    ForwardedData {
        /// Invalidation-ack count the reissued `DataEx` must carry.
        acks: u8,
    },
    /// Backup created when sending `WbData` (kept in the writeback buffer).
    Writeback,
}

#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Copy)]
struct CompletedTx {
    was_store: bool,
    exclusive: bool,
    acko: bool,
}

#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Default)]
struct L1LineState {
    miss: Option<MissMshr>,
    wb: Option<WbMshr>,
    backup: Option<Backup>,
    ackbd: Option<AckBdPending>,
    deferred: Vec<Message>,
    unblocked: Option<CompletedTx>,
}

/// The L1 cache controller for one tile.
#[derive(Debug, Clone)]
pub(crate) struct L1Controller {
    tile: u8,
    me: NodeId,
    ft: bool,
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
        L1Controller {
            tile,
            me: NodeId::L1(tile),
            ft: config.protocol.is_fault_tolerant(),
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

    fn home(&self, addr: LineAddr, config: &SystemConfig) -> NodeId {
        NodeId::L2(addr.home_bank(config.tiles))
    }

    fn fresh_serial(&mut self) -> SerialNum {
        if self.ft {
            self.serials.fresh()
        } else {
            SerialNum::ZERO
        }
    }

    // ------------------------------------------------------------------
    // CPU interface
    // ------------------------------------------------------------------

    /// Presents a CPU memory operation.
    pub(crate) fn cpu_access(&mut self, op: CpuOp, ctx: &mut Ctx<'_>) -> CpuOutcome {
        debug_assert!(
            self.lines.get(op.addr).is_none_or(|s| s.miss.is_none()),
            "core issued a second op to a line with a miss in flight"
        );
        if let Some(entry) = self.cache.get_mut(op.addr) {
            if !op.is_store {
                let version = entry.data.version();
                ctx.stats.l1_load_hits.incr();
                ctx.checker
                    .load_observed(self.me, op.addr, version, ctx.now);
                return CpuOutcome::Hit;
            }
            match entry.perm {
                L1Perm::M => {
                    entry.data.write(self.me);
                    let v = entry.data.version();
                    ctx.stats.l1_store_hits.incr();
                    ctx.checker.store_committed(self.me, op.addr, v, ctx.now);
                    return CpuOutcome::Hit;
                }
                L1Perm::E => {
                    // Silent E→M upgrade.
                    entry.perm = L1Perm::M;
                    entry.data.write(self.me);
                    let v = entry.data.version();
                    ctx.stats.l1_store_hits.incr();
                    ctx.checker.store_committed(self.me, op.addr, v, ctx.now);
                    return CpuOutcome::Hit;
                }
                L1Perm::S | L1Perm::O => {
                    // Upgrade miss: fall through keeping the entry.
                }
            }
        }
        if self.lines.get(op.addr).is_some_and(|s| s.wb.is_some()) {
            // A writeback of this very line is in flight; park the op.
            self.stalled_ops.push(op);
            return CpuOutcome::Stalled;
        }
        self.issue_miss(op, ctx);
        CpuOutcome::Miss
    }

    fn issue_miss(&mut self, op: CpuOp, ctx: &mut Ctx<'_>) {
        let kind = if op.is_store {
            MissKind::Store
        } else {
            MissKind::Load
        };
        if op.is_store {
            ctx.stats.l1_store_misses.incr();
        } else {
            ctx.stats.l1_load_misses.incr();
        }
        let serial = self.fresh_serial();
        let mut timer = Timer::default();
        if self.ft {
            timer.arm(&mut self.timers, op.addr, TimeoutKind::LostRequest, ctx);
        }
        ctx.stats
            .l1_mshr_occupancy
            .record(self.miss_count as u64 + 1);
        self.miss_count += 1;
        let miss = MissMshr {
            kind,
            serial,
            data: None,
            granted_ex: false,
            granted_dirty: false,
            responded: false,
            acks_needed: 0,
            acks_got: 0,
            supplier: None,
            issued_at: ctx.now,
            timer,
        };
        let home = self.home(op.addr, ctx.config);
        ctx.send(miss.request(op.addr, self.me, home));
        self.lines.entry(op.addr).miss = Some(miss);
    }

    fn try_complete(&mut self, addr: LineAddr, ctx: &mut Ctx<'_>) {
        let Some(st) = self.lines.get_mut(addr) else {
            return;
        };
        let Some(m) = st.miss.as_ref() else {
            return;
        };
        if !m.responded {
            return;
        }
        if m.granted_ex && m.acks_got < m.acks_needed {
            return;
        }
        let m = st.miss.take().expect("just checked");
        self.miss_count -= 1;
        let supplier = m.supplier;
        let data_came = m.data.is_some();

        // Decide the final permission. An exclusive grant of dirty data must
        // install as M: a clean E could later evict silently (WbNoData) and
        // lose the only up-to-date copy.
        let perm = match (m.kind, m.granted_ex) {
            (MissKind::Load, false) => L1Perm::S,
            (MissKind::Load, true) if m.granted_dirty => L1Perm::M,
            (MissKind::Load, true) => L1Perm::E,
            (MissKind::Store, true) => L1Perm::M,
            (MissKind::Store, false) => {
                // A GetX is always answered exclusively; treat defensively.
                L1Perm::M
            }
        };
        let blocked = self.ft && data_came && m.granted_ex;

        // Install or update the line.
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
            self.install_line(
                addr,
                L1Entry {
                    perm,
                    data,
                    blocked,
                },
                ctx,
            );
        }
        ctx.checker
            .set_perm(self.me, addr, perm.checker_perm(), ctx.now);

        // Commit the CPU operation.
        let entry = self.cache.get_mut(addr).expect("line just installed");
        match m.kind {
            MissKind::Store => {
                entry.data.write(self.me);
                let v = entry.data.version();
                ctx.checker.store_committed(self.me, addr, v, ctx.now);
            }
            MissKind::Load => {
                let v = entry.data.version();
                ctx.checker.load_observed(self.me, addr, v, ctx.now);
            }
        }

        // Unblock the directory; run the FT ownership handshake (§3.1).
        let home = self.home(addr, ctx.config);
        let unblock_type = if m.granted_ex {
            MsgType::UnblockEx
        } else {
            MsgType::Unblock
        };
        let mut unblock = Message::new(unblock_type, addr, self.me, home).serial(m.serial);
        if blocked {
            let mut pending = AckBdPending {
                peer: supplier.expect("exclusive data has a supplier"),
                serial: m.serial,
                timer: Timer::default(),
            };
            if pending.peer == home {
                // AckO piggybacks on the UnblockEx (§3.1).
                unblock = unblock.with_acko();
            } else {
                ctx.send(pending.acko(addr, self.me));
            }
            pending
                .timer
                .arm(&mut self.timers, addr, TimeoutKind::LostAckBd, ctx);
            self.lines.entry(addr).ackbd = Some(pending);
        }
        self.lines.entry(addr).unblocked = Some(CompletedTx {
            was_store: m.kind == MissKind::Store,
            exclusive: m.granted_ex,
            acko: unblock.piggy_acko,
        });
        ctx.send(unblock);

        ctx.stats.miss_latency.record(ctx.now - m.issued_at);
        ctx.complete(self.tile, addr, m.kind == MissKind::Store, 1);
    }

    fn install_line(&mut self, addr: LineAddr, entry: L1Entry, ctx: &mut Ctx<'_>) {
        let outcome = self.cache.insert(addr, entry, |_, e| !e.blocked);
        if let Some((vaddr, ventry)) = outcome.evicted {
            self.evict(vaddr, ventry, ctx);
        }
    }

    fn evict(&mut self, vaddr: LineAddr, ventry: L1Entry, ctx: &mut Ctx<'_>) {
        debug_assert!(!ventry.blocked);
        match ventry.perm {
            L1Perm::S => {
                // Silent eviction of a clean shared line.
                ctx.checker.set_perm(self.me, vaddr, Perm::None, ctx.now);
            }
            L1Perm::M | L1Perm::E | L1Perm::O => {
                self.start_writeback(vaddr, ventry, ctx);
            }
        }
    }

    fn start_writeback(&mut self, vaddr: LineAddr, ventry: L1Entry, ctx: &mut Ctx<'_>) {
        let serial = self.fresh_serial();
        let mut timer = Timer::default();
        if self.ft {
            timer.arm(&mut self.timers, vaddr, TimeoutKind::LostRequest, ctx);
        }
        let wb = WbMshr {
            data: Some(ventry.data),
            was_exclusive: ventry.perm.is_exclusive(),
            dirty: matches!(ventry.perm, L1Perm::M | L1Perm::O),
            serial,
            timer,
        };
        ctx.checker.set_perm(self.me, vaddr, Perm::None, ctx.now);
        ctx.stats.l1_writebacks.incr();
        let home = self.home(vaddr, ctx.config);
        ctx.send(wb.put(vaddr, self.me, home));
        self.lines.entry(vaddr).wb = Some(wb);
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
                CpuOutcome::Miss => {} // completion will come from try_complete
                CpuOutcome::Stalled => {} // parked again (new wb appeared)
            }
        }
        self.stalled_scratch = ready;
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// The line's current facet configuration, in the state vocabulary of
    /// the reified transition table ([`crate::transitions::l1_table`]).
    /// The first entry is always the mandatory `Cache` facet.
    pub(crate) fn table_facets(&self, addr: LineAddr) -> Facets {
        let ids = &crate::transitions::l1().1;
        let mut f = Facets::new();
        let cached = self.cache.get(addr);
        f.push(match cached {
            None => ids.i,
            Some(e) => match (e.perm, e.blocked) {
                (L1Perm::S, _) => ids.s,
                (L1Perm::O, _) => ids.o,
                (L1Perm::E, false) => ids.e,
                (L1Perm::E, true) => ids.eb,
                (L1Perm::M, false) => ids.m,
                (L1Perm::M, true) => ids.mb,
            },
        });
        let st = self.lines.get(addr);
        if let Some(m) = st.and_then(|s| s.miss.as_ref()) {
            f.push(match (m.kind, cached.map(|e| e.perm)) {
                (MissKind::Load, _) => ids.is,
                (MissKind::Store, Some(L1Perm::S)) => ids.sm,
                (MissKind::Store, Some(L1Perm::O)) => ids.om,
                (MissKind::Store, _) => ids.im,
            });
        }
        if let Some(w) = st.and_then(|s| s.wb.as_ref()) {
            f.push(match (w.data.is_some(), w.was_exclusive, w.dirty) {
                (false, _, _) => ids.ii,
                (true, true, true) => ids.mi,
                (true, true, false) => ids.ei,
                (true, false, _) => ids.oi,
            });
        }
        if let Some(b) = st.and_then(|s| s.backup.as_ref()) {
            f.push(match b.kind {
                BackupKind::ForwardedData { .. } => ids.b,
                BackupKind::Writeback => ids.bw,
            });
        }
        f
    }

    /// Handles an incoming network message.
    pub(crate) fn handle_message(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let facets = || self.table_facets(msg.addr);
        table_check(crate::transitions::l1_table(), facets, self.me, &msg, ctx);
        match msg.mtype {
            MsgType::Data => self.on_data(msg, false, ctx),
            MsgType::DataEx => self.on_data(msg, true, ctx),
            MsgType::Ack => self.on_ack(msg, ctx),
            MsgType::Inv => self.on_inv(msg, ctx),
            MsgType::FwdGetS => self.on_fwd_gets(msg, ctx),
            MsgType::FwdGetX => self.on_fwd_getx(msg, ctx),
            MsgType::WbAck => self.on_wback(msg, ctx),
            MsgType::AckO => self.on_acko(msg, ctx),
            MsgType::AckBD => self.on_ackbd(msg, ctx),
            MsgType::UnblockPing => self.on_unblock_ping(msg, ctx),
            MsgType::WbPing => self.on_wb_ping(msg, ctx),
            MsgType::OwnershipPing => self.on_ownership_ping(msg, ctx),
            MsgType::NackO => self.on_nacko(msg, ctx),
            MsgType::GetX
            | MsgType::GetS
            | MsgType::Put
            | MsgType::Unblock
            | MsgType::UnblockEx
            | MsgType::WbData
            | MsgType::WbNoData
            | MsgType::WbCancel => {
                // Misrouted: no L1 handler. `table_check` above recorded the
                // protocol violation; drop the message instead of panicking.
            }
        }
    }

    fn on_data(&mut self, msg: Message, exclusive: bool, ctx: &mut Ctx<'_>) {
        let Some(m) = self.lines.get_mut(msg.addr).and_then(|s| s.miss.as_mut()) else {
            // The transaction already finished: this is a duplicate from a
            // reissue whose original was merely slow, i.e. a false positive.
            ctx.stats.stale_discards.incr();
            ctx.stats.false_positives.incr();
            return;
        };
        if self.ft && m.serial != msg.serial {
            ctx.stats.stale_discards.incr();
            ctx.stats.false_positives.incr();
            return;
        }
        m.responded = true;
        m.granted_ex = exclusive;
        m.granted_dirty = msg.data_dirty;
        m.acks_needed = msg.ack_count;
        m.supplier = Some(msg.src);
        if msg.data.is_some() {
            m.data = msg.data;
        }
        self.try_complete(msg.addr, ctx);
    }

    fn on_ack(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let Some(m) = self.lines.get_mut(msg.addr).and_then(|s| s.miss.as_mut()) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if self.ft && m.serial != msg.serial {
            // The stale acknowledgment of the paper's Figure 2: must be
            // discarded or it could be mis-counted towards the reissued
            // request.
            ctx.stats.stale_discards.incr();
            return;
        }
        m.acks_got += 1;
        self.try_complete(msg.addr, ctx);
    }

    fn on_inv(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // Always acknowledge: the directory's sharer list may be stale
        // (silent S evictions), and the requester is counting.
        ctx.send(
            Message::new(MsgType::Ack, msg.addr, self.me, msg.requester)
                .requester(msg.requester)
                .serial(msg.serial),
        );
        if let Some(entry) = self.cache.get(msg.addr) {
            if entry.perm.is_exclusive() || entry.blocked {
                // A stale Inv: from a reissued older transaction (FtDirCMP)
                // or delayed past a complete later transaction that made
                // this node the owner (possible under plain DirCMP with an
                // adversarial schedule).  The Ack above is stale and will
                // be discarded by its requester; keep the line.
                return;
            }
            self.cache.remove(msg.addr);
            ctx.checker.set_perm(self.me, msg.addr, Perm::None, ctx.now);
        }
        // An upgrade in progress (SM/OM) keeps its MSHR: the full data will
        // arrive with the eventual DataEx.
    }

    fn on_fwd_gets(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let mut data = None;
        if let Some(entry) = self.cache.get_mut(msg.addr) {
            if entry.blocked {
                self.lines.entry(msg.addr).deferred.push(msg);
                ctx.stats.deferred_forwards.incr();
                return;
            }
            if entry.perm.is_owner() {
                data = Some(entry.data);
                entry.perm = L1Perm::O;
                ctx.checker.set_perm(self.me, msg.addr, Perm::Read, ctx.now);
            }
        }
        // An owner with a writeback in flight still supplies data.
        let wb_data = || self.lines.get(msg.addr)?.wb.as_ref()?.data;
        let Some(data) = data.or_else(wb_data) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        ctx.send(
            Message::new(MsgType::Data, msg.addr, self.me, msg.requester)
                .requester(msg.requester)
                .serial(msg.serial)
                .data(data),
        );
    }

    fn on_fwd_getx(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        if let Some(entry) = self.cache.get(msg.addr) {
            if entry.blocked {
                self.lines.entry(msg.addr).deferred.push(msg);
                ctx.stats.deferred_forwards.incr();
                return;
            }
            if entry.perm.is_owner() {
                let dirty = matches!(entry.perm, L1Perm::M | L1Perm::O);
                let entry = self.cache.remove(msg.addr).expect("just found");
                self.send_owned_data(msg.addr, entry.data, dirty, &msg, ctx);
                ctx.checker.set_perm(self.me, msg.addr, Perm::None, ctx.now);
                return;
            }
            // A non-owner holding S should never see FwdGetX; drop the copy
            // defensively and fall through to the stale path.
            self.cache.remove(msg.addr);
            ctx.checker.set_perm(self.me, msg.addr, Perm::None, ctx.now);
            ctx.stats.stale_discards.incr();
            return;
        }
        if let Some(wbm) = self.lines.get_mut(msg.addr).and_then(|s| s.wb.as_mut()) {
            let dirty = wbm.dirty;
            if let Some(data) = wbm.data.take() {
                // Put raced with the forward; ownership goes to the
                // requester, and the eventual WbAck will be stale.
                self.send_owned_data(msg.addr, data, dirty, &msg, ctx);
                return;
            }
        }
        if let Some(b) = self.lines.get_mut(msg.addr).and_then(|s| s.backup.as_mut()) {
            // Reissued forward: resend from the backup with the new serial
            // (§3.2: a node in backup state must detect reissued requests).
            b.serial = msg.serial;
            b.dest = msg.requester;
            b.kind = BackupKind::ForwardedData {
                acks: msg.ack_count,
            };
            ctx.send(b.message(msg.addr, self.me));
            return;
        }
        ctx.stats.stale_discards.incr();
    }

    /// Sends owned data in response to a forwarded request; under FtDirCMP
    /// the data is retained as a backup until the ownership acknowledgment
    /// arrives (§3.1 step 1).
    fn send_owned_data(
        &mut self,
        addr: LineAddr,
        data: LineData,
        dirty: bool,
        msg: &Message,
        ctx: &mut Ctx<'_>,
    ) {
        let backup = Backup {
            data,
            dirty,
            dest: msg.requester,
            serial: msg.serial,
            kind: BackupKind::ForwardedData {
                acks: msg.ack_count,
            },
            timer: Timer::default(),
        };
        self.send_and_keep(addr, backup, ctx);
    }

    /// Sends `backup`'s owned data; under FtDirCMP the data is kept as a
    /// backup, with its lost-data timer armed, until the ownership
    /// acknowledgment arrives.
    fn send_and_keep(&mut self, addr: LineAddr, mut backup: Backup, ctx: &mut Ctx<'_>) {
        ctx.send(backup.message(addr, self.me));
        if self.ft {
            backup
                .timer
                .arm(&mut self.timers, addr, TimeoutKind::LostData, ctx);
            self.lines.entry(addr).backup = Some(backup);
            ctx.checker.backup_created(self.me, addr, ctx.now);
        }
    }

    fn on_wback(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let Some(st) = self.lines.get_mut(msg.addr) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        let Some(wbm) = st.wb.as_ref() else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if self.ft && wbm.serial != msg.serial {
            ctx.stats.stale_discards.incr();
            return;
        }
        let wbm = st.wb.take().expect("just checked");
        if msg.wb_stale {
            // Ownership moved while the Put was queued. If the forward has
            // not reached us yet (possible on an unordered network), we
            // still hold the data: reinstate the line so we can answer it.
            if let Some(data) = wbm.data {
                let perm = if wbm.was_exclusive {
                    L1Perm::M
                } else {
                    L1Perm::O
                };
                ctx.checker
                    .set_perm(self.me, msg.addr, perm.checker_perm(), ctx.now);
                self.install_line(
                    msg.addr,
                    L1Entry {
                        perm,
                        data,
                        blocked: false,
                    },
                    ctx,
                );
            }
            self.retry_stalled(ctx);
            return;
        }
        if let Some(data) = wbm.data {
            // Clean (E) lines send their data too, marked clean.
            let backup = Backup {
                data,
                dirty: wbm.dirty,
                dest: msg.src,
                serial: msg.serial,
                kind: BackupKind::Writeback,
                timer: Timer::default(),
            };
            self.send_and_keep(msg.addr, backup, ctx);
        } else {
            // The data was already surrendered to a forward.
            ctx.send(msg.reply(MsgType::WbNoData));
        }
        self.retry_stalled(ctx);
    }

    fn on_acko(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let had_backup = self
            .lines
            .get_mut(msg.addr)
            .is_some_and(|s| s.backup.take().is_some());
        if had_backup {
            ctx.checker.backup_deleted(self.me, msg.addr, ctx.now);
        }
        // Respond even without a backup: a reissued AckO after the original
        // round trip completed must still be answered (§3.4).
        ctx.send(msg.reply(MsgType::AckBD));
    }

    fn on_ackbd(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let Some(st) = self.lines.get_mut(msg.addr) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        let Some(p) = st.ackbd.as_ref() else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if p.serial != msg.serial {
            ctx.stats.stale_discards.incr();
            return;
        }
        st.ackbd = None;
        // Drain forwards deferred while in the blocked-ownership state,
        // in place: swap the queue into a reused scratch buffer instead of
        // removing/reinserting a heap-allocated Vec per wakeup.
        let mut drained = std::mem::take(&mut self.deferred_scratch);
        debug_assert!(drained.is_empty());
        std::mem::swap(&mut drained, &mut st.deferred);
        if let Some(entry) = self.cache.get_mut(msg.addr) {
            entry.blocked = false;
        }
        for m in drained.drain(..) {
            self.handle_message(m, ctx);
        }
        self.deferred_scratch = drained;
    }

    fn on_unblock_ping(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        // Which transaction does the ping refer to? The directory serializes
        // transactions per line, and (our earlier same-kind rule) a pending
        // request of the same kind as the open transaction always merges
        // into it — so the *kind* carried by the ping identifies the
        // transaction unambiguously, where small serial numbers could
        // collide across transactions.
        //
        // 1. The open transaction is our current, unresolved miss: ignore
        //    (§3.3) — our own lost-request reissue is the recovery path.
        let st = self.lines.get(msg.addr);
        if let Some(m) = st.and_then(|s| s.miss.as_ref()) {
            if (m.kind == MissKind::Store) == msg.ping_for_store {
                return;
            }
        }
        // 2. We completed a transaction of that kind and its unblock was
        //    lost: resend exactly what we sent then.
        if let Some(c) = st.and_then(|s| s.unblocked.as_ref()) {
            if c.was_store == msg.ping_for_store {
                let mtype = if c.exclusive {
                    MsgType::UnblockEx
                } else {
                    MsgType::Unblock
                };
                let mut reply = msg.reply(mtype);
                if c.acko {
                    reply = reply.with_acko();
                }
                ctx.send(reply);
                return;
            }
        }
        // 3. No record (possible only for stale pings or pre-record history):
        //    answer conservatively from the current cache state.
        let reply_type = if let Some(entry) = self.cache.get(msg.addr) {
            if entry.perm.is_exclusive() {
                MsgType::UnblockEx
            } else {
                MsgType::Unblock
            }
        } else if let Some(wbm) = st.and_then(|s| s.wb.as_ref()) {
            if wbm.was_exclusive {
                MsgType::UnblockEx
            } else {
                MsgType::Unblock
            }
        } else {
            MsgType::Unblock
        };
        let mut reply = msg.reply(reply_type);
        if reply_type == MsgType::UnblockEx {
            if let Some(p) = st.and_then(|s| s.ackbd.as_ref()) {
                if p.peer == msg.src {
                    reply = reply.with_acko();
                }
            }
        }
        ctx.send(reply);
    }

    fn on_wb_ping(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        if let Some(wbm) = self.lines.get(msg.addr).and_then(|s| s.wb.as_ref()) {
            // Our WbAck was lost: the ping substitutes for it (it carries
            // the same serial the L2's transaction expects).
            let as_wback =
                Message::new(MsgType::WbAck, msg.addr, msg.src, self.me).serial(wbm.serial);
            self.on_wback(as_wback, ctx);
            return;
        }
        if let Some(b) = self.lines.get_mut(msg.addr).and_then(|s| s.backup.as_mut()) {
            if b.kind == BackupKind::Writeback && b.dest == msg.src {
                b.serial = msg.serial;
                ctx.send(b.message(msg.addr, self.me));
                return;
            }
        }
        ctx.send(msg.reply(MsgType::WbCancel));
    }

    fn on_ownership_ping(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let st = self.lines.get(msg.addr);
        let have_ownership = self.cache.contains(msg.addr)
            || st.is_some_and(|s| s.wb.is_some() || s.backup.is_some());
        let pending_miss = st.is_some_and(|s| s.miss.is_some());
        let reply = if have_ownership && !pending_miss {
            MsgType::AckO
        } else {
            MsgType::NackO
        };
        ctx.send(msg.reply(reply));
    }

    fn on_nacko(&mut self, msg: Message, ctx: &mut Ctx<'_>) {
        let Some(b) = self.lines.get(msg.addr).and_then(|s| s.backup.as_ref()) else {
            ctx.stats.stale_discards.incr();
            return;
        };
        if b.serial != msg.serial {
            ctx.stats.stale_discards.incr();
            return;
        }
        // The destination never received the owned data: resend it.
        ctx.send(b.message(msg.addr, self.me));
    }

    // ------------------------------------------------------------------
    // Timeouts
    // ------------------------------------------------------------------

    /// Handles a fired timeout; stale generations are ignored.
    pub(crate) fn handle_timeout(
        &mut self,
        kind: TimeoutKind,
        addr: LineAddr,
        gen: u64,
        ctx: &mut Ctx<'_>,
    ) {
        match kind {
            TimeoutKind::LostRequest => self.on_lost_request(addr, gen, ctx),
            TimeoutKind::LostAckBd => self.on_lost_ackbd(addr, gen, ctx),
            TimeoutKind::LostData => self.on_lost_data(addr, gen, ctx),
            TimeoutKind::LostUnblock => {
                // The table declares this pair impossible: L1s never arm
                // lost-unblock timers. Record it instead of panicking.
                ctx.checker.protocol_error(
                    self.me,
                    addr,
                    "lost-unblock timeout fired at an L1 (never armed)",
                    ctx.now,
                );
            }
        }
    }

    fn on_lost_request(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        // Reissue serials come from the same per-node sequential stream as
        // fresh requests: still "sequentially increasing" (§3.5), but two
        // *different* transactions by this node can never collide before the
        // stream wraps — a chain of `.next()` bumps could alias the serial
        // the allocator hands to the node's next request.
        let fresh = self.serials.fresh();
        let kind = TimeoutKind::LostRequest;
        let Some(st) = self.lines.get_mut(addr) else {
            return;
        };
        if let Some(m) = st.miss.as_mut() {
            if !m.timer.fire(gen, &mut self.timers, kind, ctx) {
                return;
            }
            ctx.stats.reissues.incr();
            m.serial = fresh;
            m.responded = false;
            m.granted_ex = false;
            m.granted_dirty = false;
            m.data = None;
            m.acks_needed = 0;
            m.acks_got = 0;
            m.supplier = None;
            let home = NodeId::L2(addr.home_bank(ctx.config.tiles));
            ctx.send(m.request(addr, self.me, home));
            m.timer.rearm(&self.timers, addr, kind, ctx);
            return;
        }
        if let Some(w) = st.wb.as_mut() {
            if !w.timer.fire(gen, &mut self.timers, kind, ctx) {
                return;
            }
            ctx.stats.reissues.incr();
            w.serial = fresh;
            let home = NodeId::L2(addr.home_bank(ctx.config.tiles));
            ctx.send(w.put(addr, self.me, home));
            w.timer.rearm(&self.timers, addr, kind, ctx);
        }
    }

    fn on_lost_ackbd(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        let fresh = self.serials.fresh();
        let kind = TimeoutKind::LostAckBd;
        let Some(p) = self.lines.get_mut(addr).and_then(|s| s.ackbd.as_mut()) else {
            return;
        };
        if !p.timer.fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        p.serial = fresh;
        ctx.send(p.acko(addr, self.me));
        p.timer.rearm(&self.timers, addr, kind, ctx);
    }

    fn on_lost_data(&mut self, addr: LineAddr, gen: u64, ctx: &mut Ctx<'_>) {
        let kind = TimeoutKind::LostData;
        let Some(b) = self.lines.get_mut(addr).and_then(|s| s.backup.as_mut()) else {
            return;
        };
        if !b.timer.fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        ctx.send(Message::new(MsgType::OwnershipPing, addr, self.me, b.dest).serial(b.serial));
        b.timer.rearm(&self.timers, addr, kind, ctx);
    }
}

#[cfg(test)]
#[path = "l1_tests.rs"]
mod tests;
