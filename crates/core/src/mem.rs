//! The memory controller: directory of last resort and backing store.
//!
//! Each controller serves a line-interleaved slice of the address space.
//! From the coherence protocol's point of view it is just another node
//! (paper §3.1 footnote): it grants exclusive data to the home L2 bank,
//! coordinates L2 writebacks with the same three-phase scheme, and — under
//! FtDirCMP — participates in the ownership handshakes. Its resident copy
//! doubles as the backup for outgoing data, so fills need no extra storage.
//!
//! The controller runs from its reified table
//! ([`crate::transitions::mem_table`]): every message and timeout is
//! dispatched to a row, which runs if its event's guard holds. Only what a
//! row cannot say is written here: message contents, the written-back
//! data, and the admission of a request that finds its line busy.

use ftdircmp_sim::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

use crate::data::LineData;
use crate::ids::{LineAddr, NodeId};
use crate::msg::{Message, MsgType};
use crate::proto::{admit_busy, unexpected, Ctx, Facets, TimeoutKind, Timer, Timers};
use crate::serial::SerialNum;
use crate::transitions::{mem, Dispatch, Event, Resource, Role};

#[derive(Debug, Clone, Copy)]
struct MemTbe {
    blocker: NodeId,
    serial: SerialNum,
    /// The TBE facet's state id: `WaitUnblock`, `WaitWbData` or `WaitAckBd`.
    stage: u8,
    unblock: Timer,
    ackbd: Timer,
    acko_serial: SerialNum,
}

impl MemTbe {
    /// The timer slot of `kind`.
    fn timer(&mut self, kind: TimeoutKind) -> &mut Timer {
        match kind {
            TimeoutKind::LostAckBd => &mut self.ackbd,
            _ => &mut self.unblock,
        }
    }
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
                "{} tbe {a} stage={} blocker={} serial={}\n",
                self.me,
                mem().0.facet_names(&[t.stage]),
                t.blocker,
                t.serial
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

    /// The line's facets in dispatch order, in the state vocabulary of the
    /// memory table ([`crate::transitions::mem_table`]): the stage of `tbe`,
    /// the line's open transaction if any, then the mandatory `Line` facet.
    fn facets(&self, addr: LineAddr, tbe: Option<&MemTbe>) -> Facets {
        let ids = &mem().1;
        let mut f = Facets::new();
        if let Some(tbe) = tbe {
            f.push(tbe.stage);
        }
        f.push(if self.l2_owned.contains(&addr) {
            ids.c
        } else {
            ids.u
        });
        f
    }

    /// Handles an incoming network message. A piggybacked `AckO` is
    /// delivered as an `AckO` event before its unblock, even a stale one,
    /// so the L2's external-blocked state can always drain; its rows keep
    /// the line's facets and TBE, which the unblock reuses. A request that
    /// finds a transaction open is admitted first ([`admit_busy`]): one the
    /// table answers with rows is of the transaction's kind (a reissue,
    /// which adopts its serial, or a duplicate to drop), one the busy facet
    /// ignores is queued.
    pub(crate) fn handle_message(&mut self, mut msg: Message, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        let mut tbe = self.tbes.get(&addr).copied();
        let facets = self.facets(addr, tbe.as_ref());
        if msg.piggy_acko {
            self.run(MsgType::AckO, &msg, tbe, &facets, ctx);
        }
        if let (MsgType::GetX | MsgType::Put, Some(busy)) = (msg.mtype, tbe.as_mut()) {
            let dispatch = mem().0.dispatch(&facets, Event::Msg(msg.mtype), self.ft);
            let same_kind = matches!(dispatch, Dispatch::Rows(_));
            let reissue = admit_busy(busy.blocker, busy.serial, same_kind, msg, ctx, || {
                self.waiting.entry(addr).or_default()
            });
            let Some(reissue) = reissue else {
                return;
            };
            ctx.stats.false_positives.incr();
            busy.serial = reissue.serial;
            self.tbes.insert(addr, *busy);
            msg = reissue;
        }
        self.run(msg.mtype, &msg, tbe, &facets, ctx);
    }

    /// Runs event `mtype`, carried by `msg`, from the memory table at a line
    /// whose TBE is `tbe` and facets `facets`: the row
    /// [`crate::transitions::ControllerTable::dispatch`] picks, if the
    /// event's guard holds.
    fn run(
        &mut self,
        mtype: MsgType,
        msg: &Message,
        tbe: Option<MemTbe>,
        facets: &Facets,
        ctx: &mut Ctx<'_>,
    ) {
        let addr = msg.addr;
        let event = Event::Msg(mtype);
        let dispatch = mem().0.dispatch(facets, event, self.ft);
        if unexpected(dispatch, &mem().0, facets, self.me, addr, event, ctx) {
            return;
        }
        // The §3.5 stale rule: a response answers the TBE's transaction.
        let ids = &mem().1;
        let in_stage = |stage| tbe.filter(|t| t.stage == stage);
        let from_blocker = |t: MemTbe| t.blocker == msg.src && t.serial == msg.serial;
        let guard = match mtype {
            MsgType::UnblockEx => in_stage(ids.wait_unblock).is_some_and(from_blocker),
            MsgType::WbData | MsgType::WbNoData | MsgType::WbCancel => {
                in_stage(ids.wait_wb_data).is_some_and(from_blocker)
            }
            MsgType::AckBD => {
                in_stage(ids.wait_ack_bd).is_some_and(|t| t.acko_serial == msg.serial)
            }
            _ => true,
        };
        match dispatch {
            Dispatch::Rows(&[row, ..]) if guard => {
                self.apply(row, Some(msg), addr, facets[facets.len() - 1], ctx);
            }
            _ => ctx.stale(),
        }
    }

    /// Handles a fired timeout: its row runs if the firing carries the
    /// slot's live generation ([`Timer::fire`]), and re-arms the slot when
    /// the row keeps the TBE in its stage.
    pub(crate) fn handle_timeout(
        &mut self,
        kind: TimeoutKind,
        addr: LineAddr,
        gen: u64,
        ctx: &mut Ctx<'_>,
    ) {
        let facets = self.facets(addr, self.tbes.get(&addr));
        let Dispatch::Rows(&[row, ..]) = mem().0.dispatch(&facets, Event::Timeout(kind), self.ft)
        else {
            return;
        };
        let Some(tbe) = self.tbes.get_mut(&addr) else {
            return;
        };
        let stage = tbe.stage;
        if !tbe.timer(kind).fire(gen, &mut self.timers, kind, ctx) {
            return;
        }
        self.apply(row, None, addr, facets[facets.len() - 1], ctx);
        if let Some(tbe) = self.tbes.get_mut(&addr).filter(|t| t.stage == stage) {
            tbe.timer(kind).rearm(&self.timers, addr, kind, ctx);
        }
    }

    /// Applies memory-table row `row`, triggered by `msg` (none for a
    /// timeout), at a line in state `line` (`U` or `C`): its sends, built
    /// against the state before the row; the written-back data; its next
    /// states (`U`/`C` set the line's owner, a TBE state its stage); its
    /// allocations and frees. Freeing the TBE services the line's queue.
    fn apply(
        &mut self,
        row: u16,
        msg: Option<&Message>,
        addr: LineAddr,
        line: u8,
        ctx: &mut Ctx<'_>,
    ) {
        let (table, ids) = mem();
        let plan = &table.plans[usize::from(row)];
        for &(mtype, role) in plan.sends() {
            let out = self.message(mtype, role, msg, addr, ctx);
            ctx.send(out);
        }
        if let Some(m) = msg.filter(|m| m.mtype == MsgType::WbData) {
            let data = m.data.expect("WbData carries data");
            debug_assert!(
                data.version() >= self.data_of(addr).version(),
                "writeback would regress memory contents"
            );
            self.store.insert(addr, data);
        }
        let mut tbe = if plan.allocs(Resource::Tbe, self.ft) {
            let m = msg.expect("a request opens the transaction");
            let tbe = MemTbe {
                blocker: m.src,
                serial: m.serial,
                stage: ids.u, // the row's next states set it below
                unblock: Timer::default(),
                ackbd: Timer::default(),
                acko_serial: SerialNum::ZERO,
            };
            Some(self.tbes.entry(addr).insert_entry(tbe).into_mut())
        } else {
            self.tbes.get_mut(&addr)
        };
        for &id in plan.next() {
            if id == line {
                // The owner stays: no write to the ownership set.
            } else if id == ids.u {
                self.l2_owned.remove(&addr);
            } else if id == ids.c {
                self.l2_owned.insert(addr);
            } else if let Some(tbe) = tbe.as_deref_mut() {
                tbe.stage = id;
            }
        }
        if let Some(tbe) = tbe {
            for kind in plan.timers(false, self.ft) {
                tbe.timer(kind).disarm();
            }
            for kind in plan.timers(true, self.ft) {
                if kind == TimeoutKind::LostAckBd {
                    // The handshake's AckO answers the trigger, under its serial.
                    tbe.acko_serial = msg.expect("WbData starts the handshake").serial;
                }
                tbe.timer(kind).arm(&mut self.timers, addr, kind, ctx);
            }
        }
        if plan.frees(Resource::Tbe, self.ft) {
            self.tbes.remove(&addr);
            self.pump_waiting(addr, ctx);
        }
    }

    /// The message a row sends as `mtype` to `role`. A reply answers `msg`;
    /// a `WbAck` is stale when memory owns the line. A timeout's message
    /// goes to the blocker: a ping under its serial, a re-sent `AckO` under
    /// the next serial of the handshake.
    fn message(
        &mut self,
        mtype: MsgType,
        role: Role,
        msg: Option<&Message>,
        addr: LineAddr,
        ctx: &mut Ctx<'_>,
    ) -> Message {
        if role != Role::Blocker {
            let m = msg.expect("a reply answers a message");
            if mtype == MsgType::DataEx {
                return self.data_ex(m);
            }
            let mut reply = m.reply(mtype);
            reply.wb_stale = mtype == MsgType::WbAck && !self.l2_owned.contains(&addr);
            return reply;
        }
        let tbe = self
            .tbes
            .get_mut(&addr)
            .expect("a timeout row runs on a TBE");
        let mut serial = tbe.serial;
        if mtype == MsgType::AckO {
            tbe.acko_serial = tbe.acko_serial.next(ctx.config.ft.serial_bits);
            serial = tbe.acko_serial;
        }
        let mut ping = Message::new(mtype, addr, self.me, tbe.blocker).serial(serial);
        ping.ping_for_store = mtype == MsgType::UnblockPing;
        ping
    }

    /// Services the line's queued requests while no transaction is open.
    fn pump_waiting(&mut self, addr: LineAddr, ctx: &mut Ctx<'_>) {
        while !self.tbes.contains_key(&addr) {
            // The drained queue keeps its buffer for the next deferral
            // instead of being dropped from the map.
            let Some(msg) = self.waiting.get_mut(&addr).and_then(VecDeque::pop_front) else {
                return;
            };
            self.handle_message(msg, ctx);
        }
    }
}

#[cfg(test)]
#[path = "mem_tests.rs"]
mod tests;
