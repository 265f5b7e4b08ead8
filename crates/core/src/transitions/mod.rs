//! Reified protocol transition tables.
//!
//! The three controller state machines (L1, L2 bank, memory controller) are
//! declared here as data: per controller a set of *states* grouped into
//! *facet families*, a list of *transition rows*, and a list of *exceptions*
//! (pairs that are declared impossible, or benignly ignored / discarded).
//!
//! A cache line's configuration at a controller is one state per family:
//! the first declared family is *mandatory* (its first state is the default,
//! e.g. `I` at L1), the remaining families are optional (at most one state,
//! or absent).  A row belongs to its source state's family; `next` may name
//! states across several families — applying a row sets every family that is
//! mentioned, and clears the source's family if it is not (mandatory
//! families fall back to their default).  `next = []` means the facet ends.
//! A row may name several source states, one `Transition` each: it is how
//! one rule is written once for every state it covers, and its `next` may
//! be `same`, which keeps each source in its own state.
//!
//! Each state declares the resources (MSHRs, TBEs, backups, armed timers)
//! its presence *implies*; each row declares the resource deltas the handler
//! performs.  `ftdircmp-lint` checks the books balance (lint 4), that every
//! (state, event) pair is covered (lint 1), that the tables match
//! PROTOCOL.md (lint 2), that an abstract single-line model agrees with the
//! reachability claims (lint 3), and that FT-only machinery is unreachable
//! with fault tolerance disabled (lint 5).
//!
//! Each table is compiled, when it is built, into one dense dispatch cell
//! per (state, event) pair, and [`ControllerTable::dispatch`] is the one
//! rule that decides what an event does at a line.  Every controller runs
//! the rows it picks, the first whose typed [`Guard`] holds, so the
//! dispatch is also the legality check: an `Impossible` or uncovered pair is
//! reported as a protocol violation where it occurs.  `ftdircmp-lint`'s
//! abstract model explores with the same dispatch.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::msg::MsgType;
use crate::proto::TimeoutKind;

mod l1;
mod l2;
mod mem;

pub(crate) use l1::L1Ids;
pub(crate) use l2::L2Ids;
pub(crate) use mem::MemIds;

/// Which controller a table describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Controller {
    L1,
    L2,
    Mem,
}

impl Controller {
    pub const ALL: [Controller; 3] = [Controller::L1, Controller::L2, Controller::Mem];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Controller::L1 => "L1",
            Controller::L2 => "L2",
            Controller::Mem => "Mem",
        }
    }
}

/// Processor-side events (only meaningful at the L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuOp {
    Load,
    Store,
}

impl CpuOp {
    pub const ALL: [CpuOp; 2] = [CpuOp::Load, CpuOp::Store];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CpuOp::Load => "Load",
            CpuOp::Store => "Store",
        }
    }
}

/// An event class a controller reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    Msg(MsgType),
    Cpu(CpuOp),
    Timeout(TimeoutKind),
    /// Internal event of the L1 and the L2 bank: the line is selected as a
    /// victim to make room for a fill install.
    Victim,
}

/// Number of events: the range of [`Event::index`].
const EVENTS: usize = MsgType::ALL.len() + CpuOp::ALL.len() + 1 + TimeoutKind::ALL.len();

impl Event {
    /// Dense index of the event in `0..EVENTS`: its column of dispatch cells.
    fn index(self) -> usize {
        const CPU: usize = MsgType::ALL.len();
        match self {
            Event::Msg(t) => t.index(),
            Event::Cpu(op) => CPU + op as usize,
            Event::Victim => CPU + CpuOp::ALL.len(),
            Event::Timeout(k) => CPU + CpuOp::ALL.len() + 1 + k.index(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Msg(t) => write!(f, "{}", t.name()),
            Event::Cpu(op) => write!(f, "cpu:{}", op.name()),
            Event::Timeout(k) => write!(f, "timeout:{}", k.label()),
            Event::Victim => write!(f, "victim"),
        }
    }
}

/// Shorthand constructors used by the table modules.
#[must_use]
pub fn msg(t: MsgType) -> Event {
    Event::Msg(t)
}
#[must_use]
pub(crate) fn cpu(op: CpuOp) -> Event {
    Event::Cpu(op)
}
#[must_use]
pub(crate) fn tmo(k: TimeoutKind) -> Event {
    Event::Timeout(k)
}

/// Whether a row applies with fault tolerance on, off, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    Both,
    FtOnly,
    NonFtOnly,
}

impl Gate {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gate::Both => "both",
            Gate::FtOnly => "ft",
            Gate::NonFtOnly => "non-ft",
        }
    }

    #[must_use]
    pub fn active(self, ft: bool) -> bool {
        match self {
            Gate::Both => true,
            Gate::FtOnly => ft,
            Gate::NonFtOnly => !ft,
        }
    }
}

/// Destination role of an emitted message (resolved dynamically at runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The home L2 bank of the address.
    Home,
    /// The memory controller.
    MemCtl,
    /// The original requester named in the triggering message.
    Requester,
    /// The immediate sender of the triggering message.
    Sender,
    /// The L1 currently recorded as owner.
    OwnerL1,
    /// Every current sharer.
    Sharers,
    /// The node the local TBE/MSHR is blocked on.
    Blocker,
    /// The destination recorded in the local backup.
    BackupDest,
    /// The peer of a pending AckO/AckBD handshake.
    AckPeer,
    /// This controller itself (internal re-dispatch).
    SelfNode,
}

impl Role {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Role::Home => "home",
            Role::MemCtl => "mem",
            Role::Requester => "requester",
            Role::Sender => "sender",
            Role::OwnerL1 => "owner",
            Role::Sharers => "sharers",
            Role::Blocker => "blocker",
            Role::BackupDest => "backup-dest",
            Role::AckPeer => "ack-peer",
            Role::SelfNode => "self",
        }
    }
}

/// A countable resource whose occupancy is tied to controller states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// L1 miss MSHR.
    Mshr,
    /// L1 writeback MSHR.
    WbMshr,
    /// L2 / memory transaction buffer entry.
    Tbe,
    /// L1 data backup (§3.1).
    Backup,
    /// L2-side backup of data written back to memory.
    MemBackup,
    /// L2 external-unblock pending record (§3.1.1).
    ExtPending,
    /// L1 pending AckBD bookkeeping for a blocked line.
    AckBdPend,
    /// Armed lost-request timer.
    TimerLostRequest,
    /// Armed lost-unblock timer.
    TimerLostUnblock,
    /// Armed lost-AckBD timer.
    TimerLostAckBd,
    /// Armed lost-data (backup) timer.
    TimerLostData,
}

impl Resource {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Resource::Mshr => "mshr",
            Resource::WbMshr => "wb-mshr",
            Resource::Tbe => "tbe",
            Resource::Backup => "backup",
            Resource::MemBackup => "mem-backup",
            Resource::ExtPending => "ext-pending",
            Resource::AckBdPend => "ackbd-pend",
            Resource::TimerLostRequest => "t-lost-request",
            Resource::TimerLostUnblock => "t-lost-unblock",
            Resource::TimerLostAckBd => "t-lost-ackbd",
            Resource::TimerLostData => "t-lost-data",
        }
    }
}

/// A typed row guard: the condition that picks one row among the rows of
/// one (state, event) cell, evaluated by the controller that runs the table
/// (`L1Controller::holds`, `L2Controller::holds`).  The cell's rows are
/// tried in declaration order, so a guard may assume that the rows before
/// it did not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// No condition: the row of its cell that runs when no other does.
    Always,
    /// The line has L1 sharers.
    Sharers,
    /// The line's data is dirty with respect to memory.
    Dirty,
    /// Migratory sharing turns the read into an exclusive grant (paper §2).
    Migratory,
    /// The request comes from the line's L1 owner.
    FromOwner,
    /// The transaction was filled from memory (§3.1.1).
    FromMem,
    /// No copy of the line is left on chip: no bank data, no sharer.
    NoCopies,
    /// The transaction answered its request with this message: `Data` or
    /// `DataEx` to the requester, or `FwdGetS`/`FwdGetX` to the owner.
    Granted(MsgType),
    /// The recall still waits for the owner's data.
    NeedsData,
    /// The recall still waits for the owner's data or a sharer's ack.
    RecallPending,
    /// The recalled data is dirty with respect to memory.
    RecallDirty,
    /// The `WbAck` says the writer no longer owns the line.
    WbStale,
    /// The miss, with the message taken, still waits for a grant or acks.
    AcksOutstanding,
    /// The miss's exclusive grant carries dirty data.
    DirtyGrant,
    /// The miss holds no data once the grant is taken (an upgrade).
    NoData,
    /// The `UnblockPing` names the kind of the pending miss.
    PingsMiss,
    /// The completion record of the ping's kind sent this unblock (`AckO`:
    /// an `UnblockEx` carrying the `AckO`).
    Replay(MsgType),
    /// The writeback whose data a forward took was of an exclusive line.
    WbExclusive,
    /// The line still owes the message's sender an `AckO`.
    OwesAckO,
}

/// Declaration of one controller state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDecl {
    pub name: &'static str,
    /// Facet family this state belongs to.  The first declared family is
    /// mandatory; its first state is the default.
    pub family: &'static str,
    /// State only exists with fault tolerance enabled.
    pub ft_only: bool,
    /// Resources implied by this state in both modes.
    pub implies: Vec<Resource>,
    /// Additional resources implied only when fault tolerance is on.
    pub ft_implies: Vec<Resource>,
    pub desc: &'static str,
}

impl StateDecl {
    #[must_use]
    pub(crate) fn new(name: &'static str, family: &'static str, desc: &'static str) -> Self {
        StateDecl {
            name,
            family,
            ft_only: false,
            implies: Vec::new(),
            ft_implies: Vec::new(),
            desc,
        }
    }

    #[must_use]
    pub(crate) fn ft(mut self) -> Self {
        self.ft_only = true;
        self
    }

    #[must_use]
    pub(crate) fn implies(mut self, rs: &[Resource]) -> Self {
        self.implies = rs.to_vec();
        self
    }

    #[must_use]
    pub(crate) fn ft_implies(mut self, rs: &[Resource]) -> Self {
        self.ft_implies = rs.to_vec();
        self
    }

    /// Resources implied by this state under the given mode.
    #[must_use]
    pub fn implied(&self, ft: bool) -> Vec<Resource> {
        let mut v = self.implies.clone();
        if ft {
            v.extend_from_slice(&self.ft_implies);
        }
        v.sort_unstable();
        v
    }
}

/// One declarative transition row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    pub src: &'static str,
    pub event: Event,
    /// The guard in words (PROTOCOL.md).
    pub guard: &'static str,
    /// The typed guard that picks this row among the rows of its cell.
    pub when: Guard,
    /// Resulting states, possibly across families (see module docs).
    pub next: Vec<&'static str>,
    /// Messages emitted by this row.
    pub sends: Vec<(MsgType, Role)>,
    /// Resources allocated / armed in both modes.
    pub alloc: Vec<Resource>,
    /// Resources freed / disarmed in both modes.
    pub free: Vec<Resource>,
    /// Extra allocations only performed when fault tolerance is on.
    pub ft_alloc: Vec<Resource>,
    /// Extra frees only performed when fault tolerance is on.
    pub ft_free: Vec<Resource>,
    pub gate: Gate,
    /// Paper / PROTOCOL.md reference.
    pub paper: &'static str,
}

impl Transition {
    #[must_use]
    pub fn new(src: &'static str, event: Event, next: &[&'static str]) -> Self {
        Transition {
            src,
            event,
            guard: "",
            when: Guard::Always,
            next: next.to_vec(),
            sends: Vec::new(),
            alloc: Vec::new(),
            free: Vec::new(),
            ft_alloc: Vec::new(),
            ft_free: Vec::new(),
            gate: Gate::Both,
            paper: "",
        }
    }
}

/// At most this many next states or sends per row (checked when a table
/// is built).
const ROW_MAX: usize = 4;

/// A row compiled for the controllers that run it: its state ids, event,
/// guard and sends inline, and the resources it allocates and frees in
/// each mode as bit sets, so applying it chases no pointer and scans no
/// list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    /// The source state's id.
    pub(crate) src: u8,
    pub(crate) event: Event,
    pub(crate) when: Guard,
    next: ([u8; ROW_MAX], u8),
    sends: ([(MsgType, Role); ROW_MAX], u8),
    /// `alloc[ft]`, `free[ft]`: the resources allocated and freed with fault
    /// tolerance `ft`, one bit per [`Resource`].
    alloc: [u16; 2],
    free: [u16; 2],
}

impl Plan {
    fn new(row: &Transition, index: &HashMap<&'static str, usize>) -> Option<Self> {
        fn inline<T: Copy>(items: &[T], fill: T) -> Option<([T; ROW_MAX], u8)> {
            let mut out = [fill; ROW_MAX];
            out.get_mut(..items.len())?.copy_from_slice(items);
            Some((out, items.len() as u8))
        }
        let bits = |rs: &[Resource]| rs.iter().fold(0, |m, &r| m | 1 << r as u16);
        let both = |all, ft| [bits(all), bits(all) | bits(ft)];
        let next: Vec<u8> = row.next.iter().map(|n| index[n] as u8).collect();
        Some(Plan {
            src: index[row.src] as u8,
            event: row.event,
            when: row.when,
            next: inline(&next, 0)?,
            sends: inline(&row.sends, (MsgType::GetS, Role::Home))?,
            alloc: both(&row.alloc, &row.ft_alloc),
            free: both(&row.free, &row.ft_free),
        })
    }

    /// The next states' ids.
    #[inline]
    pub(crate) fn next(&self) -> &[u8] {
        &self.next.0[..usize::from(self.next.1)]
    }

    /// The messages the row sends, in order.
    #[inline]
    pub(crate) fn sends(&self) -> &[(MsgType, Role)] {
        &self.sends.0[..usize::from(self.sends.1)]
    }

    /// Whether the row allocates or frees anything with fault tolerance `ft`.
    #[inline]
    pub(crate) fn moves_resources(&self, ft: bool) -> bool {
        self.alloc[usize::from(ft)] | self.free[usize::from(ft)] != 0
    }

    /// Whether the row allocates `res` with fault tolerance `ft`.
    #[inline]
    pub(crate) fn allocs(&self, res: Resource, ft: bool) -> bool {
        self.alloc[usize::from(ft)] & 1 << res as u16 != 0
    }

    /// Whether the row frees `res` with fault tolerance `ft`.
    #[inline]
    pub(crate) fn frees(&self, res: Resource, ft: bool) -> bool {
        self.free[usize::from(ft)] & 1 << res as u16 != 0
    }

    /// The timers the row arms (`arm`), or else disarms, with fault
    /// tolerance `ft`.
    #[inline]
    pub(crate) fn timers(&self, arm: bool, ft: bool) -> impl Iterator<Item = TimeoutKind> {
        const TIMERS: [(TimeoutKind, Resource); 4] = [
            (TimeoutKind::LostRequest, Resource::TimerLostRequest),
            (TimeoutKind::LostUnblock, Resource::TimerLostUnblock),
            (TimeoutKind::LostAckBd, Resource::TimerLostAckBd),
            (TimeoutKind::LostData, Resource::TimerLostData),
        ];
        let set = if arm { self.alloc } else { self.free }[usize::from(ft)];
        (TIMERS.into_iter()).filter_map(move |(k, r)| (set & 1 << r as u16 != 0).then_some(k))
    }
}

/// Why a (state, event) pair has no transition row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionKind {
    /// The pair must never occur; observing it is a protocol error.
    Impossible,
    /// The pair is legal but terminally a no-op: the event is discarded
    /// (stale duplicate) or queued for later replay; no coexisting facet
    /// gets to act on it.
    Ignore,
    /// The pair is legal and this facet is transparent to it: a
    /// coexisting facet of another (lower-priority) family handles the
    /// event instead.
    Defer,
}

/// Declares a (state, event) pair that intentionally has no row.
/// `state == "*"` matches every state of the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exception {
    pub state: &'static str,
    pub event: Event,
    pub kind: ExceptionKind,
    pub reason: &'static str,
}

#[must_use]
pub fn impossible(state: &'static str, event: Event, reason: &'static str) -> Exception {
    Exception {
        state,
        event,
        kind: ExceptionKind::Impossible,
        reason,
    }
}

#[must_use]
pub(crate) fn ignore(state: &'static str, event: Event, reason: &'static str) -> Exception {
    Exception {
        state,
        event,
        kind: ExceptionKind::Ignore,
        reason,
    }
}

#[must_use]
pub(crate) fn defer(state: &'static str, event: Event, reason: &'static str) -> Exception {
    Exception {
        state,
        event,
        kind: ExceptionKind::Defer,
        reason,
    }
}

/// How a (state, event) pair is covered by a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    Row,
    Ignored,
    Deferred,
    Impossible,
    Uncovered,
}

/// What [`ControllerTable::dispatch`] decides an event does at a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch<'a> {
    /// Indices into [`ControllerTable::rows`] of the rows active in this
    /// mode, in declaration order; their guards pick the one that runs.
    Rows(&'a [u16]),
    /// Legal and a no-op: discarded as stale, or queued for later replay.
    Ignore,
    /// Declared impossible: a protocol error.
    Impossible,
    /// Neither a row nor an exception covers the event.
    Uncovered,
}

/// What one facet decides about one event in one mode: a compiled cell of
/// [`ControllerTable::dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// No active row, and no exact exception or a `Defer`: passed on.
    Pass,
    /// The active rows, `cell_rows[lo..hi]`.
    Rows(u16, u16),
    Ignore,
    Impossible,
}

/// A complete, validated controller table.
#[derive(Debug, Clone)]
pub struct ControllerTable {
    pub controller: Controller,
    pub states: Vec<StateDecl>,
    pub rows: Vec<Transition>,
    pub exceptions: Vec<Exception>,
    /// Declared family order; `families[0]` is the mandatory family.
    pub families: Vec<&'static str>,
    state_index: HashMap<&'static str, usize>,
    /// `rank[state id]`: the position of the state's family in
    /// [`ControllerTable::priority`].
    rank: Vec<u8>,
    /// `cells[state id * EVENTS + event index][ft]`.
    cells: Vec<[Step; 2]>,
    /// The row indices of the cells' `Step::Rows`.
    cell_rows: Vec<u16>,
    /// `wildcard[event index]`: what the event's `*` exception decides.
    wildcard: [Dispatch<'static>; EVENTS],
    /// `plans[row]`: the row compiled.
    pub(crate) plans: Vec<Plan>,
}

impl ControllerTable {
    /// Builds and validates a table.  Errors on unknown state names,
    /// duplicate states, rows naming two next-states in one family, or
    /// contradictory exception/row coverage.
    pub fn new(
        controller: Controller,
        states: Vec<StateDecl>,
        rows: Vec<Transition>,
        exceptions: Vec<Exception>,
    ) -> Result<Self, String> {
        let mut state_index = HashMap::new();
        let mut families: Vec<&'static str> = Vec::new();
        for (i, s) in states.iter().enumerate() {
            if state_index.insert(s.name, i).is_some() {
                return Err(format!("{}: duplicate state {}", controller.name(), s.name));
            }
            if !families.contains(&s.family) {
                families.push(s.family);
            }
        }
        for row in &rows {
            if !state_index.contains_key(row.src) {
                return Err(format!(
                    "{}: row `{} @ {}` names unknown source state",
                    controller.name(),
                    row.src,
                    row.event
                ));
            }
            let mut seen_families: Vec<&str> = Vec::new();
            for n in &row.next {
                let Some(&idx) = state_index.get(n) else {
                    return Err(format!(
                        "{}: row `{} @ {}` names unknown next state {}",
                        controller.name(),
                        row.src,
                        row.event,
                        n
                    ));
                };
                let fam = states[idx].family;
                if seen_families.contains(&fam) {
                    return Err(format!(
                        "{}: row `{} @ {}` sets family {} twice",
                        controller.name(),
                        row.src,
                        row.event,
                        fam
                    ));
                }
                seen_families.push(fam);
            }
        }
        for ex in &exceptions {
            if ex.state != "*" && !state_index.contains_key(ex.state) {
                return Err(format!(
                    "{}: exception `{} @ {}` names unknown state",
                    controller.name(),
                    ex.state,
                    ex.event
                ));
            }
        }
        if states.len() > usize::from(u8::MAX) || rows.len() > usize::from(u16::MAX) {
            return Err(format!(
                "{}: more than {} states or {} rows",
                controller.name(),
                u8::MAX,
                u16::MAX
            ));
        }
        let plans = (rows.iter())
            .map(|r| Plan::new(r, &state_index))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                let c = controller.name();
                format!("{c}: a row names more than {ROW_MAX} next states or sends")
            })?;
        let mut active = vec![[Vec::new(), Vec::new()]; states.len() * EVENTS];
        for (i, row) in rows.iter().enumerate() {
            let cell = &mut active[state_index[row.src] * EVENTS + row.event.index()];
            for ft in [false, true] {
                if row.gate.active(ft) {
                    cell[usize::from(ft)].push(i as u16);
                }
            }
        }
        // The first declaration of a pair wins, as in `exception_for`.
        let (mut exact, mut wildcard) = (vec![None; active.len()], [None; EVENTS]);
        for ex in &exceptions {
            let slot = match state_index.get(ex.state) {
                Some(&s) => &mut exact[s * EVENTS + ex.event.index()],
                None => &mut wildcard[ex.event.index()],
            };
            slot.get_or_insert(ex.kind);
        }
        let mut cell_rows = Vec::new();
        let cells = (active.iter().zip(&exact))
            .map(|(modes, exact)| {
                modes.each_ref().map(|rows| match exact {
                    _ if !rows.is_empty() => {
                        let lo = cell_rows.len() as u16;
                        cell_rows.extend_from_slice(rows);
                        Step::Rows(lo, cell_rows.len() as u16)
                    }
                    Some(ExceptionKind::Ignore) => Step::Ignore,
                    Some(ExceptionKind::Impossible) => Step::Impossible,
                    Some(ExceptionKind::Defer) | None => Step::Pass,
                })
            })
            .collect();
        let n = families.len();
        Ok(ControllerTable {
            controller,
            // Dispatch order puts the mandatory family, declared first, last.
            rank: (states.iter())
                .map(|s| (families.iter().position(|&f| f == s.family).unwrap_or(0) + n - 1) % n)
                .map(|r| r as u8)
                .collect(),
            cells,
            cell_rows,
            wildcard: wildcard.map(|kind| match kind {
                Some(ExceptionKind::Impossible) => Dispatch::Impossible,
                Some(_) => Dispatch::Ignore,
                None => Dispatch::Uncovered,
            }),
            plans,
            states,
            rows,
            exceptions,
            families,
            state_index,
        })
    }

    /// Dense id of a state: its index in [`ControllerTable::states`].
    #[must_use]
    pub fn state_id(&self, name: &str) -> Option<u8> {
        self.state_index.get(name).map(|&i| i as u8)
    }

    /// The facet families in dispatch order: the optional families as
    /// declared, then the mandatory one (a message is matched against the
    /// outstanding miss or TBE before the stable line).
    pub fn priority(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.families[1..]
            .iter()
            .chain(&self.families[..1])
            .copied()
    }

    /// What `event` does at a line whose facets are `facets` (state ids,
    /// one per populated family, in any order) with fault tolerance `ft`.
    /// The facets are walked in [`ControllerTable::priority`] order: the
    /// first with rows active in this mode decides, and so does an exact
    /// `Ignore` or `Impossible`, while an exact `Defer` passes the event on.
    /// After the last facet, the event's wildcard exception decides.
    #[must_use]
    pub fn dispatch(&self, facets: &[u8], event: Event, ft: bool) -> Dispatch<'_> {
        let e = event.index();
        // The first facet in priority order that decides: the lowest rank.
        let (mut rank, mut step) = (u8::MAX, Step::Pass);
        for &s in facets {
            let here = self.cells[usize::from(s) * EVENTS + e][usize::from(ft)];
            if here != Step::Pass && self.rank[usize::from(s)] < rank {
                (rank, step) = (self.rank[usize::from(s)], here);
            }
        }
        match step {
            Step::Pass => self.wildcard[e],
            Step::Rows(lo, hi) => Dispatch::Rows(&self.cell_rows[usize::from(lo)..usize::from(hi)]),
            Step::Ignore => Dispatch::Ignore,
            Step::Impossible => Dispatch::Impossible,
        }
    }

    /// The facet set `facets` spelt out as `A+B+C`, in declared state order
    /// (violation reports).
    pub(crate) fn facet_names(&self, facets: &[u8]) -> String {
        let mut ids = facets.to_vec();
        ids.sort_unstable();
        let names: Vec<&str> = ids
            .iter()
            .map(|&id| self.states[usize::from(id)].name)
            .collect();
        names.join("+")
    }

    #[must_use]
    pub fn state(&self, name: &str) -> Option<&StateDecl> {
        self.state_index.get(name).map(|&i| &self.states[i])
    }

    /// The mandatory family's default state (first state of first family).
    #[must_use]
    pub fn default_state(&self) -> &StateDecl {
        &self.states[0]
    }

    /// Full event universe for this controller (used by the completeness
    /// lint): every message type, every timeout kind, at the L1 every CPU
    /// op, and at both caches the victim event.
    #[must_use]
    pub fn event_universe(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = MsgType::ALL.iter().map(|&t| Event::Msg(t)).collect();
        if self.controller == Controller::L1 {
            evs.extend(CpuOp::ALL.iter().map(|&op| Event::Cpu(op)));
        }
        if self.controller != Controller::Mem {
            evs.push(Event::Victim);
        }
        evs.extend(TimeoutKind::ALL.iter().map(|&k| Event::Timeout(k)));
        evs
    }

    pub fn rows_for<'a>(
        &'a self,
        state: &'a str,
        event: Event,
    ) -> impl Iterator<Item = &'a Transition> {
        self.rows
            .iter()
            .filter(move |r| r.src == state && r.event == event)
    }

    fn exception_for(&self, state: &str, event: Event) -> Option<&Exception> {
        // Exact-state declarations take precedence over wildcards.
        self.exceptions
            .iter()
            .find(|e| e.state == state && e.event == event)
            .or_else(|| {
                self.exceptions
                    .iter()
                    .find(|e| e.state == "*" && e.event == event)
            })
    }

    /// Coverage of a (state, event) pair: a row wins over an exception.
    #[must_use]
    pub fn coverage(&self, state: &str, event: Event) -> Coverage {
        if self.rows_for(state, event).next().is_some() {
            return Coverage::Row;
        }
        match self.exception_for(state, event).map(|e| e.kind) {
            Some(ExceptionKind::Ignore) => Coverage::Ignored,
            Some(ExceptionKind::Defer) => Coverage::Deferred,
            Some(ExceptionKind::Impossible) => Coverage::Impossible,
            None => Coverage::Uncovered,
        }
    }
}

/// Declares a controller's state-id struct: one `u8` field per state the
/// controller's facets can report, resolved by name against the
/// table, so a misspelt state fails the table build instead of silently
/// never matching.
macro_rules! state_ids {
    ($(#[$meta:meta])* $name:ident { $($field:ident => $state:literal),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        pub(crate) struct $name {
            $(pub(crate) $field: u8,)+
        }

        impl $name {
            fn resolve(table: &$crate::transitions::ControllerTable) -> Result<Self, String> {
                Ok($name {
                    $($field: table.state_id($state).ok_or_else(|| {
                        format!("{}: no state named {}", table.controller.name(), $state)
                    })?,)+
                })
            }
        }
    };
}
pub(crate) use state_ids;

/// Builds one or more `Transition`s from a compact row grammar:
///
/// ```ignore
/// row!([I] @ cpu(CpuOp::Load) => [IS];
///      sends [GetS -> Home]; alloc [Mshr]; ft_alloc [TimerLostRequest];
///      paper "§2")
/// ```
///
/// A row names one or more source states and expands to one `Transition`
/// per source, in the order listed, each with every other field equal. The
/// `next` after `=>` is either a list of states (see the module docs; `[]`
/// ends the facet) or `same`: each source keeps its own state.
///
/// Optional clauses, in order: `if Guard "guard"` (after the event: a
/// typed [`Guard`], `Granted(MsgType)` for the one with an argument, may
/// precede the words), `gate G`, `sends [..]`, `alloc [..]`, `free [..]`,
/// `ft_alloc [..]`, `ft_free [..]`, `paper ".."`.
macro_rules! row {
    ( [$($src:ident),+] @ $ev:expr
      $(, if $($when:ident $(($arg:ident))?)? $guard:literal)? => $next:tt
      $(; $($rest:tt)*)?
    ) => {{
        let (next, same) = $crate::transitions::row_next!($next);
        #[allow(unused_mut)]
        let mut proto = $crate::transitions::Transition::new("", $ev, next);
        $( proto.guard = $guard;
           $( proto.when = $crate::transitions::Guard::$when
                $(($crate::msg::MsgType::$arg))?; )? )?
        $( $crate::transitions::row_clauses!(proto; $($rest)*); )?
        let mut out: Vec<$crate::transitions::Transition> = Vec::new();
        $(
            let mut t = proto.clone();
            t.src = stringify!($src);
            if same {
                t.next.push(t.src);
            }
            out.push(t);
        )+
        out
    }};
}
pub(crate) use row;

/// Helper of [`row!`]: the `next` states a row names (none for `same`,
/// where each source adds its own) and whether it is `same`.
macro_rules! row_next {
    (same) => {
        (&[], true)
    };
    ([$($next:ident),*]) => {
        (&[$(stringify!($next)),*], false)
    };
}
pub(crate) use row_next;

/// Helper of [`row!`]: applies `; clause` items in any order.
macro_rules! row_clauses {
    ($p:ident; ) => {};
    ($p:ident; gate $gate:ident $(; $($rest:tt)*)? ) => {
        $p.gate = $crate::transitions::Gate::$gate;
        $( $crate::transitions::row_clauses!($p; $($rest)*); )?
    };
    ($p:ident; sends [$($mt:ident -> $role:ident),* $(,)?] $(; $($rest:tt)*)? ) => {
        $p.sends = vec![$((
            $crate::msg::MsgType::$mt,
            $crate::transitions::Role::$role
        )),*];
        $( $crate::transitions::row_clauses!($p; $($rest)*); )?
    };
    ($p:ident; alloc [$($r:ident),* $(,)?] $(; $($rest:tt)*)? ) => {
        $p.alloc = vec![$($crate::transitions::Resource::$r),*];
        $( $crate::transitions::row_clauses!($p; $($rest)*); )?
    };
    ($p:ident; free [$($r:ident),* $(,)?] $(; $($rest:tt)*)? ) => {
        $p.free = vec![$($crate::transitions::Resource::$r),*];
        $( $crate::transitions::row_clauses!($p; $($rest)*); )?
    };
    ($p:ident; ft_alloc [$($r:ident),* $(,)?] $(; $($rest:tt)*)? ) => {
        $p.ft_alloc = vec![$($crate::transitions::Resource::$r),*];
        $( $crate::transitions::row_clauses!($p; $($rest)*); )?
    };
    ($p:ident; ft_free [$($r:ident),* $(,)?] $(; $($rest:tt)*)? ) => {
        $p.ft_free = vec![$($crate::transitions::Resource::$r),*];
        $( $crate::transitions::row_clauses!($p; $($rest)*); )?
    };
    ($p:ident; paper $paper:literal $(; $($rest:tt)*)? ) => {
        $p.paper = $paper;
        $( $crate::transitions::row_clauses!($p; $($rest)*); )?
    };
}
pub(crate) use row_clauses;

/// Collects `row!` invocations into a flat `Vec<Transition>`:
///
/// ```ignore
/// transitions![
///     { [I] @ cpu(CpuOp::Load) => [IS]; sends [GetS -> Home]; alloc [Mshr] },
///     { [S, E, O, M] @ cpu(CpuOp::Load) => same },
/// ]
/// ```
///
/// `same` keeps each source in its own state; `[]` ends the facet.
macro_rules! transitions {
    ( $( { $($row:tt)* } ),* $(,)? ) => {{
        let mut v: Vec<$crate::transitions::Transition> = Vec::new();
        $( v.extend($crate::transitions::row!( $($row)* )); )*
        v
    }};
}
pub(crate) use transitions;

static L1: OnceLock<(ControllerTable, L1Ids)> = OnceLock::new();
static L2: OnceLock<(ControllerTable, L2Ids)> = OnceLock::new();
static MEM: OnceLock<(ControllerTable, MemIds)> = OnceLock::new();

/// The L1 table with the state ids `L1Controller` reports.
pub(crate) fn l1() -> &'static (ControllerTable, L1Ids) {
    L1.get_or_init(|| l1::build().expect("L1 transition table is malformed"))
}

/// The L2 table with the state ids `L2Controller::facets` reports.
pub(crate) fn l2() -> &'static (ControllerTable, L2Ids) {
    L2.get_or_init(|| l2::build().expect("L2 transition table is malformed"))
}

/// The memory table with the state ids `MemController::facets` reports.
pub(crate) fn mem() -> &'static (ControllerTable, MemIds) {
    MEM.get_or_init(|| mem::build().expect("Mem transition table is malformed"))
}

/// The reified L1 controller table.
pub fn l1_table() -> &'static ControllerTable {
    &l1().0
}

/// The reified L2 bank controller table.
pub fn l2_table() -> &'static ControllerTable {
    &l2().0
}

/// The reified memory controller table.
pub fn mem_table() -> &'static ControllerTable {
    &mem().0
}

/// Table for a controller by id.
pub fn table(c: Controller) -> &'static ControllerTable {
    match c {
        Controller::L1 => l1_table(),
        Controller::L2 => l2_table(),
        Controller::Mem => mem_table(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_build() {
        for c in Controller::ALL {
            let t = table(c);
            assert!(!t.states.is_empty());
            assert!(!t.rows.is_empty());
        }
    }

    #[test]
    fn default_states() {
        assert_eq!(l1_table().default_state().name, "I");
        assert_eq!(l2_table().default_state().name, "NP");
        assert_eq!(mem_table().default_state().name, "U");
    }

    #[test]
    fn misrouted_types_are_impossible() {
        use crate::msg::MsgType as T;
        for t in [T::GetX, T::GetS, T::Put, T::Unblock, T::UnblockEx] {
            assert_eq!(
                l1_table().coverage("I", Event::Msg(t)),
                Coverage::Impossible,
                "{t} should be impossible at L1"
            );
        }
        for t in [T::Inv, T::FwdGetS, T::FwdGetX] {
            assert_eq!(
                l2_table().coverage("NP", Event::Msg(t)),
                Coverage::Impossible
            );
        }
    }

    /// Every row index of `table` whose source is `state`, event `event`
    /// and gate active in mode `ft`.
    fn active_rows(table: &ControllerTable, state: &str, event: Event, ft: bool) -> Vec<u16> {
        let rows = table.rows.iter().enumerate();
        rows.filter(|(_, r)| r.src == state && r.event == event && r.gate.active(ft))
            .map(|(i, _)| i as u16)
            .collect()
    }

    #[test]
    fn one_facet_dispatch_agrees_with_coverage_and_the_gates() {
        for c in Controller::ALL {
            let t = table(c);
            for s in &t.states {
                let id = t.state_id(s.name).expect("declared state has an id");
                for e in t.event_universe() {
                    for ft in [false, true] {
                        let rows = active_rows(t, s.name, e, ft);
                        let mut coverage = t.coverage(s.name, e);
                        if matches!(coverage, Coverage::Row | Coverage::Deferred) {
                            // Rows gated off in this mode, or a facet that
                            // passes the event on: the wildcard decides.
                            coverage = t.coverage("*", e);
                        }
                        let want = match coverage {
                            _ if !rows.is_empty() => Dispatch::Rows(&rows),
                            Coverage::Ignored | Coverage::Deferred => Dispatch::Ignore,
                            Coverage::Impossible => Dispatch::Impossible,
                            Coverage::Uncovered | Coverage::Row => Dispatch::Uncovered,
                        };
                        let got = t.dispatch(&[id], e, ft);
                        assert_eq!(got, want, "{}: {e} in {} (ft {ft})", c.name(), s.name);
                    }
                }
            }
        }
    }

    #[test]
    fn priority_walks_the_optional_families_then_the_mandatory_one() {
        let order = |c| table(c).priority().collect::<Vec<_>>();
        assert_eq!(order(Controller::L1), ["Miss", "Wb", "Backup", "Cache"]);
        assert_eq!(order(Controller::L2), ["Tbe", "Ext", "MemBk", "Line"]);
        assert_eq!(order(Controller::Mem), ["Tbe", "Line"]);
    }

    #[test]
    fn a_facet_without_a_row_or_exact_exception_passes_the_event_on() {
        use crate::msg::MsgType as T;
        let (t, i) = mem();
        let acko = Event::Msg(T::AckO);
        let want = active_rows(t, "U", acko, true);
        assert_eq!(want.len(), 1);
        // In either order: the walk follows the priority, not the slice.
        for facets in [[i.wait_unblock, i.u], [i.u, i.wait_unblock]] {
            assert_eq!(t.dispatch(&facets, acko, true), Dispatch::Rows(&want));
        }
        // Without fault tolerance the row is gated off: the wildcard ignores.
        assert_eq!(
            t.dispatch(&[i.wait_unblock, i.u], acko, false),
            Dispatch::Ignore
        );
    }

    #[test]
    fn an_exact_defer_passes_to_the_next_facet() {
        let (t, i) = l2();
        let gets = Event::Msg(MsgType::GetS);
        assert_eq!(t.coverage("EXT", gets), Coverage::Deferred);
        let want = active_rows(t, "MT", gets, true);
        assert!(!want.is_empty());
        assert_eq!(
            t.dispatch(&[i.mt, i.ext], gets, true),
            Dispatch::Rows(&want)
        );
    }

    #[test]
    fn an_exact_ignore_stops_the_walk() {
        // A Put behind an open fill is queued, although `C` has a Put row.
        let (t, i) = mem();
        let put = Event::Msg(MsgType::Put);
        assert!(!active_rows(t, "C", put, true).is_empty());
        for ft in [false, true] {
            assert_eq!(
                t.dispatch(&[i.wait_unblock, i.c], put, ft),
                Dispatch::Ignore
            );
        }
    }

    #[test]
    fn no_memory_cell_has_two_active_rows_in_one_mode() {
        // The memory controller evaluates a side-effecting guard
        // (`Timer::fire`) on the first row of a cell: there must be one.
        let t = mem_table();
        for s in &t.states {
            for e in t.event_universe() {
                for ft in [false, true] {
                    let n = active_rows(t, s.name, e, ft).len();
                    assert!(n <= 1, "{} @ {e} (ft {ft}): {n} rows", s.name);
                }
            }
        }
    }

    /// A controller picks the first row whose typed guard holds: an
    /// unguarded row anywhere but last in a cell would shadow the rows
    /// after it.
    fn assert_guarded_cells(t: &ControllerTable) {
        let mut several = 0;
        for s in &t.states {
            for e in t.event_universe() {
                for ft in [false, true] {
                    let rows = active_rows(t, s.name, e, ft);
                    if rows.len() < 2 {
                        continue;
                    }
                    several += 1;
                    let whens: Vec<Guard> = (rows.iter())
                        .map(|&r| t.rows[usize::from(r)].when)
                        .collect();
                    let unguarded = whens.iter().filter(|&&w| w == Guard::Always).count();
                    assert!(unguarded <= 1, "{} @ {e} (ft {ft}): {whens:?}", s.name);
                    assert!(
                        whens[..whens.len() - 1].iter().all(|&w| w != Guard::Always),
                        "{} @ {e} (ft {ft}): only the last row may be unguarded: {whens:?}",
                        s.name
                    );
                }
            }
        }
        assert!(several > 0);
    }

    #[test]
    fn every_l2_cell_with_several_rows_names_a_guard_on_all_but_one() {
        assert_guarded_cells(l2_table());
    }

    #[test]
    fn every_l1_cell_with_several_rows_names_a_guard_on_all_but_one() {
        assert_guarded_cells(l1_table());
    }

    #[test]
    fn violation_names_follow_the_declared_state_order() {
        let (t, i) = mem();
        assert_eq!(t.facet_names(&[i.wait_unblock, i.u]), "U+WaitUnblock");
    }

    #[test]
    fn state_ids_round_trip_to_the_names_the_controllers_report() {
        fn check(table: &ControllerTable, pairs: &[(u8, &str)]) {
            // Every state of the table is reportable by its controller.
            assert_eq!(pairs.len(), table.states.len(), "{:?}", table.controller);
            for &(id, name) in pairs {
                assert_eq!(table.facet_names(&[id]), name, "{:?}", table.controller);
                assert_eq!(table.state_id(name), Some(id));
            }
        }
        let (t, i) = l1();
        check(
            t,
            &[
                (i.i, "I"),
                (i.s, "S"),
                (i.e, "E"),
                (i.o, "O"),
                (i.m, "M"),
                (i.mb, "Mb"),
                (i.eb, "Eb"),
                (i.is, "IS"),
                (i.im, "IM"),
                (i.sm, "SM"),
                (i.om, "OM"),
                (i.mi, "MI"),
                (i.oi, "OI"),
                (i.ei, "EI"),
                (i.ii, "II"),
                (i.b, "B"),
                (i.bw, "Bw"),
            ],
        );
        let (t, i) = l2();
        check(
            t,
            &[
                (i.np, "NP"),
                (i.ro, "RO"),
                (i.mt, "MT"),
                (i.wait_mem, "WaitMem"),
                (i.wait_unblock, "WaitUnblock"),
                (i.wait_fill_unblock, "WaitFillUnblock"),
                (i.wait_wb_data, "WaitWbData"),
                (i.wait_wb_ack_bd, "WaitWbAckBd"),
                (i.wait_recall, "WaitRecall"),
                (i.wait_recall_ack_bd, "WaitRecallAckBd"),
                (i.wait_mem_wb_ack, "WaitMemWbAck"),
                (i.ext, "EXT"),
                (i.mb, "MB"),
            ],
        );
        let (t, i) = mem();
        check(
            t,
            &[
                (i.u, "U"),
                (i.c, "C"),
                (i.wait_unblock, "WaitUnblock"),
                (i.wait_wb_data, "WaitWbData"),
                (i.wait_ack_bd, "WaitAckBd"),
            ],
        );
        assert_eq!(l1().0.facet_names(&[l1().1.mb, l1().1.im]), "Mb+IM");
    }

    #[test]
    fn a_same_row_expands_to_one_row_per_source_each_keeping_its_state() {
        let rows = row!([IS, IM, SM] @ msg(MsgType::Ack), if Granted(Data) "acks outstanding" => same;
                        gate FtOnly; sends [UnblockEx -> Home]);
        let got: Vec<(&str, Vec<&str>)> = rows.iter().map(|r| (r.src, r.next.clone())).collect();
        assert_eq!(
            got,
            [("IS", vec!["IS"]), ("IM", vec!["IM"]), ("SM", vec!["SM"])]
        );
        for r in &rows {
            assert_eq!(
                (r.event, r.guard, r.when, r.gate),
                (
                    msg(MsgType::Ack),
                    "acks outstanding",
                    Guard::Granted(MsgType::Data),
                    Gate::FtOnly
                )
            );
            assert_eq!(r.sends, [(MsgType::UnblockEx, Role::Home)]);
        }
    }

    #[test]
    fn misspelt_state_name_fails_id_resolution() {
        state_ids! {
            /// An id struct naming a state the L1 table does not declare.
            #[allow(dead_code)]
            Typo { mb => "MB" }
        }
        let err = Typo::resolve(l1_table()).expect_err("L1 has Mb, not MB");
        assert_eq!(err, "L1: no state named MB");
    }
}
