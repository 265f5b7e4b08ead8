//! Bounded explicit-state search over the real controllers: lint 3 of
//! DESIGN.md §10, which gives its world, steps, state and checks. Two L1s
//! with one-line caches, one home bank with a one-entry L2 and one memory
//! controller run over two lines `A` and `B` through `Ctx`. Messages are
//! delivered in any order with fault tolerance (in order per node pair
//! without it) or dropped within a budget; timers fire early within a
//! budget, or on time and fairly ([`ON_TIME`]). A state is its protocol
//! state, without statistics, cycles, LRU order, slot handles or timer
//! generations. Breadth-first, so each failure has a shortest path.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use ftdircmp_sim::{Cycle, DetRng, FxHasher};

use crate::checker::Checker;
use crate::config::SystemConfig;
use crate::ids::{LineAddr, NodeId};
use crate::l1::{CpuOp, CpuOutcome, L1Controller};
use crate::l2::L2Controller;
use crate::mem::MemController;
use crate::msg::Message;
use crate::proto::{CoreCompletion, Ctx, TimeoutReq};
use crate::stats::ProtocolStats;
use crate::transitions::{Controller, ControllerTable, L1Ids, L2Ids, MemIds};

/// The two lines, homed at bank 0 and memory 0 of two tiles and one memory.
const LINES: [LineAddr; 2] = [LineAddr(0), LineAddr(2)];

/// How far the search goes, per path from the initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Ops each L1 issues.
    pub ops: u8,
    /// Messages the network may drop.
    pub drops: u8,
    /// Timers that may fire while a message is in flight.
    pub early: u8,
}

/// On-time firings of one record's timer. Backoff lengthens each retry
/// (DESIGN.md §6.4), so the records that fired least fire next, and a record
/// that fired three times without progress while every other record had
/// its turns is stuck: a state with no step left is then a finding.
pub const ON_TIME: u8 = 3;

/// A broken invariant — a checker violation (`PROTOCOL:` for an
/// `Impossible` or uncovered event), a lost last copy or a stuck state —
/// and the first path to it, one line per op, delivery, drop or firing.
#[derive(Debug, Clone)]
pub struct Failure {
    pub what: String,
    pub steps: Vec<String>,
}

/// The outcome of one [`search`], which always runs to exhaustion.
#[derive(Debug, Clone)]
pub struct Report {
    /// Distinct states explored.
    pub states: usize,
    /// The rows applied: (controller, row index).
    pub fired: BTreeSet<(Controller, usize)>,
    /// Each distinct failure.
    pub failures: Vec<Failure>,
}

/// Explores every state reachable within `bounds`, with fault tolerance
/// `ft`, running `tables` (L1, L2, memory: the compiled-in tables or
/// fixtures built from them).
///
/// # Errors
///
/// A table that lacks a state its controller reports.
pub fn search(
    tables: [&'static ControllerTable; 3],
    ft: bool,
    bounds: Bounds,
) -> Result<Report, String> {
    let mut sink = Sink::new(ft, bounds);
    let init = World::new(tables, &sink.config, bounds)?;
    let mut seen = HashSet::from([init.key()]);
    // `tree[id - 1]`: the parent and the step of state `id`; 0 is the root.
    let mut tree: Vec<(u32, Choice)> = Vec::new();
    let mut found: Vec<(String, u32, Option<Choice>)> = Vec::new();
    let mut note = |what: String, id, last| {
        if found.iter().all(|f| f.0 != what) {
            found.push((what, id, last));
        }
    };
    let mut queue = VecDeque::from([(0u32, init.clone())]);
    while let Some((id, world)) = queue.pop_front() {
        let choices = world.choices(&sink);
        if let Some(what) = choices.is_empty().then(|| world.stuck()).flatten() {
            note(what, id, None);
        }
        for choice in choices {
            let mut next = world.clone();
            next.take(choice, &mut sink);
            if let Some(what) = next.check() {
                note(what, id, Some(choice));
            } else if seen.insert(next.key()) {
                tree.push((id, choice));
                queue.push_back((tree.len() as u32, next));
            }
        }
    }
    let fired = (Controller::ALL.into_iter().zip(tables))
        .flat_map(|(c, t)| (0..t.rows.len()).map(move |r| (c, r)))
        .filter(|&(c, r)| sink.stats.fired(c, r))
        .collect();
    let failures = (found.into_iter())
        .map(|(what, mut id, last)| {
            let mut path: Vec<Choice> = last.into_iter().collect();
            while id != 0 {
                let choice;
                (id, choice) = tree[id as usize - 1];
                path.push(choice);
            }
            let mut world = init.clone();
            let steps = (path.into_iter().rev())
                .map(|c| {
                    let step = world.describe(c);
                    world.take(c, &mut sink);
                    step
                })
                .collect();
            Failure { what, steps }
        })
        .collect();
    Ok(Report {
        states: seen.len(),
        fired,
        failures,
    })
}

/// One step; indices are into the state's canonical orders of messages
/// and timers.
#[derive(Debug, Clone, Copy)]
enum Choice {
    Issue { l1: usize, line: usize, store: bool },
    Deliver(usize),
    Drop(usize),
    Fire(usize),
}

/// What every step shares: the configuration, the effect buffers, and the
/// statistics, which gather the rows applied over the whole search.
struct Sink {
    config: SystemConfig,
    bounds: Bounds,
    stats: ProtocolStats,
    out: Vec<Message>,
    timeouts: Vec<TimeoutReq>,
    completions: Vec<CoreCompletion>,
}

impl Sink {
    fn new(ft: bool, bounds: Bounds) -> Self {
        let mut config = if ft {
            SystemConfig::ftdircmp()
        } else {
            SystemConfig::dircmp()
        };
        (config.tiles, config.mem_controllers) = (2, 1);
        (config.l1_bytes, config.l1_assoc) = (config.line_bytes, 1);
        (config.l2_bank_bytes, config.l2_assoc) = (config.line_bytes, 1);
        Sink {
            config,
            bounds,
            stats: ProtocolStats::new(),
            out: Vec::new(),
            timeouts: Vec::new(),
            completions: Vec::new(),
        }
    }

    fn ctx<'a>(&'a mut self, checker: &'a mut Checker) -> Ctx<'a> {
        Ctx {
            now: Cycle::ZERO,
            out: &mut self.out,
            timeouts: &mut self.timeouts,
            completions: &mut self.completions,
            stats: &mut self.stats,
            checker,
            config: &self.config,
        }
    }
}

/// A timer's record, as the state names it: node, line and kind.
type Record = (NodeId, LineAddr, usize);

fn record(t: &TimeoutReq) -> Record {
    (t.node, t.addr, t.kind.index())
}

/// One state.
#[derive(Clone)]
struct World {
    l1s: [L1Controller; 2],
    l2: L2Controller,
    mem: MemController,
    checker: Checker,
    /// In flight, in canonical order: by content, or without fault
    /// tolerance by node pair, oldest first.
    flight: Vec<Message>,
    /// The armed firings some record's slot still carries, by record.
    timers: Vec<TimeoutReq>,
    /// The on-time firings of each armed record so far, by record.
    on_time: Vec<(Record, u8)>,
    /// Per L1: ops left, and whether one is outstanding.
    ops: [u8; 2],
    busy: [bool; 2],
    /// Budgets left.
    drops: u8,
    early: u8,
}

impl World {
    fn new(
        [l1, l2, mem]: [&'static ControllerTable; 3],
        config: &SystemConfig,
        bounds: Bounds,
    ) -> Result<Self, String> {
        let mut rng = DetRng::from_seed(config.seed);
        let l1_ids = L1Ids::resolve(l1)?;
        let l1s = [0, 1].map(|t| L1Controller::new(t, config, &mut rng).with_table(l1, l1_ids));
        let ft = config.protocol.is_fault_tolerant();
        Ok(World {
            l1s,
            l2: L2Controller::new(0, config, &mut rng).with_table(l2, L2Ids::resolve(l2)?),
            mem: MemController::new(0, ft).with_table(mem, MemIds::resolve(mem)?),
            checker: Checker::new(true),
            flight: Vec::new(),
            timers: Vec::new(),
            on_time: Vec::new(),
            ops: [bounds.ops; 2],
            busy: [false; 2],
            drops: bounds.drops,
            early: bounds.early,
        })
    }

    /// The state's hash: two FxHash lanes started apart, so two states are
    /// taken for one only if 128 bits collide.
    fn key(&self) -> u128 {
        let lane = |salt: u64| {
            let mut h = FxHasher::default();
            salt.hash(&mut h);
            for l1 in &self.l1s {
                l1.hash_state(&LINES, &mut h);
            }
            self.l2.hash_state(&LINES, &mut h);
            self.mem.hash_state(&LINES, &mut h);
            for addr in LINES {
                self.checker.hash_line(addr, &mut h);
            }
            self.flight.hash(&mut h);
            self.timers.iter().map(record).for_each(|r| r.hash(&mut h));
            (&self.on_time, self.ops, self.busy, self.drops, self.early).hash(&mut h);
            u128::from(h.finish())
        };
        lane(0) << 64 | lane(0x9E37_79B9_7F4A_7C15)
    }

    /// Every step enabled here. Identical messages are one choice.
    fn choices(&self, sink: &Sink) -> Vec<Choice> {
        let first = self.ops == [sink.bounds.ops; 2];
        let (l1s, lines) = if first { (1, 1) } else { (2, 2) };
        let mut out = Vec::new();
        for l1 in (0..l1s).filter(|&i| !self.busy[i] && self.ops[i] > 0) {
            for line in 0..lines {
                out.extend([false, true].map(|store| Choice::Issue { l1, line, store }));
            }
        }
        let ft = sink.config.protocol.is_fault_tolerant();
        // Behind an identical message, or without fault tolerance any
        // older one between the same two nodes.
        let queued = |p: &Message, m: &Message| (p.src, p.dst) == (m.src, m.dst) && (!ft || p == m);
        for (i, m) in self.flight.iter().enumerate() {
            if i == 0 || !queued(&self.flight[i - 1], m) {
                out.push(Choice::Deliver(i));
                out.extend((self.drops > 0).then_some(Choice::Drop(i)));
            }
        }
        let fired = |t: &TimeoutReq| {
            let at = self.on_time.binary_search_by_key(&record(t), |e| e.0);
            at.map_or(0, |at| self.on_time[at].1)
        };
        let least = self.timers.iter().map(fired).min().unwrap_or(0);
        for (i, t) in self.timers.iter().enumerate() {
            let on_time = self.flight.is_empty() && fired(t) == least && least < ON_TIME;
            if on_time || !self.flight.is_empty() && self.early > 0 {
                out.push(Choice::Fire(i));
            }
        }
        out
    }

    /// Takes step `c`.
    fn take(&mut self, c: Choice, sink: &mut Sink) {
        let mut ctx = sink.ctx(&mut self.checker);
        match c {
            Choice::Issue { l1, line, store } => {
                self.ops[l1] -= 1;
                let op = CpuOp {
                    addr: LINES[line],
                    is_store: store,
                };
                self.busy[l1] = self.l1s[l1].cpu_access(op, &mut ctx) != CpuOutcome::Hit;
            }
            Choice::Deliver(i) => {
                let m = self.flight.remove(i);
                match m.dst {
                    NodeId::L1(t) => self.l1s[usize::from(t)].handle_message(m, &mut ctx),
                    NodeId::L2(_) => self.l2.handle_message(m, &mut ctx),
                    NodeId::Mem(_) => self.mem.handle_message(m, &mut ctx),
                }
            }
            Choice::Drop(i) => {
                self.flight.remove(i);
                self.drops -= 1;
            }
            Choice::Fire(i) => {
                let t = self.timers.remove(i);
                if !self.flight.is_empty() {
                    self.early -= 1;
                } else {
                    match self.on_time.binary_search_by_key(&record(&t), |e| e.0) {
                        Ok(at) => self.on_time[at].1 += 1,
                        Err(at) => self.on_time.insert(at, (record(&t), 1)),
                    }
                }
                match t.node {
                    NodeId::L1(n) => {
                        let l1 = &mut self.l1s[usize::from(n)];
                        l1.handle_timeout(t.kind, t.addr, t.gen, &mut ctx);
                    }
                    NodeId::L2(_) => self.l2.handle_timeout(t.kind, t.addr, t.gen, &mut ctx),
                    NodeId::Mem(_) => self.mem.handle_timeout(t.kind, t.addr, t.gen, &mut ctx),
                }
            }
        }
        self.flight.append(&mut sink.out);
        self.timers.append(&mut sink.timeouts);
        for c in sink.completions.drain(..) {
            self.busy[usize::from(c.core)] = false;
        }
        let mut timers = std::mem::take(&mut self.timers);
        timers.retain(|t| match t.node {
            NodeId::L1(n) => self.l1s[usize::from(n)].carries(t.addr, t.kind, t.gen),
            NodeId::L2(_) => self.l2.carries(t.addr, t.kind, t.gen),
            NodeId::Mem(_) => self.mem.carries(t.addr, t.kind, t.gen),
        });
        timers.sort_by_key(record);
        self.on_time
            .retain(|(r, _)| timers.binary_search_by_key(r, record).is_ok());
        self.timers = timers;
        if sink.config.protocol.is_fault_tolerant() {
            self.flight.sort_by_cached_key(|m| {
                let mut h = FxHasher::default();
                m.hash(&mut h);
                h.finish()
            });
        } else {
            self.flight.sort_by_key(|m| (m.src, m.dst)); // stable: oldest first
        }
    }

    /// The invariant this state breaks, if any.
    fn check(&self) -> Option<String> {
        if let Some(v) = self.checker.violations().first() {
            return Some(v.clone());
        }
        for addr in LINES {
            let v = self.checker.version(addr);
            let sent = self
                .flight
                .iter()
                .filter(|m| m.addr == addr)
                .filter_map(|m| m.data);
            let mut copies = (self.l1s.iter().flat_map(|l1| l1.copies(addr)))
                .chain(self.l2.copies(addr))
                .chain([self.mem.data_of(addr)])
                .chain(sent);
            if !copies.any(|d| d.version() == v) {
                return Some(format!("the last copy of {} (v{v}) is lost", name(addr)));
            }
        }
        None
    }

    /// At a state with no step left: the op outstanding or the record held.
    fn stuck(&self) -> Option<String> {
        let mut held: String = self.l1s.iter().map(L1Controller::pending_summary).collect();
        held = held + &self.l2.pending_summary() + &self.mem.pending_summary();
        if let Some(l1) = (0..2).find(|&i| self.busy[i]) {
            return Some(format!(
                "L1-{l1}'s op never completes; held: {}",
                held.trim_end()
            ));
        }
        let idle =
            self.l1s.iter().all(L1Controller::is_idle) && self.l2.is_idle() && self.mem.is_idle();
        (!idle).then(|| format!("records left at quiescence: {}", held.trim_end()))
    }

    /// Step `c` in words.
    fn describe(&self, c: Choice) -> String {
        let show = |m: &Message| {
            let data = m
                .data
                .map_or(String::new(), |d| format!(" v{}", d.version()));
            let acko = if m.piggy_acko { " +AckO" } else { "" };
            let (t, src, dst, line, serial) = (m.mtype, m.src, m.dst, name(m.addr), m.serial);
            format!("{t} {src} -> {dst} on {line} {serial}{data}{acko}")
        };
        match c {
            Choice::Issue { l1, line, store } => {
                let op = if store { "Store" } else { "Load" };
                format!("L1-{l1} issues {op} {}", name(LINES[line]))
            }
            Choice::Deliver(i) => format!("deliver {}", show(&self.flight[i])),
            Choice::Drop(i) => format!("drop {}", show(&self.flight[i])),
            Choice::Fire(i) => {
                let t = &self.timers[i];
                let when = if self.flight.is_empty() {
                    "on time"
                } else {
                    "early"
                };
                let (node, kind, line) = (t.node, t.kind, name(t.addr));
                format!("{node}'s {kind} timer on {line} fires {when}")
            }
        }
    }
}

/// A line's name in a step list.
fn name(addr: LineAddr) -> &'static str {
    ["A", "B"][usize::from(addr != LINES[0])]
}
