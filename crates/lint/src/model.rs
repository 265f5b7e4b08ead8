//! Lint 3 — abstract reachability.
//!
//! An abstract model of one cache line in a four-node system — two L1s
//! (`L1A`, `L1B`), the home L2 bank (`L2H`) and the memory controller
//! (`MEM`) — is explored by breadth-first search directly over the reified
//! transition tables.  The model is a deliberate over-approximation:
//!
//! * guards are not evaluated — every row matching a (facet, event) pair
//!   is branched on nondeterministically;
//! * messages live in an unordered in-flight *set* (duplicates collapse,
//!   delivery order is arbitrary), which also gives the L2 its request
//!   queueing semantics for free: an exact-state `Ignore` leaves the
//!   original world free to deliver other messages first;
//! * destination roles that the tables cannot name statically (owner,
//!   blocker, backup peer) are tracked by small per-node auxiliary
//!   variables and branched over when unknown;
//! * with fault tolerance on, every armed timeout (a facet state implying
//!   the timer resource) may fire at any moment, which reaches the
//!   recovery transitions without modelling actual message loss.
//!
//! The exploration flags (a) `Impossible`-declared pairs that the model
//! actually reaches, (b) FT-only states reached without fault tolerance,
//! and (c) rows that never fire in either mode — dead transitions — minus
//! an explicit, reasoned allowlist of rows beyond the model's fidelity.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use ftdircmp_core::msg::MsgType;
use ftdircmp_core::proto::TimeoutKind;
use ftdircmp_core::transitions::{
    table, Controller, ControllerTable, CpuOp, Dispatch, Event, Resource, Role, Transition,
};

use crate::{Finding, Severity};

/// The four nodes of the abstract system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Node {
    L1A,
    L1B,
    L2H,
    Mem,
}

impl Node {
    const ALL: [Node; 4] = [Node::L1A, Node::L1B, Node::L2H, Node::Mem];

    fn idx(self) -> usize {
        match self {
            Node::L1A => 0,
            Node::L1B => 1,
            Node::L2H => 2,
            Node::Mem => 3,
        }
    }

    fn controller(self) -> Controller {
        match self {
            Node::L1A | Node::L1B => Controller::L1,
            Node::L2H => Controller::L2,
            Node::Mem => Controller::Mem,
        }
    }

    fn other_l1(self) -> Node {
        match self {
            Node::L1A => Node::L1B,
            _ => Node::L1A,
        }
    }
}

/// An abstract in-flight message.  `req` is the original requester carried
/// by request-chains (resolves the `Requester` role at delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Msg {
    mt: MsgType,
    src: Node,
    dst: Node,
    req: Option<Node>,
}

/// Abstract per-node state: one table state per populated facet family,
/// plus the auxiliary role-tracking variables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct NodeState {
    facets: BTreeMap<&'static str, &'static str>,
    owner: Option<Node>,
    sharers: BTreeSet<Node>,
    blocker: Option<Node>,
    backup_dest: Option<Node>,
    ack_peer: Option<Node>,
}

impl NodeState {
    fn init(t: &ControllerTable) -> Self {
        let mut facets = BTreeMap::new();
        facets.insert(t.default_state().family, t.default_state().name);
        NodeState {
            facets,
            owner: None,
            sharers: BTreeSet::new(),
            blocker: None,
            backup_dest: None,
            ack_peer: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    nodes: [NodeState; 4],
    flight: BTreeSet<Msg>,
}

impl World {
    fn init(tables: [&'static ControllerTable; 3]) -> Self {
        World {
            nodes: [
                NodeState::init(tables[0]),
                NodeState::init(tables[0]),
                NodeState::init(tables[1]),
                NodeState::init(tables[2]),
            ],
            flight: BTreeSet::new(),
        }
    }
}

/// Rows the abstract model cannot drive, with the reason.  These are
/// excluded from the dead-transition report (as notes, not errors); keep
/// this list short and honest.
const MODEL_LIMITS: &[(Controller, &str, &str, &str)] = &[];

/// Exploration outcome of one mode.
pub struct Exploration {
    pub(crate) ft: bool,
    pub(crate) states: usize,
    pub(crate) truncated: bool,
    /// (controller, row index) pairs that fired at least once.
    pub fired: HashSet<(Controller, usize)>,
    /// `facets @ event` strings for reached impossible/uncovered pairs.
    pub bad_pairs: BTreeSet<(Controller, String, bool)>,
    /// FT-only states reached (only recorded when `ft == false`).
    pub ft_leaks: BTreeSet<(Controller, &'static str)>,
}

struct Ctx {
    tables: [&'static ControllerTable; 3],
    ft: bool,
    max_inflight: usize,
}

impl Ctx {
    fn table_of(&self, node: Node) -> &'static ControllerTable {
        match node.controller() {
            Controller::L1 => self.tables[0],
            Controller::L2 => self.tables[1],
            Controller::Mem => self.tables[2],
        }
    }

    /// Dispatch of `ev` against `ns`: the engine's own rule
    /// ([`ControllerTable::dispatch`]) over the node's facets.  An exact
    /// `Ignore` on a higher-priority facet is how the L2 "queues" requests
    /// behind an active TBE.
    fn dispatch(&self, node: Node, ns: &NodeState, ev: Event) -> Dispatch<'static> {
        let t = self.table_of(node);
        let facets: Vec<u8> = (ns.facets.values())
            .map(|s| t.state_id(s).expect("validated"))
            .collect();
        t.dispatch(&facets, ev, self.ft)
    }

    /// Candidate destinations for one send.  Outer vec: nondeterministic
    /// branches; inner vec: all destinations of that branch (fan-out).
    fn resolve(
        &self,
        role: Role,
        node: Node,
        ns: &NodeState,
        trigger: Option<&Msg>,
    ) -> Vec<Vec<Node>> {
        let one = |n: Node| vec![vec![n]];
        let skip = vec![vec![]];
        match role {
            Role::Home => one(Node::L2H),
            Role::MemCtl => one(Node::Mem),
            Role::SelfNode => one(node),
            Role::Requester => match trigger.map(|m| m.req.unwrap_or(m.src)) {
                Some(r) => one(r),
                None => skip,
            },
            Role::Sender => match trigger {
                Some(m) => one(m.src),
                None => skip,
            },
            Role::OwnerL1 => match ns.owner {
                Some(o) => one(o),
                None => vec![vec![Node::L1A], vec![Node::L1B]],
            },
            Role::Blocker => match ns.blocker {
                Some(b) => one(b),
                None => vec![vec![Node::L1A], vec![Node::L1B]],
            },
            Role::BackupDest => match ns.backup_dest {
                Some(d) => one(d),
                None => Node::ALL
                    .into_iter()
                    .filter(|&n| n != node)
                    .map(|n| vec![n])
                    .collect(),
            },
            Role::AckPeer => match ns.ack_peer {
                Some(p) => one(p),
                None => vec![vec![Node::L2H], vec![node.other_l1()]],
            },
            // Invalidations go to every sharer except the requester
            // being granted the line.
            Role::Sharers => {
                let req = trigger.map(|m| m.req.unwrap_or(m.src));
                vec![ns
                    .sharers
                    .iter()
                    .copied()
                    .filter(|&s| Some(s) != req)
                    .collect()]
            }
        }
    }

    /// Applies `row` at `node`, returning every successor world (branching
    /// over unresolved destination roles).  `trigger` is the delivered
    /// message, if any; it has already been removed from `base.flight`.
    fn apply_row(
        &self,
        base: &World,
        node: Node,
        row: &Transition,
        trigger: Option<&Msg>,
        truncated: &mut bool,
    ) -> Vec<World> {
        let t = self.table_of(node);
        let mut w = base.clone();

        // Send destinations are resolved against the pre-update aux state.
        let option_sets: Vec<(MsgType, Vec<Vec<Node>>)> = row
            .sends
            .iter()
            .map(|&(mt, role)| (mt, self.resolve(role, node, &w.nodes[node.idx()], trigger)))
            .collect();

        // Facet update: the source family is cleared unless re-mentioned
        // (mandatory family falls back to its default), every family named
        // in `next` is set.
        let ns = &mut w.nodes[node.idx()];
        let src_family = t.state(row.src).expect("validated").family;
        ns.facets.remove(src_family);
        if src_family == t.families[0] {
            ns.facets.insert(src_family, t.default_state().name);
        }
        for n in &row.next {
            let decl = t.state(n).expect("validated");
            ns.facets.insert(decl.family, decl.name);
        }

        // Auxiliary role tracking (hand-coded; see module docs).
        // Trigger-less rows (timeouts) re-enter these states without
        // learning a new peer: preserve the recorded one.
        let req = trigger.map(|m| m.req.unwrap_or(m.src));
        for n in &row.next {
            match *n {
                "B" => ns.backup_dest = req.or(ns.backup_dest),
                "Bw" => ns.backup_dest = trigger.map(|m| m.src).or(ns.backup_dest),
                "MB" => ns.backup_dest = Some(Node::Mem),
                "Mb" | "Eb" => ns.ack_peer = trigger.map(|m| m.src).or(ns.ack_peer),
                _ => {}
            }
        }
        if row.alloc.contains(&Resource::Tbe) || row.ft_alloc.contains(&Resource::Tbe) {
            ns.blocker = trigger.map(|m| m.src);
        }
        match row.event {
            Event::Msg(MsgType::UnblockEx) => {
                ns.owner = trigger.map(|m| m.src);
                ns.sharers.clear();
            }
            Event::Msg(MsgType::Unblock) => {
                if let Some(m) = trigger {
                    ns.sharers.insert(m.src);
                }
            }
            _ => {}
        }
        let invalidated_sharers = row
            .sends
            .iter()
            .any(|&(mt, role)| mt == MsgType::Inv && role == Role::Sharers);
        if invalidated_sharers {
            ns.sharers.clear();
        }
        normalize(ns, node);

        // The requester tag carried by each emitted message: a fresh
        // request (GetS/GetX/Put) starts a new chain on behalf of its
        // sender; forwards and responses propagate the original requester.
        let out_req = |mt: MsgType| match mt {
            MsgType::GetS | MsgType::GetX | MsgType::Put => Some(node),
            _ => match trigger {
                Some(m) => m.req.or(Some(m.src)),
                None => Some(node),
            },
        };

        // Branch over the cartesian product of per-send options.
        let mut combos: Vec<Vec<Msg>> = vec![Vec::new()];
        for (mt, options) in &option_sets {
            let mut next_combos = Vec::new();
            for combo in &combos {
                for option in options {
                    let mut c = combo.clone();
                    for &dst in option {
                        c.push(Msg {
                            mt: *mt,
                            src: node,
                            dst,
                            // `req == src` is implied; canonicalize to None
                            // so equivalent worlds collapse.
                            req: out_req(*mt).filter(|&r| r != node),
                        });
                    }
                    next_combos.push(c);
                }
            }
            combos = next_combos;
        }

        let mut out = Vec::new();
        for combo in combos {
            let mut succ = w.clone();
            succ.flight.extend(combo);
            if succ.flight.len() > self.max_inflight {
                *truncated = true;
                continue;
            }
            out.push(succ);
        }
        out
    }
}

/// Canonicalizes the auxiliary variables against the facet configuration
/// so that equivalent worlds hash equal.
fn normalize(ns: &mut NodeState, node: Node) {
    let backup = ns.facets.contains_key("Backup") || ns.facets.contains_key("MemBk");
    if !backup {
        ns.backup_dest = None;
    }
    match node.controller() {
        Controller::L1 => {
            if !matches!(ns.facets.get("Cache"), Some(&"Mb" | &"Eb")) {
                ns.ack_peer = None;
            }
            ns.owner = None;
            ns.sharers.clear();
            ns.blocker = None;
        }
        Controller::L2 => {
            if !ns.facets.contains_key("Tbe") {
                ns.blocker = None;
            }
            match ns.facets.get("Line") {
                Some(&"MT") => {}
                Some(&"NP") => {
                    ns.owner = None;
                    ns.sharers.clear();
                }
                _ => ns.owner = None,
            }
            ns.ack_peer = None;
        }
        Controller::Mem => {
            if !ns.facets.contains_key("Tbe") {
                ns.blocker = None;
            }
            ns.owner = None;
            ns.sharers.clear();
            ns.ack_peer = None;
        }
    }
}

fn timer_of(k: TimeoutKind) -> Resource {
    match k {
        TimeoutKind::LostRequest => Resource::TimerLostRequest,
        TimeoutKind::LostUnblock => Resource::TimerLostUnblock,
        TimeoutKind::LostAckBd => Resource::TimerLostAckBd,
        TimeoutKind::LostData => Resource::TimerLostData,
    }
}

/// The compiled-in tables in the order the model expects.
#[must_use]
pub(crate) fn default_tables() -> [&'static ControllerTable; 3] {
    [
        table(Controller::L1),
        table(Controller::L2),
        table(Controller::Mem),
    ]
}

/// Explores one mode exhaustively (up to the caps) over the compiled-in
/// tables.
#[must_use]
pub fn explore(ft: bool, max_states: usize, max_inflight: usize) -> Exploration {
    explore_with(default_tables(), ft, max_states, max_inflight)
}

/// Explores one mode over an arbitrary table set (tests drive this with
/// deliberately broken fixtures).
#[must_use]
pub fn explore_with(
    tables: [&'static ControllerTable; 3],
    ft: bool,
    max_states: usize,
    max_inflight: usize,
) -> Exploration {
    let ctx = Ctx {
        tables,
        ft,
        max_inflight,
    };
    let mut exp = Exploration {
        ft,
        states: 0,
        truncated: false,
        fired: HashSet::new(),
        bad_pairs: BTreeSet::new(),
        ft_leaks: BTreeSet::new(),
    };

    let init = World::init(tables);
    let mut seen: HashSet<World> = HashSet::new();
    let mut queue: VecDeque<World> = VecDeque::new();
    seen.insert(init.clone());
    queue.push_back(init);

    let record = |exp: &mut Exploration, node: Node, row_idx: usize| -> bool {
        exp.fired.insert((node.controller(), row_idx))
    };

    // Novelty-guided order: successors produced by a row that had never
    // fired before are explored next (depth-first into new territory);
    // the rest are deferred to the front of the deque.  Plain BFS or DFS
    // both drown in shallow interleaving churn before reaching the deep
    // multi-hop flows (recalls, recovery) within the state cap.
    while let Some(w) = queue.pop_back() {
        if seen.len() >= max_states {
            exp.truncated = true;
            break;
        }
        let mut successors: Vec<(World, bool)> = Vec::new();

        // Message deliveries.
        for m in w.flight.iter().copied().collect::<Vec<_>>() {
            let node = m.dst;
            let ns = &w.nodes[node.idx()];
            let mut base = w.clone();
            base.flight.remove(&m);
            // Busy-home admission, the engine's `admit_busy`: a request that
            // finds a transaction open runs the transaction's (reissue) rows
            // only from its blocker; any other waits behind it.
            let request = matches!(m.mt, MsgType::GetS | MsgType::GetX | MsgType::Put);
            let queued = request
                && node.controller() != Controller::L1
                && ns.facets.contains_key("Tbe")
                && ns.blocker != Some(m.src);
            let dispatch = if queued {
                Dispatch::Ignore
            } else {
                ctx.dispatch(node, ns, Event::Msg(m.mt))
            };
            match dispatch {
                Dispatch::Rows(rows) => {
                    for ri in rows.iter().map(|&i| usize::from(i)) {
                        let novel = record(&mut exp, node, ri);
                        let row = &ctx.table_of(node).rows[ri];
                        successors.extend(
                            ctx.apply_row(&base, node, row, Some(&m), &mut exp.truncated)
                                .into_iter()
                                .map(|s| (s, novel)),
                        );
                    }
                }
                Dispatch::Ignore => successors.push((base, false)),
                bad => {
                    let facets: Vec<&str> = ns.facets.values().copied().collect();
                    exp.bad_pairs.insert((
                        node.controller(),
                        format!("{} @ {}", facets.join("+"), Event::Msg(m.mt)),
                        bad == Dispatch::Uncovered,
                    ));
                    successors.push((base, false)); // consume and continue
                }
            }
        }

        // CPU ops at the L1s.
        for node in [Node::L1A, Node::L1B] {
            for op in CpuOp::ALL {
                // Injected, not delivered: an uncovered pair is already
                // lint 1's finding, so only rows inject anything.
                if let Dispatch::Rows(rows) =
                    ctx.dispatch(node, &w.nodes[node.idx()], Event::Cpu(op))
                {
                    for ri in rows.iter().map(|&i| usize::from(i)) {
                        let novel = record(&mut exp, node, ri);
                        let row = &ctx.table_of(node).rows[ri];
                        successors.extend(
                            ctx.apply_row(&w, node, row, None, &mut exp.truncated)
                                .into_iter()
                                .map(|s| (s, novel)),
                        );
                    }
                }
            }
        }

        // Internal victim selection at the L1s and the home bank: a quiescent
        // resident line may be evicted at any moment to make room for
        // another fill. The exact-state `Impossible` exceptions (a blocked
        // or upgrading L1 line; a TBE, EXT or MB at the bank) stop the
        // dispatch, mirroring the implementations' victim predicates.
        for node in [Node::L1A, Node::L1B, Node::L2H] {
            if let Dispatch::Rows(rows) = ctx.dispatch(node, &w.nodes[node.idx()], Event::Victim) {
                for ri in rows.iter().map(|&i| usize::from(i)) {
                    let novel = record(&mut exp, node, ri);
                    let row = &ctx.table_of(node).rows[ri];
                    successors.extend(
                        ctx.apply_row(&w, node, row, None, &mut exp.truncated)
                            .into_iter()
                            .map(|s| (s, novel)),
                    );
                }
            }
        }

        // Timeouts: with FT on, any armed timer may fire at any moment.  A
        // timer is armed exactly when a populated facet state implies it.
        if ft {
            for node in Node::ALL {
                let t = ctx.table_of(node);
                for k in TimeoutKind::ALL {
                    let armed = w.nodes[node.idx()].facets.values().any(|s| {
                        t.state(s)
                            .expect("validated")
                            .implied(true)
                            .contains(&timer_of(k))
                    });
                    if !armed {
                        continue;
                    }
                    if let Dispatch::Rows(rows) =
                        ctx.dispatch(node, &w.nodes[node.idx()], Event::Timeout(k))
                    {
                        for ri in rows.iter().map(|&i| usize::from(i)) {
                            let novel = record(&mut exp, node, ri);
                            let row = &ctx.table_of(node).rows[ri];
                            successors.extend(
                                ctx.apply_row(&w, node, row, None, &mut exp.truncated)
                                    .into_iter()
                                    .map(|s| (s, novel)),
                            );
                        }
                    }
                }
            }
        }

        for (succ, novel) in successors {
            if !ft {
                for node in Node::ALL {
                    let t = ctx.table_of(node);
                    for s in succ.nodes[node.idx()].facets.values() {
                        if t.state(s).expect("validated").ft_only {
                            exp.ft_leaks.insert((node.controller(), s));
                        }
                    }
                }
            }
            if !seen.contains(&succ) {
                seen.insert(succ.clone());
                if novel {
                    queue.push_back(succ);
                } else {
                    queue.push_front(succ);
                }
            }
        }
    }
    exp.states = seen.len();
    exp
}

/// Lint 3 (+ the dynamic half of lint 5) entry point.
#[must_use]
pub(crate) fn reachability(max_states: usize, max_inflight: usize) -> Vec<Finding> {
    // Split the state budget between the two modes; the FT run is the
    // larger machine.
    let non_ft = explore(false, max_states / 4, max_inflight);
    let ft = explore(true, max_states, max_inflight);
    let mut findings = Vec::new();

    for exp in [&non_ft, &ft] {
        for (c, pair, uncovered) in &exp.bad_pairs {
            findings.push(Finding::error(
                "reachability",
                Some(*c),
                format!(
                    "abstract model ({} mode) delivers `{pair}`, which the table declares {}",
                    if exp.ft { "ft" } else { "non-ft" },
                    if *uncovered {
                        "nothing for (uncovered)"
                    } else {
                        "impossible"
                    }
                ),
            ));
        }
    }
    for (c, state) in &non_ft.ft_leaks {
        findings.push(Finding::error(
            "ft-gating",
            Some(*c),
            format!("FT-only state {state} reached with fault tolerance disabled"),
        ));
    }

    let truncated = non_ft.truncated || ft.truncated;
    for c in Controller::ALL {
        let t = table(c);
        for (i, row) in t.rows.iter().enumerate() {
            if non_ft.fired.contains(&(c, i)) || ft.fired.contains(&(c, i)) {
                continue;
            }
            let limit = MODEL_LIMITS.iter().find(|(lc, src, ev, guard)| {
                *lc == c
                    && *src == row.src
                    && *ev == row.event.to_string()
                    && (*guard == "*" || *guard == row.guard)
            });
            let label = format!(
                "row `{} @ {}`{} never fires in the abstract model",
                row.src,
                row.event,
                if row.guard.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", row.guard)
                }
            );
            if limit.is_some() {
                findings.push(Finding::note(
                    "reachability",
                    Some(c),
                    format!("{label} (allowlisted: beyond the model's fidelity)"),
                ));
            } else {
                findings.push(Finding {
                    lint: "reachability",
                    severity: if truncated {
                        Severity::Note
                    } else {
                        Severity::Error
                    },
                    controller: Some(c),
                    message: if truncated {
                        format!("{label} (exploration truncated; advisory)")
                    } else {
                        format!("{label}: dead transition?")
                    },
                });
            }
        }
    }
    if truncated {
        findings.push(Finding::note(
            "reachability",
            None,
            format!(
                "exploration truncated (non-ft: {} states{}, ft: {} states{}); dead-transition results are advisory",
                non_ft.states,
                if non_ft.truncated { " — capped" } else { "" },
                ft.states,
                if ft.truncated { " — capped" } else { "" },
            ),
        ));
    }
    findings
}
