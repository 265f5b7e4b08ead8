//! System assembly and the simulation driver.
//!
//! A [`System`] wires 16 tiles (core + L1 + L2 bank), the memory
//! controllers, and the mesh network together, then runs a [`Workload`] to
//! completion, producing a [`SimReport`] with the quantities the paper's
//! evaluation reports.

use ftdircmp_noc::{FaultConfig, Mesh, NocStats, RouterId};
use ftdircmp_sim::{Cycle, DetRng, EventQueue};

use crate::checker::Checker;
use crate::config::{ProtocolVariant, SystemConfig};
use crate::cpu::{Cpu, IssueBlock};
use crate::ids::{LineAddr, NodeId};
use crate::l1::{CpuOp, CpuOutcome, L1Controller};
use crate::l2::L2Controller;
use crate::mem::MemController;
use crate::msg::Message;
use crate::proto::{CoreCompletion, Ctx, TimeoutKind, TimeoutReq};
use crate::stats::ProtocolStats;
use crate::trace::{TraceOp, Workload};
use crate::tracelog::{TraceEvent, TraceEventKind, TraceSink};

#[derive(Debug, Clone)]
enum Event {
    CpuStep(u8),
    Deliver(Message),
    Timeout {
        node: NodeId,
        addr: LineAddr,
        kind: TimeoutKind,
        gen: u64,
    },
}

/// One stalled core at deadlock-detection time: which lines it is blocked
/// on and how far it got. Quarantine records and exploration reports use
/// this to name the stuck line instead of just reporting "no progress".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledCore {
    /// Core index.
    pub core: u8,
    /// Line addresses of the misses still in flight (issue order).
    pub pending_lines: Vec<LineAddr>,
    /// Memory operations the core had retired before stalling.
    pub mem_ops_done: u64,
}

impl std::fmt::Display for StalledCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core {} blocked on [", self.core)?;
        for (i, line) in self.pending_lines.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{line}")?;
        }
        write!(f, "] after {} mem ops", self.mem_ops_done)
    }
}

/// Why a run ended without completing the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// No core made progress for the watchdog window — the protocol
    /// deadlocked (expected for DirCMP on a faulty network, §3).
    Deadlock {
        /// Simulated time at detection.
        at: u64,
        /// Last cycle at which any core retired an operation.
        last_progress: u64,
        /// The cores still blocked on memory, each with the lines it is
        /// waiting on and its retirement progress.
        stalled: Vec<StalledCore>,
        /// In-flight state of every controller at detection time.
        diagnostics: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            RunError::Deadlock {
                at,
                last_progress,
                stalled,
                diagnostics,
            } => {
                write!(
                    f,
                    "deadlock detected at cycle {at}: {} cores blocked \
                     (no progress since cycle {last_progress})",
                    stalled.len()
                )?;
                for s in stalled {
                    write!(f, "\n  {s}")?;
                }
                write!(f, "\n{diagnostics}")
            }
        }
    }
}

impl RunError {
    /// The first blocked core that waits on a line, and that line: what a
    /// deadlock record names as stuck.
    pub fn first_stuck(&self) -> Option<(u8, LineAddr)> {
        match self {
            RunError::Deadlock { stalled, .. } => stalled
                .iter()
                .find_map(|s| s.pending_lines.first().map(|l| (s.core, *l))),
            RunError::InvalidConfig(_) => None,
        }
    }
}

impl std::error::Error for RunError {}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Protocol that ran.
    pub protocol: ProtocolVariant,
    /// Workload name.
    pub workload: String,
    /// Execution time: cycle at which the last core retired its last
    /// operation.
    pub cycles: u64,
    /// Total operations retired.
    pub total_ops: u64,
    /// Total memory operations retired.
    pub total_mem_ops: u64,
    /// Protocol statistics (traffic by type, misses, timeouts, …).
    pub stats: ProtocolStats,
    /// Network statistics (traffic by class, drops, latency).
    pub noc: NocStats,
    /// Invariant violations found by the checker (must be empty).
    pub violations: Vec<String>,
    /// Messages the network lost, to the fault injector or to correlated
    /// fault domains (link flaps, degraded channels, unroutable drops).
    pub messages_lost: u64,
    /// Residual protocol activity never drained (diagnostic; should be 0).
    pub residual_activity: u64,
    /// Utilization of the busiest mesh link over the run (0.0..=1.0).
    pub max_link_utilization: f64,
    /// Mean utilization across links that carried traffic.
    pub mean_link_utilization: f64,
    /// Total simulation events processed (throughput denominator for
    /// events/sec reporting).
    pub events: u64,
    /// Virtual-channel class of every message the fault injector examined,
    /// index-aligned with deterministic drop indices. Empty unless
    /// `mesh.record_injections` was set; the exploration harness uses it to
    /// target drops at protocol-dense message classes.
    pub injection_classes: Vec<ftdircmp_noc::VcClass>,
    /// Per-fault-epoch recovery telemetry, one entry per scheduled fault
    /// event whose window opened during the run (empty without fault
    /// domains). Campaigns use these to plot degradation/recovery curves.
    pub fault_epochs: Vec<FaultEpochReport>,
}

/// Recovery telemetry for one scheduled fault event (DESIGN.md §12): what
/// the protocol spent riding through the event and how quickly it resumed
/// retiring work once the event cleared.
///
/// Counters cover the epoch window `[start, recovered_at)` — or
/// `[start, end-of-run)` if the run finished before recovery was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEpochReport {
    /// Event label (e.g. `"flap r1-east@[100,200)"`).
    pub label: String,
    /// First cycle of the event window.
    pub start: u64,
    /// First cycle after the event window.
    pub end: u64,
    /// Protocol timeouts fired during the epoch (all kinds).
    pub timeouts_fired: u64,
    /// Requests reissued during the epoch.
    pub(crate) reissues: u64,
    /// Recovery pings sent during the epoch.
    pub(crate) pings_sent: u64,
    /// Messages the network lost during the epoch (all causes).
    pub messages_lost: u64,
    /// Memory operations retired during the epoch (forward progress under
    /// degradation).
    pub(crate) mem_ops_retired: u64,
    /// Cycle of the first operation retired at or after `end` — the moment
    /// the system demonstrably recovered. `None` if the run finished (or
    /// gave up) without retiring anything after the event cleared.
    pub(crate) recovered_at: Option<u64>,
}

impl FaultEpochReport {
    /// Cycles from the end of the event to the first retirement after it.
    pub fn time_to_recover(&self) -> Option<u64> {
        self.recovered_at.map(|r| r.saturating_sub(self.end))
    }
}

/// Counter snapshot used to delta per-epoch telemetry.
#[derive(Debug, Clone, Copy, Default)]
struct EpochMarks {
    timeouts: u64,
    reissues: u64,
    pings: u64,
    lost: u64,
    ops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochPhase {
    /// Window not yet reached.
    Pending,
    /// Inside the event window.
    Active,
    /// Window closed; waiting for the first retirement to stamp recovery.
    AwaitingRecovery,
    /// Recovery observed; totals frozen.
    Done,
}

/// Tracks one scheduled fault event through the run.
#[derive(Debug, Clone)]
struct EpochTracker {
    label: String,
    start: u64,
    end: u64,
    phase: EpochPhase,
    marks: EpochMarks,
    /// Deltas frozen at recovery time (`None` until then).
    totals: Option<EpochMarks>,
    recovered_at: Option<u64>,
}

impl SimReport {
    /// Execution time relative to a baseline run (the y-axis of Figure 3).
    pub fn relative_execution_time(&self, baseline: &SimReport) -> f64 {
        ftdircmp_stats::ratio_or(self.cycles, baseline.cycles, 1.0)
    }

    /// Network message overhead relative to a baseline run (Figure 4 left).
    pub fn message_overhead(&self, baseline: &SimReport) -> f64 {
        ftdircmp_stats::ratio_or(
            self.stats.total_messages(),
            baseline.stats.total_messages(),
            1.0,
        ) - 1.0
    }

    /// Network byte overhead relative to a baseline run (Figure 4 right).
    pub fn byte_overhead(&self, baseline: &SimReport) -> f64 {
        ftdircmp_stats::ratio_or(self.stats.total_bytes(), baseline.stats.total_bytes(), 1.0) - 1.0
    }
}

/// The simulated 16-tile CMP.
pub struct System {
    config: SystemConfig,
    queue: EventQueue<Event>,
    mesh: Mesh,
    l1s: Vec<L1Controller>,
    l2s: Vec<L2Controller>,
    mems: Vec<MemController>,
    cpus: Vec<Cpu>,
    checker: Checker,
    stats: ProtocolStats,
    workload_name: String,
    last_progress: Cycle,
    finished_at: Cycle,
    trace_sink: Option<Box<dyn TraceSink>>,
    /// Cores whose `is_done()` transition has been counted (done is
    /// monotonic: a drained core never becomes un-done).
    core_done: Vec<bool>,
    cores_done: usize,
    /// Whether the initial `CpuStep` events have been scheduled (set by the
    /// first `advance`, so a restored snapshot never re-schedules them).
    started: bool,
    /// One tracker per scheduled fault event (empty without fault domains).
    epochs: Vec<EpochTracker>,
    /// Next cycle at which some epoch changes phase (`u64::MAX` when no
    /// transition is pending) — the hot loop's one-compare gate.
    next_epoch_boundary: u64,
    /// Epochs past their window still waiting for a recovery retirement.
    epochs_awaiting: usize,
    /// Scratch buffers reused across `dispatch` calls so the hot loop does
    /// not allocate three `Vec`s per event.
    scratch_out: Vec<Message>,
    scratch_timeouts: Vec<TimeoutReq>,
    scratch_completions: Vec<CoreCompletion>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("config", &self.config)
            .field("now", &self.queue.now())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// Cloning duplicates the entire simulation state — caches, directories,
/// TBEs, in-flight events, RNG streams — *except* the trace sink, which is
/// not duplicated (the clone gets `None`): a forked run replaying the same
/// prefix would otherwise interleave its trace with the original's.
impl Clone for System {
    fn clone(&self) -> Self {
        System {
            config: self.config.clone(),
            queue: self.queue.clone(),
            mesh: self.mesh.clone(),
            l1s: self.l1s.clone(),
            l2s: self.l2s.clone(),
            mems: self.mems.clone(),
            cpus: self.cpus.clone(),
            checker: self.checker.clone(),
            stats: self.stats.clone(),
            workload_name: self.workload_name.clone(),
            last_progress: self.last_progress,
            finished_at: self.finished_at,
            trace_sink: None,
            core_done: self.core_done.clone(),
            cores_done: self.cores_done,
            started: self.started,
            epochs: self.epochs.clone(),
            next_epoch_boundary: self.next_epoch_boundary,
            epochs_awaiting: self.epochs_awaiting,
            scratch_out: Vec::new(),
            scratch_timeouts: Vec::new(),
            scratch_completions: Vec::new(),
        }
    }
}

/// A resumable checkpoint of a paused [`System`].
///
/// Taken with [`System::snapshot`] and turned back into runnable systems
/// with [`System::restore`] any number of times. The checkpoint contract
/// (DESIGN.md §8): a restored system continues **byte-identically** to the
/// system it was taken from — same event order, same RNG draws, same
/// report — because the snapshot captures every piece of simulation state
/// (caches, directory/TBE slabs, NoC link reservations and in-flight
/// events, RNG streams, the event queue with its sequence counter, and all
/// statistics). Only the trace sink is excluded (see [`System`]'s `Clone`).
#[derive(Debug, Clone)]
pub struct SystemSnapshot {
    system: System,
}

impl System {
    /// Builds a system for `config` running `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidConfig`] if the configuration is
    /// inconsistent or the workload has more traces than cores.
    pub fn new(config: SystemConfig, workload: &Workload) -> Result<Self, RunError> {
        config.validate().map_err(RunError::InvalidConfig)?;
        if workload.traces.len() > usize::from(config.tiles) {
            return Err(RunError::InvalidConfig(format!(
                "workload has {} traces but only {} cores",
                workload.traces.len(),
                config.tiles
            )));
        }
        let root = DetRng::from_seed(config.seed);
        let mesh = Mesh::new(config.mesh.clone(), root.fork("mesh"));
        let ft = config.protocol.is_fault_tolerant();
        let l1s = (0..config.tiles)
            .map(|i| {
                let mut rng = root.fork_indexed("l1", u64::from(i));
                L1Controller::new(i, &config, &mut rng)
            })
            .collect();
        let l2s = (0..config.tiles)
            .map(|i| {
                let mut rng = root.fork_indexed("l2", u64::from(i));
                L2Controller::new(i, &config, &mut rng)
            })
            .collect();
        let mems = (0..config.mem_controllers)
            .map(|i| MemController::new(i, ft))
            .collect();
        let window = config.max_outstanding_misses;
        let cpus: Vec<Cpu> = (0..config.tiles)
            .map(|i| {
                let trace = workload
                    .traces
                    .get(usize::from(i))
                    .cloned()
                    .unwrap_or_default();
                Cpu::new(i, trace, window)
            })
            .collect();
        let core_done: Vec<bool> = cpus.iter().map(Cpu::is_done).collect();
        let cores_done = core_done.iter().filter(|d| **d).count();
        let queue = EventQueue::with_schedule_seed(config.schedule_seed);
        let epochs = Self::epoch_trackers(&config.mesh.faults);
        let next_epoch_boundary = Self::next_epoch_boundary_of(&epochs);
        Ok(System {
            config,
            queue,
            mesh,
            l1s,
            l2s,
            mems,
            cpus,
            checker: Checker::new(true),
            stats: ProtocolStats::new(),
            workload_name: workload.name.clone(),
            last_progress: Cycle::ZERO,
            finished_at: Cycle::ZERO,
            trace_sink: None,
            core_done,
            cores_done,
            started: false,
            epochs,
            next_epoch_boundary,
            epochs_awaiting: 0,
            scratch_out: Vec::new(),
            scratch_timeouts: Vec::new(),
            scratch_completions: Vec::new(),
        })
    }

    /// Convenience: build and run in one call.
    ///
    /// # Errors
    ///
    /// See [`System::new`] and [`System::run`].
    pub fn run_workload(config: SystemConfig, workload: &Workload) -> Result<SimReport, RunError> {
        System::new(config, workload)?.run()
    }

    fn node_router(&self, node: NodeId) -> RouterId {
        match node {
            NodeId::L1(i) | NodeId::L2(i) => RouterId::new(u16::from(i)),
            NodeId::Mem(j) => RouterId::new(self.config.mem_routers[usize::from(j)]),
        }
    }

    fn all_cores_done(&self) -> bool {
        // O(1): maintained by `note_core_progress` instead of scanning every
        // core on every event pop.
        self.cores_done == self.cpus.len()
    }

    /// In-flight state of every controller (deadlock diagnostics).
    pub(crate) fn diagnostics(&self) -> String {
        let mut out = String::new();
        for c in &self.l1s {
            out.push_str(&c.pending_summary());
        }
        for c in &self.l2s {
            out.push_str(&c.pending_summary());
        }
        for c in &self.mems {
            out.push_str(&c.pending_summary());
        }
        out
    }

    /// The deadlock record at `at`: every blocked core with its stall
    /// context, and the controllers' in-flight state.
    fn deadlock(&self, at: Cycle) -> RunError {
        let stalled = self
            .cpus
            .iter()
            .filter(|c| !c.is_done())
            .map(|c| StalledCore {
                core: c.core(),
                pending_lines: c.outstanding_lines().to_vec(),
                mem_ops_done: c.mem_ops_done(),
            })
            .collect();
        RunError::Deadlock {
            at: at.as_u64(),
            last_progress: self.last_progress.as_u64(),
            stalled,
            diagnostics: self.diagnostics(),
        }
    }

    /// One tracker per scheduled fault event in `faults`.
    fn epoch_trackers(faults: &FaultConfig) -> Vec<EpochTracker> {
        faults.domains.as_ref().map_or_else(Vec::new, |d| {
            d.events
                .iter()
                .map(|ev| {
                    let (start, end) = ev.window();
                    EpochTracker {
                        label: ev.label(),
                        start,
                        end,
                        phase: EpochPhase::Pending,
                        marks: EpochMarks::default(),
                        totals: None,
                        recovered_at: None,
                    }
                })
                .collect()
        })
    }

    /// Earliest cycle at which any epoch changes phase.
    fn next_epoch_boundary_of(epochs: &[EpochTracker]) -> u64 {
        epochs
            .iter()
            .filter_map(|e| match e.phase {
                EpochPhase::Pending => Some(e.start),
                EpochPhase::Active => Some(e.end),
                EpochPhase::AwaitingRecovery | EpochPhase::Done => None,
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Current values of the counters the epoch telemetry deltas.
    fn epoch_counters(&self) -> EpochMarks {
        EpochMarks {
            timeouts: self.stats.total_timeouts(),
            reissues: self.stats.reissues.get(),
            pings: self.stats.messages_by_class(ftdircmp_noc::VcClass::Ping),
            lost: self.mesh.stats().total_dropped(),
            ops: self.retired_mem_ops(),
        }
    }

    /// Advances epoch phases across `now`. Counters only move on event
    /// dispatch, so taking the marks at the first event at-or-after a
    /// boundary is exact.
    fn update_epochs(&mut self, now: u64) {
        let counters = self.epoch_counters();
        let mut newly_awaiting = 0;
        for e in &mut self.epochs {
            if e.phase == EpochPhase::Pending && e.start <= now {
                e.marks = counters;
                e.phase = EpochPhase::Active;
            }
            if e.phase == EpochPhase::Active && e.end <= now {
                e.phase = EpochPhase::AwaitingRecovery;
                newly_awaiting += 1;
            }
        }
        self.epochs_awaiting += newly_awaiting;
        self.next_epoch_boundary = Self::next_epoch_boundary_of(&self.epochs);
    }

    /// Stamps recovery on every epoch whose window has closed: `now` is the
    /// cycle of the first retirement after the event cleared.
    fn note_epoch_recovery(&mut self, now: u64) {
        let counters = self.epoch_counters();
        let mut recovered = 0;
        for e in &mut self.epochs {
            if e.phase == EpochPhase::AwaitingRecovery {
                e.recovered_at = Some(now);
                e.totals = Some(EpochMarks {
                    timeouts: counters.timeouts - e.marks.timeouts,
                    reissues: counters.reissues - e.marks.reissues,
                    pings: counters.pings - e.marks.pings,
                    lost: counters.lost - e.marks.lost,
                    ops: counters.ops - e.marks.ops,
                });
                e.phase = EpochPhase::Done;
                recovered += 1;
            }
        }
        self.epochs_awaiting -= recovered;
    }

    /// Renders the epoch trackers into report entries; epochs that never
    /// opened are omitted, unfinished ones delta against the final counters.
    fn fault_epoch_reports(&self) -> Vec<FaultEpochReport> {
        let current = self.epoch_counters();
        self.epochs
            .iter()
            .filter(|e| e.phase != EpochPhase::Pending)
            .map(|e| {
                let t = e.totals.unwrap_or(EpochMarks {
                    timeouts: current.timeouts - e.marks.timeouts,
                    reissues: current.reissues - e.marks.reissues,
                    pings: current.pings - e.marks.pings,
                    lost: current.lost - e.marks.lost,
                    ops: current.ops - e.marks.ops,
                });
                FaultEpochReport {
                    label: e.label.clone(),
                    start: e.start,
                    end: e.end,
                    timeouts_fired: t.timeouts,
                    reissues: t.reissues,
                    pings_sent: t.pings,
                    messages_lost: t.lost,
                    mem_ops_retired: t.ops,
                    recovered_at: e.recovered_at,
                }
            })
            .collect()
    }

    fn residual_activity(&self) -> u64 {
        let l1 = self.l1s.iter().filter(|c| !c.is_idle()).count();
        let l2 = self.l2s.iter().filter(|c| !c.is_idle()).count();
        let mem = self.mems.iter().filter(|c| !c.is_idle()).count();
        (l1 + l2 + mem) as u64
    }

    /// Runs the workload to completion (from the start, or from wherever a
    /// restored snapshot was paused).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] if no core retires an operation within
    /// the watchdog window — which is the guaranteed outcome of losing any
    /// message under DirCMP (§3), and must never happen under FtDirCMP.
    pub fn run(mut self) -> Result<SimReport, RunError> {
        self.advance(None)?;
        self.into_report()
    }

    /// Advances the simulation until at least `mem_ops` memory operations
    /// have retired (or the workload completes first), then pauses. The
    /// warmup phase of a checkpoint-fork campaign: pause, [`System::snapshot`],
    /// fork. Running to a threshold and then to completion processes exactly
    /// the event sequence of an uninterrupted [`System::run`].
    ///
    /// # Errors
    ///
    /// See [`System::run`].
    pub fn run_until_retired(&mut self, mem_ops: u64) -> Result<(), RunError> {
        self.advance(Some(mem_ops))
    }

    /// Event loop: pops and dispatches until the queue drains, the watchdog
    /// trips, or (with `stop_after_mem_ops`) the retirement threshold is
    /// crossed. The threshold check only decides where to *pause* — it
    /// mutates nothing — so a paused-and-resumed run is indistinguishable
    /// from an uninterrupted one.
    fn advance(&mut self, stop_after_mem_ops: Option<u64>) -> Result<(), RunError> {
        if !self.started {
            self.started = true;
            for i in 0..self.cpus.len() {
                if !self.cpus[i].is_done() {
                    self.queue.schedule(Cycle::ZERO, Event::CpuStep(i as u8));
                }
            }
        }
        let watchdog = self.config.watchdog_cycles;

        while let Some((now, ev)) = self.queue.pop() {
            // Fault-epoch bookkeeping: one compare per event when domains
            // are configured, a cold branch otherwise.
            if now.as_u64() >= self.next_epoch_boundary {
                self.update_epochs(now.as_u64());
            }
            // Deadlock watchdog: cores alive but nothing retiring.
            if !self.all_cores_done() && now.saturating_since(self.last_progress) > watchdog {
                return Err(self.deadlock(now));
            }
            // Leftover-activity guard: cores done but timers keep re-arming.
            if self.all_cores_done() && now.saturating_since(self.finished_at) > watchdog {
                break;
            }
            self.dispatch(now, ev);
            if stop_after_mem_ops.is_some_and(|target| self.retired_mem_ops() >= target) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Finishes a run whose event loop has ended, producing the report.
    ///
    /// # Errors
    ///
    /// An empty event queue with blocked cores is a deadlock: under DirCMP a
    /// lost message leaves nothing in flight and no timer to recover (§3).
    fn into_report(self) -> Result<SimReport, RunError> {
        if !self.all_cores_done() {
            return Err(self.deadlock(self.queue.now()));
        }

        let fault_epochs = self.fault_epoch_reports();
        let residual_activity = self.residual_activity();
        let elapsed = self.queue.now().as_u64().max(1);
        let max_link_utilization = self.mesh.max_link_utilization(elapsed);
        let mean_link_utilization = self.mesh.mean_link_utilization(elapsed);
        let report = SimReport {
            protocol: self.config.protocol,
            workload: self.workload_name.clone(),
            cycles: self.finished_at.as_u64(),
            total_ops: self.cpus.iter().map(Cpu::ops_done).sum(),
            total_mem_ops: self.cpus.iter().map(Cpu::mem_ops_done).sum(),
            stats: self.stats,
            noc: self.mesh.stats().clone(),
            violations: self.checker.violations().to_vec(),
            messages_lost: self.mesh.stats().total_dropped(),
            residual_activity,
            max_link_utilization,
            mean_link_utilization,
            events: self.queue.scheduled_total(),
            injection_classes: self.mesh.fault_injector().injection_log().to_vec(),
            fault_epochs,
        };
        Ok(report)
    }

    /// Captures a resumable checkpoint of the current simulation state.
    pub fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot {
            system: self.clone(),
        }
    }

    /// Reconstructs a runnable system from a checkpoint. May be called any
    /// number of times on the same snapshot; every restored system resumes
    /// from the identical state.
    pub fn restore(snapshot: &SystemSnapshot) -> System {
        snapshot.system.clone()
    }

    /// Replaces the network fault configuration mid-run.
    ///
    /// The fork step of a checkpoint-fork campaign: the shared warmup runs
    /// with [`FaultConfig::none`] (zero fault-RNG draws), each fork restores
    /// the snapshot and installs its own fault cell here. The injector's
    /// RNG stream and message counters are preserved, so the forked run is
    /// byte-identical to a from-scratch run whose faults were gated until
    /// the same point (see [`ftdircmp_noc::FaultInjector::set_config`]).
    pub fn set_fault_config(&mut self, faults: FaultConfig) {
        self.config.mesh.faults = faults.clone();
        // Fresh epoch trackers for the incoming fault schedule: the warmup
        // ran fault-free, so no epoch can already be in flight.
        self.epochs = Self::epoch_trackers(&faults);
        self.next_epoch_boundary = Self::next_epoch_boundary_of(&self.epochs);
        self.epochs_awaiting = 0;
        self.mesh.set_fault_config(faults);
    }

    /// Memory operations retired so far across all cores (the warmup
    /// progress measure of [`System::run_until_retired`]).
    pub fn retired_mem_ops(&self) -> u64 {
        self.cpus.iter().map(Cpu::mem_ops_done).sum()
    }

    /// Messages the fault injector has examined so far. Deterministic drop
    /// indices at or above this count can still fire after a
    /// [`System::set_fault_config`] swap; lower ones are already past.
    pub fn messages_examined(&self) -> u64 {
        self.mesh.fault_injector().messages_seen()
    }

    /// Attaches a trace sink observing every delivered message, fired
    /// timeout and retired operation. A new system has none: tracing is on
    /// only where a caller installs a sink (`ftdircmp-cli --trace-line`
    /// installs a [`crate::tracelog::StderrSink`]).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sink = Some(sink);
    }

    fn trace(&mut self, at: Cycle, kind: TraceEventKind) {
        if let Some(sink) = &mut self.trace_sink {
            sink.record(TraceEvent { at, kind });
        }
    }

    fn dispatch(&mut self, now: Cycle, ev: Event) {
        if self.trace_sink.is_some() {
            match &ev {
                Event::Deliver(m) => {
                    self.trace(now, TraceEventKind::Delivered(m.clone()));
                }
                Event::Timeout {
                    node, addr, kind, ..
                } => {
                    self.trace(
                        now,
                        TraceEventKind::TimeoutFired {
                            node: *node,
                            addr: *addr,
                            kind: *kind,
                        },
                    );
                }
                Event::CpuStep(_) => {}
            }
        }
        // Reuse the scratch buffers instead of allocating three Vecs per
        // event; they are drained by `apply_effects` and handed back empty.
        let mut out = std::mem::take(&mut self.scratch_out);
        let mut timeouts = std::mem::take(&mut self.scratch_timeouts);
        let mut completions = std::mem::take(&mut self.scratch_completions);
        debug_assert!(out.is_empty() && timeouts.is_empty() && completions.is_empty());

        match ev {
            Event::CpuStep(core) => {
                self.cpu_step(now, core, &mut out, &mut timeouts, &mut completions);
            }
            Event::Deliver(msg) => {
                let mut ctx = Ctx {
                    now,
                    out: &mut out,
                    timeouts: &mut timeouts,
                    completions: &mut completions,
                    stats: &mut self.stats,
                    checker: &mut self.checker,
                    config: &self.config,
                };
                match msg.dst {
                    NodeId::L1(i) => self.l1s[usize::from(i)].handle_message(msg, &mut ctx),
                    NodeId::L2(i) => self.l2s[usize::from(i)].handle_message(msg, &mut ctx),
                    NodeId::Mem(i) => self.mems[usize::from(i)].handle_message(msg, &mut ctx),
                }
            }
            Event::Timeout {
                node,
                addr,
                kind,
                gen,
            } => {
                let mut ctx = Ctx {
                    now,
                    out: &mut out,
                    timeouts: &mut timeouts,
                    completions: &mut completions,
                    stats: &mut self.stats,
                    checker: &mut self.checker,
                    config: &self.config,
                };
                match node {
                    NodeId::L1(i) => {
                        self.l1s[usize::from(i)].handle_timeout(kind, addr, gen, &mut ctx);
                    }
                    NodeId::L2(i) => {
                        self.l2s[usize::from(i)].handle_timeout(kind, addr, gen, &mut ctx);
                    }
                    NodeId::Mem(i) => {
                        self.mems[usize::from(i)].handle_timeout(kind, addr, gen, &mut ctx);
                    }
                }
            }
        }

        self.apply_effects(now, &mut out, &mut timeouts, &mut completions);
        self.scratch_out = out;
        self.scratch_timeouts = timeouts;
        self.scratch_completions = completions;
    }

    fn cpu_step(
        &mut self,
        now: Cycle,
        core: u8,
        out: &mut Vec<Message>,
        timeouts: &mut Vec<TimeoutReq>,
        completions: &mut Vec<CoreCompletion>,
    ) {
        let idx = usize::from(core);
        let line_bytes = self.config.line_bytes;
        // Issue operations until the core blocks (miss window full,
        // same-line dependence, hit pacing, or trace drained).
        loop {
            if self.cpus[idx].is_done() {
                self.note_core_progress(now, idx);
                return;
            }
            match self.cpus[idx].issue_state(|op| op.addr().map(|a| a.line(line_bytes))) {
                IssueBlock::Ready => {}
                // Blocked: a completion will reschedule this core.
                IssueBlock::SameLine(_) | IssueBlock::WindowFull | IssueBlock::Drained => return,
            }
            let op = self.cpus[idx].current_op().expect("ready implies an op");
            match op {
                TraceOp::Think(n) => {
                    self.cpus[idx].retire_now();
                    if self.trace_sink.is_some() {
                        self.trace(now, TraceEventKind::OpRetired { core, op });
                    }
                    self.note_core_progress(now, idx);
                    if !self.cpus[idx].is_done() {
                        self.queue.schedule(now + n.max(1), Event::CpuStep(core));
                    }
                    return;
                }
                TraceOp::Load(addr) | TraceOp::Store(addr) => {
                    let line = addr.line(line_bytes);
                    let cpu_op = CpuOp {
                        addr: line,
                        is_store: matches!(op, TraceOp::Store(_)),
                    };
                    let mut ctx = Ctx {
                        now,
                        out,
                        timeouts,
                        completions,
                        stats: &mut self.stats,
                        checker: &mut self.checker,
                        config: &self.config,
                    };
                    match self.l1s[idx].cpu_access(cpu_op, &mut ctx) {
                        CpuOutcome::Hit => {
                            self.cpus[idx].retire_now();
                            if self.trace_sink.is_some() {
                                self.trace(now, TraceEventKind::OpRetired { core, op });
                            }
                            self.note_core_progress(now, idx);
                            if !self.cpus[idx].is_done() {
                                self.queue.schedule(
                                    now + self.config.l1_hit_cycles,
                                    Event::CpuStep(core),
                                );
                            }
                            return;
                        }
                        CpuOutcome::Miss | CpuOutcome::Stalled => {
                            // In flight (the L1 owns stalled ops too, and
                            // completes them when the writeback resolves);
                            // keep issuing if the window allows.
                            self.cpus[idx].issue_miss(line);
                        }
                    }
                }
            }
        }
    }

    fn note_core_progress(&mut self, now: Cycle, core: usize) {
        self.last_progress = now;
        if self.epochs_awaiting > 0 {
            self.note_epoch_recovery(now.as_u64());
        }
        if !self.core_done[core] && self.cpus[core].is_done() {
            self.core_done[core] = true;
            self.cores_done += 1;
        }
        if self.all_cores_done() {
            self.finished_at = now;
        }
    }

    fn apply_effects(
        &mut self,
        now: Cycle,
        out: &mut Vec<Message>,
        timeouts: &mut Vec<TimeoutReq>,
        completions: &mut Vec<CoreCompletion>,
    ) {
        for msg in out.drain(..) {
            let send_at = now + self.config.send_cycles(msg.src, msg.mtype);
            let src = self.node_router(msg.src);
            let dst = self.node_router(msg.dst);
            let bytes = msg.size_bytes(self.config.control_msg_bytes, self.config.data_msg_bytes);
            self.stats.record_msg(msg.mtype, bytes);
            match self.mesh.send(send_at, src, dst, bytes, msg.vc_class()) {
                ftdircmp_noc::SendOutcome::Delivered { at } => {
                    self.queue
                        .schedule(at.max(send_at + 1), Event::Deliver(msg));
                }
                ftdircmp_noc::SendOutcome::Dropped => {
                    // The message vanished in the network (transient fault).
                }
            }
        }
        for t in timeouts.drain(..) {
            self.queue.schedule(
                now + t.delay,
                Event::Timeout {
                    node: t.node,
                    addr: t.addr,
                    kind: t.kind,
                    gen: t.gen,
                },
            );
        }
        for c in completions.drain(..) {
            let idx = usize::from(c.core);
            self.cpus[idx].complete(c.addr);
            if self.trace_sink.is_some() {
                // Reconstruct the retired op (line-granular address).
                let a = c.addr.base_addr(self.config.line_bytes);
                let op = if c.was_store {
                    TraceOp::Store(a)
                } else {
                    TraceOp::Load(a)
                };
                self.trace(now, TraceEventKind::OpRetired { core: c.core, op });
            }
            self.note_core_progress(now, idx);
            self.queue
                .schedule(now + c.delay.max(1), Event::CpuStep(c.core));
        }
    }
}

#[cfg(test)]
#[path = "system_tests.rs"]
mod tests;
