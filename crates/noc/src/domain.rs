//! Located faults: per-link channels and scheduled fault events.
//!
//! The paper's fault model (§3) only says that a message arrives intact or
//! not at all; its evaluation draws losses from one global lottery, the same
//! coin for every message whichever links it crosses. Real transient faults
//! are spatially and temporally correlated — a marginal link flaps, a router
//! neighborhood browns out, a burst hits one region. This module holds the
//! *link-level* sources of the one fault pipeline ([`crate::FaultInjector`],
//! DESIGN.md §12), consulted hop by hop during the route walk, next to the
//! message-level sources (schedule, bursts, lottery) that `fault.rs` holds:
//!
//! * **Per-link channels** — every [`crate::LinkId`] gets its own
//!   Gilbert–Elliott good/bad two-state channel. Channel decisions are pure
//!   hash functions of `(domain seed, link index, per-link message count)`,
//!   not draws from a shared RNG stream, so the decision *stream* of each
//!   link is invariant to the schedule seed, `--jobs`, and whatever traffic
//!   the other links carry.
//! * **Scheduled fault events** — a deterministic timeline of link flaps
//!   (hard-down over `[start, end)`), router brown-outs (all adjacent links
//!   degraded), and region bursts (all links within a Manhattan radius of an
//!   epicenter forced into the bad state together).
//!
//! Link state exists only while [`crate::FaultConfig::domains`] is set;
//! without it the walk never asks and the pipeline is the lottery alone.

use ftdircmp_sim::splitmix64;

use crate::{Direction, DropCause, LinkId, RouterId, Topology};

/// Gilbert–Elliott two-state (good/bad) channel parameters, applied to
/// every link of the mesh.
///
/// Each message traversing a link first steps the link's state machine
/// (good→bad with `p_enter_bad`, bad→good with `p_exit_bad`), then is
/// dropped with the state's loss probability. Scheduled events
/// ([`FaultEvent::RouterBrownout`], [`FaultEvent::RegionBurst`]) force
/// affected links to behave as bad for the event window regardless of their
/// channel state.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkChannelConfig {
    /// Per-message probability that a good link turns bad.
    pub p_enter_bad: f64,
    /// Per-message probability that a bad link recovers.
    pub p_exit_bad: f64,
    /// Per-message loss probability while the link is good.
    pub drop_good: f64,
    /// Per-message loss probability while the link is bad (or forced bad by
    /// an active event).
    pub drop_bad: f64,
}

impl LinkChannelConfig {
    /// A channel that never transitions and never drops on its own: only
    /// event-forced bad states lose messages (at `drop_bad`). This is the
    /// effective channel when a domain config schedules events without
    /// configuring per-link channels.
    pub fn passthrough(drop_bad: f64) -> Self {
        LinkChannelConfig {
            p_enter_bad: 0.0,
            p_exit_bad: 1.0,
            drop_good: 0.0,
            drop_bad,
        }
    }
}

/// Loss probability applied inside degraded windows when no explicit
/// channel is configured (see `FaultDomainConfig::effective_channel`).
pub const DEFAULT_DEGRADED_DROP: f64 = 0.25;

/// One scheduled correlated-fault event. All windows are half-open cycle
/// intervals `[start, end)` in absolute simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// One directional link is hard-down for the window: nothing traverses
    /// it. Under XY routing, messages routed over it are lost; adaptive
    /// routing steers around it where a minimal alternative survives.
    LinkFlap {
        /// Source router of the flapping link.
        from: RouterId,
        /// Direction the flapping link points.
        dir: Direction,
        /// First cycle of the outage.
        start: u64,
        /// First cycle after the outage.
        end: u64,
    },
    /// Every link adjacent to the router (outgoing and incoming) is
    /// degraded — forced into the bad channel state — for the window.
    RouterBrownout {
        /// The browned-out router.
        router: RouterId,
        /// First cycle of the brown-out.
        start: u64,
        /// First cycle after the brown-out.
        end: u64,
    },
    /// Every link whose source router lies within `radius` Manhattan hops
    /// of the epicenter is degraded for the window.
    RegionBurst {
        /// Center of the burst region.
        epicenter: RouterId,
        /// Manhattan radius in hops (0 = the epicenter's own links).
        radius: u32,
        /// First cycle of the burst.
        start: u64,
        /// First cycle after the burst.
        end: u64,
    },
}

impl FaultEvent {
    /// The event's `[start, end)` window.
    pub fn window(&self) -> (u64, u64) {
        match *self {
            FaultEvent::LinkFlap { start, end, .. }
            | FaultEvent::RouterBrownout { start, end, .. }
            | FaultEvent::RegionBurst { start, end, .. } => (start, end),
        }
    }

    /// The router the event is anchored at: a flap's source router, the
    /// browned-out router, a burst's epicenter.
    pub(crate) fn router(&self) -> RouterId {
        match *self {
            FaultEvent::LinkFlap { from: router, .. }
            | FaultEvent::RouterBrownout { router, .. }
            | FaultEvent::RegionBurst {
                epicenter: router, ..
            } => router,
        }
    }

    /// Whether the event is active at `now`.
    pub(crate) fn active_at(&self, now: u64) -> bool {
        let (start, end) = self.window();
        start <= now && now < end
    }

    /// Short label used in recovery telemetry
    /// (e.g. `"flap r5-east@[100,200)"`).
    pub fn label(&self) -> String {
        match *self {
            FaultEvent::LinkFlap {
                from,
                dir,
                start,
                end,
            } => format!("flap {from}-{}@[{start},{end})", dir.label()),
            FaultEvent::RouterBrownout { router, start, end } => {
                format!("brownout {router}@[{start},{end})")
            }
            FaultEvent::RegionBurst {
                epicenter,
                radius,
                start,
                end,
            } => format!("burst {epicenter}+r{radius}@[{start},{end})"),
        }
    }
}

/// Correlated fault-domain configuration: an optional per-link channel
/// model plus a deterministic event timeline.
///
/// # Example
///
/// ```
/// use ftdircmp_noc::{Direction, FaultDomainConfig, FaultEvent, RouterId};
///
/// let domains = FaultDomainConfig::events(vec![FaultEvent::LinkFlap {
///     from: RouterId::new(5),
///     dir: Direction::East,
///     start: 1_000,
///     end: 2_000,
/// }]);
/// assert!(domains.is_active());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDomainConfig {
    /// Seed for the per-link decision hash. Deliberately separate from the
    /// run's master seed: the same domain behaves identically across
    /// schedule seeds and worker counts.
    pub domain_seed: u64,
    /// Per-link Gilbert–Elliott channel, applied to every link. `None`
    /// means links only drop inside event-degraded windows.
    pub channel: Option<LinkChannelConfig>,
    /// Scheduled correlated-fault events.
    pub events: Vec<FaultEvent>,
}

impl FaultDomainConfig {
    /// A domain with only scheduled events (no ambient channel noise).
    pub fn events(events: Vec<FaultEvent>) -> Self {
        FaultDomainConfig {
            domain_seed: 0xD0_7A1F,
            channel: None,
            events,
        }
    }

    /// A domain with only an ambient per-link channel (no events).
    pub fn channel(channel: LinkChannelConfig) -> Self {
        FaultDomainConfig {
            domain_seed: 0xD0_7A1F,
            channel: Some(channel),
            events: Vec::new(),
        }
    }

    /// Sets the domain seed.
    pub fn with_seed(mut self, domain_seed: u64) -> Self {
        self.domain_seed = domain_seed;
        self
    }

    /// Sets the per-link channel model.
    pub fn with_channel(mut self, channel: LinkChannelConfig) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Whether the domain can affect any message.
    pub fn is_active(&self) -> bool {
        self.channel.is_some() || !self.events.is_empty()
    }

    /// The channel parameters actually applied per link: the configured
    /// channel, or a passthrough that only loses messages inside
    /// event-degraded windows (at [`DEFAULT_DEGRADED_DROP`]).
    pub(crate) fn effective_channel(&self) -> LinkChannelConfig {
        self.channel
            .clone()
            .unwrap_or_else(|| LinkChannelConfig::passthrough(DEFAULT_DEGRADED_DROP))
    }
}

/// Typed fault-configuration error, surfaced through
/// [`crate::FaultConfig::validate`] and [`crate::FaultConfig::validate_for`]
/// at system construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// Both `drop_indices` and a probabilistic `loss_per_million` were set.
    /// The deterministic schedule silently shadowed the rate before this
    /// error existed; now the conflict is rejected up front.
    ConflictingDropModes {
        /// The shadowed probabilistic rate.
        loss_per_million: f64,
        /// Number of scheduled drop indices.
        indices: usize,
    },
    /// `loss_per_million` is negative, above one million or NaN. Such a rate
    /// used to be clamped (or, when negative, to run fault-free) silently.
    InvalidLossRate {
        /// The offending rate.
        loss_per_million: f64,
    },
    /// A probability (`burst_continue` or a [`LinkChannelConfig`] field) is
    /// outside `[0, 1]` or NaN.
    InvalidProbability {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault event's `[start, end)` window is empty or inverted.
    EmptyEventWindow {
        /// Index into [`FaultDomainConfig::events`].
        index: usize,
        /// Window start.
        start: u64,
        /// Window end.
        end: u64,
    },
    /// A fault event names a router the mesh does not have.
    RouterOutsideMesh {
        /// Index into [`FaultDomainConfig::events`].
        index: usize,
        /// The router the event is anchored at.
        router: RouterId,
    },
    /// A [`FaultEvent::LinkFlap`] names a link that points off the mesh
    /// edge: there is nothing to take down, so the event could never fire.
    NoSuchLink {
        /// Index into [`FaultDomainConfig::events`].
        index: usize,
        /// Source router of the named link.
        from: RouterId,
        /// Direction of the named link.
        dir: Direction,
    },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::ConflictingDropModes {
                loss_per_million,
                indices,
            } => write!(
                f,
                "drop_indices ({indices} scheduled) and loss_per_million ({loss_per_million}) \
                 are mutually exclusive: the deterministic schedule would silently shadow the rate"
            ),
            FaultConfigError::InvalidLossRate { loss_per_million } => write!(
                f,
                "loss_per_million = {loss_per_million} is not a rate in [0, 1000000]"
            ),
            FaultConfigError::InvalidProbability { field, value } => {
                write!(f, "{field} = {value} is not a probability in [0, 1]")
            }
            FaultConfigError::EmptyEventWindow { index, start, end } => {
                write!(f, "fault event {index} has empty window [{start},{end})")
            }
            FaultConfigError::RouterOutsideMesh { index, router } => {
                write!(
                    f,
                    "fault event {index} names router {router}, outside the mesh"
                )
            }
            FaultConfigError::NoSuchLink { index, from, dir } => write!(
                f,
                "fault event {index} flaps link {from}-{dir}, which points off the mesh edge"
            ),
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// Converts a hash to a unit float in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The two unit draws for decision `count` on link `link`: the state-
/// transition draw and the drop draw. A pure function — no shared stream —
/// so per-link decisions are independent of scheduling and of each other.
pub fn link_decision(domain_seed: u64, link: usize, count: u64) -> (f64, f64) {
    let per_link =
        splitmix64(domain_seed).wrapping_add((link as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let h1 = splitmix64(per_link ^ splitmix64(count));
    let h2 = splitmix64(h1 ^ 0xA5A5_A5A5_A5A5_A5A5);
    (unit(h1), unit(h2))
}

/// Per-link Gilbert–Elliott channel state: the current good/bad flag and
/// the number of messages this link has carried (the decision counter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkChannel {
    bad: bool,
    count: u64,
}

impl LinkChannel {
    /// Steps the channel for one message on link `link` and decides whether
    /// the message is lost. `forced_bad` applies an event-degraded window:
    /// the drop draw uses `drop_bad` regardless of channel state.
    pub(crate) fn step(
        &mut self,
        cfg: &LinkChannelConfig,
        domain_seed: u64,
        link: usize,
        forced_bad: bool,
    ) -> bool {
        let (transition, drop) = link_decision(domain_seed, link, self.count);
        self.count += 1;
        if self.bad {
            if transition < cfg.p_exit_bad {
                self.bad = false;
            }
        } else if transition < cfg.p_enter_bad {
            self.bad = true;
        }
        let p = if self.bad || forced_bad {
            cfg.drop_bad
        } else {
            cfg.drop_good
        };
        drop < p
    }
}

/// Link-level fault state, owned by [`crate::FaultInjector`]: per-link
/// Gilbert–Elliott channels plus the hard-down / degraded link masks derived
/// from the event timeline.
///
/// Masks are recomputed lazily: they stay valid for the window
/// `[valid_from, valid_until)` between event boundaries, so the per-message
/// cost is one range check. Nothing is allocated before the first message.
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    seed: u64,
    channel_cfg: LinkChannelConfig,
    channels: Vec<LinkChannel>,
    /// Hard-down links (active flaps): nothing traverses them.
    down: Vec<bool>,
    /// Event-degraded links (brown-outs, region bursts): forced into the
    /// bad channel state.
    degraded: Vec<bool>,
    valid_from: u64,
    valid_until: u64,
}

impl LinkState {
    /// Fresh channels (count 0) and an empty validity window: the first
    /// message computes the masks.
    pub(crate) fn new(cfg: &FaultDomainConfig) -> Self {
        LinkState {
            seed: cfg.domain_seed,
            channel_cfg: cfg.effective_channel(),
            channels: Vec::new(),
            down: Vec::new(),
            degraded: Vec::new(),
            valid_from: 0,
            valid_until: 0,
        }
    }

    /// The link-level sources for a message injected at `now` under the
    /// timeline `events`, split in two so that routing can hold the first
    /// while the walk calls the second: the hard-down mask (one flag per
    /// [`LinkId::dense_index`]) and the per-link decision — `None` if the
    /// message crosses the link, [`DropCause::LinkDown`] if it cannot enter
    /// it (no channel decision is consumed), [`DropCause::Channel`] if it
    /// enters and the link's channel loses it.
    pub(crate) fn at(
        &mut self,
        now: u64,
        events: &[FaultEvent],
        topo: &Topology,
    ) -> (&[bool], impl FnMut(usize) -> Option<DropCause> + '_) {
        if !(self.valid_from <= now && now < self.valid_until) {
            self.refresh(now, events, topo);
        }
        let (down, degraded) = (&self.down[..], &self.degraded[..]);
        let (channels, cfg, seed) = (&mut self.channels[..], &self.channel_cfg, self.seed);
        let decide = move |link: usize| {
            if down[link] {
                Some(DropCause::LinkDown)
            } else {
                channels[link]
                    .step(cfg, seed, link, degraded[link])
                    .then_some(DropCause::Channel)
            }
        };
        (down, decide)
    }

    /// Recomputes the masks for `now`. Pure function of the event timeline
    /// and `now` (never of call order), so non-monotonic send times
    /// recompute correctly.
    fn refresh(&mut self, now: u64, events: &[FaultEvent], topo: &Topology) {
        let slots = topo.link_slots();
        self.channels.resize(slots, LinkChannel::default());
        for mask in [&mut self.down, &mut self.degraded] {
            mask.clear();
            mask.resize(slots, false);
        }
        let (mut from, mut until) = (0u64, u64::MAX);
        for ev in events {
            let (start, end) = ev.window();
            if ev.active_at(now) {
                from = from.max(start);
                until = until.min(end);
                self.apply(ev, topo);
            } else if now < start {
                until = until.min(start);
            } else {
                from = from.max(end);
            }
        }
        self.valid_from = from;
        self.valid_until = until;
    }

    /// Marks the links an active event takes down or degrades (slots of
    /// links that point off the mesh edge may get marked too; no route reads
    /// them). An event anchored outside the mesh marks nothing: `validate_for`
    /// rejects it, but a bare `Mesh` accepts any configuration.
    fn apply(&mut self, ev: &FaultEvent, topo: &Topology) {
        if ev.router().index() >= topo.router_count() {
            return;
        }
        let slot = |from, dir| LinkId::new(from, dir).dense_index();
        match *ev {
            FaultEvent::LinkFlap { from, dir, .. } => self.down[slot(from, dir)] = true,
            FaultEvent::RouterBrownout { router, .. } => {
                for d in Direction::ALL {
                    if let Some(nb) = topo.neighbor(router, d) {
                        self.degraded[slot(router, d)] = true;
                        self.degraded[slot(nb, d.opposite())] = true;
                    }
                }
            }
            FaultEvent::RegionBurst {
                epicenter, radius, ..
            } => {
                for r in (0..topo.router_count()).map(|r| RouterId::new(r as u16)) {
                    if topo.hops(r, epicenter) <= radius {
                        for d in Direction::ALL {
                            self.degraded[slot(r, d)] = true;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;

    fn flap(start: u64, end: u64) -> FaultEvent {
        FaultEvent::LinkFlap {
            from: RouterId::new(1),
            dir: Direction::East,
            start,
            end,
        }
    }

    #[test]
    fn event_windows_are_half_open() {
        let ev = flap(100, 200);
        assert!(!ev.active_at(99));
        assert!(ev.active_at(100));
        assert!(ev.active_at(199));
        assert!(!ev.active_at(200));
        assert_eq!(ev.window(), (100, 200));
    }

    #[test]
    fn labels_identify_events() {
        assert_eq!(flap(100, 200).label(), "flap r1-east@[100,200)");
        let b = FaultEvent::RegionBurst {
            epicenter: RouterId::new(5),
            radius: 2,
            start: 10,
            end: 20,
        };
        assert_eq!(b.label(), "burst r5+r2@[10,20)");
    }

    #[test]
    fn validate_rejects_bad_probabilities_and_windows() {
        let mut d = FaultDomainConfig::channel(LinkChannelConfig {
            p_enter_bad: 1.5,
            p_exit_bad: 0.5,
            drop_good: 0.0,
            drop_bad: 0.5,
        });
        let validate =
            |d: &FaultDomainConfig| FaultConfig::none().with_domains(d.clone()).validate();
        assert!(matches!(
            validate(&d),
            Err(FaultConfigError::InvalidProbability {
                field: "p_enter_bad",
                ..
            })
        ));
        d.channel = None;
        d.events = vec![flap(200, 200)];
        assert!(matches!(
            validate(&d),
            Err(FaultConfigError::EmptyEventWindow { index: 0, .. })
        ));
        d.events = vec![flap(100, 200)];
        assert!(validate(&d).is_ok());
    }

    #[test]
    fn effective_channel_defaults_to_passthrough() {
        let d = FaultDomainConfig::events(vec![flap(0, 10)]);
        let ch = d.effective_channel();
        assert_eq!(ch.p_enter_bad, 0.0);
        assert_eq!(ch.drop_good, 0.0);
        assert_eq!(ch.drop_bad, DEFAULT_DEGRADED_DROP);
    }

    #[test]
    fn link_decisions_are_pure_functions() {
        for link in [0usize, 7, 63] {
            for count in [0u64, 1, 1000] {
                assert_eq!(
                    link_decision(42, link, count),
                    link_decision(42, link, count)
                );
            }
        }
        // Distinct links and counts decorrelate.
        assert_ne!(link_decision(42, 0, 0), link_decision(42, 1, 0));
        assert_ne!(link_decision(42, 0, 0), link_decision(42, 0, 1));
        assert_ne!(link_decision(42, 0, 0), link_decision(43, 0, 0));
    }

    #[test]
    fn channel_respects_drop_probabilities() {
        let cfg = LinkChannelConfig::passthrough(1.0);
        let mut ch = LinkChannel::default();
        // Good state with drop_good = 0: never drops.
        for _ in 0..100 {
            assert!(!ch.step(&cfg, 1, 0, false));
        }
        // Forced bad with drop_bad = 1: always drops.
        for _ in 0..100 {
            assert!(ch.step(&cfg, 1, 0, true));
        }
        assert_eq!(ch.count, 200);
        assert!(!ch.bad, "passthrough channel never transitions");
    }

    #[test]
    fn channel_transitions_are_sticky() {
        // Enter bad almost surely, never leave: after a while the channel
        // drops at the bad rate.
        let cfg = LinkChannelConfig {
            p_enter_bad: 1.0,
            p_exit_bad: 0.0,
            drop_good: 0.0,
            drop_bad: 1.0,
        };
        let mut ch = LinkChannel::default();
        // First step transitions good->bad and then drops at drop_bad.
        assert!(ch.step(&cfg, 9, 3, false));
        assert!(ch.bad);
        for _ in 0..50 {
            assert!(ch.step(&cfg, 9, 3, false));
        }
    }

    #[test]
    fn channel_loss_rate_roughly_matches_stationary_mix() {
        // p_enter = p_exit = 0.5 → half the time bad; drop_bad = 0.6,
        // drop_good = 0.0 → ~30% loss.
        let cfg = LinkChannelConfig {
            p_enter_bad: 0.5,
            p_exit_bad: 0.5,
            drop_good: 0.0,
            drop_bad: 0.6,
        };
        let mut ch = LinkChannel::default();
        let drops = (0..20_000).filter(|_| ch.step(&cfg, 77, 5, false)).count();
        let rate = drops as f64 / 20_000.0;
        assert!((0.25..0.35).contains(&rate), "rate={rate}");
    }

    #[test]
    fn decision_stream_is_invariant_to_interleaving() {
        // The same link consuming the same counts produces the same
        // decisions no matter what other links do in between — the property
        // that makes domain drops schedule- and jobs-invariant.
        let cfg = LinkChannelConfig {
            p_enter_bad: 0.2,
            p_exit_bad: 0.3,
            drop_good: 0.05,
            drop_bad: 0.8,
        };
        let mut alone = LinkChannel::default();
        let solo: Vec<bool> = (0..500).map(|_| alone.step(&cfg, 11, 4, false)).collect();

        let mut interleaved = LinkChannel::default();
        let mut other = LinkChannel::default();
        let mixed: Vec<bool> = (0..500)
            .map(|i| {
                // Other links consume their own decisions in between.
                if i % 3 == 0 {
                    other.step(&cfg, 11, 9, false);
                }
                interleaved.step(&cfg, 11, 4, false)
            })
            .collect();
        assert_eq!(solo, mixed);
    }
}
