//! Transient-fault injection: the one fault pipeline.
//!
//! Implements the paper's fault model (§3): the network either delivers a
//! message correctly or not at all. Corrupted messages are assumed to be
//! detected by a per-message CRC and discarded at the receiver, which is
//! equivalent to a loss, so the injector only ever *drops* messages.
//!
//! [`FaultInjector`] is the whole runtime pipeline (DESIGN.md §12). Every
//! fault source is one arm of one of its two decisions:
//!
//! * the **per-link decision**, asked hop by hop during the route walk and
//!   only while [`FaultConfig::domains`] is set: hard-down links (flaps) and
//!   per-link Gilbert–Elliott channels (ambient, or forced bad by brown-outs
//!   and region bursts) — their state lives in `domain.rs`;
//! * the **per-message decision**, asked once after the walk for every
//!   non-local message: the injection log, the class filter, the
//!   deterministic drop schedule, burst continuation and the lottery.
//!
//! Lottery rates follow the paper's evaluation, expressed as **messages lost
//! per million messages** traversing the network. Faults may be isolated or
//! arrive in bursts (§3: "either an isolated one or a burst of them").

use ftdircmp_sim::DetRng;

use crate::domain::{FaultConfigError, FaultDomainConfig, FaultEvent, LinkState};
use crate::{DropCause, Topology, VcClass};

/// Fault-injection configuration.
///
/// # Example
///
/// ```
/// use ftdircmp_noc::FaultConfig;
///
/// let none = FaultConfig::none();
/// assert_eq!(none.loss_per_million, 0.0);
/// let heavy = FaultConfig::per_million(2000.0);
/// assert!(heavy.loss_per_million > none.loss_per_million);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Expected number of lost messages per million network messages.
    pub loss_per_million: f64,
    /// Probability that a loss extends to the next message as well
    /// (geometric burst length). `0.0` means isolated single-message losses.
    pub burst_continue: f64,
    /// Hard cap on burst length.
    pub burst_cap: u64,
    /// Restrict losses to these virtual-channel classes (`None` = any).
    /// Targeted injection isolates which message kinds each recovery
    /// mechanism covers (the per-class vulnerability study).
    pub only_classes: Option<Vec<VcClass>>,
    /// Deterministic schedule: drop exactly the messages with these 0-based
    /// injection indices (message order is deterministic given the seed).
    /// Mutually exclusive with a probabilistic rate
    /// ([`FaultConfig::validate`] rejects the combination). Enables
    /// exhaustive single-fault sweeps: "for every message in this run,
    /// losing exactly that message is recovered".
    pub drop_indices: Option<Vec<u64>>,
    /// Correlated fault domains: per-link Gilbert–Elliott channels and a
    /// deterministic timeline of link flaps / brown-outs / region bursts
    /// (see [`FaultDomainConfig`], DESIGN.md §12). `None` (the value every
    /// constructor sets) keeps the historical single-global-coin model
    /// byte-identical.
    pub domains: Option<FaultDomainConfig>,
}

impl FaultConfig {
    /// No faults: the network is reliable (DirCMP's required environment).
    pub fn none() -> Self {
        FaultConfig {
            loss_per_million: 0.0,
            burst_continue: 0.0,
            burst_cap: 0,
            only_classes: None,
            drop_indices: None,
            domains: None,
        }
    }

    /// Isolated losses at `rate` messages per million.
    pub fn per_million(rate: f64) -> Self {
        FaultConfig {
            loss_per_million: rate,
            ..FaultConfig::none()
        }
    }

    /// Bursty losses: `rate` burst *starts* per million messages, each burst
    /// continuing with probability `burst_continue` up to `burst_cap` extra
    /// messages.
    pub fn bursts(rate: f64, burst_continue: f64, burst_cap: u64) -> Self {
        FaultConfig {
            burst_continue,
            burst_cap,
            ..FaultConfig::per_million(rate)
        }
    }

    /// Targets losses at specific message classes only.
    pub fn targeting(rate: f64, classes: Vec<VcClass>) -> Self {
        FaultConfig {
            only_classes: Some(classes),
            ..FaultConfig::per_million(rate)
        }
    }

    /// Drops exactly the messages at the given 0-based injection indices.
    pub fn drop_exactly(indices: Vec<u64>) -> Self {
        FaultConfig {
            drop_indices: Some(indices),
            ..FaultConfig::none()
        }
    }

    /// Attaches a correlated fault-domain configuration (builder form).
    pub fn with_domains(mut self, domains: FaultDomainConfig) -> Self {
        self.domains = Some(domains);
        self
    }

    /// Whether this configuration can ever drop a message.
    pub fn is_faulty(&self) -> bool {
        self.loss_per_million > 0.0
            || self.drop_indices.as_ref().is_some_and(|v| !v.is_empty())
            || self
                .domains
                .as_ref()
                .is_some_and(FaultDomainConfig::is_active)
    }

    /// Whether messages of `class` are eligible for injection.
    pub(crate) fn targets(&self, class: VcClass) -> bool {
        self.only_classes
            .as_ref()
            .is_none_or(|cs| cs.contains(&class))
    }

    /// Validates everything that can be checked without knowing the mesh
    /// (see [`FaultConfig::validate_for`], which adds the rest).
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultConfigError`] found.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        self.check(None)
    }

    /// Validates the configuration for a run on a `topo`-shaped mesh; called
    /// by `SystemConfig::validate` at system construction. Nothing a fault
    /// configuration says is clamped or silently ignored: the lottery rate
    /// lies in `[0, 1e6]` and every probability in `[0, 1]`; `drop_indices`
    /// is not combined with a rate (the schedule would shadow it); event
    /// windows are non-empty; and, the part that needs `topo`, every event
    /// names a router inside the mesh and every flap a link that exists.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultConfigError`] found.
    pub fn validate_for(&self, topo: &Topology) -> Result<(), FaultConfigError> {
        self.check(Some(topo))
    }

    fn check(&self, topo: Option<&Topology>) -> Result<(), FaultConfigError> {
        let loss_per_million = self.loss_per_million;
        if !(0.0..=1_000_000.0).contains(&loss_per_million) {
            return Err(FaultConfigError::InvalidLossRate { loss_per_million });
        }
        let channel = self.domains.as_ref().and_then(|d| d.channel.as_ref());
        let probabilities = [
            ("burst_continue", Some(self.burst_continue)),
            ("p_enter_bad", channel.map(|ch| ch.p_enter_bad)),
            ("p_exit_bad", channel.map(|ch| ch.p_exit_bad)),
            ("drop_good", channel.map(|ch| ch.drop_good)),
            ("drop_bad", channel.map(|ch| ch.drop_bad)),
        ];
        for (field, value) in probabilities {
            // `contains` is false for NaN.
            if let Some(value) = value.filter(|v| !(0.0..=1.0).contains(v)) {
                return Err(FaultConfigError::InvalidProbability { field, value });
            }
        }
        if loss_per_million > 0.0 {
            if let Some(indices) = self.drop_indices.as_ref().filter(|v| !v.is_empty()) {
                return Err(FaultConfigError::ConflictingDropModes {
                    loss_per_million,
                    indices: indices.len(),
                });
            }
        }
        let events = self.domains.iter().flat_map(|d| &d.events);
        for (index, ev) in events.enumerate() {
            let (start, end) = ev.window();
            if start >= end {
                return Err(FaultConfigError::EmptyEventWindow { index, start, end });
            }
            let Some(topo) = topo else { continue };
            let router = ev.router();
            if router.index() >= topo.router_count() {
                return Err(FaultConfigError::RouterOutsideMesh { index, router });
            }
            if let FaultEvent::LinkFlap { from, dir, .. } = *ev {
                if topo.neighbor(from, dir).is_none() {
                    return Err(FaultConfigError::NoSuchLink { index, from, dir });
                }
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// The fault pipeline: decides, link by link and then per message, whether
/// the network loses a message.
///
/// # Example
///
/// ```
/// use ftdircmp_noc::{FaultConfig, FaultInjector};
/// use ftdircmp_sim::DetRng;
///
/// let mut inj = FaultInjector::new(FaultConfig::per_million(500_000.0), DetRng::from_seed(9));
/// let drops = (0..1000).filter(|_| inj.should_drop()).count();
/// assert!(drops > 300 && drops < 700, "≈50% loss expected, got {drops}");
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    /// `config.drop_indices` sorted and deduplicated, consumed via
    /// `drop_cursor`: `should_drop` is O(1) amortized instead of a
    /// `Vec::contains` scan per message.
    sorted_drops: Vec<u64>,
    drop_cursor: usize,
    /// Lottery probability per eligible message: `loss_per_million` as a
    /// share, computed once per configuration.
    loss_probability: f64,
    /// One bit per [`VcClass::index`]: the classes `config.only_classes`
    /// leaves eligible for message-level drops.
    eligible_classes: u8,
    rng: DetRng,
    burst_remaining: u64,
    messages_seen: u64,
    injection_log: Option<Vec<VcClass>>,
    /// Link-level sources; `Some` exactly while `config.domains` is.
    links: Option<LinkState>,
}

impl FaultInjector {
    /// Creates an injector with its own random stream.
    ///
    /// A deterministic drop schedule may be given unsorted and with
    /// duplicates; it is normalized here.
    pub fn new(config: FaultConfig, rng: DetRng) -> Self {
        let mut injector = FaultInjector {
            config: FaultConfig::none(),
            sorted_drops: Vec::new(),
            drop_cursor: 0,
            loss_probability: 0.0,
            eligible_classes: 0,
            rng,
            burst_remaining: 0,
            messages_seen: 0,
            injection_log: None,
            links: None,
        };
        injector.set_config(config);
        injector
    }

    /// Starts recording the virtual-channel class of every message examined
    /// (index-aligned with the deterministic drop schedule). Used by the
    /// exploration harness to aim drops at protocol-dense message classes.
    pub(crate) fn enable_injection_log(&mut self) {
        self.injection_log = Some(Vec::new());
    }

    /// Per-index class log (empty unless enabled).
    pub fn injection_log(&self) -> &[VcClass] {
        self.injection_log.as_deref().unwrap_or(&[])
    }

    /// The link-level sources for a message injected at `now` (the
    /// hard-down mask and the per-link decision, see [`LinkState::at`]), or
    /// `None` when the configuration has none: the route walk then never
    /// consults the pipeline per hop.
    pub(crate) fn links_at(
        &mut self,
        now: u64,
        topo: &Topology,
    ) -> Option<(&[bool], impl FnMut(usize) -> Option<DropCause> + '_)> {
        let events = &self.config.domains.as_ref()?.events;
        Some(self.links.as_mut()?.at(now, events, topo))
    }

    /// The per-message decision: whether the next message (of `class`) is
    /// lost to a message-level source. Every non-local message is examined
    /// exactly once, whatever happened to it on its links: the injection log
    /// and the drop-schedule indices count examined messages.
    pub(crate) fn should_drop_class(&mut self, class: VcClass) -> bool {
        if let Some(log) = &mut self.injection_log {
            log.push(class);
        }
        if self.eligible_classes & (1 << class.index()) == 0 {
            self.messages_seen += 1;
            return false;
        }
        self.should_drop()
    }

    /// The per-message decision for a message of an eligible class.
    pub fn should_drop(&mut self) -> bool {
        let index = self.messages_seen;
        self.messages_seen += 1;
        // A deterministic schedule replaces the probabilistic sources
        // (`FaultConfig::validate` rejects configuring both).
        if self.config.drop_indices.is_some() {
            // Indices are sorted and message indices arrive ascending, so a
            // cursor replaces an O(n) `contains` per message.
            while self
                .sorted_drops
                .get(self.drop_cursor)
                .is_some_and(|&i| i < index)
            {
                self.drop_cursor += 1;
            }
            let scheduled = self.sorted_drops.get(self.drop_cursor) == Some(&index);
            self.drop_cursor += usize::from(scheduled);
            return scheduled;
        }
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            return true;
        }
        // `chance` draws nothing at probability zero: a configuration
        // without a lottery leaves the stream untouched.
        if !self.rng.chance(self.loss_probability) {
            return false;
        }
        if self.config.burst_continue > 0.0 {
            self.burst_remaining = self
                .rng
                .geometric(self.config.burst_continue, self.config.burst_cap);
        }
        true
    }

    /// Replaces the fault configuration mid-run: every per-configuration
    /// value is recomputed and all source state starts over (the schedule
    /// cursor, a burst in progress, link channels and masks), while the
    /// injector's random stream, its message count and the injection log
    /// carry on.
    ///
    /// This is the fork point of checkpoint-fork campaigns: the shared
    /// warmup runs with [`FaultConfig::none`] (which makes **no** RNG
    /// draws — both the fault-free path and the deterministic-schedule
    /// path leave the stream untouched — and no link decisions), so after
    /// the swap the injector is in exactly the state a from-scratch run
    /// with `config` would reach at the same point, had its faults been
    /// gated during warmup: per-link decision streams start at count 0.
    /// Deterministic drop indices keep counting from the run's first
    /// message: indices below [`FaultInjector::messages_seen`] can no
    /// longer fire.
    pub(crate) fn set_config(&mut self, config: FaultConfig) {
        self.sorted_drops.clear();
        self.sorted_drops
            .extend_from_slice(config.drop_indices.as_deref().unwrap_or_default());
        self.sorted_drops.sort_unstable();
        self.sorted_drops.dedup();
        self.drop_cursor = 0;
        self.burst_remaining = 0;
        self.loss_probability = if config.loss_per_million > 0.0 {
            (config.loss_per_million / 1_000_000.0).min(1.0)
        } else {
            0.0
        };
        self.eligible_classes = VcClass::ALL
            .into_iter()
            .filter(|c| config.targets(*c))
            .fold(0, |mask, c| mask | 1 << c.index());
        self.links = config.domains.as_ref().map(LinkState::new);
        self.config = config;
    }

    /// Messages examined so far.
    pub fn messages_seen(&self) -> u64 {
        self.messages_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_drops() {
        let mut inj = FaultInjector::new(FaultConfig::none(), DetRng::from_seed(1));
        for _ in 0..10_000 {
            assert!(!inj.should_drop());
        }
        assert_eq!(inj.messages_seen(), 10_000);
    }

    #[test]
    fn rate_is_roughly_respected() {
        // 100_000 per million = 10% loss.
        let mut inj = FaultInjector::new(FaultConfig::per_million(100_000.0), DetRng::from_seed(2));
        let drops = (0..50_000).filter(|_| inj.should_drop()).count();
        let rate = drops as f64 / 50_000.0;
        assert!((0.08..0.12).contains(&rate), "rate={rate}");
    }

    #[test]
    fn bursts_drop_consecutive_messages() {
        // Burst starts almost never except when they do; force with high rate.
        let cfg = FaultConfig::bursts(1_000_000.0, 1.0, 3);
        let mut inj = FaultInjector::new(cfg, DetRng::from_seed(3));
        // First message starts a burst (p=1), next 3 are dropped by the burst.
        assert!(inj.should_drop());
        assert!(inj.should_drop());
        assert!(inj.should_drop());
        assert!(inj.should_drop());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FaultConfig::per_million(50_000.0);
        let mut a = FaultInjector::new(cfg.clone(), DetRng::from_seed(7));
        let mut b = FaultInjector::new(cfg, DetRng::from_seed(7));
        for _ in 0..1000 {
            assert_eq!(a.should_drop(), b.should_drop());
        }
    }

    #[test]
    fn targeted_injection_spares_other_classes() {
        let cfg = FaultConfig::targeting(1_000_000.0, vec![VcClass::Response]);
        let mut inj = FaultInjector::new(cfg, DetRng::from_seed(4));
        assert!(!inj.should_drop_class(VcClass::Request));
        assert!(!inj.should_drop_class(VcClass::Unblock));
        assert!(inj.should_drop_class(VcClass::Response));
        assert_eq!(inj.messages_seen(), 3);
    }

    #[test]
    fn untargeted_config_targets_everything() {
        let cfg = FaultConfig::per_million(10.0);
        for c in VcClass::ALL {
            assert!(cfg.targets(c));
        }
        let t = FaultConfig::targeting(10.0, vec![VcClass::Ping]);
        assert!(t.targets(VcClass::Ping));
        assert!(!t.targets(VcClass::Forward));
    }

    #[test]
    fn deterministic_schedule_drops_exactly_the_named_messages() {
        let cfg = FaultConfig::drop_exactly(vec![0, 3]);
        assert!(cfg.is_faulty());
        let mut inj = FaultInjector::new(cfg, DetRng::from_seed(1));
        let pattern: Vec<bool> = (0..6).map(|_| inj.should_drop()).collect();
        assert_eq!(pattern, vec![true, false, false, true, false, false]);
    }

    #[test]
    fn unsorted_and_duplicate_drop_indices_are_normalized() {
        // The cursor-based schedule must behave as a set: order and
        // duplicates in the input are irrelevant.
        let cfg = FaultConfig::drop_exactly(vec![5, 1, 5, 3, 1]);
        let mut inj = FaultInjector::new(cfg, DetRng::from_seed(1));
        let pattern: Vec<bool> = (0..8).map(|_| inj.should_drop()).collect();
        assert_eq!(
            pattern,
            vec![false, true, false, true, false, true, false, false]
        );
    }

    #[test]
    fn drop_schedule_mixed_with_untargeted_classes_keeps_global_indices() {
        // Indices count every message examined, including ones whose class
        // is exempt from injection.
        let cfg = FaultConfig {
            drop_indices: Some(vec![2, 0]),
            only_classes: Some(vec![VcClass::Request]),
            ..FaultConfig::none()
        };
        let mut inj = FaultInjector::new(cfg, DetRng::from_seed(1));
        // Index 0 is an exempt class: not dropped despite being scheduled.
        assert!(!inj.should_drop_class(VcClass::Response));
        assert!(!inj.should_drop_class(VcClass::Request)); // index 1
        assert!(inj.should_drop_class(VcClass::Request)); // index 2: dropped
        assert!(!inj.should_drop_class(VcClass::Request)); // index 3
    }

    #[test]
    fn injection_log_records_classes_in_index_order() {
        let mut inj = FaultInjector::new(FaultConfig::none(), DetRng::from_seed(2));
        assert!(inj.injection_log().is_empty());
        inj.enable_injection_log();
        inj.should_drop_class(VcClass::Request);
        inj.should_drop_class(VcClass::Unblock);
        inj.should_drop_class(VcClass::Request);
        assert_eq!(
            inj.injection_log(),
            &[VcClass::Request, VcClass::Unblock, VcClass::Request]
        );
    }

    #[test]
    fn set_config_preserves_stream_and_counters() {
        // A gated run (none until the swap) must match a reference whose
        // injector was built with the target config but never consulted
        // before the swap point.
        let target = FaultConfig::per_million(250_000.0);
        let mut gated = FaultInjector::new(FaultConfig::none(), DetRng::from_seed(21));
        for _ in 0..50 {
            assert!(!gated.should_drop());
        }
        gated.set_config(target.clone());
        let mut reference = FaultInjector::new(target, DetRng::from_seed(21));
        assert_eq!(gated.messages_seen(), 50);
        for _ in 0..1000 {
            assert_eq!(gated.should_drop(), reference.should_drop());
        }
    }

    #[test]
    fn set_config_drop_indices_count_from_run_start() {
        let mut inj = FaultInjector::new(FaultConfig::none(), DetRng::from_seed(1));
        for _ in 0..4 {
            assert!(!inj.should_drop());
        }
        // Index 2 is already past; only index 6 can still fire.
        inj.set_config(FaultConfig::drop_exactly(vec![2, 6]));
        let pattern: Vec<bool> = (4..8).map(|_| inj.should_drop()).collect();
        assert_eq!(pattern, vec![false, false, true, false]);
    }

    #[test]
    fn is_faulty_flags() {
        assert!(!FaultConfig::none().is_faulty());
        assert!(FaultConfig::per_million(1.0).is_faulty());
        assert!(!FaultConfig::default().is_faulty());
        let domains = FaultConfig::none().with_domains(FaultDomainConfig::events(vec![
            crate::FaultEvent::LinkFlap {
                from: crate::RouterId::new(0),
                dir: crate::Direction::East,
                start: 0,
                end: 100,
            },
        ]));
        assert!(domains.is_faulty());
        let idle = FaultConfig::none().with_domains(FaultDomainConfig::events(Vec::new()));
        assert!(!idle.is_faulty());
    }

    #[test]
    fn validate_rejects_conflicting_drop_modes() {
        // The silent precedence trap: drop_indices used to shadow the
        // probabilistic rate without warning. Now it is a typed error.
        let cfg = FaultConfig {
            loss_per_million: 250.0,
            drop_indices: Some(vec![3, 7]),
            ..FaultConfig::none()
        };
        match cfg.validate() {
            Err(crate::FaultConfigError::ConflictingDropModes {
                loss_per_million,
                indices,
            }) => {
                assert_eq!(loss_per_million, 250.0);
                assert_eq!(indices, 2);
            }
            other => panic!("expected ConflictingDropModes, got {other:?}"),
        }
        // An empty schedule does not conflict (nothing to shadow with).
        let empty = FaultConfig {
            loss_per_million: 250.0,
            drop_indices: Some(Vec::new()),
            ..FaultConfig::none()
        };
        assert!(empty.validate().is_ok());
        // drop_indices + only_classes stays legal (pinned above by
        // drop_schedule_mixed_with_untargeted_classes_keeps_global_indices).
        let targeted = FaultConfig {
            drop_indices: Some(vec![2, 0]),
            only_classes: Some(vec![VcClass::Request]),
            ..FaultConfig::none()
        };
        assert!(targeted.validate().is_ok());
    }

    #[test]
    fn validate_surfaces_domain_errors() {
        let cfg = FaultConfig::none().with_domains(FaultDomainConfig::events(vec![
            crate::FaultEvent::RouterBrownout {
                router: crate::RouterId::new(5),
                start: 9,
                end: 9,
            },
        ]));
        assert!(matches!(
            cfg.validate(),
            Err(crate::FaultConfigError::EmptyEventWindow { index: 0, .. })
        ));
    }
}
