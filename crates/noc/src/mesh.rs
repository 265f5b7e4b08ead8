//! The mesh network model.

use ftdircmp_sim::{Cycle, DetRng};

use crate::{DropCause, FaultConfig, FaultInjector, NocStats, RouterId, Topology, VcClass};

/// How messages are routed through the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Dimension-ordered (XY) routing. Deterministic paths give the
    /// point-to-point **ordered** network DirCMP assumes (paper §2).
    #[default]
    DimensionOrdered,
    /// Randomized minimal adaptive routing: an **unordered** network, the
    /// extension of paper §2 / its reference 6. Only FtDirCMP (with serial numbers)
    /// tolerates this mode.
    Adaptive,
}

/// Mesh timing parameters.
///
/// Defaults model the paper's Table 4 network: 4×4 mesh, 8-byte control
/// messages / 72-byte data messages (sizes live in the protocol crate),
/// multi-gigabyte link bandwidth expressed as bytes per cycle, and a few
/// cycles of router pipeline per hop.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshConfig {
    /// Mesh columns.
    pub width: u16,
    /// Mesh rows.
    pub height: u16,
    /// Link bandwidth in bytes per cycle (serialization: `ceil(size/bw)`).
    pub link_bytes_per_cycle: u32,
    /// Router pipeline latency per hop, in cycles.
    pub router_latency: u64,
    /// Latency of a same-router (loopback) delivery, in cycles.
    pub local_latency: u64,
    /// Routing mode.
    pub routing: RoutingMode,
    /// Fault injection configuration.
    pub faults: FaultConfig,
    /// Chaos testing: add a uniformly random extra delay of up to this many
    /// cycles to every delivery. Nonzero jitter breaks point-to-point
    /// ordering (like adaptive routing), so only FtDirCMP tolerates it; the
    /// stress suite uses it to explore message reorderings.
    pub jitter_cycles: u64,
    /// Exploration knob: add a uniformly random extra delay of up to this
    /// many cycles at **every hop** of the route (contention-like noise).
    /// Like `jitter_cycles` it breaks point-to-point ordering, but it skews
    /// with distance, reaching interleavings end-to-end jitter cannot.
    pub hop_jitter_cycles: u64,
    /// Record the virtual-channel class of every message the fault injector
    /// examines (see [`FaultInjector::injection_log`]). The exploration
    /// harness uses the log to aim deterministic drops at protocol-dense
    /// message classes.
    pub record_injections: bool,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            width: 4,
            height: 4,
            link_bytes_per_cycle: 16,
            router_latency: 4,
            local_latency: 1,
            routing: RoutingMode::DimensionOrdered,
            faults: FaultConfig::none(),
            jitter_cycles: 0,
            hop_jitter_cycles: 0,
            record_injections: false,
        }
    }
}

/// Result of injecting a message into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message will arrive at the destination at the given cycle.
    Delivered {
        /// Arrival time at the destination's network interface.
        at: Cycle,
    },
    /// A transient fault lost the message; it will never arrive.
    Dropped,
}

impl SendOutcome {
    /// Arrival time if delivered.
    pub fn delivered_at(self) -> Option<Cycle> {
        match self {
            SendOutcome::Delivered { at } => Some(at),
            SendOutcome::Dropped => None,
        }
    }
}

/// The on-chip network: a timing-and-fault oracle for message delivery.
///
/// [`Mesh::send`] walks the message's route, reserving bandwidth on each
/// link (per-link FIFO reservation), and returns the arrival cycle. Because
/// XY routes are deterministic and link reservations are made in send order,
/// delivery between any `(source, destination)` pair is FIFO — the ordered
/// network of the paper's base architecture. Adaptive mode deliberately
/// breaks this property.
///
/// Messages between co-located nodes (same router) use a fixed local latency
/// and are exempt from fault injection: they never traverse a mesh link, and
/// the paper's fault model concerns the interconnection network only.
#[derive(Debug, Clone)]
pub struct Mesh {
    topology: Topology,
    config: MeshConfig,
    link_free: Vec<Cycle>,
    link_busy: Vec<u64>,
    /// The fault pipeline: every fault source, link-level and message-level.
    fault: FaultInjector,
    route_rng: DetRng,
    jitter_rng: DetRng,
    stats: NocStats,
}

impl Mesh {
    /// Creates a mesh from a configuration and a deterministic random stream
    /// (used for fault injection and adaptive route selection).
    pub fn new(config: MeshConfig, rng: DetRng) -> Self {
        let topology = Topology::new(config.width, config.height);
        let link_free = vec![Cycle::ZERO; topology.link_slots()];
        let link_busy = vec![0u64; topology.link_slots()];
        let mut fault = FaultInjector::new(config.faults.clone(), rng.fork("fault-injector"));
        if config.record_injections {
            fault.enable_injection_log();
        }
        let route_rng = rng.fork("adaptive-routes");
        let jitter_rng = rng.fork("jitter");
        Mesh {
            topology,
            config,
            link_free,
            link_busy,
            fault,
            route_rng,
            jitter_rng,
            stats: NocStats::default(),
        }
    }

    /// Traffic statistics collected so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// The fault pipeline (its message count and injection log).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.fault
    }

    /// Replaces the fault configuration mid-run (the fork point of
    /// checkpoint-fork campaigns; see [`FaultInjector::set_config`] for what
    /// starts over and what carries on).
    pub fn set_fault_config(&mut self, faults: FaultConfig) {
        self.config.faults = faults.clone();
        self.fault.set_config(faults);
    }

    /// Injects a message of `size_bytes` at `now` from `src` to `dst` on
    /// virtual-channel class `class`.
    ///
    /// Returns the arrival cycle, or [`SendOutcome::Dropped`] if a transient
    /// fault lost the message. Dropped messages still consume the bandwidth
    /// they used before being lost: a message a link loses has reserved
    /// every link up to and including that one, a message a message-level
    /// source picks has reserved its whole route.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is outside the mesh.
    pub fn send(
        &mut self,
        now: Cycle,
        src: RouterId,
        dst: RouterId,
        size_bytes: u32,
        class: VcClass,
    ) -> SendOutcome {
        assert!(
            src.index() < self.topology.router_count(),
            "src {src} out of range"
        );
        assert!(
            dst.index() < self.topology.router_count(),
            "dst {dst} out of range"
        );

        if src == dst {
            self.stats.record_local();
            return SendOutcome::Delivered {
                at: now + self.config.local_latency,
            };
        }

        let ser = serialization_cycles(size_bytes, self.config.link_bytes_per_cycle);

        // Walk the route without materializing it. Split borrows so the
        // route walker (route RNG + down-mask), the link-level fault state
        // and the reservation state stay disjoint.
        let Mesh {
            topology,
            config,
            link_free,
            link_busy,
            fault,
            route_rng,
            jitter_rng,
            ..
        } = self;
        let (down, mut link_decision) = fault.links_at(now.as_u64(), topology).unzip();
        let mut route = match config.routing {
            RoutingMode::DimensionOrdered => topology.route_xy_iter(src, dst),
            RoutingMode::Adaptive => topology.route_adaptive_iter(src, dst, route_rng, down),
        };
        let mut arrive = now;
        let lost = loop {
            let Some(link) = route.next() else {
                // Arrived, or stranded with every productive link down.
                break route.stranded().then_some(DropCause::Unroutable);
            };
            let idx = link.dense_index();
            // The link-level sources decide first, and are asked only when
            // the configuration has any. A down link turns the message away
            // (only XY gets there: adaptive routes avoid down links); any
            // other link it enters, reserving its bandwidth.
            let decision = link_decision.as_mut().and_then(|decide| decide(idx));
            if decision == Some(DropCause::LinkDown) {
                break decision;
            }
            let depart = arrive.max(link_free[idx]);
            link_free[idx] = depart + ser;
            link_busy[idx] += ser;
            arrive = depart + ser + config.router_latency;
            if config.hop_jitter_cycles > 0 {
                arrive += jitter_rng.below(config.hop_jitter_cycles + 1);
            }
            // A loss ends the walk: later links are neither reserved nor
            // asked.
            if decision.is_some() {
                break decision;
            }
        };
        // Ends the link view's borrow of the pipeline.
        drop(link_decision);

        // The message-level sources examine every non-local message, even
        // one a link already lost: drop-schedule indices and the injection
        // log count examined messages, not surviving ones.
        let picked = self.fault.should_drop_class(class);
        if let Some(cause) = lost.or(picked.then_some(DropCause::Injector)) {
            self.stats.record_dropped(class, size_bytes, cause);
            return SendOutcome::Dropped;
        }

        if self.config.jitter_cycles > 0 {
            arrive += self.jitter_rng.below(self.config.jitter_cycles + 1);
        }

        self.stats.record_sent(class, size_bytes);
        SendOutcome::Delivered { at: arrive }
    }

    /// Busy cycles accumulated per link (dense index order).
    pub fn link_busy_cycles(&self) -> &[u64] {
        &self.link_busy
    }

    /// Utilization of the busiest link over `elapsed` cycles (0.0..=1.0).
    pub fn max_link_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let max = self.link_busy.iter().copied().max().unwrap_or(0);
        (max as f64 / elapsed as f64).min(1.0)
    }

    /// Mean utilization across links that exist and carried traffic.
    pub fn mean_link_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let used: Vec<u64> = self.link_busy.iter().copied().filter(|b| *b > 0).collect();
        if used.is_empty() {
            return 0.0;
        }
        let sum: u64 = used.iter().sum();
        (sum as f64 / used.len() as f64 / elapsed as f64).min(1.0)
    }
}

fn serialization_cycles(size_bytes: u32, bytes_per_cycle: u32) -> u64 {
    u64::from(size_bytes.div_ceil(bytes_per_cycle.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(MeshConfig::default(), DetRng::from_seed(42))
    }

    fn faulty_mesh(rate: f64) -> Mesh {
        let config = MeshConfig {
            faults: FaultConfig::per_million(rate),
            ..MeshConfig::default()
        };
        Mesh::new(config, DetRng::from_seed(42))
    }

    #[test]
    fn zero_load_latency_matches_formula() {
        let send = |dst, size| {
            mesh()
                .send(
                    Cycle::ZERO,
                    RouterId::new(0),
                    RouterId::new(dst),
                    size,
                    VcClass::Request,
                )
                .delivered_at()
        };
        // 8 bytes over 16 B/cycle = 1 cycle serialization + 4 router cycles per hop.
        assert_eq!(send(3, 8), Some(Cycle::new(3 * (1 + 4))));
        // 72 bytes = 5 cycles serialization.
        assert_eq!(send(1, 72), Some(Cycle::new(5 + 4)));
    }

    #[test]
    fn delivery_time_is_zero_load_when_uncontended() {
        let mut m = mesh();
        let out = m.send(
            Cycle::ZERO,
            RouterId::new(0),
            RouterId::new(3),
            8,
            VcClass::Request,
        );
        assert_eq!(out.delivered_at(), Some(Cycle::new(3 * 5)));
    }

    #[test]
    fn local_delivery_uses_local_latency_and_skips_faults() {
        // 100% loss rate, but local messages never traverse the network.
        let mut m = faulty_mesh(1_000_000.0);
        let out = m.send(
            Cycle::new(5),
            RouterId::new(2),
            RouterId::new(2),
            72,
            VcClass::Response,
        );
        assert_eq!(out.delivered_at(), Some(Cycle::new(6)));
        assert_eq!(m.stats().local_deliveries(), 1);
    }

    #[test]
    fn contention_delays_later_messages() {
        let mut m = mesh();
        let first = m
            .send(
                Cycle::ZERO,
                RouterId::new(0),
                RouterId::new(1),
                72,
                VcClass::Response,
            )
            .delivered_at()
            .unwrap();
        let second = m
            .send(
                Cycle::ZERO,
                RouterId::new(0),
                RouterId::new(1),
                72,
                VcClass::Response,
            )
            .delivered_at()
            .unwrap();
        assert!(second > first, "second message must queue behind the first");
        // Second waits 5 cycles of serialization before starting.
        assert_eq!(second - first, 5);
    }

    #[test]
    fn same_pair_delivery_is_fifo_under_xy_routing() {
        let mut m = mesh();
        let mut last = Cycle::ZERO;
        for i in 0..50u64 {
            let at = m
                .send(
                    Cycle::new(i), // strictly increasing send times
                    RouterId::new(0),
                    RouterId::new(15),
                    if i % 2 == 0 { 8 } else { 72 },
                    VcClass::Request,
                )
                .delivered_at()
                .unwrap();
            assert!(at >= last, "FIFO violated: {at} < {last}");
            last = at;
        }
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut m = faulty_mesh(1_000_000.0);
        let out = m.send(
            Cycle::ZERO,
            RouterId::new(0),
            RouterId::new(5),
            8,
            VcClass::Request,
        );
        assert_eq!(out, SendOutcome::Dropped);
        assert_eq!(m.stats().total_dropped(), 1);
        assert_eq!(m.stats().messages(VcClass::Request), 0);
    }

    #[test]
    fn moderate_loss_rate_is_respected() {
        let mut m = faulty_mesh(100_000.0); // 10%
        let mut dropped = 0;
        for i in 0..20_000u64 {
            let out = m.send(
                Cycle::new(i * 100),
                RouterId::new(0),
                RouterId::new(15),
                8,
                VcClass::Request,
            );
            if out == SendOutcome::Dropped {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / 20_000.0;
        assert!((0.08..0.12).contains(&rate), "rate={rate}");
    }

    #[test]
    fn stats_track_messages_and_bytes() {
        let mut m = mesh();
        m.send(
            Cycle::ZERO,
            RouterId::new(0),
            RouterId::new(1),
            8,
            VcClass::Request,
        );
        m.send(
            Cycle::ZERO,
            RouterId::new(1),
            RouterId::new(2),
            72,
            VcClass::Response,
        );
        assert_eq!(m.stats().total_messages(), 2);
        assert_eq!(m.stats().total_bytes(), 80);
        assert_eq!(m.stats().messages(VcClass::Request), 1);
        assert_eq!(m.stats().bytes(VcClass::Response), 72);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = faulty_mesh(5000.0);
        let mut b = faulty_mesh(5000.0);
        for i in 0..2000u64 {
            let src = RouterId::new((i % 16) as u16);
            let dst = RouterId::new(((i * 7 + 3) % 16) as u16);
            assert_eq!(
                a.send(Cycle::new(i * 3), src, dst, 8, VcClass::Request),
                b.send(Cycle::new(i * 3), src, dst, 8, VcClass::Request)
            );
        }
    }

    #[test]
    fn adaptive_mode_still_delivers() {
        let config = MeshConfig {
            routing: RoutingMode::Adaptive,
            ..MeshConfig::default()
        };
        let mut m = Mesh::new(config, DetRng::from_seed(1));
        for i in 0..100u64 {
            let out = m.send(
                Cycle::new(i * 10),
                RouterId::new(0),
                RouterId::new(15),
                8,
                VcClass::Request,
            );
            assert!(out.delivered_at().is_some());
        }
    }

    #[test]
    fn link_utilization_tracks_traffic() {
        let mut m = mesh();
        assert_eq!(m.max_link_utilization(100), 0.0);
        for i in 0..10u64 {
            m.send(
                Cycle::new(i * 10),
                RouterId::new(0),
                RouterId::new(1),
                72,
                VcClass::Response,
            );
        }
        // 10 messages x 5 serialization cycles on the single 0->1 link.
        assert_eq!(m.link_busy_cycles().iter().copied().max(), Some(50));
        assert!((m.max_link_utilization(100) - 0.5).abs() < 1e-9);
        assert!(m.mean_link_utilization(100) > 0.0);
        assert_eq!(m.max_link_utilization(0), 0.0);
    }

    #[test]
    fn jitter_perturbs_delivery_times() {
        let config = MeshConfig {
            jitter_cycles: 500,
            ..MeshConfig::default()
        };
        let mut m = Mesh::new(config, DetRng::from_seed(5));
        let mut distinct = std::collections::HashSet::new();
        for i in 0..32u64 {
            let at = m
                .send(
                    Cycle::new(i * 1000),
                    RouterId::new(0),
                    RouterId::new(15),
                    8,
                    VcClass::Request,
                )
                .delivered_at()
                .unwrap();
            distinct.insert(at - Cycle::new(i * 1000));
        }
        assert!(distinct.len() > 5, "jitter should spread latencies");
    }

    #[test]
    fn hop_jitter_perturbs_and_skews_with_distance() {
        let config = MeshConfig {
            hop_jitter_cycles: 40,
            ..MeshConfig::default()
        };
        let mut m = Mesh::new(config, DetRng::from_seed(6));
        let mut distinct = std::collections::HashSet::new();
        let mut max_latency = 0;
        for i in 0..32u64 {
            let sent = Cycle::new(i * 1000);
            let at = m
                .send(
                    sent,
                    RouterId::new(0),
                    RouterId::new(15),
                    8,
                    VcClass::Request,
                )
                .delivered_at()
                .unwrap();
            distinct.insert(at - sent);
            max_latency = max_latency.max(at - sent);
        }
        assert!(distinct.len() > 5, "hop jitter should spread latencies");
        // 6 hops of up to 40 extra cycles each can exceed one delivery's
        // worth of end-to-end jitter.
        assert!(max_latency > 6 * (1 + 4));
    }

    #[test]
    fn injection_log_matches_drop_indices() {
        let config = MeshConfig {
            record_injections: true,
            ..MeshConfig::default()
        };
        let mut m = Mesh::new(config, DetRng::from_seed(7));
        m.send(
            Cycle::ZERO,
            RouterId::new(0),
            RouterId::new(1),
            8,
            VcClass::Request,
        );
        // Local delivery: never examined by the injector, absent from the log.
        m.send(
            Cycle::ZERO,
            RouterId::new(2),
            RouterId::new(2),
            72,
            VcClass::Response,
        );
        m.send(
            Cycle::ZERO,
            RouterId::new(0),
            RouterId::new(4),
            8,
            VcClass::Unblock,
        );
        assert_eq!(
            m.fault_injector().injection_log(),
            &[VcClass::Request, VcClass::Unblock]
        );
    }

    #[test]
    fn zero_jitter_is_deterministic_zero_load() {
        let mut m = mesh();
        let a = m.send(
            Cycle::new(0),
            RouterId::new(0),
            RouterId::new(3),
            8,
            VcClass::Request,
        );
        let mut m2 = mesh();
        let b = m2.send(
            Cycle::new(0),
            RouterId::new(0),
            RouterId::new(3),
            8,
            VcClass::Request,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn max_zero_load_latency_covers_corner_to_corner() {
        // Corner to corner is the longest route of the 4x4 mesh: 6 hops.
        let out = mesh().send(
            Cycle::ZERO,
            RouterId::new(0),
            RouterId::new(15),
            8,
            VcClass::Request,
        );
        assert_eq!(out.delivered_at(), Some(Cycle::new(6 * (1 + 4))));
    }

    mod domains {
        use super::*;
        use crate::{Direction, FaultDomainConfig, FaultEvent, LinkChannelConfig};

        fn flap(start: u64, end: u64) -> FaultEvent {
            // Takes down the eastward link out of r0: the first hop of every
            // XY route from r0 to any router in a higher column.
            FaultEvent::LinkFlap {
                from: RouterId::new(0),
                dir: Direction::East,
                start,
                end,
            }
        }

        fn domain_mesh(cfg: FaultDomainConfig, routing: RoutingMode) -> Mesh {
            let config = MeshConfig {
                routing,
                faults: FaultConfig::none().with_domains(cfg),
                ..MeshConfig::default()
            };
            Mesh::new(config, DetRng::from_seed(42))
        }

        fn probe(m: &mut Mesh, at: u64) -> SendOutcome {
            m.send(
                Cycle::new(at),
                RouterId::new(0),
                RouterId::new(3),
                8,
                VcClass::Request,
            )
        }

        #[test]
        fn xy_messages_drop_only_inside_flap_window() {
            let cfg = FaultDomainConfig::events(vec![flap(100, 200)]);
            let mut m = domain_mesh(cfg, RoutingMode::DimensionOrdered);
            assert!(probe(&mut m, 50).delivered_at().is_some());
            assert_eq!(probe(&mut m, 100), SendOutcome::Dropped);
            assert_eq!(probe(&mut m, 199), SendOutcome::Dropped);
            assert!(probe(&mut m, 200).delivered_at().is_some());
            assert_eq!(m.stats().link_down_drops(), 2);
            assert_eq!(m.stats().total_dropped(), 2);
        }

        #[test]
        fn adaptive_routes_around_a_down_link() {
            let cfg = FaultDomainConfig::events(vec![flap(0, 1000)]);
            let mut m = domain_mesh(cfg, RoutingMode::Adaptive);
            // r0 -> r5 has a productive south alternative at r0, so every
            // message survives the downed east link.
            for i in 0..50u64 {
                let out = m.send(
                    Cycle::new(i * 10),
                    RouterId::new(0),
                    RouterId::new(5),
                    8,
                    VcClass::Request,
                );
                assert!(out.delivered_at().is_some(), "message {i} dropped");
            }
            assert_eq!(m.stats().link_down_drops(), 0);
            assert_eq!(m.stats().unroutable_drops(), 0);
        }

        #[test]
        fn adaptive_counts_unroutable_when_no_minimal_route_survives() {
            // r0 -> r3 is a straight east run: the only productive direction
            // at r0 is east, so a down east link strands the message.
            let cfg = FaultDomainConfig::events(vec![flap(0, 1000)]);
            let mut m = domain_mesh(cfg, RoutingMode::Adaptive);
            assert_eq!(probe(&mut m, 10), SendOutcome::Dropped);
            assert_eq!(m.stats().unroutable_drops(), 1);
            assert_eq!(m.stats().link_down_drops(), 0);
        }

        #[test]
        fn degraded_region_loses_messages_at_the_bad_rate() {
            // Region burst covering the whole mesh with a lossy degraded
            // state and a lossless good state: roughly drop_bad of messages
            // inside the window are lost, none outside it.
            let cfg = FaultDomainConfig::events(vec![FaultEvent::RegionBurst {
                epicenter: RouterId::new(5),
                radius: 6,
                start: 0,
                end: 1_000_000,
            }])
            .with_channel(LinkChannelConfig::passthrough(0.2));
            let mut m = domain_mesh(cfg, RoutingMode::DimensionOrdered);
            let mut dropped = 0u32;
            for i in 0..4000u64 {
                if probe(&mut m, i * 100) == SendOutcome::Dropped {
                    dropped += 1;
                }
            }
            // 3 links per route, each with p=0.2: P(loss) = 1 - 0.8^3 ~ 0.49.
            let rate = f64::from(dropped) / 4000.0;
            assert!((0.4..0.6).contains(&rate), "rate={rate}");
            assert_eq!(m.stats().channel_drops(), u64::from(dropped));
            // Outside the window nothing is degraded and the good state is
            // lossless.
            assert!(probe(&mut m, 2_000_000).delivered_at().is_some());
        }

        #[test]
        fn brownout_degrades_links_adjacent_to_the_router() {
            let cfg = FaultDomainConfig::events(vec![FaultEvent::RouterBrownout {
                router: RouterId::new(1),
                start: 0,
                end: u64::MAX,
            }])
            .with_channel(LinkChannelConfig::passthrough(1.0));
            let mut m = domain_mesh(cfg, RoutingMode::DimensionOrdered);
            // Route 0->3 crosses r1: its first hop (r0 east, an inbound link
            // of r1) is degraded with certain loss.
            assert_eq!(probe(&mut m, 0), SendOutcome::Dropped);
            // Route 8->11 stays two rows away from r1 and survives.
            let far = m.send(
                Cycle::ZERO,
                RouterId::new(8),
                RouterId::new(11),
                8,
                VcClass::Request,
            );
            assert!(far.delivered_at().is_some());
        }

        #[test]
        fn domain_decisions_are_deterministic() {
            let cfg = FaultDomainConfig::events(vec![flap(100, 200)])
                .with_channel(LinkChannelConfig::passthrough(0.3));
            let mut a = domain_mesh(cfg.clone(), RoutingMode::DimensionOrdered);
            let mut b = domain_mesh(cfg, RoutingMode::DimensionOrdered);
            for i in 0..2000u64 {
                let src = RouterId::new((i % 16) as u16);
                let dst = RouterId::new(((i * 7 + 3) % 16) as u16);
                assert_eq!(
                    a.send(Cycle::new(i * 3), src, dst, 8, VcClass::Request),
                    b.send(Cycle::new(i * 3), src, dst, 8, VcClass::Request)
                );
            }
        }

        #[test]
        fn injector_examines_messages_the_domain_already_dropped() {
            // A drop schedule indexed from run start must keep firing at the
            // same global indices even when the domain layer loses earlier
            // messages: both layers examine every non-local message.
            let cfg = FaultDomainConfig::events(vec![flap(0, 1000)]);
            let config = MeshConfig {
                faults: FaultConfig::drop_exactly(vec![2]).with_domains(cfg),
                record_injections: true,
                ..MeshConfig::default()
            };
            let mut m = Mesh::new(config, DetRng::from_seed(7));
            // Messages 0/1 cross the down link (domain drops), message 2 is
            // unaffected by the flap but hits the schedule.
            assert_eq!(probe(&mut m, 0), SendOutcome::Dropped);
            assert_eq!(probe(&mut m, 1), SendOutcome::Dropped);
            let south = m.send(
                Cycle::new(2),
                RouterId::new(0),
                RouterId::new(4),
                8,
                VcClass::Request,
            );
            assert_eq!(
                south,
                SendOutcome::Dropped,
                "schedule index 2 must still fire"
            );
            assert_eq!(m.stats().link_down_drops(), 2);
            assert_eq!(m.stats().dropped_by(DropCause::Injector), 1);
            assert_eq!(m.fault_injector().injection_log().len(), 3);
        }

        #[test]
        fn set_fault_config_installs_and_clears_domains() {
            let mut m = mesh();
            assert!(probe(&mut m, 0).delivered_at().is_some());
            m.set_fault_config(
                FaultConfig::none().with_domains(FaultDomainConfig::events(vec![flap(0, 1000)])),
            );
            assert_eq!(probe(&mut m, 10), SendOutcome::Dropped);
            m.set_fault_config(FaultConfig::none());
            assert!(probe(&mut m, 20).delivered_at().is_some());
        }

        #[test]
        fn inactive_domains_leave_fault_free_timing_identical() {
            // An installed but event-free, channel-free domain config must
            // not perturb delivery times relative to a mesh without one. In
            // adaptive mode that also pins the route draws: routing under an
            // empty down-mask picks exactly as routing without a mask.
            for routing in [RoutingMode::DimensionOrdered, RoutingMode::Adaptive] {
                let mut with = domain_mesh(FaultDomainConfig::events(vec![]), routing);
                let mut without = Mesh::new(
                    MeshConfig {
                        routing,
                        ..MeshConfig::default()
                    },
                    DetRng::from_seed(42),
                );
                for i in 0..2000u64 {
                    let src = RouterId::new((i % 16) as u16);
                    let dst = RouterId::new(((i * 11 + 5) % 16) as u16);
                    assert_eq!(
                        with.send(Cycle::new(i * 7), src, dst, 72, VcClass::Response),
                        without.send(Cycle::new(i * 7), src, dst, 72, VcClass::Response)
                    );
                }
                assert_eq!(with.stats().total_dropped(), 0);
            }
        }
    }
}
