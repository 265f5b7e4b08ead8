//! Golden drop streams: exact `(outcome, arrival cycle)` sequences and final
//! counters for every fault source, pinned to constants.
//!
//! The constants were captured from the commit *before* the lottery and the
//! fault-domain layer were merged into one pipeline (one `Mesh::send` walk,
//! one `FaultInjector`), so a match here is the "bit-for-bit" claim: RNG draw
//! order (route draws during the walk, injector draw after it, end-to-end
//! jitter last), the rule that the injector examines every non-local message
//! even when a link already lost it, early walk termination on a link loss,
//! the bandwidth a lost message still reserved, and every per-class and
//! per-cause counter. The determinism suites compare runs to each other;
//! this compares them to a value.
//!
//! A deliberate model change re-captures the constants from the failure
//! message, which prints the table it got.

use ftdircmp_noc::{
    Direction, FaultConfig, FaultDomainConfig, FaultEvent, LinkChannelConfig, Mesh, MeshConfig,
    RouterId, RoutingMode, SendOutcome, VcClass,
};
use ftdircmp_sim::{Cycle, DetRng};

const SENDS: usize = 24_000;
const SWAP_AT: usize = SENDS / 2;

/// One scripted `Mesh::send` call.
struct Send {
    now: u64,
    src: u16,
    dst: u16,
    size: u32,
    class: VcClass,
}

/// The fixed traffic script: mixed sources, destinations (some local), sizes
/// and classes, with send times that drift forward but jump back and forth
/// by up to a few dozen cycles (the simulator's sends are not monotonic
/// either: responses are injected at their ready time).
fn script() -> Vec<Send> {
    let mut rng = DetRng::from_seed(0xD207_5EED);
    (0..SENDS as u64)
        .map(|i| Send {
            now: (i * 4 + rng.below(96)).saturating_sub(rng.below(48)),
            src: rng.below(16) as u16,
            dst: rng.below(16) as u16,
            size: if rng.below(3) == 0 { 72 } else { 8 },
            class: VcClass::ALL[rng.below(6) as usize],
        })
        .collect()
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

const FLAP_FROM: u16 = 5;
const FLAP_WINDOW: (u64, u64) = (20_000, 45_000);

/// Two flaps (one in the mesh interior, one on the north edge) whose
/// windows cover about a third of the script.
fn flaps() -> Vec<FaultEvent> {
    vec![
        FaultEvent::LinkFlap {
            from: RouterId::new(FLAP_FROM),
            dir: Direction::East,
            start: FLAP_WINDOW.0,
            end: FLAP_WINDOW.1,
        },
        FaultEvent::LinkFlap {
            from: RouterId::new(2),
            dir: Direction::West,
            start: 60_000,
            end: 75_000,
        },
    ]
}

fn region_burst() -> FaultEvent {
    FaultEvent::RegionBurst {
        epicenter: RouterId::new(10),
        radius: 1,
        start: 30_000,
        end: 70_000,
    }
}

fn ambient_channel() -> LinkChannelConfig {
    LinkChannelConfig {
        p_enter_bad: 0.01,
        p_exit_bad: 0.2,
        drop_good: 0.0005,
        drop_bad: 0.3,
    }
}

fn everything_located() -> FaultDomainConfig {
    let mut events = flaps();
    events.push(region_burst());
    events.push(FaultEvent::RouterBrownout {
        router: RouterId::new(12),
        start: 5_000,
        end: 15_000,
    });
    FaultDomainConfig::events(events)
        .with_channel(ambient_channel())
        .with_seed(0xFEED)
}

/// The fault sources under test: `(name, mesh configuration)`.
fn cases() -> Vec<(&'static str, MeshConfig)> {
    let xy = |faults: FaultConfig| MeshConfig {
        faults,
        ..MeshConfig::default()
    };
    let adaptive = |faults: FaultConfig| MeshConfig {
        routing: RoutingMode::Adaptive,
        ..xy(faults)
    };
    let domains = |d: FaultDomainConfig| FaultConfig::none().with_domains(d);
    vec![
        ("clean-xy", xy(FaultConfig::none())),
        ("clean-adaptive", adaptive(FaultConfig::none())),
        ("lottery-2000", xy(FaultConfig::per_million(2000.0))),
        ("bursts", xy(FaultConfig::bursts(5000.0, 0.6, 6))),
        (
            "targeting",
            xy(FaultConfig::targeting(
                40_000.0,
                vec![VcClass::Response, VcClass::Ping],
            )),
        ),
        (
            "drop-exactly",
            MeshConfig {
                record_injections: true,
                ..xy(FaultConfig::drop_exactly(vec![
                    19_000, 0, 7, 7, 8, 100, 12_001, 12_000, 5_000, 21_999, 1_000_000,
                ]))
            },
        ),
        ("flap-xy", xy(domains(FaultDomainConfig::events(flaps())))),
        (
            "flap-adaptive",
            adaptive(domains(FaultDomainConfig::events(flaps()))),
        ),
        (
            "region-burst",
            xy(domains(FaultDomainConfig::events(vec![region_burst()]))),
        ),
        (
            "ambient-channel",
            xy(domains(FaultDomainConfig::channel(ambient_channel()))),
        ),
        (
            "lottery+domains",
            xy(FaultConfig::per_million(2000.0).with_domains(everything_located())),
        ),
        (
            "everything-adaptive-jitter",
            MeshConfig {
                jitter_cycles: 5,
                hop_jitter_cycles: 3,
                record_injections: true,
                ..adaptive(FaultConfig::bursts(3000.0, 0.5, 4).with_domains(everything_located()))
            },
        ),
    ]
}

/// What a run is reduced to: the hash of everything observable plus the few
/// raw counters the reachability assertions below need.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    hash: u64,
    dropped: u64,
    link_down: u64,
    channel: u64,
    unroutable: u64,
    /// Messages delivered from r5, inside the first flap's window, to a
    /// higher column in another row. With r5-east down they can only have
    /// left by the other productive direction (adaptive steering); XY sends
    /// them east, into the down link, so there the count is zero.
    steered: u64,
}

/// Drives the script through `mesh`; with `swap_to` set, the mesh's fault
/// configuration is replaced half way (the checkpoint-fork step).
fn run(mut mesh: Mesh, swap_to: Option<FaultConfig>) -> Digest {
    let mut h = Fnv::new();
    let mut steered = 0;
    // Delivered non-local sends, their hops (both routings are minimal, so a
    // delivered message crossed the Manhattan distance) and their latencies.
    let (mut delivered, mut hops, mut latency) = (0u64, 0u64, 0u64);
    for (i, s) in script().iter().enumerate() {
        if i == SWAP_AT {
            if let Some(faults) = &swap_to {
                mesh.set_fault_config(faults.clone());
            }
        }
        let out = mesh.send(
            Cycle::new(s.now),
            RouterId::new(s.src),
            RouterId::new(s.dst),
            s.size,
            s.class,
        );
        match out {
            SendOutcome::Delivered { at } => {
                h.word(1);
                h.word(at.as_u64());
                if s.src != s.dst {
                    let (sx, sy, dx, dy) = (s.src % 4, s.src / 4, s.dst % 4, s.dst / 4);
                    delivered += 1;
                    hops += u64::from(sx.abs_diff(dx) + sy.abs_diff(dy));
                    latency += at.as_u64() - s.now;
                }
                // r5's east link is down: a message for a higher column in
                // another row can only have left r5 by the other direction.
                let east_of_flap = s.dst % 4 > FLAP_FROM % 4 && s.dst / 4 != FLAP_FROM / 4;
                if s.src == FLAP_FROM
                    && east_of_flap
                    && (FLAP_WINDOW.0..FLAP_WINDOW.1).contains(&s.now)
                {
                    steered += 1;
                }
            }
            SendOutcome::Dropped => h.word(0),
        }
    }
    let stats = mesh.stats();
    for c in VcClass::ALL {
        h.word(stats.messages(c));
        h.word(stats.bytes(c));
        h.word(stats.dropped(c));
    }
    h.word(stats.total_messages());
    h.word(stats.total_bytes());
    h.word(stats.local_deliveries());
    h.word(stats.link_down_drops());
    h.word(stats.channel_drops());
    h.word(stats.unroutable_drops());
    h.word(delivered);
    h.word(hops);
    h.word(latency);
    for busy in mesh.link_busy_cycles() {
        h.word(*busy);
    }
    h.word(mesh.fault_injector().messages_seen());
    let log = mesh.fault_injector().injection_log();
    h.word(log.len() as u64);
    for c in log {
        h.word(c.index() as u64);
    }
    Digest {
        hash: h.0,
        dropped: stats.total_dropped(),
        link_down: stats.link_down_drops(),
        channel: stats.channel_drops(),
        unroutable: stats.unroutable_drops(),
        steered,
    }
}

/// `(case, hash from construction, hash with a none -> case swap half way)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("clean-xy", 0xF400136FAB018CD0, 0xF400136FAB018CD0),
    ("clean-adaptive", 0xBF00FAAA48A89C41, 0xBF00FAAA48A89C41),
    ("lottery-2000", 0xF60E546118392EA7, 0x90465D2277CFE677),
    ("bursts", 0xC8FDF35A07E974EF, 0x44015E9FFD53A534),
    ("targeting", 0x4351B2F3C443C58D, 0x1570E86B85BACE8A),
    ("drop-exactly", 0x73A8B6B2DC3D029D, 0x55CD16F30C70C10C),
    ("flap-xy", 0x135A1F1D9A91221E, 0xAFB215469B171B2F),
    ("flap-adaptive", 0xAEE7D20FE9F8BE4E, 0x58E6A438C78AFDC2),
    ("region-burst", 0xADA156C3244D232E, 0x3A32B8092EA89B6B),
    ("ambient-channel", 0x001981FC0285CEED, 0xE0C0503ABFC930E1),
    ("lottery+domains", 0x495E3A744EF0A55B, 0x6DC59E850FAF7762),
    (
        "everything-adaptive-jitter",
        0x3A86C737D78B861B,
        0x8B560758F23764E3,
    ),
];

/// Hash of a faulty -> faulty swap (`lottery+domains` replaced half way by
/// `bursts` plus a region burst): pins what `set_fault_config` resets (link
/// channels and masks, the burst in progress, the schedule cursor) against
/// what it keeps (the injector's random stream and its message count).
const GOLDEN_FAULTY_SWAP: u64 = 0xCFE0_236A_6A86_E798;

fn case(name: &str) -> MeshConfig {
    let (_, config) = cases()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("case exists");
    config
}

fn seeded(config: MeshConfig) -> Mesh {
    Mesh::new(config, DetRng::from_seed(0xC0_FFEE))
}

#[test]
fn drop_streams_match_the_golden_constants() {
    let got: Vec<(&str, u64, u64)> = cases()
        .into_iter()
        .map(|(name, config)| {
            let gated = MeshConfig {
                faults: FaultConfig::none(),
                ..config.clone()
            };
            let swapped = run(seeded(gated), Some(config.faults.clone()));
            (name, run(seeded(config), None).hash, swapped.hash)
        })
        .collect();
    assert!(
        got == GOLDEN,
        "drop streams diverged from the parent's; got\n{got:#018X?}"
    );

    let next = FaultConfig::bursts(5000.0, 0.6, 6)
        .with_domains(FaultDomainConfig::events(vec![region_burst()]));
    let chained = run(seeded(case("lottery+domains")), Some(next));
    assert_eq!(
        chained.hash, GOLDEN_FAULTY_SWAP,
        "faulty -> faulty swap diverged: got {:#018X}",
        chained.hash
    );
}

/// The script must actually reach the arms the constants are meant to pin;
/// a golden hash over a stream that never steers or strands proves nothing.
#[test]
fn the_script_reaches_every_fault_arm() {
    let digest = |name: &str| run(seeded(case(name)), None);
    assert_eq!(digest("clean-xy").dropped, 0);
    assert!(digest("lottery-2000").dropped > 20);
    assert!(digest("bursts").dropped > digest("lottery-2000").dropped);
    assert!(digest("targeting").dropped > 100);
    // Nine distinct scheduled indices lie below the number of non-local
    // messages in the script (one is a duplicate, one is past the end).
    assert_eq!(digest("drop-exactly").dropped, 9);

    let xy = digest("flap-xy");
    assert!(xy.link_down > 50 && xy.unroutable == 0 && xy.steered == 0);
    let adaptive = digest("flap-adaptive");
    assert!(adaptive.unroutable > 10, "stranding must be reached");
    assert!(adaptive.steered > 10, "steering must be reached");
    assert_eq!(adaptive.link_down, 0, "adaptive never enters a down link");

    assert!(digest("region-burst").channel > 100);
    assert!(digest("ambient-channel").channel > 100);
    let both = digest("lottery+domains");
    assert!(both.link_down > 0 && both.channel > 0);
    assert!(
        both.dropped > both.link_down + both.channel,
        "the lottery must drop messages the links let through"
    );
    let all = digest("everything-adaptive-jitter");
    assert!(all.unroutable > 0 && all.channel > 0 && all.steered > 0);
}
