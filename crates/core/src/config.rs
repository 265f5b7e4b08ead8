//! System configuration (paper Table 4).

use ftdircmp_noc::{
    Direction, FaultConfig, FaultDomainConfig, FaultEvent, LinkChannelConfig, MeshConfig, RouterId,
    RoutingMode, Topology, VcClass, DEFAULT_DEGRADED_DROP,
};

use crate::json::Json;
use crate::proto::TimeoutKind;

/// Which coherence protocol the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolVariant {
    /// The baseline MOESI directory protocol (paper §2). Requires a
    /// fault-free network: any lost message deadlocks it (paper §3).
    DirCmp,
    /// The fault-tolerant extension (paper §3): backup/blocked-ownership
    /// states, ownership acknowledgments, detection timeouts and request
    /// serial numbers.
    #[default]
    FtDirCmp,
}

impl ProtocolVariant {
    /// Whether the fault-tolerance machinery is active.
    pub(crate) fn is_fault_tolerant(self) -> bool {
        matches!(self, ProtocolVariant::FtDirCmp)
    }

    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolVariant::DirCmp => "DirCMP",
            ProtocolVariant::FtDirCmp => "FtDirCMP",
        }
    }
}

/// The one protocol-name parser: CLI flags, daemon jobs and repro files
/// all accept `dircmp`/`dir` and `ftdircmp`/`ft`.
impl std::str::FromStr for ProtocolVariant {
    type Err = String;

    fn from_str(name: &str) -> Result<ProtocolVariant, String> {
        match name {
            "dircmp" | "dir" => Ok(ProtocolVariant::DirCmp),
            "ftdircmp" | "ft" => Ok(ProtocolVariant::FtDirCmp),
            other => Err(format!(
                "unknown protocol {other:?} (expected dircmp, dir, ftdircmp or ft)"
            )),
        }
    }
}

impl std::fmt::Display for ProtocolVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fault-tolerance parameters (Table 4, bottom block).
///
/// The paper chose the timeout values experimentally; these defaults are
/// calibrated the same way for our network model (several round trips plus
/// memory latency of headroom — see the `ablation_timeouts` bench).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtConfig {
    /// Lost-request timeout, cycles (Table 3 row 1).
    pub lost_request_timeout: u64,
    /// Lost-unblock timeout, cycles (Table 3 row 2).
    pub lost_unblock_timeout: u64,
    /// Lost backup-deletion-acknowledgment timeout, cycles (Table 3 row 3).
    pub lost_ackbd_timeout: u64,
    /// Backup-side lost-data timeout, cycles: how long a node waits in
    /// backup state before sending `OwnershipPing` (our completion of the
    /// Table 2 `OwnershipPing`/`NackO` pair; see DESIGN.md §4).
    pub lost_data_timeout: u64,
    /// Request serial number width in bits (Table 4: 8).
    pub serial_bits: u8,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            lost_request_timeout: 3000,
            lost_unblock_timeout: 3000,
            lost_ackbd_timeout: 2000,
            lost_data_timeout: 8000,
            serial_bits: 8,
        }
    }
}

impl FtConfig {
    /// Base delay of `kind`'s timer, cycles: the first attempt waits this
    /// long, and each retry backs off from it.
    pub(crate) fn timeout(&self, kind: TimeoutKind) -> u64 {
        match kind {
            TimeoutKind::LostRequest => self.lost_request_timeout,
            TimeoutKind::LostUnblock => self.lost_unblock_timeout,
            TimeoutKind::LostAckBd => self.lost_ackbd_timeout,
            TimeoutKind::LostData => self.lost_data_timeout,
        }
    }
}

/// Full system configuration, defaulting to the paper's Table 4 16-way
/// tiled CMP.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Protocol to run.
    pub protocol: ProtocolVariant,
    /// Number of tiles (cores, L1s, and L2 banks). Must equal
    /// `mesh.width * mesh.height`.
    pub tiles: u8,
    /// Number of memory controllers (Table 4: 4-way interleaved memory).
    pub mem_controllers: u8,
    /// Mesh routers the memory controllers attach to.
    pub mem_routers: Vec<u16>,
    /// Cache line size in bytes (Table 4: 64).
    pub line_bytes: u64,
    /// L1 cache size in bytes (Table 4: 32 KB).
    pub l1_bytes: u64,
    /// L1 associativity (Table 4: 4-way).
    pub l1_assoc: u32,
    /// L1 hit time in cycles (Table 4: 3).
    pub l1_hit_cycles: u64,
    /// L2 bank size in bytes (256 KB per bank, 4 MB total).
    pub l2_bank_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// L2 hit (bank access) time in cycles (Table 4: 15).
    pub l2_hit_cycles: u64,
    /// Latency of a directory-only L2 operation (no data array access).
    pub l2_tag_cycles: u64,
    /// Memory access time in cycles (Table 4: 160).
    pub mem_cycles: u64,
    /// Control message size in bytes (Table 4: 8).
    pub control_msg_bytes: u32,
    /// Data message size in bytes (Table 4: 72 = 64 data + 8 header).
    pub data_msg_bytes: u32,
    /// Network configuration (Table 4: 4×4 mesh).
    pub mesh: MeshConfig,
    /// Fault-tolerance parameters.
    pub ft: FtConfig,
    /// Enable the migratory-sharing optimization (paper §2).
    pub migratory_sharing: bool,
    /// Maximum outstanding L1 misses per core. 1 models the paper's
    /// blocking in-order cores (Table 4); larger values model non-blocking
    /// caches / memory-level parallelism, which the paper notes does not
    /// affect protocol correctness (§2).
    pub max_outstanding_misses: u8,
    /// Cycles without any completed memory operation after which the
    /// deadlock watchdog aborts the run.
    pub watchdog_cycles: u64,
    /// Master random seed (workloads fork their own streams from it).
    pub seed: u64,
    /// Event-queue schedule seed: `0` keeps FIFO tie-breaking for
    /// same-cycle events (the historical order); any other value applies a
    /// reproducible pseudo-random permutation, used by the exploration
    /// harness to reach races FIFO never exhibits. Only FtDirCMP is
    /// expected to tolerate nonzero seeds (they break same-cycle
    /// point-to-point ordering, like adaptive routing).
    pub schedule_seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            protocol: ProtocolVariant::FtDirCmp,
            tiles: 16,
            mem_controllers: 4,
            mem_routers: vec![0, 3, 12, 15],
            line_bytes: 64,
            l1_bytes: 32 * 1024,
            l1_assoc: 4,
            l1_hit_cycles: 3,
            l2_bank_bytes: 256 * 1024,
            l2_assoc: 8,
            l2_hit_cycles: 15,
            l2_tag_cycles: 4,
            mem_cycles: 160,
            control_msg_bytes: 8,
            data_msg_bytes: 72,
            mesh: MeshConfig::default(),
            ft: FtConfig::default(),
            migratory_sharing: true,
            max_outstanding_misses: 1,
            watchdog_cycles: 400_000,
            seed: 0xF7D1_2C3B,
            schedule_seed: 0,
        }
    }
}

impl SystemConfig {
    /// Table 4 configuration running the baseline DirCMP protocol.
    pub fn dircmp() -> Self {
        SystemConfig {
            protocol: ProtocolVariant::DirCmp,
            ..SystemConfig::default()
        }
    }

    /// Table 4 configuration running FtDirCMP.
    pub fn ftdircmp() -> Self {
        SystemConfig::default()
    }

    /// Sets the network fault rate in messages lost per million (the unit
    /// of the paper's Figure 3 sweep).
    pub fn with_fault_rate(mut self, per_million: f64) -> Self {
        self.mesh.faults = FaultConfig::per_million(per_million);
        self
    }

    /// Switches the network to randomized adaptive routing (unordered
    /// delivery — the extension of paper §2 / ref \[6\]).
    pub fn with_adaptive_routing(mut self) -> Self {
        self.mesh.routing = RoutingMode::Adaptive;
        self
    }

    /// Installs a correlated fault-domain configuration (per-link channels
    /// and scheduled flaps/brown-outs/bursts; see DESIGN.md §12). Composes
    /// with the classic injector knobs, which stay untouched.
    pub fn with_fault_domains(mut self, domains: FaultDomainConfig) -> Self {
        self.mesh.faults.domains = Some(domains);
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the event-queue schedule seed (`0` = FIFO tie-breaking; see
    /// [`SystemConfig::schedule_seed`]).
    pub fn with_schedule_seed(mut self, schedule_seed: u64) -> Self {
        self.schedule_seed = schedule_seed;
        self
    }

    /// Reshapes the system to a `width x height` mesh (tiles, memory
    /// controllers at the corners, and the network change together). Used
    /// by the scalability ablation. Any shape is accepted here;
    /// [`SystemConfig::validate`] rejects zero dimensions and meshes over
    /// 64 tiles (the sharer-vector width).
    pub fn with_mesh(mut self, width: u16, height: u16) -> Self {
        self.mesh.width = width;
        self.mesh.height = height;
        let (w, h) = (u32::from(width.max(1)), u32::from(height.max(1)));
        self.tiles = (u32::from(width) * u32::from(height)).min(255) as u8;
        // Memory controllers at the distinct mesh corners.
        let mut corners: Vec<u16> = [0, w - 1, (h - 1) * w, h * w - 1].map(|c| c as u16).into();
        corners.sort_unstable();
        corners.dedup();
        self.mem_controllers = corners.len() as u8;
        self.mem_routers = corners;
        self
    }

    /// Number of L1 sets.
    pub(crate) fn l1_sets(&self) -> u64 {
        self.l1_bytes / (self.line_bytes * u64::from(self.l1_assoc))
    }

    /// Number of L2-bank sets.
    pub(crate) fn l2_sets(&self) -> u64 {
        self.l2_bank_bytes / (self.line_bytes * u64::from(self.l2_assoc))
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found (an empty or over-64-tile mesh, tile/mesh mismatch,
    /// non-power-of-two sizes, missing memory routers, serial widths outside
    /// 1..=16, zero timeouts under FtDirCMP, bad fault input).
    pub fn validate(&self) -> Result<(), String> {
        let mesh_nodes = u32::from(self.mesh.width) * u32::from(self.mesh.height);
        if mesh_nodes == 0 {
            return Err("mesh dimensions must be positive".to_string());
        }
        if mesh_nodes > 64 {
            return Err(format!(
                "mesh {}x{} has {mesh_nodes} tiles; at most 64 tiles (sharer vector width)",
                self.mesh.width, self.mesh.height
            ));
        }
        if u32::from(self.tiles) != mesh_nodes {
            return Err(format!(
                "tiles ({}) must equal mesh size ({}x{})",
                self.tiles, self.mesh.width, self.mesh.height
            ));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} is not a power of two",
                self.line_bytes
            ));
        }
        if self.mem_routers.len() != usize::from(self.mem_controllers) {
            return Err(format!(
                "{} memory controllers but {} attachment routers",
                self.mem_controllers,
                self.mem_routers.len()
            ));
        }
        if self.mem_routers.iter().any(|r| u32::from(*r) >= mesh_nodes) {
            return Err("memory router outside the mesh".to_string());
        }
        if self.l1_sets() == 0 || self.l2_sets() == 0 {
            return Err("cache has zero sets".to_string());
        }
        let bits = self.ft.serial_bits;
        if !(1..=16).contains(&bits) {
            return Err(format!("serial_bits = {bits} must be in 1..=16"));
        }
        if self.max_outstanding_misses == 0 {
            return Err("max_outstanding_misses must be at least 1".to_string());
        }
        if self.protocol.is_fault_tolerant()
            && (self.ft.lost_request_timeout == 0
                || self.ft.lost_unblock_timeout == 0
                || self.ft.lost_ackbd_timeout == 0)
        {
            return Err("FtDirCMP timeouts must be positive".to_string());
        }
        // Faults under DirCMP are legal (it is exactly experiment E12: DirCMP
        // deadlocks), so the protocol does not enter into this.
        self.mesh
            .faults
            .validate_for(&Topology::new(self.mesh.width, self.mesh.height))
            .map_err(|e| e.to_string())
    }
}

/// A config document's keys, in the order [`SystemConfig::to_json`] writes.
pub const CONFIG_KEYS: &str = "protocol, seed, schedule_seed, watchdog_cycles, \
    migratory_sharing, max_outstanding_misses, lost_request_timeout, lost_unblock_timeout, \
    lost_ackbd_timeout, lost_data_timeout, serial_bits, mesh, routing, fault_rate, \
    burst_continue, burst_cap, fault_classes, drops, fault_events, link_channel, domain_seed";

/// The one text form of a run's configuration, shared by the daemon's
/// campaign `configs`, repro files and `ftdircmp-cli` flags: a flat JSON
/// object of [`CONFIG_KEYS`], each named after the field it sets. `mesh` is
/// `"WxH"` (through [`SystemConfig::with_mesh`]), `routing` `xy` or
/// `adaptive`, `fault_rate` messages lost per million, `fault_classes`
/// [`VcClass`] labels, `drops` a deterministic drop schedule; any of
/// `fault_events`, `link_channel` and `domain_seed` installs a fault domain
/// (DESIGN.md §12). Cache geometry, latencies, jitter and
/// `record_injections` stay Table 4 constants, off the wire: only tests
/// change them.
impl SystemConfig {
    /// Reads a config document: Table 4 ([`SystemConfig::default`]) with
    /// each key applied in turn, then [`SystemConfig::validate`]. An error
    /// names the first unknown key or wrong-typed value, else the first
    /// inconsistency `validate` finds.
    pub fn from_json(v: &Json) -> Result<SystemConfig, String> {
        let Json::Obj(pairs) = v else {
            return Err("a config must be a JSON object".to_string());
        };
        let mut c = SystemConfig::default();
        for (key, _) in pairs {
            c.set(v, key)?;
        }
        c.validate()?;
        Ok(c)
    }

    /// Applies key `key` of document `v`.
    fn set(&mut self, v: &Json, key: &str) -> Result<(), String> {
        let int = || v.req::<u64>("config", key);
        let byte = || {
            let n = int()?;
            u8::try_from(n).map_err(|_| format!("field {key:?}: {n} exceeds 255"))
        };
        let num = || v.req::<f64>("config", key);
        let text = || v.req::<&str>("config", key);
        let expected =
            |what: &str, got: &str| format!("field {key:?}: expected {what}, got {got:?}");
        match key {
            "protocol" => self.protocol = text()?.parse()?,
            "seed" => self.seed = int()?,
            "schedule_seed" => self.schedule_seed = int()?,
            "watchdog_cycles" => self.watchdog_cycles = int()?,
            "migratory_sharing" => self.migratory_sharing = v.req("config", key)?,
            "max_outstanding_misses" => self.max_outstanding_misses = byte()?,
            "lost_request_timeout" => self.ft.lost_request_timeout = int()?,
            "lost_unblock_timeout" => self.ft.lost_unblock_timeout = int()?,
            "lost_ackbd_timeout" => self.ft.lost_ackbd_timeout = int()?,
            "lost_data_timeout" => self.ft.lost_data_timeout = int()?,
            "serial_bits" => self.ft.serial_bits = byte()?,
            "mesh" => {
                let shape = text()?;
                let (w, h) = shape
                    .split_once('x')
                    .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                    .ok_or_else(|| expected("\"WxH\", e.g. \"4x4\"", shape))?;
                *self = std::mem::take(self).with_mesh(w, h);
            }
            "routing" => {
                self.mesh.routing = match text()? {
                    "xy" => RoutingMode::DimensionOrdered,
                    "adaptive" => RoutingMode::Adaptive,
                    other => return Err(expected("xy or adaptive", other)),
                }
            }
            "fault_rate" => self.mesh.faults.loss_per_million = num()?,
            "burst_continue" => self.mesh.faults.burst_continue = num()?,
            "burst_cap" => self.mesh.faults.burst_cap = int()?,
            "fault_classes" => {
                let labels: Vec<String> = v.req("config", key)?;
                let class = |label: &String| {
                    VcClass::ALL
                        .into_iter()
                        .find(|c| c.label() == label)
                        .ok_or_else(|| expected("virtual-channel class labels", label))
                };
                self.mesh.faults.only_classes =
                    Some(labels.iter().map(class).collect::<Result<_, _>>()?);
            }
            "drops" => self.mesh.faults.drop_indices = Some(v.req("config", key)?),
            "fault_events" => {
                let events = v.req::<&[Json]>("config", key)?;
                self.domain().events = events
                    .iter()
                    .map(parse_fault_event)
                    .collect::<Result<_, _>>()?;
            }
            "link_channel" => {
                self.domain().channel =
                    Some(parse_link_channel(v.get(key).unwrap_or(&Json::Null))?);
            }
            "domain_seed" => self.domain().domain_seed = int()?,
            _ => {
                return Err(format!(
                    "unknown config key {key:?} (expected one of {CONFIG_KEYS})"
                ))
            }
        }
        Ok(())
    }

    /// The fault domain, installed empty if there is none yet.
    fn domain(&mut self) -> &mut FaultDomainConfig {
        let domains = &mut self.mesh.faults.domains;
        domains.get_or_insert_with(|| FaultDomainConfig::events(Vec::new()))
    }

    /// The config as a document [`SystemConfig::from_json`] reads back to
    /// an equal config: every key in [`CONFIG_KEYS`] order, so it never
    /// depends on a later version's defaults, but for `None` options.
    pub fn to_json(&self) -> Json {
        let (f, ft, n) = (&self.mesh.faults, &self.ft, Json::num_u64);
        let mlp = self.max_outstanding_misses;
        let mesh = format!("{}x{}", self.mesh.width, self.mesh.height);
        let routing = match self.mesh.routing {
            RoutingMode::DimensionOrdered => "xy",
            RoutingMode::Adaptive => "adaptive",
        };
        let mut pairs = vec![
            ("protocol", Json::str(self.protocol.name().to_lowercase())),
            ("seed", n(self.seed)),
            ("schedule_seed", n(self.schedule_seed)),
            ("watchdog_cycles", n(self.watchdog_cycles)),
            ("migratory_sharing", Json::Bool(self.migratory_sharing)),
            ("max_outstanding_misses", n(mlp.into())),
            ("lost_request_timeout", n(ft.lost_request_timeout)),
            ("lost_unblock_timeout", n(ft.lost_unblock_timeout)),
            ("lost_ackbd_timeout", n(ft.lost_ackbd_timeout)),
            ("lost_data_timeout", n(ft.lost_data_timeout)),
            ("serial_bits", n(ft.serial_bits.into())),
            ("mesh", Json::str(mesh)),
            ("routing", Json::str(routing)),
            ("fault_rate", Json::Num(f.loss_per_million)),
            ("burst_continue", Json::Num(f.burst_continue)),
            ("burst_cap", n(f.burst_cap)),
        ];
        if let Some(classes) = &f.only_classes {
            let labels = classes.iter().map(|c| Json::str(c.label())).collect();
            pairs.push(("fault_classes", Json::Arr(labels)));
        }
        if let Some(drops) = &f.drop_indices {
            pairs.push(("drops", Json::Arr(drops.iter().map(|&d| n(d)).collect())));
        }
        if let Some(d) = &f.domains {
            let events = d.events.iter().map(fault_event_json).collect();
            pairs.push(("fault_events", Json::Arr(events)));
            if let Some(ch) = &d.channel {
                pairs.push(("link_channel", link_channel_json(ch)));
            }
            pairs.push(("domain_seed", n(d.domain_seed)));
        }
        Json::obj(pairs)
    }
}

/// Parses one fault-event object: `{"kind":"link-flap","router":5,
/// "dir":"east","start":1000,"end":2000}`, `{"kind":"brownout","router":5,
/// ...}` or `{"kind":"region-burst","epicenter":5,"radius":1,...}`.
fn parse_fault_event(v: &Json) -> Result<FaultEvent, String> {
    let kind = v.req::<&str>("fault event", "kind")?;
    let num = |key: &str| v.req::<u64>("fault event", key);
    let router = |key: &str| -> Result<RouterId, String> {
        let raw = num(key)?;
        u16::try_from(raw)
            .map(RouterId::new)
            .map_err(|_| format!("fault event field {key:?}: router index {raw} too large"))
    };
    let (start, end) = (num("start")?, num("end")?);
    match kind {
        "link-flap" => {
            let label = v.req::<&str>("link-flap event", "dir")?;
            let dir = Direction::from_label(label).ok_or_else(|| {
                format!("unknown direction {label:?} (expected east, west, south or north)")
            })?;
            Ok(FaultEvent::LinkFlap {
                from: router("router")?,
                dir,
                start,
                end,
            })
        }
        "brownout" => Ok(FaultEvent::RouterBrownout {
            router: router("router")?,
            start,
            end,
        }),
        "region-burst" => Ok(FaultEvent::RegionBurst {
            epicenter: router("epicenter")?,
            radius: u32::try_from(num("radius")?)
                .map_err(|_| "fault event field \"radius\": too large".to_string())?,
            start,
            end,
        }),
        other => Err(format!(
            "unknown fault event kind {other:?} (expected link-flap, brownout, region-burst)"
        )),
    }
}

fn fault_event_json(ev: &FaultEvent) -> Json {
    let (n, router) = (Json::num_u64, |r: RouterId| Json::num_u64(r.index() as u64));
    let mut pairs = match *ev {
        FaultEvent::LinkFlap { from, dir, .. } => {
            vec![
                ("kind", Json::str("link-flap")),
                ("router", router(from)),
                ("dir", Json::str(dir.label())),
            ]
        }
        FaultEvent::RouterBrownout { router: r, .. } => {
            vec![("kind", Json::str("brownout")), ("router", router(r))]
        }
        FaultEvent::RegionBurst {
            epicenter, radius, ..
        } => {
            vec![
                ("kind", Json::str("region-burst")),
                ("epicenter", router(epicenter)),
                ("radius", n(radius.into())),
            ]
        }
    };
    let (start, end) = ev.window();
    pairs.extend([("start", n(start)), ("end", n(end))]);
    Json::obj(pairs)
}

/// The link-channel object's keys, in the order they are written.
const LINK_CHANNEL_KEYS: [&str; 4] = ["p_enter_bad", "p_exit_bad", "drop_good", "drop_bad"];

/// Parses a link-channel object; omitted fields default to the passthrough
/// channel (no ambient noise, [`DEFAULT_DEGRADED_DROP`] inside degraded
/// windows).
fn parse_link_channel(v: &Json) -> Result<LinkChannelConfig, String> {
    v.only_keys("link channel", &LINK_CHANNEL_KEYS)?;
    Ok(LinkChannelConfig {
        p_enter_bad: v.opt("p_enter_bad")?.unwrap_or(0.0),
        p_exit_bad: v.opt("p_exit_bad")?.unwrap_or(1.0),
        drop_good: v.opt("drop_good")?.unwrap_or(0.0),
        drop_bad: v.opt("drop_bad")?.unwrap_or(DEFAULT_DEGRADED_DROP),
    })
}

fn link_channel_json(ch: &LinkChannelConfig) -> Json {
    let values = [ch.p_enter_bad, ch.p_exit_bad, ch.drop_good, ch.drop_bad].map(Json::Num);
    Json::obj(LINK_CHANNEL_KEYS.into_iter().zip(values).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table4() {
        let c = SystemConfig::default();
        assert_eq!(c.tiles, 16);
        assert_eq!(c.mem_controllers, 4);
        assert_eq!(c.line_bytes, 64);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l1_assoc, 4);
        assert_eq!(c.l1_hit_cycles, 3);
        assert_eq!(c.mem_cycles, 160);
        assert_eq!(c.control_msg_bytes, 8);
        assert_eq!(c.data_msg_bytes, 72);
        assert_eq!(c.ft.serial_bits, 8);
        assert_eq!((c.mesh.width, c.mesh.height), (4, 4));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn derived_set_counts() {
        let c = SystemConfig::default();
        // 32 KB / (64 B * 4 ways) = 128 sets.
        assert_eq!(c.l1_sets(), 128);
        // 256 KB / (64 B * 8 ways) = 512 sets.
        assert_eq!(c.l2_sets(), 512);
    }

    #[test]
    fn variant_constructors() {
        assert_eq!(SystemConfig::dircmp().protocol, ProtocolVariant::DirCmp);
        assert_eq!(SystemConfig::ftdircmp().protocol, ProtocolVariant::FtDirCmp);
        assert!(!ProtocolVariant::DirCmp.is_fault_tolerant());
        assert!(ProtocolVariant::FtDirCmp.is_fault_tolerant());
        assert_eq!(ProtocolVariant::DirCmp.to_string(), "DirCMP");
    }

    #[test]
    fn protocol_names_parse_in_every_spelling() {
        for (name, want) in [
            ("dircmp", ProtocolVariant::DirCmp),
            ("dir", ProtocolVariant::DirCmp),
            ("ftdircmp", ProtocolVariant::FtDirCmp),
            ("ft", ProtocolVariant::FtDirCmp),
        ] {
            assert_eq!(name.parse(), Ok(want), "{name}");
        }
        let err = "DirCMP".parse::<ProtocolVariant>().unwrap_err();
        assert!(err.contains("dircmp, dir, ftdircmp or ft"), "{err}");
    }

    #[test]
    fn builders_adjust_config() {
        let c = SystemConfig::default().with_fault_rate(250.0).with_seed(7);
        assert!(c.mesh.faults.is_faulty());
        assert_eq!(c.seed, 7);
        let a = SystemConfig::default().with_adaptive_routing();
        assert_eq!(a.mesh.routing, RoutingMode::Adaptive);
        assert_eq!(SystemConfig::default().schedule_seed, 0);
        let s = SystemConfig::default().with_schedule_seed(42);
        assert_eq!(s.schedule_seed, 42);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_rejects_mismatched_mesh() {
        let c = SystemConfig {
            tiles: 8,
            ..SystemConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("mesh size"));
    }

    #[test]
    fn validate_rejects_bad_line_size() {
        let c = SystemConfig {
            line_bytes: 48,
            ..SystemConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("power of two"));
    }

    #[test]
    fn validate_rejects_bad_mem_routers() {
        let c = SystemConfig {
            mem_routers: vec![0, 3, 12],
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SystemConfig {
            mem_routers: vec![0, 3, 12, 99],
            ..SystemConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("outside"));
    }

    #[test]
    fn with_mesh_reshapes_consistently() {
        let c = SystemConfig::default().with_mesh(2, 2);
        assert_eq!(c.tiles, 4);
        assert_eq!(c.mem_controllers, 4);
        assert_eq!(c.mem_routers, vec![0, 1, 2, 3]);
        assert!(c.validate().is_ok());

        let c = SystemConfig::default().with_mesh(8, 4);
        assert_eq!(c.tiles, 32);
        assert!(c.validate().is_ok());

        let c = SystemConfig::default().with_mesh(1, 1);
        assert_eq!(c.tiles, 1);
        assert_eq!(c.mem_controllers, 1);
        assert!(c.validate().is_ok());
    }

    /// `with_mesh` takes any shape, user input included; `validate` is
    /// what refuses the ones the system cannot build.
    #[test]
    fn with_mesh_rejects_oversized_meshes() {
        for (w, h, needle) in [
            (9, 8, "at most 64 tiles"),
            (0, 4, "must be positive"),
            (4, 0, "must be positive"),
            (0, 0, "must be positive"),
            (u16::MAX, u16::MAX, "at most 64 tiles"),
        ] {
            let err = SystemConfig::default()
                .with_mesh(w, h)
                .validate()
                .unwrap_err();
            assert!(err.contains(needle), "{w}x{h}: {err}");
        }
    }

    /// A config with every wire key off its default, so a key the writer
    /// or the reader forgets shows up as a round-trip difference.
    fn every_key_set() -> SystemConfig {
        use ftdircmp_noc::{Direction, FaultEvent, LinkChannelConfig, RouterId};
        let mut c = SystemConfig::dircmp()
            .with_seed(7)
            .with_schedule_seed(3)
            .with_mesh(8, 2)
            .with_adaptive_routing()
            .with_fault_domains(
                FaultDomainConfig::events(vec![FaultEvent::LinkFlap {
                    from: RouterId::new(3),
                    dir: Direction::East,
                    start: 10,
                    end: 20,
                }])
                .with_channel(LinkChannelConfig::passthrough(0.25))
                .with_seed(11),
            );
        c.watchdog_cycles = 123;
        c.migratory_sharing = false;
        c.max_outstanding_misses = 4;
        c.ft = FtConfig {
            lost_request_timeout: 1,
            lost_unblock_timeout: 2,
            lost_ackbd_timeout: 3,
            lost_data_timeout: 4,
            serial_bits: 5,
        };
        c.mesh.faults.loss_per_million = 125.5;
        c.mesh.faults.burst_continue = 0.5;
        c.mesh.faults.burst_cap = 16;
        c.mesh.faults.only_classes = Some(vec![VcClass::Ping, VcClass::Request]);
        c
    }

    #[test]
    fn config_documents_round_trip_every_key() {
        for c in [
            SystemConfig::default(),
            SystemConfig::dircmp().with_mesh(1, 1),
            every_key_set(),
            {
                let mut d = SystemConfig::ftdircmp();
                d.mesh.faults = FaultConfig::drop_exactly(vec![4, 1]);
                d
            },
        ] {
            let doc = c.to_json();
            assert_eq!(SystemConfig::from_json(&doc), Ok(c.clone()), "{doc}");
            let text = doc.to_string();
            assert_eq!(
                SystemConfig::from_json(&Json::parse(&text).unwrap())
                    .unwrap()
                    .to_json()
                    .to_string(),
                text
            );
        }
        let keys = |c: &SystemConfig| {
            let Json::Obj(pairs) = c.to_json() else {
                unreachable!("configs are objects")
            };
            pairs.into_iter().map(|(k, _)| k).collect::<Vec<_>>()
        };
        let all: Vec<&str> = CONFIG_KEYS.split(", ").collect();
        let mut written = keys(&every_key_set());
        written.insert(17, "drops".to_string());
        assert_eq!(written, all, "every key but drops, in order");
        assert_eq!(keys(&SystemConfig::default()), all[..16]);
    }

    #[test]
    fn config_documents_default_to_table4_and_patch_what_they_name() {
        let read = |text: &str| SystemConfig::from_json(&Json::parse(text).unwrap());
        assert_eq!(read("{}"), Ok(SystemConfig::default()));
        assert_eq!(
            read(r#"{"protocol":"dir","fault_rate":250,"seed":7}"#),
            Ok(SystemConfig::dircmp().with_fault_rate(250.0).with_seed(7))
        );
        assert_eq!(
            read(r#"{"mesh":"2x2","routing":"adaptive"}"#),
            Ok(SystemConfig::default()
                .with_mesh(2, 2)
                .with_adaptive_routing())
        );
        // A domain key alone installs an (inactive) fault domain.
        let seeded = read(r#"{"domain_seed":9}"#).unwrap();
        assert_eq!(seeded.mesh.faults.domains.map(|d| d.domain_seed), Some(9));
    }

    #[test]
    fn config_document_errors_name_the_key() {
        let read = |text: &str| SystemConfig::from_json(&Json::parse(text).unwrap()).unwrap_err();
        for (text, needle) in [
            ("[]", "a config must be a JSON object"),
            (
                r#"{"fualt_rate":2000}"#,
                "unknown config key \"fualt_rate\" (expected one of protocol, seed,",
            ),
            (r#"{"seed":"1"}"#, "field \"seed\": expected integer"),
            (r#"{"seed":-1}"#, "field \"seed\": expected integer"),
            (
                r#"{"migratory_sharing":0}"#,
                "field \"migratory_sharing\": expected boolean",
            ),
            (
                r#"{"serial_bits":300}"#,
                "field \"serial_bits\": 300 exceeds 255",
            ),
            (r#"{"serial_bits":0}"#, "serial_bits = 0 must be in 1..=16"),
            (
                r#"{"serial_bits":17}"#,
                "serial_bits = 17 must be in 1..=16",
            ),
            (r#"{"max_outstanding_misses":0}"#, "at least 1"),
            (r#"{"mesh":"9x8"}"#, "at most 64 tiles"),
            (r#"{"mesh":"0x4"}"#, "must be positive"),
            (
                r#"{"mesh":"4by4"}"#,
                "field \"mesh\": expected \"WxH\", e.g. \"4x4\", got \"4by4\"",
            ),
            (r#"{"mesh":"70000x1"}"#, "field \"mesh\": expected"),
            (
                r#"{"routing":"west-first"}"#,
                "field \"routing\": expected xy or adaptive",
            ),
            (r#"{"protocol":"zesty"}"#, "unknown protocol \"zesty\""),
            (r#"{"fault_rate":-5}"#, "loss_per_million = -5"),
            (r#"{"burst_continue":1.5}"#, "burst_continue = 1.5"),
            (
                r#"{"fault_classes":["pong"]}"#,
                "expected virtual-channel class labels, got \"pong\"",
            ),
            (
                r#"{"fault_classes":"ping"}"#,
                "field \"fault_classes\": expected strings",
            ),
            (r#"{"drops":[1],"fault_rate":5}"#, "mutually exclusive"),
            (
                r#"{"link_channel":{"drop_bda":0.5}}"#,
                "unknown link channel key \"drop_bda\"",
            ),
            (
                r#"{"link_channel":5}"#,
                "a link channel must be a JSON object",
            ),
            (
                r#"{"fault_events":[{"kind":"brownout","router":16,"start":0,"end":1}]}"#,
                "outside",
            ),
        ] {
            let err = read(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn validate_rejects_zero_ft_timeouts() {
        let mut c = SystemConfig::ftdircmp();
        c.ft.lost_request_timeout = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_surfaces_fault_config_errors() {
        // Satellite of DESIGN.md §12: the conflicting-drop-modes trap is
        // caught at system construction, not silently resolved.
        let mut c = SystemConfig::ftdircmp().with_fault_rate(250.0);
        c.mesh.faults.drop_indices = Some(vec![3]);
        assert!(c.validate().unwrap_err().contains("mutually exclusive"));
    }

    #[test]
    fn validate_checks_domain_events_against_the_mesh() {
        use ftdircmp_noc::{Direction, FaultEvent, RouterId};

        let flap = |r: u16| FaultEvent::LinkFlap {
            from: RouterId::new(r),
            dir: Direction::East,
            start: 100,
            end: 200,
        };
        let ok =
            SystemConfig::ftdircmp().with_fault_domains(FaultDomainConfig::events(vec![flap(5)]));
        assert!(ok.validate().is_ok());
        assert!(ok.mesh.faults.is_faulty());

        let bad =
            SystemConfig::ftdircmp().with_fault_domains(FaultDomainConfig::events(vec![flap(16)]));
        assert!(bad.validate().unwrap_err().contains("outside"));

        // r3 sits on the east edge of the 4x4 mesh: its east link does not
        // exist, so the flap could never fire.
        let edge =
            SystemConfig::ftdircmp().with_fault_domains(FaultDomainConfig::events(vec![flap(3)]));
        assert!(edge.validate().unwrap_err().contains("off the mesh edge"));
        // The same flap is fine on a mesh where r3 has an east neighbor.
        let wide = edge.with_mesh(8, 2);
        assert!(wide.validate().is_ok(), "{:?}", wide.validate());

        let mut empty = FaultDomainConfig::events(vec![flap(5)]);
        empty.events = vec![FaultEvent::RouterBrownout {
            router: RouterId::new(2),
            start: 9,
            end: 9,
        }];
        let c = SystemConfig::ftdircmp().with_fault_domains(empty);
        assert!(c.validate().unwrap_err().contains("empty window"));

        // Out-of-range rates and probabilities used to be clamped (or, when
        // negative, to run fault-free) without a word.
        for (faults, needle) in [
            (FaultConfig::per_million(-5.0), "loss_per_million = -5"),
            (FaultConfig::per_million(1_000_001.0), "loss_per_million"),
            (FaultConfig::per_million(f64::NAN), "loss_per_million"),
            (FaultConfig::bursts(100.0, 1.5, 4), "burst_continue = 1.5"),
            (FaultConfig::bursts(100.0, -0.1, 4), "burst_continue"),
        ] {
            let mut c = SystemConfig::ftdircmp();
            c.mesh.faults = faults;
            assert!(c.validate().unwrap_err().contains(needle));
        }
    }
}
