//! System configuration (paper Table 4).

use ftdircmp_noc::{FaultConfig, FaultDomainConfig, MeshConfig, RoutingMode, Topology};

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
    /// by the scalability ablation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh exceeds 64 tiles
    /// (the sharer-vector width).
    pub fn with_mesh(mut self, width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        let tiles = u32::from(width) * u32::from(height);
        assert!(tiles <= 64, "at most 64 tiles (sharer vector width)");
        self.mesh.width = width;
        self.mesh.height = height;
        self.tiles = tiles as u8;
        // Memory controllers at the distinct mesh corners.
        let mut corners: Vec<u16> = vec![0, width - 1, (height - 1) * width, height * width - 1];
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
    /// found (tile/mesh mismatch, non-power-of-two sizes, missing memory
    /// routers, zero timeouts under FtDirCMP).
    pub fn validate(&self) -> Result<(), String> {
        let mesh_nodes = u32::from(self.mesh.width) * u32::from(self.mesh.height);
        if mesh_nodes == 0 {
            return Err("mesh dimensions must be positive".to_string());
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

    #[test]
    #[should_panic(expected = "at most 64 tiles")]
    fn with_mesh_rejects_oversized_meshes() {
        let _ = SystemConfig::default().with_mesh(9, 8);
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
