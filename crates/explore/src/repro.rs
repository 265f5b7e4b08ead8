//! Self-contained failure reproductions.
//!
//! A [`Repro`] captures everything needed to replay a failing exploration
//! cell on a machine with nothing but this repository: the concrete
//! workload trace, the full run configuration with its deterministic drop
//! schedule, and the failure kind observed. It is one canonical JSON object
//! ([`Repro::to_json`]): [`SystemConfig::to_json`]'s keys plus `failure`
//! and `trace`, written as a `*.json` file under `results/repros/`,
//! replayed by `ftdircmp-explore` and carried as-is by the daemon's
//! `replay` job.

use ftdircmp_core::config::SystemConfig;
use ftdircmp_core::json::Json;
use ftdircmp_core::trace::Workload;
use ftdircmp_core::trace_io;

use crate::FailureKind;

/// A minimal, self-contained description of a failing run.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The run configuration, with the drop schedule installed as its
    /// `drop_indices`.
    pub config: SystemConfig,
    /// The failure this repro reproduces.
    pub failure: FailureKind,
    /// Concrete workload (not a generator spec: repros must be immune to
    /// workload-generator changes).
    pub workload: Workload,
}

impl Repro {
    /// Captures a repro from a failing cell: `config` with the
    /// deterministic schedule `drops` (0-based injection indices to lose)
    /// standing in for its loss rate. Every other setting, fault domains
    /// included, is kept as the cell ran it.
    pub fn capture(
        config: &SystemConfig,
        workload: &Workload,
        drops: Vec<u64>,
        failure: FailureKind,
    ) -> Repro {
        let mut config = config.clone();
        config.mesh.faults.loss_per_million = 0.0;
        config.mesh.faults.drop_indices = Some(drops);
        Repro {
            config,
            failure,
            workload: workload.clone(),
        }
    }

    /// The deterministic drop schedule.
    pub fn drops(&self) -> &[u64] {
        let drops = &self.config.mesh.faults.drop_indices;
        drops.as_deref().unwrap_or_default()
    }

    /// Replays the repro, returning the failure observed now (if any).
    pub fn replay(&self) -> Option<crate::Failure> {
        let result = ftdircmp_core::System::run_workload(self.config.clone(), &self.workload);
        crate::classify(&self.workload, &result)
    }

    /// The repro as one canonical JSON object: the config's keys, then
    /// `failure` and `trace` (the `trace_io` text as a string). Integers
    /// must stay below 2^53, which captured seeds, timeouts and drop
    /// indices do by orders of magnitude.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut pairs) = self.config.to_json() else {
            unreachable!("a config document is an object")
        };
        pairs.push(("failure".into(), Json::str(self.failure.label())));
        pairs.push((
            "trace".into(),
            Json::str(trace_io::to_string(&self.workload)),
        ));
        Json::Obj(pairs)
    }

    /// Reads a repro object: `failure` and `trace` are required, and every
    /// other key is read by [`SystemConfig::from_json`], so a config key
    /// left out takes its Table 4 value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn from_json(v: &Json) -> Result<Repro, String> {
        let Json::Obj(pairs) = v else {
            return Err("a repro must be a JSON object".to_string());
        };
        let label = v.req::<&str>("repro", "failure")?;
        let failure = FailureKind::from_label(label)
            .ok_or_else(|| format!("unknown failure kind {label:?}"))?;
        let workload = trace_io::from_str(v.req("repro", "trace")?)
            .map_err(|e| format!("embedded trace: {e}"))?;
        let config = pairs.iter().filter(|(k, _)| k != "failure" && k != "trace");
        Ok(Repro {
            config: SystemConfig::from_json(&Json::Obj(config.cloned().collect()))?,
            failure,
            workload,
        })
    }

    /// Suggested file name for this repro (stable across reruns of the same
    /// cell: derived from content, not wall time).
    pub(crate) fn file_name(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!(
            "{}-{}-s{}-{:016x}.json",
            self.failure.label(),
            self.workload.name.replace(['/', ' '], "_"),
            self.config.schedule_seed,
            h
        )
    }
}

/// Writes a repro under `dir`, creating the directory if needed, and
/// returns the path written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_repro(dir: &std::path::Path, repro: &Repro) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(repro.file_name());
    std::fs::write(&path, format!("{}\n", repro.to_json()))?;
    Ok(path)
}

/// Reads a repro file.
///
/// # Errors
///
/// An I/O error, or a parse error as [`std::io::ErrorKind::InvalidData`];
/// either one's message names the path.
pub fn read_repro(path: &std::path::Path) -> std::io::Result<Repro> {
    let named = |kind, e: &dyn std::fmt::Display| {
        std::io::Error::new(kind, format!("{}: {e}", path.display()))
    };
    let text = std::fs::read_to_string(path).map_err(|e| named(e.kind(), &e))?;
    Json::parse(&text)
        .and_then(|v| Repro::from_json(&v))
        .map_err(|e| named(std::io::ErrorKind::InvalidData, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdircmp_core::config::ProtocolVariant;
    use ftdircmp_core::ids::Addr;
    use ftdircmp_core::trace::{CoreTrace, TraceOp};
    use ftdircmp_noc::{Direction, FaultDomainConfig, FaultEvent, RouterId};

    fn workload() -> Workload {
        Workload::new(
            "sample",
            vec![CoreTrace::new(vec![
                TraceOp::Load(Addr(0x40)),
                TraceOp::Store(Addr(0x80)),
                TraceOp::Think(9),
            ])],
        )
    }

    fn sample() -> Repro {
        Repro::capture(
            &SystemConfig::dircmp().with_seed(1003).with_schedule_seed(7),
            &workload(),
            vec![3, 1, 4],
            FailureKind::Deadlock,
        )
    }

    /// A repro whose config is far from Table 4: another mesh, a fault
    /// domain and a narrow serial width.
    fn unusual() -> Repro {
        let flap = FaultEvent::LinkFlap {
            from: RouterId::new(3),
            dir: Direction::East,
            start: 100,
            end: 900,
        };
        let mut cfg = SystemConfig::ftdircmp()
            .with_mesh(8, 2)
            .with_fault_domains(FaultDomainConfig::events(vec![flap]));
        cfg.ft.serial_bits = 3;
        Repro::capture(&cfg, &workload(), vec![2], FailureKind::LostOps)
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample();
        let text = r.to_json().to_string();
        assert!(text.starts_with(r#"{"protocol":"dircmp","seed":1003,"schedule_seed":7,"#));
        assert!(text.contains(r#""drops":[3,1,4],"failure":"deadlock","trace":""#));
        let back = Repro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_string(), text, "canonical");
        let u = unusual();
        assert_eq!(Repro::from_json(&u.to_json()), Ok(u));
    }

    #[test]
    fn config_reconstruction_carries_overrides() {
        let cfg = sample().config;
        assert_eq!(cfg.protocol, ProtocolVariant::DirCmp);
        assert_eq!(cfg.seed, 1003);
        assert_eq!(cfg.schedule_seed, 7);
        assert_eq!(cfg.mesh.faults.drop_indices, Some(vec![3, 1, 4]));
        assert!(cfg.validate().is_ok());
        let cfg = unusual().config;
        assert_eq!((cfg.tiles, cfg.ft.serial_bits), (16, 3));
        assert_eq!(cfg.mesh.faults.domains.map(|d| d.events.len()), Some(1));
    }

    /// A repro file written before repros carried the whole config (eleven
    /// keys, no mesh, routing or fault settings) reads to the same run.
    #[test]
    fn eleven_key_documents_read_to_the_same_run() {
        let text = format!(
            r#"{{"protocol":"dircmp","seed":1003,"schedule_seed":7,"watchdog_cycles":400000,"lost_request_timeout":3000,"lost_unblock_timeout":3000,"lost_ackbd_timeout":2000,"lost_data_timeout":8000,"drops":[3,1,4],"failure":"deadlock","trace":{}}}"#,
            Json::str(trace_io::to_string(&workload()))
        );
        assert_eq!(Repro::from_json(&Json::parse(&text).unwrap()), Ok(sample()));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let from = |text: &str| Repro::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert_eq!(from(r#""(seed: 1)""#), "a repro must be a JSON object");
        // Config keys default; `failure` and `trace` do not.
        assert_eq!(from("{}"), "repro missing string field \"failure\"");
        assert_eq!(
            from(r#"{"protocol":"ft","seed":1}"#),
            "repro missing string field \"failure\""
        );
        let edit = |key: &str, value: Json| {
            let Json::Obj(mut pairs) = sample().to_json() else {
                unreachable!("repros are objects")
            };
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some(pair) => pair.1 = value,
                None => pairs.push((key.to_string(), value)),
            }
            Repro::from_json(&Json::Obj(pairs)).unwrap_err()
        };
        assert_eq!(
            edit("seed", Json::str("1")),
            "field \"seed\": expected integer"
        );
        assert!(edit("protocol", Json::str("zesty")).contains("unknown protocol \"zesty\""));
        assert!(edit("seedz", Json::Num(1.0)).starts_with("unknown config key \"seedz\""));
        assert_eq!(
            edit("failure", Json::str("meltdown")),
            "unknown failure kind \"meltdown\""
        );
        assert_eq!(
            edit("drops", Json::Arr(vec![Json::Num(-1.0)])),
            "field \"drops\": expected integers"
        );
        assert!(edit("trace", Json::str("garbage")).starts_with("embedded trace: "));
    }

    /// Every truncation and every single-bit flip of a valid document is an
    /// error or a repro, never a panic: the repro fields and, through the
    /// unusual config, every part of the config codec.
    #[test]
    fn damaged_documents_never_panic() {
        let read = |bytes: &[u8]| Json::parse_bytes(bytes).and_then(|v| Repro::from_json(&v));
        for repro in [sample(), unusual()] {
            let text = repro.to_json().to_string().into_bytes();
            for len in 0..text.len() {
                assert!(read(&text[..len]).is_err(), "prefix of {len} bytes");
            }
            let mut flipped = text.clone();
            for i in 0..text.len() {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    let _ = read(&flipped);
                    flipped[i] = text[i];
                }
            }
            assert_eq!(read(&text), Ok(repro));
        }
    }

    #[test]
    fn file_name_is_content_stable() {
        let a = sample().file_name();
        let b = sample().file_name();
        assert_eq!(a, b);
        assert!(std::path::Path::new(&a)
            .extension()
            .is_some_and(|x| x == "json"));
        assert!(a.starts_with("deadlock-sample-s7-"), "{a}");
        let mut other = sample();
        other.config.mesh.faults.drop_indices = Some(vec![3, 1, 4, 9]);
        assert_ne!(other.file_name(), a, "the hash covers the content");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ftdircmp-repro-test");
        let path = write_repro(&dir, &sample()).unwrap();
        let back = read_repro(&path).unwrap();
        assert_eq!(back, sample());
        std::fs::remove_file(&path).ok();
    }
}
