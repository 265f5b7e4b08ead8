//! Self-contained failure reproductions.
//!
//! A [`Repro`] captures everything needed to replay a failing exploration
//! cell on a machine with nothing but this repository: the concrete
//! workload trace, the configuration knobs that matter (protocol variant,
//! master seed, schedule seed, timeout values, watchdog), the deterministic
//! drop schedule, and the failure kind observed. A repro is one canonical
//! JSON object ([`Repro::to_json`]), written as a `*.json` file under
//! `results/repros/`, replayed by the `ftdircmp-explore` binary and carried
//! as-is by the daemon's `replay` job.

use ftdircmp_core::config::{ProtocolVariant, SystemConfig};
use ftdircmp_core::json::Json;
use ftdircmp_core::trace::Workload;
use ftdircmp_core::trace_io;
use ftdircmp_noc::FaultConfig;

use crate::FailureKind;

/// A minimal, self-contained description of a failing run.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Protocol under test.
    pub protocol: ProtocolVariant,
    /// Master seed (drives fault RNG, adaptive routes, initial serials).
    pub(crate) seed: u64,
    /// Event-queue schedule seed (0 = FIFO).
    pub schedule_seed: u64,
    /// Deadlock watchdog window, cycles.
    pub(crate) watchdog_cycles: u64,
    /// Lost-request timeout, cycles.
    pub(crate) lost_request_timeout: u64,
    /// Lost-unblock timeout, cycles.
    pub(crate) lost_unblock_timeout: u64,
    /// Lost-AckBD timeout, cycles.
    pub(crate) lost_ackbd_timeout: u64,
    /// Lost-data (backup) timeout, cycles.
    pub(crate) lost_data_timeout: u64,
    /// Deterministic drop schedule: 0-based injection indices to lose.
    pub drops: Vec<u64>,
    /// The failure this repro reproduces.
    pub failure: FailureKind,
    /// Concrete workload (not a generator spec: repros must be immune to
    /// workload-generator changes).
    pub workload: Workload,
}

impl Repro {
    /// Captures a repro from a failing cell. The mesh geometry and cache
    /// parameters are assumed to be the Table 4 defaults; everything the
    /// exploration harness varies is recorded explicitly.
    pub fn capture(
        config: &SystemConfig,
        workload: &Workload,
        drops: Vec<u64>,
        failure: FailureKind,
    ) -> Repro {
        Repro {
            protocol: config.protocol,
            seed: config.seed,
            schedule_seed: config.schedule_seed,
            watchdog_cycles: config.watchdog_cycles,
            lost_request_timeout: config.ft.lost_request_timeout,
            lost_unblock_timeout: config.ft.lost_unblock_timeout,
            lost_ackbd_timeout: config.ft.lost_ackbd_timeout,
            lost_data_timeout: config.ft.lost_data_timeout,
            drops,
            failure,
            workload: workload.clone(),
        }
    }

    /// Reconstructs the run configuration: Table 4 defaults plus the
    /// recorded overrides.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig {
            protocol: self.protocol,
            ..SystemConfig::default()
        };
        cfg.seed = self.seed;
        cfg.schedule_seed = self.schedule_seed;
        cfg.watchdog_cycles = self.watchdog_cycles;
        cfg.ft.lost_request_timeout = self.lost_request_timeout;
        cfg.ft.lost_unblock_timeout = self.lost_unblock_timeout;
        cfg.ft.lost_ackbd_timeout = self.lost_ackbd_timeout;
        cfg.ft.lost_data_timeout = self.lost_data_timeout;
        cfg.mesh.faults = FaultConfig::drop_exactly(self.drops.clone());
        cfg
    }

    /// Replays the repro, returning the failure observed now (if any).
    pub fn replay(&self) -> Option<crate::Failure> {
        let result = ftdircmp_core::System::run_workload(self.config(), &self.workload);
        crate::classify(&self.workload, &result)
    }

    /// The repro as one canonical JSON object. `trace` embeds the
    /// `trace_io` text as a string; integers must stay below 2^53, which
    /// captured seeds, timeouts and drop indices do by orders of magnitude.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("protocol", Json::str(self.protocol.name().to_lowercase())),
            ("seed", Json::num_u64(self.seed)),
            ("schedule_seed", Json::num_u64(self.schedule_seed)),
            ("watchdog_cycles", Json::num_u64(self.watchdog_cycles)),
            (
                "lost_request_timeout",
                Json::num_u64(self.lost_request_timeout),
            ),
            (
                "lost_unblock_timeout",
                Json::num_u64(self.lost_unblock_timeout),
            ),
            ("lost_ackbd_timeout", Json::num_u64(self.lost_ackbd_timeout)),
            ("lost_data_timeout", Json::num_u64(self.lost_data_timeout)),
            (
                "drops",
                Json::Arr(self.drops.iter().map(|&d| Json::num_u64(d)).collect()),
            ),
            ("failure", Json::str(self.failure.label())),
            ("trace", Json::str(trace_io::to_string(&self.workload))),
        ])
    }

    /// Reads a repro object. Every field is required: the error names the
    /// first one missing or of the wrong type.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn from_json(v: &Json) -> Result<Repro, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("a repro must be a JSON object".to_string());
        }
        let uint = |key: &str| v.req::<u64>("repro", key);
        Ok(Repro {
            protocol: v.req::<&str>("repro", "protocol")?.parse()?,
            seed: uint("seed")?,
            schedule_seed: uint("schedule_seed")?,
            watchdog_cycles: uint("watchdog_cycles")?,
            lost_request_timeout: uint("lost_request_timeout")?,
            lost_unblock_timeout: uint("lost_unblock_timeout")?,
            lost_ackbd_timeout: uint("lost_ackbd_timeout")?,
            lost_data_timeout: uint("lost_data_timeout")?,
            drops: v.req("repro", "drops")?,
            failure: {
                let label = v.req::<&str>("repro", "failure")?;
                FailureKind::from_label(label)
                    .ok_or_else(|| format!("unknown failure kind {label:?}"))?
            },
            workload: trace_io::from_str(v.req("repro", "trace")?)
                .map_err(|e| format!("embedded trace: {e}"))?,
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
            self.schedule_seed,
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
/// Propagates I/O errors; parse errors are wrapped as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_repro(path: &std::path::Path) -> std::io::Result<Repro> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(&text)
        .and_then(|v| Repro::from_json(&v))
        .map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdircmp_core::ids::Addr;
    use ftdircmp_core::trace::{CoreTrace, TraceOp};

    fn sample() -> Repro {
        let wl = Workload::new(
            "sample",
            vec![CoreTrace::new(vec![
                TraceOp::Load(Addr(0x40)),
                TraceOp::Store(Addr(0x80)),
                TraceOp::Think(9),
            ])],
        );
        Repro::capture(
            &SystemConfig::dircmp().with_seed(1003).with_schedule_seed(7),
            &wl,
            vec![3, 1, 4],
            FailureKind::Deadlock,
        )
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
    }

    #[test]
    fn config_reconstruction_carries_overrides() {
        let r = sample();
        let cfg = r.config();
        assert_eq!(cfg.protocol, ProtocolVariant::DirCmp);
        assert_eq!(cfg.seed, 1003);
        assert_eq!(cfg.schedule_seed, 7);
        assert_eq!(cfg.mesh.faults.drop_indices, Some(vec![3, 1, 4]));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let from = |text: &str| Repro::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert_eq!(from(r#""(seed: 1)""#), "a repro must be a JSON object");
        assert_eq!(from("{}"), "repro missing string field \"protocol\"");
        // A foreign document fails on the first field it lacks.
        assert_eq!(
            from(r#"{"protocol":"ft","seed":1}"#),
            "repro missing integer field \"schedule_seed\""
        );
        assert_eq!(
            from(r#"{"protocol":"ft","seed":"1"}"#),
            "field \"seed\": expected integer"
        );
        assert!(from(r#"{"protocol":"zesty"}"#).contains("unknown protocol \"zesty\""));
        let edit = |key: &str, value: Json| {
            let Json::Obj(mut pairs) = sample().to_json() else {
                unreachable!("repros are objects")
            };
            pairs.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            Repro::from_json(&Json::Obj(pairs)).unwrap_err()
        };
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
    /// error or a repro, never a panic.
    #[test]
    fn damaged_documents_never_panic() {
        let text = sample().to_json().to_string().into_bytes();
        let read = |bytes: &[u8]| Json::parse_bytes(bytes).and_then(|v| Repro::from_json(&v));
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
        assert_eq!(read(&text), Ok(sample()));
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
        other.drops.push(9);
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
