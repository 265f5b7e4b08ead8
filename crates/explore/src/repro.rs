//! Self-contained failure reproductions.
//!
//! A [`Repro`] captures everything needed to replay a failing exploration
//! cell on a machine with nothing but this repository: the concrete
//! workload trace, the configuration knobs that matter (protocol variant,
//! master seed, schedule seed, timeout values, watchdog), the deterministic
//! drop schedule, and the failure kind observed. Repros serialize to a
//! small RON-style text format written under `results/repros/` and replayed
//! by the `ftdircmp-explore` binary.

use ftdircmp_core::config::{ProtocolVariant, SystemConfig};
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

    /// Serializes to the RON-style repro format.
    pub(crate) fn to_ron(&self) -> String {
        let mut out = String::from("// ftdircmp repro v1\n(\n");
        out.push_str(&format!("    protocol: {:?},\n", self.protocol.name()));
        out.push_str(&format!("    seed: {},\n", self.seed));
        out.push_str(&format!("    schedule_seed: {},\n", self.schedule_seed));
        out.push_str(&format!("    watchdog_cycles: {},\n", self.watchdog_cycles));
        out.push_str(&format!(
            "    lost_request_timeout: {},\n",
            self.lost_request_timeout
        ));
        out.push_str(&format!(
            "    lost_unblock_timeout: {},\n",
            self.lost_unblock_timeout
        ));
        out.push_str(&format!(
            "    lost_ackbd_timeout: {},\n",
            self.lost_ackbd_timeout
        ));
        out.push_str(&format!(
            "    lost_data_timeout: {},\n",
            self.lost_data_timeout
        ));
        out.push_str(&format!(
            "    drops: [{}],\n",
            self.drops
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("    failure: {:?},\n", self.failure.label()));
        out.push_str(&format!(
            "    trace: {:?},\n",
            trace_io::to_string(&self.workload)
        ));
        out.push_str(")\n");
        out
    }

    /// Parses the RON-style repro format.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed
    /// construct found.
    pub fn from_ron(text: &str) -> Result<Repro, String> {
        let fields = parse_fields(text)?;
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let uint = |key: &str| -> Result<u64, String> {
            match get(key)? {
                Value::Uint(n) => Ok(*n),
                other => Err(format!("field {key:?}: expected integer, got {other:?}")),
            }
        };
        let string = |key: &str| -> Result<String, String> {
            match get(key)? {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!("field {key:?}: expected string, got {other:?}")),
            }
        };
        let protocol = match string("protocol")?.as_str() {
            "DirCMP" => ProtocolVariant::DirCmp,
            "FtDirCMP" => ProtocolVariant::FtDirCmp,
            other => return Err(format!("unknown protocol {other:?}")),
        };
        let failure_label = string("failure")?;
        let failure = FailureKind::from_label(&failure_label)
            .ok_or_else(|| format!("unknown failure kind {failure_label:?}"))?;
        let drops = match get("drops")? {
            Value::List(items) => items.clone(),
            other => return Err(format!("field \"drops\": expected list, got {other:?}")),
        };
        let workload =
            trace_io::from_str(&string("trace")?).map_err(|e| format!("embedded trace: {e}"))?;
        Ok(Repro {
            protocol,
            seed: uint("seed")?,
            schedule_seed: uint("schedule_seed")?,
            watchdog_cycles: uint("watchdog_cycles")?,
            lost_request_timeout: uint("lost_request_timeout")?,
            lost_unblock_timeout: uint("lost_unblock_timeout")?,
            lost_ackbd_timeout: uint("lost_ackbd_timeout")?,
            lost_data_timeout: uint("lost_data_timeout")?,
            drops,
            failure,
            workload,
        })
    }

    /// Suggested file name for this repro (stable across reruns of the same
    /// cell: derived from content, not wall time).
    pub(crate) fn file_name(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_ron().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!(
            "{}-{}-s{}-{:016x}.ron",
            self.failure.label(),
            self.workload.name.replace(['/', ' '], "_"),
            self.schedule_seed,
            h
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Uint(u64),
    Str(String),
    List(Vec<u64>),
}

/// Parses the outer `( key: value, ... )` body into key/value pairs.
/// Only the constructs the repro format uses are supported: unsigned
/// integers, double-quoted strings with `\n`/`\"`/`\\` escapes, and lists
/// of unsigned integers.
fn parse_fields(text: &str) -> Result<Vec<(String, Value)>, String> {
    // Strip // comments (only outside strings; comments in this format are
    // always on their own line, before the opening paren).
    let body: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let body = body.trim();
    let body = body
        .strip_prefix('(')
        .and_then(|b| b.trim_end().strip_suffix(')'))
        .ok_or("repro must be wrapped in ( ... )")?;

    let mut fields = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        // Skip whitespace and separators.
        while chars.peek().is_some_and(|c| c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        // Key.
        let mut key = String::new();
        while chars
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
        {
            key.push(chars.next().unwrap());
        }
        if key.is_empty() {
            return Err(format!("expected a field name, found {:?}", chars.peek()));
        }
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        if chars.next() != Some(':') {
            return Err(format!("field {key:?}: expected ':'"));
        }
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        // Value.
        let value = match chars.peek() {
            Some('"') => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            other => return Err(format!("bad escape {other:?} in {key:?}")),
                        },
                        Some('"') => break,
                        Some(c) => s.push(c),
                        None => return Err(format!("unterminated string in {key:?}")),
                    }
                }
                Value::Str(s)
            }
            Some('[') => {
                chars.next();
                let mut items = Vec::new();
                let mut num = String::new();
                loop {
                    match chars.next() {
                        Some(']') => {
                            if !num.trim().is_empty() {
                                items.push(parse_u64(num.trim(), &key)?);
                            }
                            break;
                        }
                        Some(',') => {
                            if !num.trim().is_empty() {
                                items.push(parse_u64(num.trim(), &key)?);
                            }
                            num.clear();
                        }
                        Some(c) => num.push(c),
                        None => return Err(format!("unterminated list in {key:?}")),
                    }
                }
                Value::List(items)
            }
            Some(c) if c.is_ascii_digit() => {
                let mut num = String::new();
                while chars
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || *c == '_')
                {
                    num.push(chars.next().unwrap());
                }
                Value::Uint(parse_u64(&num, &key)?)
            }
            other => return Err(format!("field {key:?}: unexpected value start {other:?}")),
        };
        fields.push((key, value));
    }
    Ok(fields)
}

fn parse_u64(s: &str, key: &str) -> Result<u64, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("field {key:?}: bad integer {s:?}"))
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
    std::fs::write(&path, repro.to_ron())?;
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
    Repro::from_ron(&text).map_err(|e| {
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
    fn ron_roundtrip_preserves_everything() {
        let r = sample();
        let text = r.to_ron();
        assert!(text.starts_with("// ftdircmp repro v1"));
        let back = Repro::from_ron(&text).unwrap();
        assert_eq!(back, r);
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
        assert!(Repro::from_ron("not ron").unwrap_err().contains("( ... )"));
        assert!(Repro::from_ron("( seed: 1 )")
            .unwrap_err()
            .contains("missing field"));
        assert!(
            Repro::from_ron("( seed: \"x\" )")
                .unwrap_err()
                .contains("missing field \"protocol\"")
                || !Repro::from_ron("( seed: \"x\" )").unwrap_err().is_empty()
        );
    }

    #[test]
    fn file_name_is_content_stable() {
        let a = sample().file_name();
        let b = sample().file_name();
        assert_eq!(a, b);
        assert!(std::path::Path::new(&a)
            .extension()
            .is_some_and(|x| x == "ron"));
        assert!(a.contains("deadlock"));
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
