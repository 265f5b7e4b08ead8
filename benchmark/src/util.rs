//! Small shared pieces: order statistics, the ordered metric list every
//! mode prints, the simulated-results fingerprint and host facts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use ftdircmp_serve::json::Json;

/// Every fallible step of the benchmark reports a one-line reason.
pub type Res<T> = Result<T, String>;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric over zero samples has no value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        f64::midpoint(v[mid - 1], v[mid])
    }
}

/// The fastest of repeated timings of the same work: what the layer
/// probes report, since what is left once the host's interruptions are
/// gone is what the code itself costs.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Seconds [`HostSpeed::sample`] takes on the reference host (two cores
/// of a shared VM, rustc 1.95) while nothing else competes for it.
pub const REFERENCE_SAMPLE_S: f64 = 0.100;

/// A fixed piece of CPU-bound work, owned by the benchmark so that no
/// change to the repository moves it: an event heap with 1024 entries in
/// flight and a 256 KiB table updated at random, the simulator's own
/// habits. How long it takes says how fast the host is right now.
///
/// The sandbox's speed drifts: the same campaign pass was measured at
/// 1.8 s and, ten minutes later, at 2.6 s, and the fastest of eight
/// passes moved with it (spread over ten runs 29%, above any bound the
/// contract allows). Dividing by samples taken close to the timed work
/// removes the drift (same ten runs: 13%).
pub struct HostSpeed {
    table: Vec<u64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            table: vec![0; 1 << 15],
        }
    }

    /// Runs the work once and returns its wall time in seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut heap = BinaryHeap::with_capacity(1025);
        for i in 0..1024u64 {
            heap.push(Reverse((i % 8, i)));
        }
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..1_500_000 {
            let Reverse((now, id)) = heap.pop().expect("one push per pop");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let entry = &mut self.table[x as usize % (1 << 15)];
            *entry = entry.wrapping_add(id ^ now);
            // A third of the events are timeouts far ahead, the rest hops.
            let delay = if x.is_multiple_of(3) {
                1_000 + (x >> 20) % 3_000
            } else {
                1 + (x >> 20) % 60
            };
            heap.push(Reverse((now + delay, *entry)));
        }
        black_box(heap.len());
        t.elapsed().as_secs_f64()
    }
}

/// Repeated timings of the same CPU-bound work, scaled to the reference
/// host speed. The work is timed in parts with a [`HostSpeed`] sample
/// before the first, between each two and after the last; a part's time is
/// multiplied by [`REFERENCE_SAMPLE_S`] over the mean of the two samples
/// around it, and a timing is the sum over its parts. Parts of about half
/// a second follow the host's second-to-second swings, which samples
/// around a whole pass of several seconds miss (same readings, ten runs:
/// spread 15% with samples at the ends of a pass only, 8-10% with parts).
pub struct SpeedAdjusted {
    speed: HostSpeed,
    samples: Vec<f64>,
    raw: Vec<f64>,
    adjusted: Vec<f64>,
}

impl SpeedAdjusted {
    pub fn new() -> Self {
        let mut speed = HostSpeed::new();
        let samples = vec![speed.sample()];
        SpeedAdjusted {
            speed,
            samples,
            raw: Vec::new(),
            adjusted: Vec::new(),
        }
    }

    /// One timing: `f` over each of `parts` in turn.
    pub fn time_parts<P, T>(
        &mut self,
        parts: impl IntoIterator<Item = P>,
        mut f: impl FnMut(P) -> T,
    ) -> Vec<T> {
        let (mut raw, mut adjusted) = (0.0, 0.0);
        let mut before = *self.samples.last().expect("sampled in new");
        let outs = parts
            .into_iter()
            .map(|part| {
                let t = Instant::now();
                let out = f(part);
                let elapsed = t.elapsed().as_secs_f64();
                let after = self.speed.sample();
                self.samples.push(after);
                raw += elapsed;
                adjusted += elapsed * REFERENCE_SAMPLE_S / f64::midpoint(before, after);
                before = after;
                out
            })
            .collect();
        self.raw.push(raw);
        self.adjusted.push(adjusted);
        outs
    }

    /// One timing of `f` as a single part.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.time_parts([f], |f| f())
            .pop()
            .expect("one part, one result")
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Median of the adjusted timings, in reference-speed seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.adjusted)
    }

    /// Median of the timings as the clock read them, in this host's
    /// seconds: what `results/BENCH_trajectory.jsonl` holds.
    pub fn raw_median_s(&self) -> f64 {
        median(&self.raw)
    }

    /// The raw timings and the host-speed samples, for the run's log.
    pub fn print(&self, what: &str) {
        println!("{what} raw_s {:.3?}", self.raw);
        println!("{what} adjusted_s {:.3?}", self.adjusted);
        println!("{what} host_speed_samples_s {:.4?}", self.samples);
    }
}

/// Nearest-rank percentile `p` in `0..=100` (`p = 0` is the minimum).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Empties `dir`, creating it if need be.
pub fn fresh_dir(dir: &std::path::Path) -> Res<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Metrics in the order they were measured: `(name, value, unit)`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.get(name).is_none(),
            "metric {name} measured twice in one run"
        );
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Human-readable lines, one metric each: `metric <name> <value> <unit>`.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("metric {name:<34} {value:>18.6} {unit}");
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Order-sensitive hash of simulated results (FNV-1a over the words fed
/// in). Two commits that print the same fingerprint for a workload and seed
/// simulated exactly the same thing.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// The low 48 bits: exactly representable in the result line's floats.
    pub fn low48(self) -> f64 {
        (self.0 & 0xffff_ffff_ffff) as f64
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Res<f64> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Filesystem type holding `dir` (longest mount-point prefix in
/// `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(dir: &std::path::Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(text) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in text.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// One line of host facts, printed with every run so a reading can be
/// traced back to the machine that produced it.
pub fn host_facts(daemon_root: &std::path::Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "host cores={cores} daemon_root_fs={} rustc=\"{rustc}\"",
        fs_type(daemon_root)
    )
}
