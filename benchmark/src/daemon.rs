//! Spawning the real `ftdircmp-serve` binary and talking to it: one TCP
//! client, closed loop, `submit` → `watch` until `done` → `result`.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;
use ftdircmp_serve::runner::{execute_job, OUTCOME_OK};
use ftdircmp_serve::store::Store;
use ftdircmp_sim::DetRng;
use ftdircmp_workloads::{suite_names, WorkloadSpec};

use crate::trace::Tracer;
use crate::util::{fresh_dir, Fingerprint, Res};

const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);
/// No reply for this long means the daemon hung; fail instead of waiting
/// out the driver's time limit.
const REPLY_TIMEOUT: Duration = Duration::from_mins(1);

/// Builds a binary of the repository's own workspace (cargo does not build
/// the bin targets of a dependency) and returns its path.
pub fn build_bin(package: &str, bin: &str) -> Res<PathBuf> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", package, "--bin", bin])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {bin} failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let path = target.join("release").join(bin);
    if !path.is_file() {
        return Err(format!("cargo built no {}", path.display()));
    }
    Ok(path)
}

/// The daemon binary.
pub fn build_serve_bin() -> Res<PathBuf> {
    build_bin("ftdircmp-serve", "ftdircmp-serve")
}

/// A running daemon. Dropping it shuts the daemon down and reaps it, so
/// no exit path of the benchmark leaves a process behind.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `ftdircmp-serve serve --jobs 1 --max-pending 64` on a fresh
    /// root and returns once it answers a `ping`.
    pub fn spawn(bin: &Path, root: &Path) -> Res<Daemon> {
        fresh_dir(root)?;
        let child = Command::new(bin)
            .args(["serve", "--jobs", "1", "--max-pending", "64", "--root"])
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        // From here on `daemon`'s Drop reaps the child on any early return.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        let port_file = root.join("port");
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    daemon.addr = format!("127.0.0.1:{port}");
                    if let Ok(mut client) = Client::connect(&daemon.addr) {
                        if client.ping().is_ok() {
                            return Ok(daemon);
                        }
                    }
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if Instant::now() >= deadline {
                return Err("daemon did not answer a ping in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.call(&Json::obj(vec![("cmd", Json::str("shutdown"))]));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One job's trip through the daemon, with the instants that split it.
pub struct JobTrip {
    pub id: String,
    pub summary: String,
    pub start: Instant,
    pub submitted: Instant,
    pub done: Instant,
    pub end: Instant,
}

impl JobTrip {
    pub fn total_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, request: &Json) -> Res<()> {
        // One write per request: a line split across two segments would
        // add the client's own Nagle delay to every round trip.
        let mut line = request.to_string();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending request: {e}"))
    }

    fn recv(&mut self) -> Res<Json> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Json::parse(line.trim()).map_err(|e| format!("bad reply {line:?}: {e}"))
    }

    /// Sends a request and returns its reply, skipping streamed events (a
    /// late duplicate `done` of an earlier watch may still be in flight).
    pub fn call(&mut self, request: &Json) -> Res<Json> {
        self.send(request)?;
        loop {
            let line = self.recv()?;
            if line.get("event").is_none() {
                return Ok(line);
            }
        }
    }

    fn call_ok(&mut self, request: &Json) -> Res<Json> {
        let reply = self.call(request)?;
        if reply.get("ok") == Some(&Json::Bool(true)) {
            Ok(reply)
        } else {
            Err(format!("daemon refused {request}: {reply}"))
        }
    }

    pub fn ping(&mut self) -> Res<()> {
        self.call_ok(&Json::obj(vec![("cmd", Json::str("ping"))]))
            .map(|_| ())
    }

    /// `submit` → `watch` until `done` → `result`.
    pub fn run_job(&mut self, job: &Json) -> Res<JobTrip> {
        let start = Instant::now();
        let reply = self.call_ok(&Json::obj(vec![
            ("cmd", Json::str("submit")),
            ("job", job.clone()),
        ]))?;
        let submitted = Instant::now();
        let id = reply
            .get("id")
            .and_then(Json::as_str)
            .ok_or("submit reply has no id")?
            .to_string();

        self.send(&Json::obj(vec![
            ("cmd", Json::str("watch")),
            ("id", Json::str(&id)),
        ]))?;
        // The server emits `done` before the `watching` ack when the job
        // already finished, so read until both have been seen.
        let (mut acked, mut outcome) = (false, None);
        while !(acked && outcome.is_some()) {
            let line = self.recv()?;
            match line.get("event").and_then(Json::as_str) {
                Some("done") if line.get("id").and_then(Json::as_str) == Some(&id) => {
                    outcome = line
                        .get("outcome")
                        .and_then(Json::as_str)
                        .map(str::to_string);
                }
                Some(_) => {}
                None if line.get("watching") == Some(&Json::Bool(true)) => acked = true,
                None => return Err(format!("watch {id} refused: {line}")),
            }
        }
        let done = Instant::now();
        if outcome.as_deref() != Some(OUTCOME_OK) {
            return Err(format!("job {id} ended {outcome:?}"));
        }

        let reply = self.call_ok(&Json::obj(vec![
            ("cmd", Json::str("result")),
            ("id", Json::str(&id)),
        ]))?;
        let summary = reply
            .get("summary")
            .and_then(Json::as_str)
            .ok_or("result reply has no summary")?
            .to_string();
        Ok(JobTrip {
            id,
            summary,
            start,
            submitted,
            done,
            end: Instant::now(),
        })
    }
}

/// A generated one-unit campaign job and what its result must say.
pub struct Job {
    pub json: Json,
    pub expected_mem_ops: u64,
}

/// Fault rates of the generated jobs, lost messages per million.
const JOB_RATES: [f64; 3] = [0.0, 500.0, 2000.0];

/// `count` one-unit campaign jobs drawn from `seed`: a suite workload cut
/// down to 32..=48 operations per core, FtDirCMP at one of [`JOB_RATES`].
/// The engine spends a few milliseconds on each, so what the daemon adds
/// around it dominates. Workload and rate are dealt from one shuffled deck
/// and sizes from another, so every seed's pass holds the same mix and the
/// same total size; which workload gets which size, and the order, differ.
pub fn generate_jobs(seed: u64, count: usize) -> Res<Vec<Job>> {
    let mut rng = DetRng::from_seed(seed);
    let mut shuffle = |deck: &mut [usize]| {
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i as u64 + 1) as usize);
        }
    };
    let names = suite_names();
    // Card c is workload c % 12 in round c / 12; the rate steps on with
    // both, so one round already deals every rate.
    let rate_of = |card: usize| (card / names.len() + card % names.len()) % JOB_RATES.len();
    if let Some(missing) = (0..JOB_RATES.len()).find(|r| (0..count).all(|c| rate_of(c) != *r)) {
        return Err(format!(
            "a pass of {count} jobs never runs fault rate {}",
            JOB_RATES[missing]
        ));
    }
    let mut deck: Vec<usize> = (0..count).collect();
    let mut sizes: Vec<usize> = (0..count).map(|i| 32 + i % 17).collect();
    shuffle(&mut deck);
    shuffle(&mut sizes);
    deck.into_iter()
        .zip(sizes)
        .enumerate()
        .map(|(i, (card, ops))| {
            let rate = JOB_RATES[rate_of(card)];
            let request = format!("{}:ops={ops}", names[card % names.len()]);
            let json = Json::obj(vec![
                ("kind", Json::str("campaign")),
                ("label", Json::str(format!("bench-{seed}-{i}"))),
                ("specs", Json::Arr(vec![Json::str(&request)])),
                (
                    "configs",
                    Json::Arr(vec![Json::obj(vec![
                        ("protocol", Json::str("ftdircmp")),
                        ("fault_rate", Json::Num(rate)),
                        ("watchdog_cycles", Json::num_u64(3_000_000)),
                    ])]),
                ),
                ("seeds", Json::num_u64(1)),
            ]);
            JobSpec::from_json(&json)?;
            let spec = WorkloadSpec::parse(&request)?;
            Ok(Job {
                json,
                // One-unit jobs run seed 0 on the default 16 tiles.
                expected_mem_ops: spec.generate(16, 1000).total_mem_ops() as u64,
            })
        })
        .collect()
}

/// What one job's stored summary reports, after checking that it parses
/// and describes one clean unit of the expected size.
pub struct JobResult {
    pub cycles: u64,
    pub events: u64,
    pub messages_lost: u64,
}

pub fn check_summary(job: &Job, trip: &JobTrip) -> Res<JobResult> {
    let id = &trip.id;
    let summary =
        Json::parse(trip.summary.trim()).map_err(|e| format!("job {id}: summary: {e}"))?;
    let units = summary
        .get("units")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("job {id}: summary has no units"))?;
    let [unit] = units else {
        return Err(format!("job {id}: {} units, expected 1", units.len()));
    };
    let num = |key: &str| {
        unit.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("job {id}: unit record has no {key}"))
    };
    if unit.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("job {id}: unit not ok: {unit}"));
    }
    if num("violations")? != 0 {
        return Err(format!("job {id}: {} violations", num("violations")?));
    }
    if num("total_mem_ops")? != job.expected_mem_ops {
        return Err(format!(
            "job {id}: retired {} memory ops, trace has {}",
            num("total_mem_ops")?,
            job.expected_mem_ops
        ));
    }
    Ok(JobResult {
        cycles: num("cycles")?,
        events: num("events")?,
        messages_lost: num("messages_lost")?,
    })
}

pub fn fingerprint(results: &[JobResult]) -> Fingerprint {
    let mut fp = Fingerprint::new();
    for r in results {
        fp.feed(r.cycles);
        fp.feed(r.events);
        fp.feed(r.messages_lost);
    }
    fp
}

/// Re-runs `jobs` in-process through `runner::execute_job` under the ids
/// the daemon gave them; the stored summaries must equal the daemon's
/// byte for byte.
pub fn check_against_local(scratch_root: &Path, jobs: &[(&Job, &JobTrip)]) -> Res<()> {
    fresh_dir(scratch_root)?;
    let store = Store::open(scratch_root).map_err(|e| format!("opening scratch store: {e}"))?;
    for (job, trip) in jobs {
        let spec = JobSpec::from_json(&job.json)?;
        execute_job(&store, &trip.id, &spec, 1, &|_, _| {})
            .map_err(|e| format!("local run of {}: {e}", trip.id))?;
        let local = store
            .read_summary(&trip.id)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("local run of {} stored no summary", trip.id))?;
        if local != trip.summary {
            return Err(format!(
                "job {}: daemon summary differs from runner::execute_job run in-process",
                trip.id
            ));
        }
    }
    Ok(())
}

/// Runs `jobs` once through `client`, closed loop, recording the three
/// phases of each trip under the tracer's open span when one is given.
pub fn run_pass(
    client: &mut Client,
    jobs: &[Job],
    mut tracer: Option<&mut Tracer>,
) -> Res<Vec<JobTrip>> {
    jobs.iter()
        .map(|job| {
            let trip = client.run_job(&job.json)?;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("serve.submit", &trip.id, trip.start, trip.submitted);
                tr.record("serve.wait_done", &trip.id, trip.submitted, trip.done);
                tr.record("serve.result", &trip.id, trip.done, trip.end);
            }
            Ok(trip)
        })
        .collect()
}
