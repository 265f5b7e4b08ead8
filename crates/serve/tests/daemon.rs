//! End-to-end tests against the real `ftdircmp-serve` daemon binary:
//! concurrent clients, kill -9 crash-resume, poison-job quarantine, a
//! hostile deeply nested request, and what a request costs and a finished
//! job leaves behind.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;
use ftdircmp_serve::runner::execute_job;
use ftdircmp_serve::server::{serve, ServeOptions, MAX_REQUEST_BYTES};
use ftdircmp_serve::store::Store;

const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);
const JOB_TIMEOUT: Duration = Duration::from_mins(5);

struct Daemon {
    child: Child,
    root: PathBuf,
}

impl Daemon {
    fn start(root: &Path, jobs: usize) -> Daemon {
        // A restart must not read the previous incarnation's port file.
        let _ = std::fs::remove_file(root.join("port"));
        let child = Command::new(env!("CARGO_BIN_EXE_ftdircmp-serve"))
            .args([
                "serve",
                "--root",
                root.to_str().unwrap(),
                "--jobs",
                &jobs.to_string(),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        Daemon {
            child,
            root: root.to_path_buf(),
        }
    }

    fn addr(&self) -> String {
        let port_file = self.root.join("port");
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let port = text.trim();
                if !port.is_empty() {
                    return format!("127.0.0.1:{port}");
                }
            }
            assert!(Instant::now() < deadline, "daemon never published a port");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// SIGKILL — the crash the resume contract is about.
    fn kill9(&mut self) {
        self.child.kill().expect("kill daemon");
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        let mut conn = Conn::connect(&self.addr());
        let reply = conn.call(r#"{"cmd":"shutdown"}"#);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Streamed events that arrived while waiting for a command reply.
    pending_events: Vec<String>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            if let Ok(stream) = TcpStream::connect(addr) {
                let writer = stream.try_clone().expect("clone socket");
                return Conn {
                    reader: BufReader::new(stream),
                    writer,
                    pending_events: Vec::new(),
                };
            }
            assert!(Instant::now() < deadline, "daemon never accepted at {addr}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Sends a command and returns its reply, buffering any streamed
    /// events that arrive in between (a watching connection receives
    /// event lines interleaved with replies).
    fn call(&mut self, request: &str) -> String {
        self.send(request);
        loop {
            let line = self.recv_line();
            let parsed = Json::parse(&line).expect("line parses");
            if parsed.get("event").is_some() {
                self.pending_events.push(line);
            } else {
                return line;
            }
        }
    }

    fn send(&mut self, request: &str) {
        // One write per request: a line split across two segments would
        // add the client's own Nagle delay to every round trip.
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection");
        line.trim_end().to_string()
    }

    /// Reads events until `id`'s done event arrives; returns its outcome.
    fn wait_done(&mut self, id: &str) -> String {
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            assert!(Instant::now() < deadline, "timed out waiting for {id}");
            let line = if self.pending_events.is_empty() {
                self.recv_line()
            } else {
                self.pending_events.remove(0)
            };
            let event = Json::parse(&line).expect("event parses");
            if event.get("id").and_then(Json::as_str) != Some(id) {
                continue;
            }
            if event.get("event").and_then(Json::as_str) == Some("done") {
                return event
                    .get("outcome")
                    .and_then(Json::as_str)
                    .expect("done event has outcome")
                    .to_string();
            }
        }
    }

    fn submit(&mut self, job: &str) -> String {
        let reply = self.call(&format!(r#"{{"cmd":"submit","job":{job}}}"#));
        let v = Json::parse(&reply).expect("reply parses");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{reply}");
        v.get("id").and_then(Json::as_str).expect("id").to_string()
    }

    /// `submit` → `watch` until `done` → `result`, as a closed-loop client
    /// does it; returns the id and the stored summary.
    fn run_job(&mut self, job: &str) -> (String, String) {
        let id = self.submit(job);
        let watch = self.call(&format!(r#"{{"cmd":"watch","id":"{id}"}}"#));
        assert!(watch.contains("\"watching\":true"), "{watch}");
        assert_eq!(self.wait_done(&id), "ok");
        let summary = self.result(&id);
        (id, summary)
    }

    fn result(&mut self, id: &str) -> String {
        let reply = self.call(&format!(r#"{{"cmd":"result","id":"{id}"}}"#));
        let v = Json::parse(&reply).expect("reply parses");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{reply}");
        v.get("summary")
            .and_then(Json::as_str)
            .expect("summary")
            .to_string()
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftdircmp-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `job` synchronously through the identical executor code path the
/// daemon uses (under the same job id) and returns the stored summary.
fn reference_summary(tag: &str, id: &str, job: &str) -> String {
    let root = tmp_root(&format!("ref-{tag}"));
    let store = Store::open(&root).unwrap();
    let spec = JobSpec::from_json(&Json::parse(job).unwrap()).unwrap();
    execute_job(&store, id, &spec, 1, &|_, _| {}).unwrap();
    let summary = store.read_summary(id).unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
    summary
}

#[test]
fn concurrent_clients_drain_deterministically() {
    let root = tmp_root("concurrent");
    let daemon = Daemon::start(&root, 2);
    let addr = daemon.addr();

    let job_a = r#"{"kind":"campaign","label":"a","specs":["barnes:ops=300"],"configs":[{"protocol":"dircmp"},{"protocol":"ftdircmp","fault_rate":500}],"seeds":2}"#;
    let job_b = r#"{"kind":"campaign","label":"b","specs":["fft:ops=300"],"configs":[{"protocol":"ftdircmp","fault_rate":1000}],"seeds":3}"#;

    let run_client = |job: &'static str| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut conn = Conn::connect(&addr);
            // Watch before submitting so no event can be missed.
            let watch = conn.call(r#"{"cmd":"watch"}"#);
            assert!(watch.contains("\"ok\":true"), "{watch}");
            let id = conn.submit(job);
            let outcome = conn.wait_done(&id);
            assert_eq!(outcome, "ok");
            let summary = conn.result(&id);
            (id, summary)
        })
    };
    let ha = run_client(job_a);
    let hb = run_client(job_b);
    let (id_a, summary_a) = ha.join().unwrap();
    let (id_b, summary_b) = hb.join().unwrap();
    daemon.shutdown();

    // Results must be byte-identical to the same specs run synchronously
    // through the local executor, regardless of submission interleaving.
    assert_eq!(summary_a, reference_summary("a", &id_a, job_a));
    assert_eq!(summary_b, reference_summary("b", &id_b, job_b));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill9_mid_campaign_resumes_without_duplicating_or_losing_cells() {
    let root = tmp_root("kill9");
    let mut daemon = Daemon::start(&root, 1);
    let addr = daemon.addr();
    // Six sequential units at ~1s each (debug build): plenty of window to
    // land a SIGKILL after the first record but before the summary.
    let job = r#"{"kind":"campaign","label":"crashy","specs":["barnes:ops=4000"],"configs":[{"protocol":"ftdircmp","fault_rate":500}],"seeds":6}"#;
    let id = {
        let mut conn = Conn::connect(&addr);
        conn.submit(job)
    };

    // Wait for at least one durable unit record, then SIGKILL the daemon.
    let store = Store::open(&root).unwrap();
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        assert!(Instant::now() < deadline, "no unit record ever landed");
        if !store.load_unit_records(&id).unwrap().records.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.kill9();
    let before = store.load_unit_records(&id).unwrap();
    let done_before: Vec<u64> = before
        .records
        .iter()
        .map(|r| r.get("unit").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(
        !store.is_done(&id),
        "campaign finished before the kill landed; grow the workload"
    );

    // Restart on the same root: the journal replays, the job re-enqueues,
    // and only the units whose records never landed run again.
    let daemon = Daemon::start(&root, 1);
    let addr = daemon.addr();
    let mut conn = Conn::connect(&addr);
    let watch = conn.call(&format!(r#"{{"cmd":"watch","id":"{id}"}}"#));
    assert!(watch.contains("\"ok\":true"), "{watch}");
    let outcome = conn.wait_done(&id);
    assert_eq!(outcome, "ok");
    let summary = conn.result(&id);
    daemon.shutdown();

    // No unit lost, none duplicated.
    let after = store.load_unit_records(&id).unwrap();
    let mut seen: Vec<u64> = after
        .records
        .iter()
        .map(|r| r.get("unit").and_then(Json::as_u64).unwrap())
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2, 3, 4, 5], "each unit exactly once");
    // Pre-kill records survive verbatim (never re-run, never rewritten).
    for (i, rec) in done_before.iter().enumerate() {
        assert_eq!(
            after.records[i].get("unit").and_then(Json::as_u64),
            Some(*rec)
        );
    }
    // And the final summary is byte-identical to an uninterrupted run.
    assert_eq!(summary, reference_summary("kill9", &id, job));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn poisoned_job_is_quarantined_while_queue_keeps_serving() {
    let root = tmp_root("poison");
    let daemon = Daemon::start(&root, 1);
    let mut conn = Conn::connect(&daemon.addr());
    let watch = conn.call(r#"{"cmd":"watch"}"#);
    assert!(watch.contains("\"ok\":true"), "{watch}");

    // The poison job panics inside the executor; priority puts it first.
    let poison_id = conn.submit(r#"{"kind":"poison","label":"boom","priority":10}"#);
    let victim_id = conn.submit(
        r#"{"kind":"campaign","label":"survivor","specs":["barnes:ops=100"],"configs":[{"protocol":"dircmp"}],"seeds":1}"#,
    );

    assert_eq!(conn.wait_done(&poison_id), "quarantined");
    assert_eq!(conn.wait_done(&victim_id), "ok");

    // The quarantined job's summary preserves the panic for forensics.
    let poison_summary = conn.result(&poison_id);
    assert!(
        poison_summary.contains("poison job executed"),
        "{poison_summary}"
    );
    let status = conn.call(&format!(r#"{{"cmd":"status","id":"{poison_id}"}}"#));
    assert!(status.contains("\"outcome\":\"quarantined\""), "{status}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// One request line nested 100 000 deep used to overflow the stack of its
/// connection thread, which aborts the whole daemon and every running job.
#[test]
fn a_deeply_nested_request_is_refused_and_the_daemon_keeps_serving() {
    let root = tmp_root("deep");
    let daemon = Daemon::start(&root, 1);
    let mut conn = Conn::connect(&daemon.addr());
    let reply = conn.call(&"[".repeat(100_000));
    assert!(reply.contains("\"ok\":false"), "{reply}");
    let pong = conn.call(r#"{"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The smallest job there is: one unit of one operation per core.
const ONE_UNIT_JOB: &str = r#"{"kind":"campaign","label":"tiny","specs":["barnes:ops=1"],"configs":[{"protocol":"ftdircmp"}],"seeds":1}"#;

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A request costs what its work costs. The bounds are loose on purpose:
/// a `ping` is tens of microseconds and a one-unit job a few milliseconds,
/// and all these have to catch is a 40 ms Nagle/delayed-ACK stall per
/// reply coming back (44 ms and 132 ms before `TCP_NODELAY` and
/// one-segment replies).
#[test]
fn loopback_round_trips_pay_no_delayed_ack() {
    let root = tmp_root("latency");
    let server = {
        let root = root.clone();
        std::thread::spawn(move || serve(&root, &ServeOptions::default()))
    };
    let port_file = root.join("port");
    let deadline = Instant::now() + STARTUP_TIMEOUT;
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            break format!("127.0.0.1:{}", text.trim());
        }
        assert!(Instant::now() < deadline, "serve() never published a port");
        std::thread::sleep(Duration::from_millis(2));
    };
    let mut conn = Conn::connect(&addr);

    let pings: Vec<Duration> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let reply = conn.call(r#"{"cmd":"ping"}"#);
            assert!(reply.contains("\"pong\":true"), "{reply}");
            t.elapsed()
        })
        .collect();
    let jobs: Vec<Duration> = (0..25)
        .map(|_| {
            let t = Instant::now();
            conn.run_job(ONE_UNIT_JOB);
            t.elapsed()
        })
        .collect();

    let reply = conn.call(r#"{"cmd":"shutdown"}"#);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    server.join().unwrap().unwrap();
    let (ping, job) = (median(pings), median(jobs));
    assert!(ping < Duration::from_millis(10), "median ping {ping:?}");
    assert!(
        job < Duration::from_millis(25),
        "median one-unit job {job:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Resident set of a live process, KiB.
#[cfg(target_os = "linux")]
fn vm_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .expect("VmRSS line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmRSS is a number")
}

/// A finished job costs the daemon nothing: one long-lived client, 2 500
/// jobs, each watched by id. Before finished jobs were evicted from the
/// queue and their subscriptions from the notifier, the daemon grew about
/// 1.3 KiB per job (2.6 MiB over this stretch).
#[cfg(target_os = "linux")]
#[test]
fn daemon_memory_does_not_grow_with_finished_jobs() {
    let root = tmp_root("rss");
    let daemon = Daemon::start(&root, 1);
    let mut conn = Conn::connect(&daemon.addr());
    let mut run = |jobs: usize| {
        for _ in 0..jobs {
            conn.run_job(ONE_UNIT_JOB);
        }
        vm_rss_kib(daemon.child.id())
    };
    let warm = run(500);
    let after = run(2000);
    assert!(
        after < warm + 512,
        "VmRSS {warm} KiB after 500 jobs, {after} KiB after 2500"
    );
    drop(conn);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A flag a subcommand does not take is a usage error that names it, before
/// any job is read or run.
#[test]
fn subcommands_reject_an_unknown_flag_naming_it() {
    let root = tmp_root("unknown-flag");
    let out = Command::new(env!("CARGO_BIN_EXE_ftdircmp-serve"))
        .args(["run-local", "--root"])
        .arg(&root)
        .args(["--jbos", "2"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("got \"--jbos\""), "{stderr}");
    assert!(!root.join("results").exists(), "nothing ran");
}

/// A request line that never ends used to be read into one growing buffer:
/// a client could grow the daemon's memory without limit by never sending a
/// newline. The line is now refused at `MAX_REQUEST_BYTES`, naming the
/// limit, and only that connection closes.
#[test]
fn an_oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
    let root = tmp_root("long-line");
    let daemon = Daemon::start(&root, 1);
    let addr = daemon.addr();
    let mut conn = Conn::connect(&addr);
    let timeout = Some(Duration::from_secs(30));
    conn.reader.get_ref().set_read_timeout(timeout).unwrap();
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..=MAX_REQUEST_BYTES >> 20 {
        // The daemon stops reading at the limit and may close first.
        if conn.writer.write_all(&chunk).is_err() {
            break;
        }
    }
    let reply = conn.recv_line();
    let limit = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
    assert!(
        reply.contains("\"ok\":false") && reply.contains(&limit),
        "{reply}"
    );
    let mut rest = String::new();
    assert_eq!(conn.reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");
    let pong = Conn::connect(&addr).call(r#"{"cmd":"ping"}"#);
    assert!(pong.contains("\"pong\":true"), "{pong}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
