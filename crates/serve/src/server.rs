//! TCP front end: line-delimited JSON over a local socket.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line with an `"ok"` field. A request line longer than
//! [`MAX_REQUEST_BYTES`] is refused with an error naming the limit, and its
//! connection closes. A connection that issued
//! `watch` additionally receives streamed event lines (`"event"` field)
//! interleaved between responses; responses and events are serialized
//! through one per-connection writer thread so lines never interleave.
//!
//! Commands:
//!
//! | cmd        | fields            | reply                                 |
//! |------------|-------------------|---------------------------------------|
//! | `ping`     |                   | `{"ok":true,"pong":true}`             |
//! | `submit`   | `job`             | `{"ok":true,"id":"j000001"}`          |
//! | `status`   | `id`              | state/outcome/label/priority of a job |
//! | `list`     |                   | every job the queue knows             |
//! | `watch`    | `id` (optional)   | subscribes; done jobs notify at once  |
//! | `result`   | `id`              | the stored summary, verbatim          |
//! | `shutdown` |                   | `{"ok":true}`, then the daemon exits  |
//!
//! The queue forgets a job's submission when the job finishes (`queue.rs`),
//! so `priority` is a number while a job is pending or running and `null`
//! afterwards; `status` reads a finished job's `label` back from its stored
//! summary, `list` reports `null` there rather than open one file per job.
//! An `id` that is not of the daemon's own `j000001` shape is an unknown
//! job to `status`, `watch` and `result` alike, before any of them builds
//! a file name from it. A `watch` on a job that has already finished
//! delivers its `done` event *before* the `{"ok":true,"watching":true}`
//! reply; otherwise the reply comes first and `done` exactly once later.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use crate::job::JobSpec;
use crate::json::Json;
use crate::notifier::{progress_event, Notifier};
use crate::queue::{job_number, JobState, Queue};
use crate::runner::execute_job;
use crate::store::Store;

/// Daemon options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (published in the `port`
    /// file and on stdout).
    pub addr: String,
    /// Worker threads per campaign.
    pub jobs: usize,
    /// Backpressure: max pending jobs before submissions are rejected.
    pub max_pending: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            max_pending: 64,
        }
    }
}

/// Runs the daemon until a `shutdown` command arrives: binds the socket,
/// replays the queue journal (resuming any half-finished jobs), and
/// serves clients.
///
/// # Errors
///
/// Propagates bind/store failures at startup.
///
/// # Panics
///
/// Panics if a service thread panicked (never: workers catch panics).
pub fn serve(root: &Path, options: &ServeOptions) -> std::io::Result<()> {
    let store = Store::open(root)?;
    let queue = Arc::new(Queue::open(store, options.max_pending)?);
    let notifier = Arc::new(Notifier::new());
    let listener = TcpListener::bind(&options.addr)?;
    let local = listener.local_addr()?;
    queue.store().write_port(local.port())?;
    println!("listening on {local}");

    let stop = Arc::new(AtomicBool::new(false));

    let executor = {
        let queue = Arc::clone(&queue);
        let notifier = Arc::clone(&notifier);
        let jobs = options.jobs;
        thread::spawn(move || run_executor(&queue, &notifier, jobs))
    };

    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(socket) = conn else { continue };
        let queue = Arc::clone(&queue);
        let notifier = Arc::clone(&notifier);
        let stop = Arc::clone(&stop);
        let addr = local;
        thread::spawn(move || {
            if handle_connection(&socket, &queue, &notifier) == ConnOutcome::Shutdown {
                stop.store(true, Ordering::SeqCst);
                queue.shutdown();
                // Unblock the accept loop so the daemon can exit.
                let _ = TcpStream::connect(addr);
            }
        });
    }

    executor.join().expect("executor thread never panics");
    Ok(())
}

/// Drains the queue: runs each job, persists its summary, records the
/// outcome, and streams progress/done events. A job whose worker panics
/// is quarantined (summary preserved, outcome `quarantined`) and the
/// queue keeps serving.
fn run_executor(queue: &Queue, notifier: &Notifier, jobs: usize) {
    while let Some(job) = queue.take_next() {
        let id = job.id.clone();
        let progress = |done: usize, total: usize| {
            notifier.publish(&id, &progress_event(&id, done, total));
        };
        match execute_job(queue.store(), &job.id, &job.spec, jobs, &progress) {
            Ok(outcome) => {
                // In this order: a `watch` relies on a job reading as done
                // by the time its done event is published.
                queue.mark_done(&job.id, &outcome);
                notifier.publish_done(&job.id, &outcome);
            }
            Err(e) => {
                // The summary never committed: leave the job un-done so a
                // restart retries it, but tell watchers what happened.
                eprintln!("job {}: store failure: {e}", job.id);
                notifier.publish_done(&job.id, "store-error");
            }
        }
    }
}

/// The longest request line the daemon reads, its newline included. The
/// largest legitimate request, a replay job embedding a suite trace (under
/// 100 KB as text), fits many times over; a client that never sends a
/// newline cannot grow the daemon's memory past it. A longer line is
/// refused and its connection closed.
pub const MAX_REQUEST_BYTES: u64 = 16 << 20;

#[derive(Debug, PartialEq, Eq)]
enum ConnOutcome {
    Closed,
    Shutdown,
}

fn handle_connection(socket: &TcpStream, queue: &Queue, notifier: &Notifier) -> ConnOutcome {
    let Ok(write_half) = socket.try_clone() else {
        return ConnOutcome::Closed;
    };
    // Every line leaves as one write on a socket that does not wait to
    // coalesce: a reply split in two, or held back by Nagle's algorithm,
    // costs the client a delayed-ACK timeout (40 ms) per request.
    let _ = socket.set_nodelay(true);
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let mut out = write_half;
        while let Ok(mut line) = rx.recv() {
            line.push('\n');
            if out.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
    });

    let mut outcome = ConnOutcome::Closed;
    let mut reader = BufReader::new(socket);
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() as u64 == MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            let limit = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
            let _ = tx.send(error_reply(&limit).to_string());
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            if tx
                .send(error_reply("request line is not UTF-8").to_string())
                .is_err()
            {
                break;
            }
            continue;
        };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let (reply, is_shutdown) = handle_command(text, queue, notifier, &tx);
        if tx.send(reply.to_string()).is_err() {
            break;
        }
        if is_shutdown {
            outcome = ConnOutcome::Shutdown;
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
    outcome
}

fn error_reply(msg: &str) -> Json {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(msg))])
}

fn unknown_job(id: &str) -> Json {
    error_reply(&format!("unknown job {id:?}"))
}

fn handle_command(
    text: &str,
    queue: &Queue,
    notifier: &Notifier,
    tx: &mpsc::Sender<String>,
) -> (Json, bool) {
    let Ok(req) = Json::parse(text) else {
        return (error_reply("request is not valid JSON"), false);
    };
    let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
        return (error_reply("request missing string field \"cmd\""), false);
    };
    let reply = match cmd {
        "ping" => Json::obj(vec![("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
        "submit" => match req.get("job") {
            Some(job_json) => match JobSpec::from_json(job_json) {
                Ok(spec) => match queue.submit(spec) {
                    Ok(id) => Json::obj(vec![("ok", Json::Bool(true)), ("id", Json::str(&id))]),
                    Err(e) => error_reply(&e),
                },
                Err(e) => error_reply(&e),
            },
            None => error_reply("submit missing object field \"job\""),
        },
        "status" => match req.get("id").and_then(Json::as_str) {
            Some(id) => match queue.status(id) {
                Some(status) => {
                    let (outcome, label) = match &status.state {
                        JobState::Done(o) => {
                            (Json::str(o), queue.store().summary_field(id, "label"))
                        }
                        _ => (Json::Null, status.label),
                    };
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("id", Json::str(id)),
                        ("state", Json::str(status.state.name())),
                        ("outcome", outcome),
                        ("label", label.map_or(Json::Null, Json::Str)),
                        (
                            "priority",
                            status.priority.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                }
                None => unknown_job(id),
            },
            None => error_reply("status missing string field \"id\""),
        },
        "list" => Json::obj(vec![
            ("ok", Json::Bool(true)),
            (
                "jobs",
                Json::Arr(
                    queue
                        .list()
                        .into_iter()
                        .map(|(id, status)| {
                            Json::obj(vec![
                                ("id", Json::Str(id)),
                                ("state", Json::str(status.state.name())),
                                ("label", status.label.map_or(Json::Null, Json::Str)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        "watch" => {
            match req.get("id").and_then(Json::as_str) {
                Some(id) => {
                    if queue.status(id).is_none() {
                        return (unknown_job(id), false);
                    }
                    // A watch on an already-finished job notifies at once,
                    // ahead of the reply below — otherwise a client that
                    // raced job completion waits forever.
                    notifier.subscribe_job(id, tx, || match queue.status(id)?.state {
                        JobState::Done(outcome) => Some(outcome),
                        _ => None,
                    });
                }
                None => notifier.subscribe_all(tx.clone()),
            }
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("watching", Json::Bool(true)),
            ])
        }
        "result" => match req.get("id").and_then(Json::as_str) {
            Some(id) if job_number(id).is_none() => unknown_job(id),
            Some(id) => match queue.store().read_summary(id) {
                Ok(Some(summary)) => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("id", Json::str(id)),
                    ("summary", Json::str(&summary)),
                ]),
                Ok(None) => error_reply(&format!("job {id:?} has no stored result yet")),
                Err(e) => error_reply(&format!("reading result: {e}")),
            },
            None => error_reply("result missing string field \"id\""),
        },
        "shutdown" => {
            return (Json::obj(vec![("ok", Json::Bool(true))]), true);
        }
        other => error_reply(&format!("unknown command {other:?}")),
    };
    (reply, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notifier::done_event;
    use std::sync::mpsc;

    fn tmp_queue(tag: &str) -> Queue {
        let dir = std::env::temp_dir().join(format!(
            "ftdircmp-serve-server-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Queue::open(Store::open(&dir).unwrap(), 8).unwrap()
    }

    fn call(queue: &Queue, notifier: &Notifier, text: &str) -> (Json, bool) {
        let (tx, _rx) = mpsc::channel();
        handle_command(text, queue, notifier, &tx)
    }

    #[test]
    fn wire_protocol_basics() {
        let queue = tmp_queue("wire");
        let notifier = Notifier::new();
        let (pong, _) = call(&queue, &notifier, r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

        let (bad, _) = call(&queue, &notifier, "not json");
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));

        let (sub, _) = call(
            &queue,
            &notifier,
            r#"{"cmd":"submit","job":{"kind":"poison","label":"p"}}"#,
        );
        assert_eq!(sub.get("ok"), Some(&Json::Bool(true)), "{sub:?}");
        let id = sub.get("id").and_then(Json::as_str).unwrap().to_string();

        let (st, _) = call(
            &queue,
            &notifier,
            &format!(r#"{{"cmd":"status","id":"{id}"}}"#),
        );
        assert_eq!(st.get("state").and_then(Json::as_str), Some("pending"));

        let (ls, _) = call(&queue, &notifier, r#"{"cmd":"list"}"#);
        assert_eq!(ls.get("jobs").and_then(Json::as_arr).unwrap().len(), 1);

        let (missing, _) = call(&queue, &notifier, r#"{"cmd":"result","id":"j999999"}"#);
        assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));

        let (_, shutdown) = call(&queue, &notifier, r#"{"cmd":"shutdown"}"#);
        assert!(shutdown);
        let _ = std::fs::remove_dir_all(&queue.store().root);
    }

    #[test]
    fn watch_on_done_job_notifies_immediately() {
        let queue = tmp_queue("watch-done");
        let notifier = Notifier::new();
        let (sub, _) = call(
            &queue,
            &notifier,
            r#"{"cmd":"submit","job":{"kind":"poison","label":"p"}}"#,
        );
        let id = sub.get("id").and_then(Json::as_str).unwrap().to_string();
        let taken = queue.take_next().unwrap();
        queue.store().write_summary(&taken.id, "{}\n").unwrap();
        queue.mark_done(&taken.id, "quarantined");

        let (tx, rx) = mpsc::channel();
        let (reply, _) = handle_command(
            &format!(r#"{{"cmd":"watch","id":"{id}"}}"#),
            &queue,
            &notifier,
            &tx,
        );
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        let event = rx.try_recv().unwrap();
        assert!(event.contains("\"event\":\"done\""), "{event}");
        assert!(event.contains("quarantined"), "{event}");
        let _ = std::fs::remove_dir_all(&queue.store().root);
    }

    #[test]
    fn executor_drains_and_quarantines_poison() {
        let queue = std::sync::Arc::new(tmp_queue("executor"));
        let notifier = std::sync::Arc::new(Notifier::new());
        queue
            .submit(JobSpec::from_json(&Json::parse(r#"{"kind":"poison"}"#).unwrap()).unwrap())
            .unwrap();
        queue
            .submit(
                JobSpec::from_json(
                    &Json::parse(
                        r#"{"kind":"campaign","label":"after-poison",
                            "specs":["barnes:ops=30"],
                            "configs":[{"protocol":"dircmp"}],"seeds":1}"#,
                    )
                    .unwrap(),
                )
                .unwrap(),
            )
            .unwrap();
        let (tx, rx) = mpsc::channel();
        notifier.subscribe_all(tx);
        let mut events: Vec<String> = Vec::new();
        {
            let q = std::sync::Arc::clone(&queue);
            let n = std::sync::Arc::clone(&notifier);
            let h = std::thread::spawn(move || run_executor(&q, &n, 1));
            // Each job ends with one `done` event.
            while events.iter().filter(|e| e.contains("\"done\"")).count() < 2 {
                events.push(rx.recv().unwrap());
            }
            queue.shutdown();
            h.join().unwrap();
        }
        events.extend(rx.try_iter());
        let done: Vec<&String> = events.iter().filter(|e| e.contains("\"done\"")).collect();
        assert_eq!(done.len(), 2, "{events:?}");
        assert!(done[0].contains("quarantined"), "{events:?}");
        assert!(done[1].contains("\"outcome\":\"ok\""), "{events:?}");
        let _ = std::fs::remove_dir_all(&queue.store().root);
    }

    #[test]
    fn path_shaped_ids_are_unknown_jobs_before_any_file_name_is_built() {
        let queue = tmp_queue("wire-ids");
        let notifier = Notifier::new();
        // What `result` would have served for `../../leak` or the absolute
        // path before ids were checked at the boundary.
        let root = queue.store().root.clone();
        std::fs::write(root.join("leak.json"), "{\"secret\":1}\n").unwrap();
        let absolute = root.join("leak").display().to_string();
        let long = format!("j{}", "9".repeat(4096));
        for id in [
            "../leak",
            "../../leak",
            absolute.as_str(),
            "",
            "j",
            "j00001",
            "j0000001",
            "j00000a",
            "J000001",
            "j000001/../../leak",
            "j000001\u{0}",
            long.as_str(),
        ] {
            for cmd in ["result", "status", "watch"] {
                let req = Json::obj(vec![("cmd", Json::str(cmd)), ("id", Json::str(id))]);
                let (reply, _) = call(&queue, &notifier, &req.to_string());
                assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{cmd} {id:?}");
                let error = reply.get("error").and_then(Json::as_str).unwrap();
                assert!(error.starts_with("unknown job"), "{cmd} {id:?}: {error}");
            }
        }
        assert_eq!(notifier.subscriptions(), 0);
        // The daemon's own ids still reach the store.
        let (reply, _) = call(&queue, &notifier, r#"{"cmd":"result","id":"j000001"}"#);
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("no stored result yet"), "{error}");
        let _ = std::fs::remove_dir_all(&root);
    }

    fn poison(label: &str) -> JobSpec {
        JobSpec::from_json(&Json::obj(vec![
            ("kind", Json::str("poison")),
            ("label", Json::str(label)),
        ]))
        .unwrap()
    }

    /// 500 jobs, each with its own job-scoped watcher on one channel (one
    /// long-lived client): afterwards the daemon holds nothing per job but
    /// the finished table.
    #[test]
    fn finished_jobs_leave_no_state_behind() {
        const JOBS: usize = 500;
        let queue = std::sync::Arc::new(tmp_queue("bounded"));
        let notifier = std::sync::Arc::new(Notifier::new());
        let executor = {
            let (q, n) = (queue.clone(), notifier.clone());
            std::thread::spawn(move || run_executor(&q, &n, 1))
        };
        let (tx, rx) = mpsc::channel();
        for i in 0..JOBS {
            let id = queue.submit(poison(&format!("p{i}"))).unwrap();
            let (reply, _) = handle_command(
                &format!(r#"{{"cmd":"watch","id":"{id}"}}"#),
                &queue,
                &notifier,
                &tx,
            );
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
            // Closed loop: one done event per job, whichever side of the
            // finish the watch landed on.
            let done = rx.recv().unwrap();
            assert_eq!(done, done_event(&id, "quarantined").to_string());
        }
        queue.shutdown();
        executor.join().unwrap();
        assert!(rx.try_recv().is_err(), "a done event was sent twice");

        assert_eq!(notifier.subscriptions(), 0);
        let list = queue.list();
        assert_eq!(list.len(), JOBS);
        for (i, (id, status)) in list.iter().enumerate() {
            assert_eq!(id, &format!("j{:06}", i + 1));
            assert_eq!(status.state, JobState::Done("quarantined".to_string()));
        }
        // An evicted job still answers with its real outcome, and with the
        // label its summary kept.
        let (st, _) = call(&queue, &notifier, r#"{"cmd":"status","id":"j000007"}"#);
        assert_eq!(st.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(
            st.get("outcome").and_then(Json::as_str),
            Some("quarantined")
        );
        assert_eq!(st.get("label").and_then(Json::as_str), Some("p6"));
        assert_eq!(st.get("priority"), Some(&Json::Null));
        let _ = std::fs::remove_dir_all(&queue.store().root);
    }

    /// The race `subscribe_job` closes: a watch issued while the job is
    /// finishing. A barrier puts the watch before the executor's
    /// `mark_done`, between it and `publish_done`, and after both.
    #[test]
    fn a_watch_racing_completion_sees_done_exactly_once() {
        for watch_at in 0..3 {
            let queue = tmp_queue(&format!("race-{watch_at}"));
            let notifier = Notifier::new();
            let id = queue.submit(poison("p")).unwrap();
            let taken = queue.take_next().unwrap();
            queue.store().write_summary(&taken.id, "{}\n").unwrap();
            let (tx, rx) = mpsc::channel();
            let turn = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    turn.wait();
                    queue.mark_done(&id, "ok");
                    turn.wait();
                    turn.wait();
                    notifier.publish_done(&id, "ok");
                    turn.wait();
                });
                for step in 0..3 {
                    if step == watch_at {
                        let request = format!(r#"{{"cmd":"watch","id":"{id}"}}"#);
                        let (reply, _) = handle_command(&request, &queue, &notifier, &tx);
                        assert_eq!(reply.get("watching"), Some(&Json::Bool(true)));
                    }
                    if step < 2 {
                        // Hand the turn to the executor and take it back.
                        turn.wait();
                        turn.wait();
                    }
                }
            });
            let events: Vec<String> = rx.try_iter().collect();
            assert_eq!(
                events,
                [done_event(&id, "ok").to_string()],
                "watch at step {watch_at}"
            );
            assert_eq!(notifier.subscriptions(), 0, "watch at step {watch_at}");
            let _ = std::fs::remove_dir_all(&queue.store().root);
        }
    }

    /// ROADMAP 8c, pinned as contract: for an already-finished job the
    /// `done` event is on the wire before the `watching` reply.
    #[test]
    fn done_precedes_the_watching_ack_for_a_finished_job() {
        let dir = std::env::temp_dir().join(format!("ftdircmp-serve-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let queue = Arc::new(Queue::open(Store::open(&dir).unwrap(), 8).unwrap());
        let notifier = Arc::new(Notifier::new());
        let id = queue.submit(poison("p")).unwrap();
        let taken = queue.take_next().unwrap();
        queue.store().write_summary(&taken.id, "{}\n").unwrap();
        queue.mark_done(&id, "ok");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let (q, n) = (queue.clone(), notifier.clone());
            thread::spawn(move || {
                let (socket, _) = listener.accept().unwrap();
                handle_connection(&socket, &q, &n)
            })
        };
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(format!("{{\"cmd\":\"watch\",\"id\":\"{id}\"}}\n").as_bytes())
            .unwrap();
        let mut lines = BufReader::new(client.try_clone().unwrap()).lines();
        let first = lines.next().unwrap().unwrap();
        let second = lines.next().unwrap().unwrap();
        assert_eq!(first, done_event(&id, "ok").to_string());
        assert_eq!(second, r#"{"ok":true,"watching":true}"#);
        client.shutdown(std::net::Shutdown::Both).unwrap();
        assert_eq!(server.join().unwrap(), ConnOutcome::Closed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
