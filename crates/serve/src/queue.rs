//! Persistent work queue backed by an append-only journal.
//!
//! Every accepted submission is appended (and fsynced) to
//! `journal.jsonl` as `{"op":"submit","id":...,"job":{...}}` before the
//! client sees an acknowledgement; every finished job appends
//! `{"op":"done","id":...,"outcome":...}` after its summary has been
//! renamed into place. On boot the journal's valid prefix is replayed:
//! jobs with a submit but no done record (and no summary on disk — the
//! summary rename is the real commit point, the done record a fast-path
//! hint) are re-enqueued, so a `kill -9` mid-campaign costs at most the
//! units whose records never reached disk. Because it is only a hint the
//! done record is appended *without* a sync of its own: the next submit's
//! sync carries it to disk, and a crash that loses it costs one
//! `is_done` check of the summary on boot, which also supplies the
//! outcome.
//!
//! Scheduling is (priority descending, submission order ascending).
//! Backpressure: once `max_pending` jobs are queued, further submissions
//! are rejected with a typed error instead of growing without bound.
//!
//! Memory: the queue holds a [`JobSpec`] only while its job is pending or
//! running. A finished job shrinks to a four-byte outcome code in a paged
//! table — no allocation of its own — and `submit`, `take_next`,
//! `mark_done` and `status` never walk the history, however many jobs the
//! daemon has run; its label lives on in the stored summary, its priority
//! is not kept.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::Write as _;
use std::sync::{Condvar, Mutex};

use crate::job::JobSpec;
use crate::json::Json;
use crate::store::Store;

/// Lifecycle of a job as seen by `status`/`list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JobState {
    /// Accepted, waiting for the executor.
    Pending,
    /// Currently executing.
    Running,
    /// Finished with the given outcome (`ok`, `failed`, `quarantined`).
    Done(String),
}

impl JobState {
    /// Wire name of the state.
    pub(crate) fn name(&self) -> &str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done(_) => "done",
        }
    }
}

/// A job handed to the executor.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Stable job id (`j000001`, ...).
    pub id: String,
    /// The validated submission.
    pub(crate) spec: JobSpec,
}

/// What `status`/`list` report about one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Where the job is in its lifecycle.
    pub(crate) state: JobState,
    /// The submission's label; the queue keeps it while the job is open
    /// (a finished job's label is in its stored summary).
    pub(crate) label: Option<String>,
    /// The submission's priority, kept while the job is open.
    pub(crate) priority: Option<i64>,
}

/// The number in a job id: ids are the daemon's own `j%06d` (more digits
/// past 999999, never a redundant leading zero, at most fifteen so that
/// arithmetic on numbers cannot overflow), so the number names the job
/// and orders submissions. `None` for anything else — in particular for
/// every string that would name a path outside `results/` once the store
/// has joined it into a file name.
pub(crate) fn job_number(id: &str) -> Option<u64> {
    let digits = id.strip_prefix('j')?;
    let canonical = match digits.len() {
        6 => true,
        7..=15 => !digits.starts_with('0'),
        _ => false,
    };
    if !canonical || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn job_id(number: u64) -> String {
    format!("j{number:06}")
}

#[derive(Debug)]
struct OpenJob {
    spec: JobSpec,
    running: bool,
}

#[derive(Debug)]
struct QueueState {
    /// The journal, held open for appending.
    journal: File,
    /// Pending and running jobs by number.
    open: BTreeMap<u64, OpenJob>,
    /// The pending ones in scheduling order; numbers rise with submission.
    pending: BTreeSet<(Reverse<i64>, u64)>,
    finished: Finished,
    next_number: u64,
    shutdown: bool,
}

impl QueueState {
    fn enqueue(&mut self, number: u64, spec: JobSpec) {
        // A journal that submits one id twice: the later record wins.
        if let Some(old) = self.open.remove(&number) {
            self.pending.remove(&(Reverse(old.spec.priority), number));
        }
        self.pending.insert((Reverse(spec.priority), number));
        let job = OpenJob {
            spec,
            running: false,
        };
        self.open.insert(number, job);
    }

    /// Moves a job from the open set to the finished table.
    fn finish(&mut self, number: u64, outcome: &str) {
        let Some(job) = self.open.remove(&number) else {
            return;
        };
        self.pending.remove(&(Reverse(job.spec.priority), number));
        self.finished.set(number, outcome);
    }

    fn status(&self, number: u64) -> Option<JobStatus> {
        match self.open.get(&number) {
            Some(job) => Some(job.status()),
            None => self.finished.get(number).map(done_status),
        }
    }
}

impl OpenJob {
    fn status(&self) -> JobStatus {
        JobStatus {
            state: if self.running {
                JobState::Running
            } else {
                JobState::Pending
            },
            label: Some(self.spec.label.clone()),
            priority: Some(self.spec.priority),
        }
    }
}

fn done_status(outcome: &str) -> JobStatus {
    JobStatus {
        state: JobState::Done(outcome.to_string()),
        label: None,
        priority: None,
    }
}

/// Job numbers per page of the finished table.
const PAGE: u64 = 256;

/// Outcomes of finished jobs at four bytes a job: the daemon numbers its
/// jobs densely and an outcome is one of a handful of strings, so a page
/// of `PAGE` consecutive numbers holds, per job, an index into `names`
/// plus one (0: not finished). A stray number in a hand-edited journal
/// costs one page, not a table as long as the number is large.
#[derive(Debug, Default)]
struct Finished {
    pages: BTreeMap<u64, Box<[u32; PAGE as usize]>>,
    names: Vec<String>,
}

impl Finished {
    fn set(&mut self, number: u64, outcome: &str) {
        let name = self.names.iter().position(|n| n == outcome);
        let name = name.unwrap_or_else(|| {
            self.names.push(outcome.to_string());
            self.names.len() - 1
        });
        let page = self
            .pages
            .entry(number / PAGE)
            .or_insert_with(|| Box::new([0; _]));
        page[(number % PAGE) as usize] = name as u32 + 1;
    }

    fn get(&self, number: u64) -> Option<&str> {
        self.name(self.pages.get(&(number / PAGE))?[(number % PAGE) as usize])
    }

    fn name(&self, code: u32) -> Option<&str> {
        Some(&self.names[code.checked_sub(1)? as usize])
    }

    /// Every finished job, in number order.
    fn iter(&self) -> impl Iterator<Item = (u64, &str)> {
        self.pages.iter().flat_map(move |(&p, page)| {
            let slots = (p * PAGE..).zip(page.iter());
            slots.filter_map(|(number, &code)| Some((number, self.name(code)?)))
        })
    }
}

/// The queue: journal + in-memory scheduling state.
#[derive(Debug)]
pub struct Queue {
    store: Store,
    state: Mutex<QueueState>,
    cond: Condvar,
    max_pending: usize,
}

impl Queue {
    /// Opens the queue, replaying the journal and re-enqueueing every job
    /// that was submitted but never durably finished. Records that do not
    /// parse, do not validate or carry an id [`job_number`] rejects are
    /// skipped rather than wedging the queue; a line that does not parse is
    /// reported on stderr by its number. Only a torn tail is truncated.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned (never: no panics under it).
    pub fn open(store: Store, max_pending: usize) -> std::io::Result<Queue> {
        let path = store.journal_path();
        let loaded = crate::store::load_lines(&path)?;
        for line in &loaded.skipped {
            eprintln!("{}: line {line} is damaged; skipped", path.display());
        }
        // Cut a torn tail so our own appends start on a line boundary.
        crate::store::truncate_to(&path, loaded.valid_len)?;
        let journal = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;

        let mut st = QueueState {
            journal,
            open: BTreeMap::new(),
            pending: BTreeSet::new(),
            finished: Finished::default(),
            next_number: 1,
            shutdown: false,
        };
        for rec in &loaded.records {
            let (Some(op), Some(number)) = (
                rec.get("op").and_then(Json::as_str),
                rec.get("id").and_then(Json::as_str).and_then(job_number),
            ) else {
                continue;
            };
            match op {
                "submit" => {
                    // The number is spent even if the job is dropped below:
                    // a reused id would inherit the dropped job's stored
                    // unit records and report units it never ran.
                    st.next_number = st.next_number.max(number + 1);
                    // A journaled job that no longer validates (e.g. a
                    // workload renamed between versions) is dropped.
                    let Some(Ok(spec)) = rec.get("job").map(JobSpec::from_json) else {
                        continue;
                    };
                    st.enqueue(number, spec);
                }
                "done" => {
                    let outcome = rec.get("outcome").and_then(Json::as_str);
                    st.finish(number, outcome.unwrap_or("ok"));
                }
                _ => {}
            }
        }
        // The summary rename is the true commit point: a job whose summary
        // landed but whose done hint was lost to the crash is still done,
        // with the outcome its summary records.
        let unhinted: Vec<u64> = st.open.keys().copied().collect();
        for number in unhinted {
            let id = job_id(number);
            if store.is_done(&id) {
                let outcome = store.summary_field(&id, "outcome");
                st.finish(number, outcome.as_deref().unwrap_or("ok"));
            }
        }
        Ok(Queue {
            store,
            state: Mutex::new(st),
            cond: Condvar::new(),
            max_pending,
        })
    }

    /// The store this queue journals into.
    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    /// Accepts a submission: journals it durably, then schedules it.
    ///
    /// # Errors
    ///
    /// Rejects when the pending backlog is at `max_pending`
    /// (backpressure) or when the journal append fails.
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned (never: no panics under it).
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        let mut st = self.state.lock().unwrap();
        let backlog = st.pending.len();
        if backlog >= self.max_pending {
            return Err(format!(
                "queue full: {backlog} pending jobs (max {})",
                self.max_pending
            ));
        }
        let number = st.next_number;
        st.next_number += 1;
        let id = job_id(number);
        let rec = Json::obj(vec![
            ("op", Json::str("submit")),
            ("id", Json::str(&id)),
            ("job", spec.to_json()),
        ]);
        // Durable before the id is acknowledged; this sync also carries
        // any done hints appended since the last one.
        append_line(&mut st.journal, &rec)
            .and_then(|()| st.journal.sync_data())
            .map_err(|e| format!("journal append failed: {e}"))?;
        st.enqueue(number, spec);
        drop(st);
        self.cond.notify_all();
        Ok(id)
    }

    /// Blocks until a job is available (highest priority first, FIFO
    /// within a priority) or the queue is shut down (`None`).
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned (never: no panics under it).
    pub fn take_next(&self) -> Option<QueuedJob> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if let Some((_, number)) = st.pending.pop_first() {
                let job = st.open.get_mut(&number).expect("pending jobs are open");
                job.running = true;
                return Some(QueuedJob {
                    id: job_id(number),
                    spec: job.spec.clone(),
                });
            }
            st = self.cond.wait(st).unwrap();
        }
    }

    /// Records a job's outcome and forgets everything else about it. The
    /// caller has already committed the summary, so the journal record is
    /// a hint and is not synced here (module doc).
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned (never: no panics under it).
    pub fn mark_done(&self, id: &str, outcome: &str) {
        let Some(number) = job_number(id) else { return };
        let rec = Json::obj(vec![
            ("op", Json::str("done")),
            ("id", Json::str(id)),
            ("outcome", Json::str(outcome)),
        ]);
        let mut st = self.state.lock().unwrap();
        // A failed hint append only costs a summary check on boot.
        let _ = append_line(&mut st.journal, &rec);
        st.finish(number, outcome);
        drop(st);
        self.cond.notify_all();
    }

    /// Snapshot of one job, `None` for an id the queue never issued.
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned (never: no panics under it).
    pub(crate) fn status(&self, id: &str) -> Option<JobStatus> {
        let number = job_number(id)?;
        self.state.lock().unwrap().status(number)
    }

    /// Snapshot of every job the journal knows, finished ones included,
    /// in id order.
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned (never: no panics under it).
    pub fn list(&self) -> Vec<(String, JobStatus)> {
        let st = self.state.lock().unwrap();
        let mut all: Vec<(u64, JobStatus)> = st
            .finished
            .iter()
            .map(|(number, outcome)| (number, done_status(outcome)))
            .collect();
        all.extend(st.open.iter().map(|(&number, job)| (number, job.status())));
        all.sort_by_key(|&(number, _)| number);
        all.into_iter()
            .map(|(number, status)| (job_id(number), status))
            .collect()
    }

    /// Wakes the executor and makes `take_next` return `None`.
    ///
    /// # Panics
    ///
    /// Panics if the state mutex is poisoned (never: no panics under it).
    pub(crate) fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.cond.notify_all();
    }
}

/// One journal line in one `write`, so a crash tears at most the tail.
fn append_line(journal: &mut File, rec: &Json) -> std::io::Result<()> {
    let mut line = rec.to_string();
    line.push('\n');
    journal.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn tmp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("ftdircmp-serve-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn job(label: &str, priority: i64) -> JobSpec {
        JobSpec {
            label: label.to_string(),
            priority,
            kind: JobKind::Poison,
        }
    }

    #[test]
    fn priority_then_fifo_order() {
        let store = tmp_store("order");
        let q = Queue::open(store, 16).unwrap();
        let a = q.submit(job("a", 0)).unwrap();
        let b = q.submit(job("b", 5)).unwrap();
        let c = q.submit(job("c", 5)).unwrap();
        assert_eq!(q.take_next().unwrap().id, b);
        assert_eq!(q.take_next().unwrap().id, c);
        assert_eq!(q.take_next().unwrap().id, a);
        let _ = std::fs::remove_dir_all(&q.store().root);
    }

    #[test]
    fn replay_reenqueues_unfinished_jobs_only() {
        let store = tmp_store("replay");
        let root = store.root.clone();
        {
            let q = Queue::open(store, 16).unwrap();
            let a = q.submit(job("a", 0)).unwrap();
            let _b = q.submit(job("b", 0)).unwrap();
            let taken = q.take_next().unwrap();
            assert_eq!(taken.id, a);
            q.store().write_summary(&a, "{}\n").unwrap();
            q.mark_done(&a, "ok");
        }
        let q2 = Queue::open(Store::open(&root).unwrap(), 16).unwrap();
        assert_eq!(q2.state.lock().unwrap().open.len(), 1);
        let next = q2.take_next().unwrap();
        assert_eq!(next.id, "j000002");
        // Fresh ids continue after the replayed ones.
        let c = q2.submit(job("c", 0)).unwrap();
        assert_eq!(c, "j000003");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn summary_presence_counts_as_done_without_done_record() {
        let store = tmp_store("summary-done");
        let root = store.root.clone();
        {
            let q = Queue::open(store, 16).unwrap();
            let a = q.submit(job("a", 0)).unwrap();
            let _ = q.take_next().unwrap();
            // Crash after the summary rename but before the done hint.
            q.store().write_summary(&a, "{}\n").unwrap();
        }
        let q2 = Queue::open(Store::open(&root).unwrap(), 16).unwrap();
        assert_eq!(q2.state.lock().unwrap().open.len(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The write diet's first crash case: the journal ends with a submit,
    /// the unsynced done hint never reached disk, the summary did. The job
    /// boots as done with the outcome its summary records, not a guess.
    #[test]
    fn a_lost_done_hint_is_recovered_from_the_summary() {
        let store = tmp_store("lost-hint");
        let root = store.root.clone();
        {
            let q = Queue::open(store, 16).unwrap();
            let a = q.submit(job("boom", 0)).unwrap();
            let taken = q.take_next().unwrap();
            crate::runner::execute_job(q.store(), &a, &taken.spec, 1, &|_, _| {}).unwrap();
        }
        let journal = std::fs::read_to_string(root.join("journal.jsonl")).unwrap();
        assert_eq!(journal.lines().count(), 1, "{journal}");
        let q2 = Queue::open(Store::open(&root).unwrap(), 16).unwrap();
        assert_eq!(q2.state.lock().unwrap().open.len(), 0, "nothing re-runs");
        let status = q2.status("j000001").unwrap();
        assert_eq!(status.state, JobState::Done("quarantined".to_string()));
        let summary = q2.store().read_summary("j000001").unwrap().unwrap();
        assert!(summary.contains("poison job executed"), "{summary}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn finished_jobs_keep_their_outcome_and_place_in_the_list() {
        let store = tmp_store("list");
        let root = store.root.clone();
        let check = |q: &Queue| {
            let list = q.list();
            let ids: Vec<&str> = list.iter().map(|(id, _)| id.as_str()).collect();
            assert_eq!(ids, ["j000001", "j000002", "j000003", "j000004"]);
            let states: Vec<&JobState> = list.iter().map(|(_, s)| &s.state).collect();
            assert_eq!(
                states,
                [
                    &JobState::Pending,
                    &JobState::Done("failed".to_string()),
                    &JobState::Done("ok".to_string()),
                    &JobState::Pending,
                ]
            );
            // A finished job is down to its outcome; an open one still has
            // its submission.
            assert_eq!(list[1].1.label, None);
            assert_eq!(list[1].1.priority, None);
            assert_eq!(list[3].1.label.as_deref(), Some("d"));
            assert_eq!(list[3].1.priority, Some(-1));
            assert_eq!(q.status("j000002"), Some(list[1].1.clone()));
            assert_eq!(q.status("j000005"), None);
            assert_eq!(q.state.lock().unwrap().open.len(), 2);
        };
        {
            let q = Queue::open(store, 16).unwrap();
            for (label, priority) in [("a", 0), ("b", 9), ("c", 5), ("d", -1)] {
                q.submit(job(label, priority)).unwrap();
            }
            // Out of id order, as priorities make them finish.
            assert_eq!(q.take_next().unwrap().id, "j000002");
            assert_eq!(q.take_next().unwrap().id, "j000003");
            q.mark_done("j000003", "ok");
            q.mark_done("j000002", "failed");
            check(&q);
        }
        // No summaries on disk: the journal alone remembers them.
        let q2 = Queue::open(Store::open(&root).unwrap(), 16).unwrap();
        check(&q2);
        assert_eq!(q2.take_next().unwrap().id, "j000001");
        assert_eq!(q2.take_next().unwrap().id, "j000004");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Nothing the daemon writes itself, but nothing a journal line may
    /// panic or balloon on either: one id submitted twice, an id far from
    /// the others, a foreign id, an outcome the runner does not know.
    #[test]
    fn a_hand_edited_journal_replays_without_surprises() {
        let store = tmp_store("hand-edited");
        let root = store.root.clone();
        let submit = |id: &str, priority: i64| {
            Json::obj(vec![
                ("op", Json::str("submit")),
                ("id", Json::str(id)),
                ("job", job(id, priority).to_json()),
            ])
            .to_string()
        };
        let done = r#"{"op":"done","id":"j900000000000000","outcome":"odd"}"#;
        // An older version's replay job (its repro a string): dropped, but
        // its number stays spent.
        let stale = r#"{"op":"submit","id":"j950000000000000","job":{"kind":"replay","repro":"( seed: 1 )"}}"#;
        let lines = [
            submit("j000001", 0),
            submit("j000001", 7),
            submit("../../etc/passwd", 0),
            submit("j900000000000000", 0),
            done.to_string(),
            submit("j000002", 3),
            stale.to_string(),
        ];
        std::fs::write(store.journal_path(), lines.join("\n") + "\n").unwrap();
        let q = Queue::open(store, 16).unwrap();
        let ids: Vec<String> = q.list().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, ["j000001", "j000002", "j900000000000000"]);
        let far = q.status("j900000000000000").unwrap();
        assert_eq!(far.state, JobState::Done("odd".to_string()));
        assert_eq!(q.status("j000001").unwrap().priority, Some(7));
        assert_eq!(q.take_next().unwrap().id, "j000001");
        assert_eq!(q.take_next().unwrap().id, "j000002");
        assert!(q.status("j950000000000000").is_none());
        assert_eq!(q.submit(job("next", 0)).unwrap(), "j950000000000001");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn only_the_daemons_own_id_shape_has_a_number() {
        assert_eq!(job_number("j000001"), Some(1));
        assert_eq!(job_number("j999999"), Some(999_999));
        assert_eq!(job_number("j1000000"), Some(1_000_000));
        assert_eq!(job_id(1_000_000), "j1000000");
        assert_eq!(job_number("j999999999999999"), Some(999_999_999_999_999));
        for bad in [
            "",
            "j",
            "j00001",
            "j0000001",
            "j00000a",
            "j-00001",
            "j+00001",
            "J000001",
            "000001",
            "../j000001",
            "j000001/..",
            "/j000001",
            "j1000000000000000",
            "j99999999999999999999999",
        ] {
            assert_eq!(job_number(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let store = tmp_store("full");
        let q = Queue::open(store, 2).unwrap();
        q.submit(job("a", 0)).unwrap();
        q.submit(job("b", 0)).unwrap();
        let err = q.submit(job("c", 0)).unwrap_err();
        assert!(err.contains("queue full"), "{err}");
        // Draining frees capacity.
        let a = q.take_next().unwrap();
        q.mark_done(&a.id, "ok");
        q.submit(job("c", 0)).unwrap();
        let _ = std::fs::remove_dir_all(&q.store().root);
    }

    #[test]
    fn torn_journal_tail_is_ignored_and_overwritten() {
        let store = tmp_store("torn");
        let root = store.root.clone();
        {
            let q = Queue::open(store, 16).unwrap();
            q.submit(job("a", 0)).unwrap();
        }
        // Crash mid-append of a second submit.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(root.join("journal.jsonl"))
                .unwrap();
            std::io::Write::write_all(&mut f, b"{\"op\":\"sub").unwrap();
        }
        let q2 = Queue::open(Store::open(&root).unwrap(), 16).unwrap();
        assert_eq!(q2.state.lock().unwrap().open.len(), 1);
        let b = q2.submit(job("b", 0)).unwrap();
        assert_eq!(b, "j000002");
        // The journal is valid line-by-line again after the new append.
        let reloaded = Queue::open(Store::open(&root).unwrap(), 16).unwrap();
        assert_eq!(reloaded.state.lock().unwrap().open.len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Damage to one line in the middle of the journal used to end the
    /// replay there: `Queue::open` truncated the journal to the lines
    /// before it, so every later acknowledged submit vanished and its id
    /// was handed out again. The damaged line is now skipped, the lines
    /// after it replay, and only a torn tail is cut.
    #[test]
    fn a_damaged_middle_journal_line_skips_that_line_only() {
        let store = tmp_store("damaged-middle");
        let root = store.root.clone();
        {
            let q = Queue::open(store, 16).unwrap();
            for label in ["a", "b", "c", "d", "e"] {
                q.submit(job(label, 0)).unwrap();
            }
        }
        let path = root.join("journal.jsonl");
        let mut bytes = std::fs::read(&path).unwrap();
        let line2 = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[line2] = b'#';
        bytes.extend_from_slice(b"{\"op\":\"sub");
        std::fs::write(&path, &bytes).unwrap();

        let loaded = crate::store::load_lines(&path).unwrap();
        assert_eq!(
            loaded.skipped,
            [2],
            "line 2 is reported, the torn tail is not"
        );
        let q = Queue::open(Store::open(&root).unwrap(), 16).unwrap();
        let ids: Vec<String> = q.list().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, ["j000001", "j000003", "j000004", "j000005"]);
        assert_eq!(q.submit(job("f", 0)).unwrap(), "j000006");
        let kept = std::fs::read(&path).unwrap();
        assert_eq!(
            kept[..bytes.len() - 10],
            bytes[..bytes.len() - 10],
            "only the torn tail was cut"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_unblocks_take_next() {
        let store = tmp_store("shutdown");
        let q = std::sync::Arc::new(Queue::open(store, 16).unwrap());
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.take_next());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        assert!(h.join().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&q.store().root);
    }
}
