//! Executes one job against the store.
//!
//! The daemon's executor thread and the synchronous `run-local`
//! subcommand both come through [`execute_job`], so a campaign submitted
//! over the socket produces byte-identical stored results to the same
//! spec run locally — that equivalence is asserted by the CI smoke test.
//!
//! Campaign resume: before running anything the executor loads the job's
//! unit-record journal and skips every unit whose record already reached
//! disk (records are synced once per batch of `--jobs` units; the last
//! batch rides on the summary's sync, see `store.rs`). A unit's result
//! depends only on the unit itself, with or without the checkpoint warm-up
//! (`sparse_unit_list_matches_full_campaign` in `ftdircmp-bench` runs both),
//! so re-running the sparse remainder in batches of any `--jobs` size
//! reproduces exactly what an uninterrupted run would have written.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ftdircmp_bench::campaign::{panic_message, run_units_caught, Campaign, CellError, Unit};
use ftdircmp_core::{RunError, SimReport};
use ftdircmp_explore::{explore, repro::Repro, ExploreOptions};

use crate::job::{JobKind, JobSpec};
use crate::json::Json;
use crate::store::Store;

/// Per-job execution outcome, stored in the summary and the journal.
pub const OUTCOME_OK: &str = "ok";
/// The job ran but produced an error (a grid or sweep that fails to resolve).
pub(crate) const OUTCOME_FAILED: &str = "failed";
/// The job panicked in the worker; it is quarantined — marked done so the
/// queue keeps serving, with the panic preserved in its summary.
pub(crate) const OUTCOME_QUARANTINED: &str = "quarantined";

/// Runs `spec` to completion (resuming from any units already on disk),
/// writes the durable summary, and returns the outcome string.
///
/// `progress` is called with `(done_units, total_units)` after each batch
/// of units is persisted.
///
/// # Errors
///
/// Propagates store I/O failures — the caller must NOT mark the job done
/// in that case (its results never committed).
pub fn execute_job(
    store: &Store,
    id: &str,
    spec: &JobSpec,
    jobs: usize,
    progress: &dyn Fn(usize, usize),
) -> std::io::Result<String> {
    let (outcome, body) = match &spec.kind {
        JobKind::Campaign(c) => run_campaign_job(store, id, c, jobs, progress)?,
        JobKind::FaultSearch(f) => run_fault_search_job(store, id, f, jobs),
        JobKind::Replay { repro } => run_replay_job(repro),
        JobKind::Poison => {
            let caught = catch_unwind(|| panic!("poison job executed"));
            let msg = caught.expect_err("poison always panics");
            (
                OUTCOME_QUARANTINED,
                vec![("message", Json::str(panic_message(&*msg)))],
            )
        }
    };
    let mut pairs = vec![
        ("id", Json::str(id)),
        ("kind", Json::str(spec.kind.name())),
        ("label", Json::str(&spec.label)),
        ("outcome", Json::str(outcome)),
    ];
    pairs.extend(body);
    let mut summary = Json::obj(pairs).to_string();
    summary.push('\n');
    store.write_summary(id, &summary)?;
    Ok(outcome.to_string())
}

/// A job kind's outcome and the summary fields after the common ones.
type Outcome = (&'static str, Vec<(&'static str, Json)>);

fn run_campaign_job(
    store: &Store,
    id: &str,
    c: &crate::job::CampaignSpec,
    jobs: usize,
    progress: &dyn Fn(usize, usize),
) -> std::io::Result<Outcome> {
    let units = match c.units() {
        Ok(u) => u,
        Err(e) => return Ok((OUTCOME_FAILED, vec![("message", Json::str(&e))])),
    };
    let total = units.len();

    // Resume: records already on disk name units that never re-run.
    let loaded = store.load_unit_records(id)?;
    for line in &loaded.skipped {
        eprintln!("job {id}: unit record line {line} is damaged; skipped");
    }
    store.truncate_unit_records(id, loaded.valid_len)?;
    let mut done: BTreeMap<u64, Json> = BTreeMap::new();
    for rec in loaded.records {
        if let Some(i) = rec.get("unit").and_then(Json::as_u64) {
            if (i as usize) < total {
                done.insert(i, rec);
            }
        }
    }
    progress(done.len(), total);

    let opts = Campaign {
        jobs: jobs.max(1),
        progress: false,
        warmup_checkpoint: c.warmup_checkpoint,
    };
    let pending: Vec<usize> = (0..total)
        .filter(|i| !done.contains_key(&(*i as u64)))
        .collect();
    let batches = pending.chunks(opts.jobs);
    let last = batches.len().saturating_sub(1);
    for (b, batch) in batches.enumerate() {
        let batch_units: Vec<Unit> = batch.iter().map(|&i| units[i].clone()).collect();
        let results = run_units_caught(&batch_units, &opts);
        let records: Vec<Json> = batch
            .iter()
            .zip(&results)
            .map(|(&i, result)| unit_record(i as u64, &units[i], result))
            .collect();
        // One sync per batch, and none for the last: the summary written
        // right after it commits the whole job, and a crash before that
        // rename re-runs just this batch, byte-identically.
        store.append_unit_records(id, &records, b < last)?;
        for (&i, rec) in batch.iter().zip(records) {
            done.insert(i as u64, rec);
        }
        progress(done.len(), total);
    }

    let mut quarantined = false;
    let mut failed = false;
    for rec in done.values() {
        match rec.get("status").and_then(Json::as_str) {
            Some("panicked") => quarantined = true,
            Some("error") => failed = true,
            // "deadlock" is data, not a job failure: the paper's DirCMP
            // baseline is *expected* to deadlock under message loss.
            _ => {}
        }
    }
    let outcome = if quarantined {
        OUTCOME_QUARANTINED
    } else if failed {
        OUTCOME_FAILED
    } else {
        OUTCOME_OK
    };
    let body = vec![
        ("total_units", Json::num_u64(total as u64)),
        ("units", Json::Arr(done.into_values().collect())),
    ];
    Ok((outcome, body))
}

/// Builds the durable record for one finished unit.
fn unit_record(index: u64, unit: &Unit, result: &Result<SimReport, CellError>) -> Json {
    let mut pairs = vec![
        ("unit", Json::num_u64(index)),
        ("label", Json::str(&unit.label)),
        ("seed", Json::num_u64(unit.seed)),
    ];
    match result {
        Ok(report) => {
            pairs.push(("status", Json::str("ok")));
            pairs.push(("cycles", Json::num_u64(report.cycles)));
            pairs.push(("events", Json::num_u64(report.events)));
            pairs.push(("total_mem_ops", Json::num_u64(report.total_mem_ops)));
            pairs.push(("violations", Json::num_u64(report.violations.len() as u64)));
            pairs.push(("messages_lost", Json::num_u64(report.messages_lost)));
        }
        Err(CellError::Run(
            e @ RunError::Deadlock {
                at,
                last_progress,
                stalled,
                ..
            },
        )) => {
            pairs.push(("status", Json::str("deadlock")));
            pairs.push(("at", Json::num_u64(*at)));
            pairs.push(("blocked_cores", Json::num_u64(stalled.len() as u64)));
            pairs.push(("last_progress", Json::num_u64(*last_progress)));
            // Name the first stuck line so quarantine triage starts from
            // the record itself, not a rerun.
            if let Some((core, line)) = e.first_stuck() {
                pairs.push(("stuck", Json::str(format!("core {core} on {line}"))));
            }
        }
        Err(CellError::Run(RunError::InvalidConfig(msg))) => {
            pairs.push(("status", Json::str("error")));
            pairs.push(("message", Json::str(msg)));
        }
        Err(p @ CellError::Panicked { .. }) => {
            pairs.push(("status", Json::str("panicked")));
            pairs.push(("message", Json::str(p.to_string())));
        }
    }
    Json::obj(pairs)
}

fn run_fault_search_job(
    store: &Store,
    id: &str,
    f: &crate::job::FaultSearchSpec,
    jobs: usize,
) -> Outcome {
    let (protocol, specs) = match f.resolve() {
        Ok(r) => r,
        Err(e) => return (OUTCOME_FAILED, vec![("message", Json::str(&e))]),
    };
    let mut opts = ExploreOptions::new(protocol);
    opts.specs = specs;
    opts.schedule_seeds.clone_from(&f.schedule_seeds);
    opts.drop_budget = f.drop_budget;
    opts.shrink_runs = f.shrink_runs;
    opts.max_repros_per_cell = f.max_repros_per_cell;
    opts.jobs = jobs.max(1);
    opts.out_dir = Some(store.repro_dir(id));
    let caught = catch_unwind(AssertUnwindSafe(|| explore(&opts)));
    match caught {
        Ok(report) => {
            let failures = report
                .failures
                .iter()
                .map(|fl| {
                    Json::obj(vec![
                        ("workload", Json::str(&fl.workload)),
                        ("schedule_seed", Json::num_u64(fl.schedule_seed)),
                        ("kind", Json::str(fl.failure.kind.label())),
                        ("detail", Json::str(&fl.failure.detail)),
                        ("drops_before", Json::num_u64(fl.shrink.drops_before as u64)),
                        ("drops_after", Json::num_u64(fl.shrink.drops_after as u64)),
                    ])
                })
                .collect();
            let repros = report
                .repro_paths
                .iter()
                .map(|p| Json::str(p.display().to_string()))
                .collect();
            (
                OUTCOME_OK,
                vec![
                    (
                        "reference_runs",
                        Json::num_u64(report.reference_runs as u64),
                    ),
                    ("fault_runs", Json::num_u64(report.fault_runs as u64)),
                    ("failing_cells", Json::num_u64(report.failing_cells as u64)),
                    ("failures", Json::Arr(failures)),
                    ("repros", Json::Arr(repros)),
                ],
            )
        }
        Err(panic) => (
            OUTCOME_QUARANTINED,
            vec![("message", Json::str(panic_message(&*panic)))],
        ),
    }
}

fn run_replay_job(repro: &Repro) -> Outcome {
    let caught = catch_unwind(AssertUnwindSafe(|| repro.replay()));
    match caught {
        Ok(Some(failure)) => (
            OUTCOME_OK,
            vec![
                ("reproduced", Json::Bool(true)),
                ("failure_kind", Json::str(failure.kind.label())),
                ("detail", Json::str(&failure.detail)),
            ],
        ),
        Ok(None) => (OUTCOME_OK, vec![("reproduced", Json::Bool(false))]),
        Err(panic) => (
            OUTCOME_QUARANTINED,
            vec![("message", Json::str(panic_message(&*panic)))],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "ftdircmp-serve-runner-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn tiny_campaign() -> JobSpec {
        let v = Json::parse(
            r#"{"kind":"campaign","label":"tiny",
                "specs":["barnes:ops=30"],
                "configs":[{"protocol":"dircmp"},{"protocol":"ftdircmp","fault_rate":500}],
                "seeds":2}"#,
        )
        .unwrap();
        JobSpec::from_json(&v).unwrap()
    }

    #[test]
    fn campaign_runs_streams_progress_and_summarizes() {
        let store = tmp_store("campaign");
        let job = tiny_campaign();
        let seen = std::sync::Mutex::new(Vec::new());
        let outcome = execute_job(&store, "j000001", &job, 2, &|d, t| {
            seen.lock().unwrap().push((d, t));
        })
        .unwrap();
        assert_eq!(outcome, OUTCOME_OK);
        let ticks = seen.into_inner().unwrap();
        assert_eq!(ticks.first(), Some(&(0, 4)));
        assert_eq!(ticks.last(), Some(&(4, 4)));
        let summary = store.read_summary("j000001").unwrap().unwrap();
        let v = Json::parse(summary.trim_end()).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("ok"));
        let units = v.get("units").and_then(Json::as_arr).unwrap();
        assert_eq!(units.len(), 4);
        assert_eq!(units[0].get("status").and_then(Json::as_str), Some("ok"),);
        let _ = std::fs::remove_dir_all(&store.root);
    }

    #[test]
    fn resume_skips_stored_units_and_is_byte_identical() {
        let fresh = tmp_store("resume-fresh");
        let job = tiny_campaign();
        execute_job(&fresh, "j1", &job, 1, &|_, _| {}).unwrap();
        let reference = fresh.read_summary("j1").unwrap().unwrap();

        // Second store: pre-run, keep only the first two unit records
        // (simulating a crash), then resume. The unsynced last batch can
        // be lost whole or torn mid-line; either way only it re-runs.
        for (tail, jobs) in [("", 1), ("{\"unit\":2,\"label\":\"bar", 2)] {
            let partial = tmp_store("resume-partial");
            execute_job(&partial, "j1", &job, jobs, &|_, _| {}).unwrap();
            let recs = partial.load_unit_records("j1").unwrap();
            let keep: Vec<&Json> = recs.records.iter().take(2).collect();
            let mut text = String::new();
            for r in &keep {
                text.push_str(&r.to_string());
                text.push('\n');
            }
            text.push_str(tail);
            std::fs::write(partial.records_path("j1"), &text).unwrap();
            std::fs::remove_file(partial.summary_path("j1")).unwrap();

            let ran = std::sync::Mutex::new(Vec::new());
            execute_job(&partial, "j1", &job, jobs, &|d, t| {
                ran.lock().unwrap().push((d, t));
            })
            .unwrap();
            // Resume started from 2/4, not 0/4.
            assert_eq!(ran.into_inner().unwrap().first(), Some(&(2, 4)));
            let resumed = partial.read_summary("j1").unwrap().unwrap();
            assert_eq!(resumed, reference, "resume must be byte-identical");
            let units: Vec<u64> = partial
                .load_unit_records("j1")
                .unwrap()
                .records
                .iter()
                .map(|r| r.get("unit").and_then(Json::as_u64).unwrap())
                .collect();
            assert_eq!(units, [0, 1, 2, 3], "each unit recorded exactly once");
            let _ = std::fs::remove_dir_all(&partial.root);
        }
        let _ = std::fs::remove_dir_all(&fresh.root);
    }

    #[test]
    fn warmup_job_summary_is_the_same_at_any_jobs() {
        // `--jobs`-sized batches split the fault-rate groups differently;
        // no unit's result may depend on that.
        let v = Json::parse(
            r#"{"kind":"campaign","label":"warmup","specs":["water-sp"],
                "configs":[{"protocol":"ftdircmp"},{"protocol":"ftdircmp","fault_rate":2000}],
                "seeds":2,"warmup_checkpoint":60}"#,
        )
        .unwrap();
        let job = JobSpec::from_json(&v).unwrap();
        let summaries = [1, 2, 4].map(|jobs| {
            let store = tmp_store(&format!("warmup-{jobs}"));
            execute_job(&store, "j1", &job, jobs, &|_, _| {}).unwrap();
            let summary = store.read_summary("j1").unwrap().unwrap();
            let _ = std::fs::remove_dir_all(&store.root);
            summary
        });
        assert_eq!(summaries[1], summaries[0], "--jobs 2 != --jobs 1");
        assert_eq!(summaries[2], summaries[0], "--jobs 4 != --jobs 1");
    }

    #[test]
    fn unit_records_sync_once_per_batch_and_not_for_the_last() {
        use std::sync::atomic::Ordering::Relaxed;
        let mut job = tiny_campaign();
        let JobKind::Campaign(c) = &mut job.kind else {
            unreachable!("tiny_campaign is a campaign")
        };
        c.seeds = 3; // 6 units
        for (jobs, syncs) in [(1, 5), (2, 2), (4, 1), (8, 0)] {
            let store = tmp_store("syncs");
            execute_job(&store, "j1", &job, jobs, &|_, _| {}).unwrap();
            assert_eq!(store.record_syncs.load(Relaxed), syncs, "--jobs {jobs}");
            assert_eq!(store.load_unit_records("j1").unwrap().records.len(), 6);
            let _ = std::fs::remove_dir_all(&store.root);
        }
    }

    #[test]
    fn poison_job_is_quarantined_with_its_panic_message() {
        let store = tmp_store("poison");
        let job = JobSpec {
            label: "boom".to_string(),
            priority: 0,
            kind: JobKind::Poison,
        };
        let outcome = execute_job(&store, "j9", &job, 1, &|_, _| {}).unwrap();
        assert_eq!(outcome, OUTCOME_QUARANTINED);
        let summary = store.read_summary("j9").unwrap().unwrap();
        assert!(summary.contains("poison job executed"), "{summary}");
        let _ = std::fs::remove_dir_all(&store.root);
    }

    /// Garbage never reaches the runner: a replay job is refused at
    /// submit unless its repro parses.
    #[test]
    fn replay_of_garbage_fails_cleanly() {
        for repro in [r#""not a repro""#, "{}", r#"{"protocol":"dircmp"}"#] {
            let v = Json::parse(&format!(r#"{{"kind":"replay","repro":{repro}}}"#)).unwrap();
            let e = JobSpec::from_json(&v).unwrap_err();
            assert!(e.contains("repro"), "{repro}: {e}");
        }
    }

    /// A DirCMP single-drop deadlock, captured the way exploration does,
    /// replays through the daemon's `replay` job kind.
    #[test]
    fn replay_of_a_captured_deadlock_reproduces_it() {
        use ftdircmp_core::SystemConfig;
        use ftdircmp_explore::FailureKind;
        use ftdircmp_noc::FaultConfig;

        let wl = ftdircmp_workloads::WorkloadSpec::parse("water-nsq:ops=150")
            .unwrap()
            .generate(16, 1000);
        let mut cfg = SystemConfig::dircmp().with_seed(1000);
        cfg.watchdog_cycles = 100_000;
        cfg.mesh.faults = FaultConfig::drop_exactly(vec![40]);
        let repro = Repro::capture(&cfg, &wl, vec![40], FailureKind::Deadlock);
        let v = Json::obj(vec![
            ("kind", Json::str("replay")),
            ("repro", repro.to_json()),
        ]);
        let job = JobSpec::from_json(&v).unwrap();
        assert_eq!(JobSpec::from_json(&job.to_json()).unwrap(), job);

        let store = tmp_store("replay");
        let outcome = execute_job(&store, "j2", &job, 1, &|_, _| {}).unwrap();
        assert_eq!(outcome, OUTCOME_OK);
        let summary = Json::parse(store.read_summary("j2").unwrap().unwrap().trim_end()).unwrap();
        assert_eq!(summary.get("reproduced"), Some(&Json::Bool(true)));
        assert_eq!(
            summary.get("failure_kind").and_then(Json::as_str),
            Some("deadlock")
        );
        let _ = std::fs::remove_dir_all(&store.root);
    }
}
