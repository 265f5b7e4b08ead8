//! Durable result store under the queue root.
//!
//! Layout (all paths relative to the root passed to [`Store::open`]):
//!
//! ```text
//! journal.jsonl        append-only submit/done journal (owned by queue.rs)
//! port                 the daemon's bound TCP port (tmp+rename)
//! results/<id>.jsonl   one JSON line per finished campaign unit, appended
//!                      and fsynced as units complete
//! results/<id>.json    final job summary, written via tmp-file + rename;
//!                      its presence is the job's "done" marker
//! repros/<id>/         minimized repro files from fault-search jobs
//! ```
//!
//! Crash-safety contract: a unit record that made it to disk names a unit
//! that never needs re-running. The executor appends a batch of records
//! with one write and one `sync_data`; the last batch of a job is not
//! synced on its own, because the summary that commits the whole job is
//! synced and renamed into place right after it, and until that rename the
//! worst a crash can do is re-run that one batch. A crash can leave a torn
//! final line (no trailing newline, or garbage); [`Store::load_unit_records`]
//! parses every line that parses and `Store::truncate_unit_records` cuts
//! the file back to the end of the last one before the daemon appends
//! again, so a torn tail can never corrupt later records. A damaged line in
//! the middle is skipped, never cut: the records after it stay.
//! The summary rename is atomic on POSIX, so a job is either visibly done
//! (summary present, byte-complete) or still pending — never half-done.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::json::Json;

/// Handle to the on-disk queue root.
#[derive(Debug, Clone)]
pub struct Store {
    pub(crate) root: PathBuf,
    /// `sync_data` calls on unit-record files, so a test can count the
    /// syncs a job costs instead of timing them.
    #[cfg(test)]
    pub(crate) record_syncs: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

/// The parsed lines of a JSONL file plus where its valid part ends, so
/// callers can truncate away a torn tail.
#[derive(Debug)]
pub struct UnitRecords {
    /// Parsed records in file order (unit indices are stored inside).
    pub records: Vec<Json>,
    /// 1-based numbers of damaged lines that a parsed line follows: they
    /// were skipped and stay in the file.
    pub(crate) skipped: Vec<usize>,
    /// Byte length of the valid newline-terminated prefix.
    pub(crate) valid_len: u64,
}

impl Store {
    /// Opens (creating if needed) the queue root.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> std::io::Result<Store> {
        fs::create_dir_all(root.join("results"))?;
        fs::create_dir_all(root.join("repros"))?;
        Ok(Store {
            root: root.to_path_buf(),
            #[cfg(test)]
            record_syncs: std::sync::Arc::default(),
        })
    }

    /// Path of the append-only submit/done journal.
    pub fn journal_path(&self) -> PathBuf {
        self.root.join("journal.jsonl")
    }

    /// Path of a job's unit-record journal.
    pub(crate) fn records_path(&self, id: &str) -> PathBuf {
        self.root.join("results").join(format!("{id}.jsonl"))
    }

    /// Path of a job's final summary.
    pub(crate) fn summary_path(&self, id: &str) -> PathBuf {
        self.root.join("results").join(format!("{id}.json"))
    }

    /// Directory fault-search repros for a job land in.
    pub(crate) fn repro_dir(&self, id: &str) -> PathBuf {
        self.root.join("repros").join(id)
    }

    /// Whether the job's summary exists (the durable "done" marker).
    pub fn is_done(&self, id: &str) -> bool {
        self.summary_path(id).is_file()
    }

    /// Appends one unit record line and syncs it to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the caller treats them as fatal for the
    /// job (a record we cannot persist must not be reported as done).
    pub fn append_unit_record(&self, id: &str, record: &Json) -> std::io::Result<()> {
        self.append_unit_records(id, std::slice::from_ref(record), true)
    }

    /// Appends a batch of unit record lines with one write, and with one
    /// `sync_data` when `sync` is set. Only the executor's last batch goes
    /// unsynced: the summary's own sync and rename commit it (module doc).
    ///
    /// # Errors
    ///
    /// As [`Store::append_unit_record`].
    pub(crate) fn append_unit_records(
        &self,
        id: &str,
        records: &[Json],
        sync: bool,
    ) -> std::io::Result<()> {
        let mut lines = String::new();
        for record in records {
            lines.push_str(&record.to_string());
            lines.push('\n');
        }
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.records_path(id))?;
        f.write_all(lines.as_bytes())?;
        if sync {
            #[cfg(test)]
            self.record_syncs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            f.sync_data()?;
        }
        Ok(())
    }

    /// Loads a job's unit records.
    ///
    /// Unparseable or unterminated trailing bytes (a torn write from a
    /// crash) are excluded and `valid_len` says where the good part ends;
    /// a damaged line before a good one is skipped, and its unit re-runs.
    ///
    /// # Errors
    ///
    /// Propagates read failures other than the file not existing yet.
    pub fn load_unit_records(&self, id: &str) -> std::io::Result<UnitRecords> {
        load_lines(&self.records_path(id))
    }

    /// Truncates a job's record file to its valid prefix so subsequent
    /// appends start on a clean line boundary.
    ///
    /// # Errors
    ///
    /// Propagates truncation failures.
    pub(crate) fn truncate_unit_records(&self, id: &str, valid_len: u64) -> std::io::Result<()> {
        truncate_to(&self.records_path(id), valid_len)
    }

    /// Writes a job's final summary atomically (tmp-file + rename) and
    /// syncs it. After this returns the job is durably done.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_summary(&self, id: &str, summary: &str) -> std::io::Result<()> {
        write_atomic(&self.summary_path(id), summary.as_bytes())
    }

    /// Reads a job's final summary, if present.
    ///
    /// # Errors
    ///
    /// Propagates read failures other than absence.
    pub fn read_summary(&self, id: &str) -> std::io::Result<Option<String>> {
        match fs::read_to_string(self.summary_path(id)) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// A string field of a job's stored summary, if both exist (`label`
    /// and `outcome` are in every summary `runner::execute_job` writes).
    pub(crate) fn summary_field(&self, id: &str, field: &str) -> Option<String> {
        let summary = self.read_summary(id).ok()??;
        let value = Json::parse(summary.trim_end()).ok()?;
        value.get(field)?.as_str().map(str::to_string)
    }

    /// Publishes the daemon's bound port for local clients and tests.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn write_port(&self, port: u16) -> std::io::Result<()> {
        write_atomic(&self.root.join("port"), format!("{port}\n").as_bytes())
    }
}

/// Writes `bytes` to `path` via a sibling tmp file + atomic rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)
}

/// Truncates `path` to `valid_len` bytes if it has grown past it (no-op
/// when the file is absent or already short enough).
///
/// # Errors
///
/// Propagates truncation failures.
pub(crate) fn truncate_to(path: &Path, valid_len: u64) -> std::io::Result<()> {
    if !path.is_file() {
        return Ok(());
    }
    let actual = fs::metadata(path)?.len();
    if actual > valid_len {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid_len)?;
        f.sync_data()?;
    }
    Ok(())
}

/// Parses every newline-terminated JSONL line of `path`. A line that does
/// not parse but is followed by one that does is damage in the middle: it
/// is skipped and listed in `skipped`, never cut. Only the tail after the
/// last line that parses (a torn or garbage write) lies past `valid_len`.
///
/// # Errors
///
/// Propagates read failures other than absence (absent → empty).
pub(crate) fn load_lines(path: &Path) -> std::io::Result<UnitRecords> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let mut skipped = Vec::new();
    let mut damaged = Vec::new(); // since the last line that parsed
    let mut valid_len = 0u64;
    let mut start = 0usize;
    for line in 1.. {
        let Some(rel) = bytes[start..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let end = start + rel;
        if let Ok(v) = Json::parse_bytes(&bytes[start..end]) {
            records.push(v);
            skipped.append(&mut damaged);
            valid_len = (end + 1) as u64;
        } else {
            damaged.push(line);
        }
        start = end + 1;
    }
    Ok(UnitRecords {
        records,
        skipped,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ftdircmp-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_roundtrip_and_torn_tail_is_dropped() {
        let root = tmp_root("torn");
        let store = Store::open(&root).unwrap();
        let r0 = Json::obj(vec![
            ("unit", Json::num_u64(0)),
            ("status", Json::str("ok")),
        ]);
        let r1 = Json::obj(vec![
            ("unit", Json::num_u64(1)),
            ("status", Json::str("ok")),
        ]);
        store.append_unit_record("j000001", &r0).unwrap();
        store.append_unit_record("j000001", &r1).unwrap();

        // Simulate a crash mid-append: torn, unterminated trailing bytes.
        let mut f = OpenOptions::new()
            .append(true)
            .open(store.records_path("j000001"))
            .unwrap();
        f.write_all(b"{\"unit\":2,\"sta").unwrap();
        drop(f);

        let loaded = store.load_unit_records("j000001").unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(
            loaded.records[1].get("unit").and_then(Json::as_u64),
            Some(1)
        );

        store
            .truncate_unit_records("j000001", loaded.valid_len)
            .unwrap();
        let r2 = Json::obj(vec![
            ("unit", Json::num_u64(2)),
            ("status", Json::str("ok")),
        ]);
        store.append_unit_record("j000001", &r2).unwrap();
        let reloaded = store.load_unit_records("j000001").unwrap();
        assert_eq!(reloaded.records.len(), 3);
        assert_eq!(
            reloaded.records[2].get("unit").and_then(Json::as_u64),
            Some(2)
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn summary_is_atomic_done_marker() {
        let root = tmp_root("summary");
        let store = Store::open(&root).unwrap();
        assert!(!store.is_done("j000001"));
        assert_eq!(store.read_summary("j000001").unwrap(), None);
        store
            .write_summary("j000001", "{\"outcome\":\"ok\"}\n")
            .unwrap();
        assert!(store.is_done("j000001"));
        assert_eq!(
            store.read_summary("j000001").unwrap().unwrap(),
            "{\"outcome\":\"ok\"}\n"
        );
        assert!(!store.summary_path("j000001").with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_record_file_loads_empty() {
        let root = tmp_root("missing");
        let store = Store::open(&root).unwrap();
        let loaded = store.load_unit_records("j999999").unwrap();
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.valid_len, 0);
        let _ = fs::remove_dir_all(&root);
    }
}
