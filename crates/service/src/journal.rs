//! Append-only job journal — the service's write-ahead log.
//!
//! The run database is only persisted every `persist_every` completions, so
//! a crash can lose both finished results and queued work. The journal
//! closes that window: every lifecycle transition is appended (and flushed)
//! as one JSON line *before* the in-memory state changes are considered
//! durable. On restart, [`replay`] folds the log back into (a) finished
//! records missing from the database and (b) jobs that were submitted but
//! never reached a terminal state, which the server re-enqueues.
//!
//! The format is JSONL rather than the database's single-document JSON
//! precisely because appends must be cheap and crash-tolerant: a torn
//! final line (the process died mid-write) is expected and ignored, while
//! every complete line is recoverable.

use crate::job::JobRequest;
use graphmine_core::RunRecord;
use graphmine_engine::{FaultSite, IoShim};
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One journaled lifecycle transition.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum JournalEvent {
    /// A job was accepted by `POST /jobs` (or re-accepted during recovery).
    Submitted {
        /// Server-assigned job id at the time of writing.
        id: u64,
        /// Algorithm abbreviation (re-parsed on replay).
        algorithm: String,
        /// Stable checkpoint tag, preserved across restarts so a recovered
        /// job resumes from the checkpoint its previous incarnation wrote.
        ckpt_tag: String,
        /// Attempts already consumed before this submission (non-zero only
        /// for entries rewritten by journal compaction).
        #[serde(default)]
        attempt: u32,
        /// The submission as received.
        request: JobRequest,
    },
    /// A worker picked the job up; `attempt` is 1-based.
    Started {
        /// Job id.
        id: u64,
        /// 1-based execution attempt.
        attempt: u32,
    },
    /// The job was pushed back onto the queue (panic retry or watchdog
    /// checkpoint-then-requeue).
    Requeued {
        /// Job id.
        id: u64,
        /// Attempts consumed so far.
        attempt: u32,
        /// Human-readable cause ("panic", "watchdog", …).
        reason: String,
    },
    /// The job reached a terminal state.
    Finished {
        /// Job id.
        id: u64,
        /// Terminal state wire name ("done", "failed", …).
        outcome: String,
        /// The produced run record, for `done` outcomes.
        record: Option<RunRecord>,
        /// The record's index in the run database. Absent from journals
        /// written before the field existed; replay then falls back to the
        /// record's position among the journal's finished records, which
        /// is its index as long as the journal has never been compacted.
        #[serde(default)]
        run_index: Option<usize>,
    },
}

impl JournalEvent {
    /// The job this event belongs to.
    pub fn id(&self) -> u64 {
        match self {
            JournalEvent::Submitted { id, .. }
            | JournalEvent::Started { id, .. }
            | JournalEvent::Requeued { id, .. }
            | JournalEvent::Finished { id, .. } => *id,
        }
    }
}

/// A job reconstructed from the journal that never reached a terminal
/// state — it must be re-enqueued on restart.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// Id the job had in the crashed process (ids are reassigned on
    /// re-submission; only the checkpoint tag is stable).
    pub old_id: u64,
    /// Algorithm abbreviation.
    pub algorithm: String,
    /// Checkpoint tag to resume from.
    pub ckpt_tag: String,
    /// Execution attempts already consumed.
    pub attempt: u32,
    /// The original submission.
    pub request: JobRequest,
}

/// Everything [`replay`] reconstructs from a journal file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs submitted but never finished, in submission order.
    pub pending: Vec<PendingJob>,
    /// Run records from `Finished` events with their run-database index,
    /// in completion order. The server appends those the (less frequently
    /// persisted) database does not reach.
    pub finished_records: Vec<(usize, RunRecord)>,
    /// Complete lines that failed to parse (corruption other than the
    /// expected torn tail).
    pub skipped_lines: usize,
    /// Bytes cut from the end of the file to remove a torn final record,
    /// so post-recovery appends start at a clean line boundary instead of
    /// concatenating onto the partial record.
    pub truncated_bytes: u64,
}

/// The append handle. `None` inside means journaling is disabled (no
/// database path configured) and every append is a no-op.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<Option<File>>,
    path: Option<PathBuf>,
    shim: IoShim,
    appended: AtomicU64,
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending.
    pub fn open(path: &Path) -> io::Result<Journal> {
        Journal::open_with(path, IoShim::disabled())
    }

    /// [`Journal::open`] with an [`IoShim`] through which appends flow;
    /// the fault index is the number of records appended on this handle.
    pub fn open_with(path: &Path, shim: IoShim) -> io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            file: Mutex::new(Some(file)),
            path: Some(path.to_path_buf()),
            shim,
            appended: AtomicU64::new(0),
        })
    }

    /// A journal that records nothing.
    pub fn disabled() -> Journal {
        Journal {
            file: Mutex::new(None),
            path: None,
            shim: IoShim::disabled(),
            appended: AtomicU64::new(0),
        }
    }

    /// Whether appends actually persist.
    pub fn is_enabled(&self) -> bool {
        self.path.is_some()
    }

    /// The journal file path, when enabled.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    fn lock(&self) -> MutexGuard<'_, Option<File>> {
        self.file.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one event as a JSON line and flush it to the OS. A no-op
    /// when disabled.
    pub fn append(&self, event: &JournalEvent) -> io::Result<()> {
        let mut guard = self.lock();
        let Some(file) = guard.as_mut() else {
            return Ok(());
        };
        let mut line = serde_json::to_string(event).map_err(io::Error::other)?;
        line.push('\n');
        let index = self.appended.fetch_add(1, Ordering::Relaxed);
        self.shim
            .append(FaultSite::JournalAppend, Some(index), file, line.as_bytes())
    }

    /// Replace the journal's contents with exactly `events` (used after
    /// recovery to drop entries for jobs that already finished). The
    /// rewrite goes through a temp sibling + rename so a crash mid-compact
    /// leaves the old journal intact.
    pub fn compact(&self, events: &[JournalEvent]) -> io::Result<()> {
        let mut guard = self.lock();
        let Some(path) = &self.path else {
            return Ok(());
        };
        let tmp = path.with_extension("journal.tmp");
        {
            let mut out = File::create(&tmp)?;
            for event in events {
                let mut line = serde_json::to_string(event).map_err(io::Error::other)?;
                line.push('\n');
                out.write_all(line.as_bytes())?;
            }
            out.flush()?;
        }
        std::fs::rename(&tmp, path)?;
        // Reopen so subsequent appends extend the compacted file, not a
        // dangling handle to the replaced one.
        *guard = Some(OpenOptions::new().create(true).append(true).open(path)?);
        Ok(())
    }
}

/// Read a journal file and fold it into a [`Recovery`]. A missing file is
/// an empty recovery. Parsing is byte-level (a record torn mid-UTF-8
/// sequence cannot abort the replay): a corrupt *final* record — the
/// expected artifact of a crashed append — is dropped and the file is
/// truncated back to the last valid line boundary, so subsequent appends
/// never concatenate onto the partial record; corrupt lines elsewhere are
/// counted in `skipped_lines` but do not abort the replay.
pub fn replay(path: &Path) -> io::Result<Recovery> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovery::default()),
        Err(e) => return Err(e),
    };
    let mut events: Vec<JournalEvent> = Vec::new();
    let mut skipped = 0usize;
    // Byte offset just past the last line that parsed (or was blank):
    // everything after it is the torn/corrupt tail.
    let mut valid_end = 0usize;
    let mut skipped_before_valid_end = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let (line_end, next) = match bytes[pos..].iter().position(|&b| b == b'\n') {
            Some(i) => (pos + i, pos + i + 1),
            None => (bytes.len(), bytes.len()),
        };
        let line = trim_bytes(&bytes[pos..line_end]);
        if line.is_empty() {
            valid_end = next.min(bytes.len());
            skipped_before_valid_end = skipped;
            pos = next;
            continue;
        }
        match serde_json::from_slice::<JournalEvent>(line) {
            Ok(event) => {
                events.push(event);
                valid_end = next.min(bytes.len());
                skipped_before_valid_end = skipped;
            }
            Err(_) => skipped += 1,
        }
        pos = next;
    }
    let mut truncated = 0u64;
    if valid_end < bytes.len() {
        // The invalid tail (a torn or bit-flipped final record, possibly
        // preceded by further debris) is expected crash fallout, not
        // mid-file corruption — cut it so the journal ends on a clean
        // boundary. Lines inside the cut are not "skipped": they no longer
        // exist.
        skipped = skipped_before_valid_end;
        truncated = (bytes.len() - valid_end) as u64;
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid_end as u64)?;
        f.sync_all()?;
    }
    let mut recovery = fold(events, skipped);
    recovery.truncated_bytes = truncated;
    Ok(recovery)
}

fn trim_bytes(mut b: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = b {
        if first.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = b {
        if last.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    b
}

fn fold(events: Vec<JournalEvent>, skipped_lines: usize) -> Recovery {
    // Submission order is journal order; track per-id state by index into
    // `pending` so a Finished event can retire its Submitted entry. The
    // fold is idempotent per id: re-appended duplicates (a crash between
    // the append landing and the ack, then a retry) change nothing.
    let mut pending: Vec<Option<PendingJob>> = Vec::new();
    let mut index_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut finished: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut finished_records = Vec::new();
    for event in events {
        match event {
            JournalEvent::Submitted {
                id,
                algorithm,
                ckpt_tag,
                attempt,
                request,
            } => {
                if index_of.contains_key(&id) || finished.contains(&id) {
                    continue; // duplicate submission of a known id
                }
                index_of.insert(id, pending.len());
                pending.push(Some(PendingJob {
                    old_id: id,
                    algorithm,
                    ckpt_tag,
                    attempt,
                    request,
                }));
            }
            JournalEvent::Started { id, attempt } | JournalEvent::Requeued { id, attempt, .. } => {
                if let Some(job) = index_of.get(&id).and_then(|&i| pending[i].as_mut()) {
                    job.attempt = job.attempt.max(attempt);
                }
            }
            JournalEvent::Finished {
                id,
                record,
                run_index,
                ..
            } => {
                if let Some(&i) = index_of.get(&id) {
                    pending[i] = None;
                }
                if finished.insert(id) {
                    if let Some(record) = record {
                        let index = run_index.unwrap_or(finished_records.len());
                        finished_records.push((index, record));
                    }
                }
            }
        }
    }
    Recovery {
        pending: pending.into_iter().flatten().collect(),
        finished_records,
        skipped_lines,
        truncated_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(alg: &str) -> JobRequest {
        JobRequest {
            algorithm: alg.to_string(),
            graph: None,
            size: 200,
            alpha: None,
            seed: 1,
            profile: None,
            max_iterations: Some(5),
            timeout_ms: None,
            checkpoint_every: None,
            reorder: false,
            representation: None,
            tenant: None,
            api_key: None,
        }
    }

    fn submitted(id: u64, alg: &str) -> JournalEvent {
        JournalEvent::Submitted {
            id,
            algorithm: alg.to_string(),
            ckpt_tag: format!("job{id}"),
            attempt: 0,
            request: request(alg),
        }
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let rec = replay(Path::new("/nonexistent/dir/x.journal")).unwrap();
        assert!(rec.pending.is_empty());
        assert!(rec.finished_records.is_empty());
    }

    #[test]
    fn unfinished_jobs_survive_replay_with_attempts() {
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.append(&submitted(0, "PR")).unwrap();
        j.append(&submitted(1, "CC")).unwrap();
        j.append(&JournalEvent::Started { id: 0, attempt: 1 })
            .unwrap();
        j.append(&JournalEvent::Finished {
            id: 0,
            outcome: "done".into(),
            record: None,
            run_index: None,
        })
        .unwrap();
        j.append(&JournalEvent::Started { id: 1, attempt: 1 })
            .unwrap();
        j.append(&JournalEvent::Requeued {
            id: 1,
            attempt: 1,
            reason: "panic".into(),
        })
        .unwrap();
        let rec = replay(&path).unwrap();
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.pending[0].old_id, 1);
        assert_eq!(rec.pending[0].algorithm, "CC");
        assert_eq!(rec.pending[0].attempt, 1);
        assert_eq!(rec.skipped_lines, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_away() {
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.append(&submitted(0, "PR")).unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"finished\",\"id\":0,\"outc")
                .unwrap();
        }
        let rec = replay(&path).unwrap();
        // The torn Finished never landed, so the job is still pending, and
        // the file is cut back to the last valid boundary so the next
        // append starts a fresh line.
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.skipped_lines, 0);
        assert!(rec.truncated_bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // Replay after truncation is clean and idempotent.
        let rec = replay(&path).unwrap();
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_with_invalid_utf8_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("utf8.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.append(&submitted(0, "PR")).unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A record torn mid-UTF-8 sequence: raw continuation bytes.
            f.write_all(b"{\"event\":\"fini\xC3\x28\xFF\xFE").unwrap();
        }
        let rec = replay(&path).unwrap();
        assert_eq!(rec.pending.len(), 1);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_entries_replay_idempotently() {
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        // A crash between an append landing and its ack makes the writer
        // retry: every event can appear twice.
        for _ in 0..2 {
            j.append(&submitted(0, "PR")).unwrap();
        }
        for _ in 0..2 {
            j.append(&JournalEvent::Started { id: 0, attempt: 1 })
                .unwrap();
        }
        for _ in 0..2 {
            j.append(&submitted(1, "CC")).unwrap();
        }
        for _ in 0..2 {
            j.append(&JournalEvent::Finished {
                id: 0,
                outcome: "done".into(),
                record: None,
                run_index: None,
            })
            .unwrap();
        }
        let rec = replay(&path).unwrap();
        // Job 0 finished (once), job 1 is pending (once).
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.pending[0].old_id, 1);
        assert!(rec.finished_records.is_empty());
        assert_eq!(rec.skipped_lines, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_skipped_not_truncated() {
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.append(&submitted(0, "PR")).unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"garbage line that is complete\n").unwrap();
        }
        j.append(&submitted(1, "CC")).unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        let rec = replay(&path).unwrap();
        assert_eq!(rec.pending.len(), 2);
        assert_eq!(rec.skipped_lines, 1);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_torn_append_is_recovered_on_replay() {
        use graphmine_engine::{FaultKind, FaultPlan};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shim.journal");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new();
        plan.arm(FaultSite::JournalAppend, 1, FaultKind::TornWrite);
        let j = Journal::open_with(&path, IoShim::armed(Arc::new(plan))).unwrap();
        j.append(&submitted(0, "PR")).unwrap();
        assert!(j
            .append(&JournalEvent::Finished {
                id: 0,
                outcome: "done".into(),
                record: None,
                run_index: None,
            })
            .is_err());
        let rec = replay(&path).unwrap();
        // The torn Finished is cut away: the job replays as pending.
        assert_eq!(rec.pending.len(), 1);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_keeps_only_given_events() {
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.journal");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        for i in 0..4 {
            j.append(&submitted(i, "PR")).unwrap();
            j.append(&JournalEvent::Finished {
                id: i,
                outcome: "done".into(),
                record: None,
                run_index: None,
            })
            .unwrap();
        }
        j.compact(&[submitted(9, "CC")]).unwrap();
        // Appends after compaction extend the rewritten file.
        j.append(&JournalEvent::Started { id: 9, attempt: 1 })
            .unwrap();
        let rec = replay(&path).unwrap();
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.pending[0].old_id, 9);
        assert_eq!(rec.pending[0].attempt, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn submissions_with_retired_tuning_keys_still_replay() {
        // Journals written while jobs could carry `direction` and
        // `segment_bytes` must still recover those jobs: replay ignores
        // keys the request no longer declares.
        let dir = std::env::temp_dir().join(format!("gm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retired-keys.journal");
        std::fs::write(
            &path,
            concat!(
                r#"{"event":"submitted","id":3,"algorithm":"PR","ckpt_tag":"job3","attempt":0,"#,
                r#""request":{"algorithm":"PR","size":300,"seed":5,"direction":"push","#,
                r#""reorder":true,"segment_bytes":4096}}"#,
                "\n"
            ),
        )
        .unwrap();
        let rec = replay(&path).unwrap();
        assert_eq!(rec.skipped_lines, 0);
        assert_eq!(rec.pending.len(), 1);
        let job = &rec.pending[0];
        assert_eq!((job.old_id, job.algorithm.as_str()), (3, "PR"));
        assert_eq!((job.request.size, job.request.seed), (300, 5));
        assert!(job.request.reorder);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disabled_journal_is_a_no_op() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.append(&submitted(0, "PR")).unwrap();
        j.compact(&[]).unwrap();
    }
}
