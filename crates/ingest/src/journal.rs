//! The ingest offset journal: crash-safe resume bookkeeping for the
//! streaming ingester.
//!
//! The ingester's durable state is one [`IngestCheckpoint`] — where to
//! resume reading the followed log (`resume_offset`), which lines were
//! already fully applied (`applied_line`), the parser context in force at
//! the resume point, and the cumulative counters. Each checkpoint is one
//! JSON record in the registry's crash-safe [`Journal`] (`ingest.log`),
//! fsynced before [`IngestJournal::checkpoint`] returns. Recovery reads
//! the log's intact prefix, and the *last* checkpoint in it wins.
//!
//! # Exactly-once accounting
//!
//! `resume_offset` points at the start of the oldest record still held in
//! any window (or one past the last consumed line when the windows are
//! empty), so a restart re-reads everything the crashed process had not yet
//! retired. Re-read lines whose number is `≤ applied_line` are **rebuild**
//! lines: they refill the windows but bump no counters and fire no
//! re-modeling. Lines past `applied_line` are fresh. Counters therefore
//! count every record exactly once across any number of crashes — work done
//! after the last checkpoint is recounted on replay precisely because its
//! pre-crash counts were never journaled.

use serde::{Deserialize, Serialize};
use std::path::Path;

use nrpm_registry::{Journal, JournalError, Record};

/// File name of the ingest journal inside an ingest state directory.
pub const INGEST_JOURNAL_FILE: &str = "ingest.log";

/// Checkpoints kept before `open` compacts the journal down to the last
/// one. The journal is a resume pointer, not a history; compaction at open
/// bounds its size across long-lived deployments.
const COMPACT_THRESHOLD: usize = 1024;

/// Parser context in force at the resume offset. `POINT` lines are
/// meaningless without the preceding `PARAMS`/`KERNEL`/`TENANT` directives,
/// which may lie *before* the resume offset — so the checkpoint carries the
/// context needed to re-parse the first resumed line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResumeContext {
    /// Kernel the next point belongs to (`KERNEL` directive).
    pub kernel: Option<String>,
    /// Tenant tag (`KERNEL <k> TENANT <t>`).
    pub tenant: Option<String>,
    /// Declared parameter count (`PARAMS` directive).
    pub arity: Option<usize>,
    /// Event time of the last `TIME` directive, if any.
    pub event_time: Option<f64>,
    /// High-water event time — restored so replayed records face the same
    /// lateness verdicts they faced before the crash.
    pub watermark: Option<f64>,
}

/// Cumulative ingest counters, journaled atomically with the offsets they
/// describe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestCounters {
    /// Records accepted into a window (each source record exactly once).
    pub records: u64,
    /// Records dropped because their event time fell behind the watermark.
    pub late_dropped: u64,
    /// Records evicted by per-window capacity (sliding-window turnover).
    pub evicted: u64,
    /// Records shed under global memory pressure (backpressure).
    pub shed: u64,
    /// Malformed lines skipped.
    pub parse_errors: u64,
    /// Repetition values removed by record sanitization (non-finite or
    /// non-positive).
    pub values_dropped: u64,
    /// Repetition values winsorized by record sanitization.
    pub values_clamped: u64,
    /// Records sanitized away entirely (every repetition unusable).
    pub records_dropped: u64,
    /// Window triggers that fired a re-modeling run.
    pub windows_fired: u64,
    /// Re-modeling runs that failed recoverably.
    pub remodel_failures: u64,
    /// Model updates published to the checkpoint registry.
    pub models_published: u64,
}

/// One journaled resume point.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestCheckpoint {
    /// Byte offset to resume reading from: the start of the oldest record
    /// still held in any window, or one past the last consumed line.
    pub resume_offset: u64,
    /// 1-based line number of the first line at `resume_offset`.
    pub resume_line: u64,
    /// Last line number whose effects are fully reflected in the counters;
    /// replayed lines up to here rebuild state silently.
    pub applied_line: u64,
    /// Parser context in force at `resume_offset`.
    pub context: ResumeContext,
    /// Cumulative counters as of `applied_line`.
    pub counters: IngestCounters,
}

/// What [`IngestJournal::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestRecovery {
    /// Intact checkpoints read from the journal.
    pub checkpoints_read: usize,
    /// Trailing bytes truncated because the last line was torn or failed
    /// its checksum.
    pub truncated_bytes: u64,
    /// The checkpoint to resume from, when any survived.
    pub resume: Option<IngestCheckpoint>,
}

impl Record for IngestCheckpoint {
    fn encode(&self) -> Result<String, JournalError> {
        serde_json::to_string(self).map_err(|e| JournalError::Codec(e.to_string()))
    }

    fn decode(payload: &str) -> Option<Self> {
        serde_json::from_str(payload).ok()
    }
}

/// The append-only ingest checkpoint journal.
#[derive(Debug)]
pub struct IngestJournal {
    log: Journal<IngestCheckpoint>,
    last: Option<IngestCheckpoint>,
}

impl IngestJournal {
    /// Opens (or creates) the journal inside `dir`, truncating a torn tail
    /// and compacting history down to the last checkpoint when the file has
    /// grown past the threshold. Returns the journal and what recovery saw.
    pub fn open(dir: &Path) -> Result<(IngestJournal, IngestRecovery), JournalError> {
        let (log, mut checkpoints, report) = Journal::open(dir.join(INGEST_JOURNAL_FILE))?;
        let recovery = IngestRecovery {
            checkpoints_read: report.records,
            truncated_bytes: report.truncated_bytes,
            resume: checkpoints.pop(),
        };
        let mut journal = IngestJournal {
            log,
            last: recovery.resume.clone(),
        };
        if recovery.checkpoints_read > COMPACT_THRESHOLD {
            journal.compact()?;
        }
        Ok((journal, recovery))
    }

    /// Appends one checkpoint, fsynced before returning.
    pub fn checkpoint(&mut self, cp: &IngestCheckpoint) -> Result<(), JournalError> {
        self.log.append(cp)?;
        self.log.sync()?;
        self.last = Some(cp.clone());
        Ok(())
    }

    /// The most recent checkpoint (journaled before or during this run).
    pub fn latest(&self) -> Option<&IngestCheckpoint> {
        self.last.as_ref()
    }

    /// Rewrites the journal to hold only the last checkpoint (tmp + rename,
    /// so a crash mid-compaction leaves either the old or the new file).
    pub fn compact(&mut self) -> Result<(), JournalError> {
        if let Some(last) = &self.last {
            self.log.rewrite(std::slice::from_ref(last))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nrpm-ingest-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cp(offset: u64, line: u64) -> IngestCheckpoint {
        IngestCheckpoint {
            resume_offset: offset,
            resume_line: line,
            applied_line: line.saturating_sub(1),
            context: ResumeContext {
                kernel: Some("mm".into()),
                tenant: Some("acme".into()),
                arity: Some(2),
                event_time: None,
                watermark: Some(41.5),
            },
            counters: IngestCounters {
                records: offset / 10,
                ..IngestCounters::default()
            },
        }
    }

    #[test]
    fn a_torn_final_newline_drops_the_record_and_later_checkpoints_win() {
        let dir = tmpdir("torn-newline");
        let path = dir.join(INGEST_JOURNAL_FILE);
        {
            let (mut j, _) = IngestJournal::open(&dir).unwrap();
            j.checkpoint(&cp(100, 5)).unwrap();
            j.checkpoint(&cp(200, 9)).unwrap();
        }
        // A crash between writing the second line and its newline.
        let full = std::fs::read(&path).unwrap();
        let first_line = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();

        let (mut j, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.checkpoints_read, 1, "an unterminated line is torn");
        assert_eq!(rec.truncated_bytes, (full.len() - 1 - first_line) as u64);
        assert_eq!(rec.resume, Some(cp(100, 5)));
        assert_eq!(j.latest(), Some(&cp(100, 5)));
        j.checkpoint(&cp(300, 13)).unwrap();
        j.checkpoint(&cp(400, 17)).unwrap();
        drop(j);

        let (j, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.checkpoints_read, 3);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(j.latest(), Some(&cp(400, 17)));
        assert_eq!(rec.resume, Some(cp(400, 17)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_keeps_only_the_last_checkpoint() {
        let dir = tmpdir("compact");
        let (mut j, _) = IngestJournal::open(&dir).unwrap();
        for i in 0..10 {
            j.checkpoint(&cp(i * 10, i + 1)).unwrap();
        }
        j.compact().unwrap();
        let contents = std::fs::read_to_string(dir.join(INGEST_JOURNAL_FILE)).unwrap();
        assert_eq!(contents.lines().count(), 1);
        let (j2, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.checkpoints_read, 1);
        assert_eq!(j2.latest().unwrap().resume_offset, 90);
        // The journal still accepts appends after compaction.
        let mut j3 = j;
        j3.checkpoint(&cp(500, 20)).unwrap();
        let (_, rec) = IngestJournal::open(&dir).unwrap();
        assert_eq!(rec.resume.unwrap().resume_offset, 500);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
