//! The crash-safe append log shared by every journal in the workspace: the
//! result cache (`cache.log`), checkpoint swaps (`swaps.log`), fleet
//! rollouts (`rollouts.log`) and ingest checkpoints (`ingest.log`).
//!
//! ## On-disk format
//!
//! ```text
//! line := payload TAB hex16(fnv1a64(payload)) LF
//! ```
//!
//! The payload is whatever the [`Record`] type encodes it as — a JSON
//! document for the cache and ingest logs, space-separated fields for the
//! swap and rollout logs — and never contains a line feed. Every log is
//! plain text and inspectable with `cat`.
//!
//! ## Crash-recovery contract
//!
//! A record counts only if it is a complete LF-terminated line whose
//! checksum matches and whose payload decodes. One scan, shared by
//! [`Journal::open`] and the read-only [`Journal::verify`], walks the file
//! front to back and stops at the first record that fails: everything
//! before it is returned, everything from it on is the *torn tail*. Appends
//! are ordered, so nothing behind a bad record can be trusted; `open`
//! truncates the tail (and fsyncs the truncation), `verify` only reports
//! it. A crash during recovery at worst leaves the same tail to be found
//! again.
//!
//! ## Durability
//!
//! [`Journal::append`] hands the whole line to the OS in one write; it
//! survives a process crash but not a power loss until [`Journal::sync`].
//! Callers choose per record: the swap, rollout and ingest journals sync
//! after every append, the result cache only on `sync` and on compaction.
//! [`Journal::rewrite`] replaces the file atomically (temp file, fsync,
//! rename), so a crash mid-compaction leaves either the old or the new log.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use nrpm_core::fingerprint::bytes_hash;
use serde::{Deserialize, Serialize};

use crate::checkpoints::hex16;

/// A value that can be stored as one log record.
pub trait Record: Sized {
    /// The record's payload. Must not contain a line feed.
    fn encode(&self) -> Result<String, JournalError>;
    /// Parses a payload produced by [`Record::encode`]; `None` rejects it.
    fn decode(payload: &str) -> Option<Self>;
}

/// The result cache's record: a fingerprint and its memoized value, as a
/// JSON `[key, value]` pair.
impl<V: Serialize + Deserialize> Record for (u64, V) {
    fn encode(&self) -> Result<String, JournalError> {
        serde_json::to_string(self).map_err(|e| JournalError::Codec(e.to_string()))
    }

    fn decode(payload: &str) -> Option<Self> {
        serde_json::from_str(payload).ok()
    }
}

/// Why [`Journal`] operations fail.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A record failed to encode.
    Codec(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Codec(msg) => write!(f, "journal codec error: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<JournalError> for std::io::Error {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(e) => e,
            JournalError::Codec(msg) => std::io::Error::new(std::io::ErrorKind::InvalidData, msg),
        }
    }
}

/// What a scan of an existing log found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records read back intact.
    pub records: usize,
    /// Bytes of torn or corrupt tail (0 for a clean file).
    pub truncated_bytes: u64,
    /// Whether the file had a tail to truncate: `open` truncated it,
    /// `verify` reports that the next `open` will.
    pub repaired: bool,
}

/// The longest intact prefix of `bytes`: its records and its length.
fn scan<R: Record>(bytes: &[u8]) -> (Vec<R>, usize) {
    let mut records = Vec::new();
    let mut end = 0;
    while let Some(len) = bytes[end..].iter().position(|&b| b == b'\n') {
        let record = std::str::from_utf8(&bytes[end..end + len])
            .ok()
            .and_then(|line| line.rsplit_once('\t'))
            .filter(|(payload, check)| hex16(bytes_hash(payload.as_bytes())) == *check)
            .and_then(|(payload, _)| R::decode(payload));
        match record {
            Some(record) => records.push(record),
            None => break,
        }
        end += len + 1;
    }
    (records, end)
}

fn tail_report(records: usize, file_len: usize, good_end: usize) -> RecoveryReport {
    RecoveryReport {
        records,
        truncated_bytes: (file_len - good_end) as u64,
        repaired: good_end < file_len,
    }
}

/// An append-only log of `R` records. See the [module docs](self) for the
/// format and the crash-recovery contract.
#[derive(Debug)]
pub struct Journal<R> {
    path: PathBuf,
    file: File,
    records: usize,
    _record: PhantomData<fn() -> R>,
}

impl<R: Record> Journal<R> {
    /// Opens (creating if absent) the log at `path`, returning every intact
    /// record and truncating a torn tail in place.
    #[allow(clippy::type_complexity)]
    pub fn open(path: impl Into<PathBuf>) -> Result<(Self, Vec<R>, RecoveryReport), JournalError> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let bytes = std::fs::read(&path)?;
        let (records, good_end) = scan::<R>(&bytes);
        let report = tail_report(records.len(), bytes.len(), good_end);
        if report.repaired {
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }
        let journal = Journal {
            path,
            file,
            records: records.len(),
            _record: PhantomData,
        };
        Ok((journal, records, report))
    }

    /// Scans the log at `path` exactly like [`Journal::open`] but never
    /// writes to it.
    pub fn verify(path: &Path) -> Result<RecoveryReport, JournalError> {
        let bytes = std::fs::read(path)?;
        let (records, good_end) = scan::<R>(&bytes);
        Ok(tail_report(records.len(), bytes.len(), good_end))
    }

    /// Appends one record in a single write. Call [`Journal::sync`] to make
    /// it survive a power loss.
    pub fn append(&mut self, record: &R) -> Result<(), JournalError> {
        let line = line(record)?;
        self.file.write_all(line.as_bytes())?;
        self.records += 1;
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Replaces the log with exactly `records`: written to a temp file in
    /// the same directory, fsynced, then renamed over the log.
    pub fn rewrite(&mut self, records: &[R]) -> Result<(), JournalError> {
        let mut text = String::new();
        for record in records {
            text.push_str(&line(record)?);
        }
        let tmp_path = self.path.with_extension("tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(text.as_bytes())?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // The old handle points at the replaced file; append to the new one.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.records = records.len();
        Ok(())
    }

    /// Records in the log: read back at open, plus appended since, minus
    /// those a rewrite dropped.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One framed line for `record`.
fn line<R: Record>(record: &R) -> Result<String, JournalError> {
    let payload = record.encode()?;
    if payload.contains('\n') {
        return Err(JournalError::Codec(
            "record payload contains a line feed".into(),
        ));
    }
    Ok(format!(
        "{payload}\t{}\n",
        hex16(bytes_hash(payload.as_bytes()))
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir;

    type TestJournal = Journal<(u64, Vec<f64>)>;

    #[test]
    fn compaction_drops_superseded_records_atomically() {
        let dir = tmp_dir("journal-compact");
        let path = dir.join("cache.log");
        let (mut journal, _, _) = TestJournal::open(&path).unwrap();
        for i in 0..10u64 {
            journal.append(&(i, vec![i as f64])).unwrap();
        }
        journal.rewrite(&[(7, vec![7.0]), (9, vec![9.0])]).unwrap();
        assert_eq!(journal.records(), 2);
        journal.append(&(11, vec![11.0])).unwrap();
        drop(journal);

        let (_, entries, report) = TestJournal::open(&path).unwrap();
        assert_eq!(
            entries,
            vec![(7, vec![7.0]), (9, vec![9.0]), (11, vec![11.0])]
        );
        assert!(!report.repaired);
        assert!(!dir.join("cache.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_payload_with_a_line_feed_is_refused() {
        struct Raw(String);
        impl Record for Raw {
            fn encode(&self) -> Result<String, JournalError> {
                Ok(self.0.clone())
            }
            fn decode(payload: &str) -> Option<Self> {
                Some(Raw(payload.to_string()))
            }
        }
        let dir = tmp_dir("journal-linefeed");
        let path = dir.join("raw.log");
        let (mut journal, _, _) = Journal::<Raw>::open(&path).unwrap();
        assert!(journal.append(&Raw("two\nlines".into())).is_err());
        assert_eq!(journal.records(), 0);
        assert!(std::fs::read(&path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash sweep: record a log of short and long payloads, then at
    /// every byte offset (a) truncate there and (b) flip the byte there.
    /// Recovery must return exactly the longest intact prefix after a
    /// truncation and some prefix after a flip, must agree with `verify`,
    /// must leave a log that takes a fresh append which survives the next
    /// reopen, and must never panic.
    #[test]
    fn every_truncation_and_byte_flip_recovers_a_prefix() {
        let dir = tmp_dir("journal-sweep");
        let path = dir.join("sweep.log");
        let written: Vec<(u64, Vec<f64>)> = (0..6u64)
            .map(|i| {
                let len = if i % 2 == 0 { 1 } else { 40 + 10 * i as usize };
                (i, (0..len).map(|j| i as f64 + j as f64 / 8.0).collect())
            })
            .collect();
        // Byte offset at which each record's line ends.
        let mut ends = Vec::new();
        {
            let (mut journal, _, _) = TestJournal::open(&path).unwrap();
            for record in &written {
                journal.append(record).unwrap();
                ends.push(std::fs::metadata(&path).unwrap().len() as usize);
            }
        }
        let full = std::fs::read(&path).unwrap();
        assert_eq!(*ends.last().unwrap(), full.len());
        let fresh = (99u64, vec![0.25; 3]);

        // Writes `bytes` to `case` and reopens it, returning what recovery
        // read back, after checking that the read-only `verify` predicted
        // the repair without writing and that the repaired log takes a
        // fresh append which survives the next reopen.
        let recover = |case: &Path, bytes: &[u8]| {
            std::fs::write(case, bytes).unwrap();
            let scanned = TestJournal::verify(case).unwrap();
            assert_eq!(std::fs::read(case).unwrap(), bytes, "verify must not write");
            let (mut journal, entries, report) = TestJournal::open(case).unwrap();
            assert_eq!(report, scanned);
            assert_eq!(report.records, entries.len());
            assert_eq!(journal.records(), entries.len());
            assert_eq!(
                report.truncated_bytes,
                (bytes.len() - std::fs::read(case).unwrap().len()) as u64
            );
            journal.append(&fresh).unwrap();
            drop(journal);
            let (_, reopened, report) = TestJournal::open(case).unwrap();
            assert!(!report.repaired, "a repaired log reopens clean");
            assert_eq!(reopened.len(), entries.len() + 1);
            assert_eq!(&reopened[..entries.len()], &entries[..]);
            assert_eq!(reopened.last(), Some(&fresh));
            entries
        };

        let case = dir.join("case.log");
        for offset in 0..=full.len() {
            let entries = recover(&case, &full[..offset]);
            let intact = ends.iter().filter(|&&end| end <= offset).count();
            assert_eq!(entries, &written[..intact], "cut at byte {offset}");
        }
        for offset in 0..full.len() {
            let mut bytes = full.clone();
            bytes[offset] ^= 0x01;
            let entries = recover(&case, &bytes);
            // The records wholly before the flipped byte always survive.
            let before = ends.iter().filter(|&&end| end <= offset).count();
            assert!(entries.len() >= before, "flip at byte {offset}");
            assert_eq!(entries, &written[..entries.len()], "flip at byte {offset}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
