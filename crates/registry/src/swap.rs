//! The two-phase checkpoint swap journal: crash-safe bookkeeping for
//! hot-swapping the serving checkpoint.
//!
//! A swap that simply overwrote a "current checkpoint" pointer could be
//! torn by a crash into a state nobody intended: the candidate half-live,
//! the incumbent half-forgotten, the rollback target collected by GC. This
//! journal makes every swap a sequence of appended, checksummed records:
//!
//! ```text
//! intent     candidate X wants to replace incumbent Y
//! validated  X passed the shadow validation gate against Y
//! committed  X is now the serving checkpoint (Y is the rollback target)
//! aborted    the swap was called off (gate rejection, crash recovery)
//! rolled_back the post-swap watchdog reverted from X back to Y
//! ```
//!
//! Records live in a crash-safe [`Journal`] (`swaps.log`), fsynced one by
//! one; [`SwapJournal::open`] gets back its intact prefix. Recovery is then
//! a pure fold over those records: the serving checkpoint is the candidate
//! of the last `committed`/`rolled_back` record, and any swap still pending
//! (`intent`/`validated` without a terminal record) is resolved by
//! [`SwapJournal::recover_pending`], which aborts it — a half-finished swap
//! must never win over the last committed state.
//!
//! The journal also feeds garbage collection: [`SwapJournal::live_hashes`]
//! is the pin set (serving checkpoint, rollback target, and every hash a
//! pending swap references) that
//! [`CheckpointRegistry::gc`](crate::checkpoints::CheckpointRegistry::gc)
//! reads from the registry's directory and does not collect.

use std::collections::HashSet;
use std::path::Path;

use crate::checkpoints::{hex16, parse_hex16};
use crate::journal::{Journal, JournalError, Record, RecoveryReport};

/// File name of the swap journal inside a registry directory.
pub const SWAP_JOURNAL_FILE: &str = "swaps.log";

/// The phase a swap record announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPhase {
    /// A candidate wants to replace the incumbent.
    Intent,
    /// The candidate passed the shadow validation gate.
    Validated,
    /// The candidate is now the serving checkpoint.
    Committed,
    /// The swap was called off before commit.
    Aborted,
    /// The watchdog reverted a committed swap; the record's `candidate` is
    /// the hash rolled back **to**, its `incumbent` the hash rolled back
    /// **from**.
    RolledBack,
}

impl SwapPhase {
    fn as_str(self) -> &'static str {
        match self {
            SwapPhase::Intent => "intent",
            SwapPhase::Validated => "validated",
            SwapPhase::Committed => "committed",
            SwapPhase::Aborted => "aborted",
            SwapPhase::RolledBack => "rolled_back",
        }
    }

    fn parse(s: &str) -> Option<SwapPhase> {
        Some(match s {
            "intent" => SwapPhase::Intent,
            "validated" => SwapPhase::Validated,
            "committed" => SwapPhase::Committed,
            "aborted" => SwapPhase::Aborted,
            "rolled_back" => SwapPhase::RolledBack,
            _ => return None,
        })
    }
}

/// One journal record. Records are self-contained — every phase repeats
/// the swap's candidate and incumbent hashes, so any prefix of the journal
/// tells the full story without joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRecord {
    /// Sequence number tying the phases of one swap together.
    pub seq: u64,
    /// The phase this record announces.
    pub phase: SwapPhase,
    /// The checkpoint being swapped in (for [`SwapPhase::RolledBack`]: the
    /// checkpoint being restored).
    pub candidate: u64,
    /// The checkpoint being replaced (for [`SwapPhase::RolledBack`]: the
    /// checkpoint being reverted).
    pub incumbent: u64,
}

impl Record for SwapRecord {
    fn encode(&self) -> Result<String, JournalError> {
        Ok(format!(
            "{} {} {} {}",
            self.seq,
            self.phase.as_str(),
            hex16(self.candidate),
            hex16(self.incumbent)
        ))
    }

    fn decode(payload: &str) -> Option<SwapRecord> {
        let mut parts = payload.split(' ');
        let seq = parts.next()?.parse().ok()?;
        let phase = SwapPhase::parse(parts.next()?)?;
        let candidate = parse_hex16(parts.next()?)?;
        let incumbent = parse_hex16(parts.next()?)?;
        if parts.next().is_some() {
            return None;
        }
        Some(SwapRecord {
            seq,
            phase,
            candidate,
            incumbent,
        })
    }
}

/// The append-only swap journal. See the [module docs](self).
#[derive(Debug)]
pub struct SwapJournal {
    log: Journal<SwapRecord>,
    records: Vec<SwapRecord>,
}

impl SwapJournal {
    /// Opens (creating if absent) the journal under registry root `dir`,
    /// truncating any torn tail a crash left behind.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<(SwapJournal, RecoveryReport)> {
        let (log, records, recovery) = Journal::open(dir.as_ref().join(SWAP_JOURNAL_FILE))?;
        Ok((SwapJournal { log, records }, recovery))
    }

    /// The sequence number the next new swap gets.
    fn next_seq(&self) -> u64 {
        self.records.iter().map(|r| r.seq + 1).max().unwrap_or(0)
    }

    fn append(&mut self, record: SwapRecord) -> std::io::Result<()> {
        self.log.append(&record)?;
        self.log.sync()?;
        self.records.push(record);
        Ok(())
    }

    /// Appends the first record of a new sequence number and returns it.
    fn start(&mut self, phase: SwapPhase, candidate: u64, incumbent: u64) -> std::io::Result<u64> {
        let seq = self.next_seq();
        self.append(SwapRecord {
            seq,
            phase,
            candidate,
            incumbent,
        })?;
        Ok(seq)
    }

    /// Phase one: declares the intent to swap `candidate` in for
    /// `incumbent`. Returns the swap's sequence number.
    pub fn begin(&mut self, candidate: u64, incumbent: u64) -> std::io::Result<u64> {
        self.start(SwapPhase::Intent, candidate, incumbent)
    }

    fn advance(&mut self, seq: u64, phase: SwapPhase) -> std::io::Result<()> {
        let base = self
            .records
            .iter()
            .rev()
            .find(|r| r.seq == seq)
            .copied()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("swap journal: unknown swap seq {seq}"),
                )
            })?;
        self.append(SwapRecord { phase, ..base })
    }

    /// Phase two: records that `seq`'s candidate passed shadow validation.
    pub fn mark_validated(&mut self, seq: u64) -> std::io::Result<()> {
        self.advance(seq, SwapPhase::Validated)
    }

    /// Phase three: records that `seq`'s candidate is now serving.
    pub fn commit(&mut self, seq: u64) -> std::io::Result<()> {
        self.advance(seq, SwapPhase::Committed)
    }

    /// Calls swap `seq` off (gate rejection, crash recovery).
    pub fn abort(&mut self, seq: u64) -> std::io::Result<()> {
        self.advance(seq, SwapPhase::Aborted)
    }

    /// Records the watchdog reverting from `from` back to `to`. The
    /// rollback is itself a committed transition, so after it
    /// [`Self::committed_hash`] is `to` and [`Self::previous_hash`] is
    /// `from`.
    pub fn record_rollback(&mut self, to: u64, from: u64) -> std::io::Result<u64> {
        self.start(SwapPhase::RolledBack, to, from)
    }

    /// Aborts every swap whose latest record is non-terminal — the crash
    /// recovery step: a half-finished swap resolves to "never happened".
    /// Returns how many were aborted.
    pub fn recover_pending(&mut self) -> std::io::Result<usize> {
        let pending: Vec<u64> = self.pending().iter().map(|r| r.seq).collect();
        for seq in &pending {
            self.advance(*seq, SwapPhase::Aborted)?;
        }
        Ok(pending.len())
    }

    /// Every swap whose latest record is `intent` or `validated`: declared
    /// but neither committed nor called off (e.g. a crash mid-swap).
    pub fn pending(&self) -> Vec<SwapRecord> {
        let mut latest: Vec<SwapRecord> = Vec::new();
        for record in &self.records {
            match latest.iter_mut().find(|r| r.seq == record.seq) {
                Some(slot) => *slot = *record,
                None => latest.push(*record),
            }
        }
        latest
            .into_iter()
            .filter(|r| matches!(r.phase, SwapPhase::Intent | SwapPhase::Validated))
            .collect()
    }

    /// The last `committed` or `rolled_back` record.
    fn last_transition(&self) -> Option<&SwapRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| matches!(r.phase, SwapPhase::Committed | SwapPhase::RolledBack))
    }

    /// The serving checkpoint according to the journal: the candidate of
    /// the last `committed` or `rolled_back` record. `None` before the
    /// first commit.
    pub fn committed_hash(&self) -> Option<u64> {
        self.last_transition().map(|r| r.candidate)
    }

    /// The rollback target: the incumbent of the last `committed` or
    /// `rolled_back` record.
    pub fn previous_hash(&self) -> Option<u64> {
        self.last_transition().map(|r| r.incumbent)
    }

    /// The pin set for garbage collection: the serving checkpoint, the
    /// rollback target, and both hashes of every pending swap. Collecting
    /// any of these could leave a recovering or rolling-back server
    /// pointing at a deleted object.
    pub fn live_hashes(&self) -> HashSet<u64> {
        let mut live = HashSet::new();
        live.extend(self.committed_hash());
        live.extend(self.previous_hash());
        for record in self.pending() {
            live.insert(record.candidate);
            live.insert(record.incumbent);
        }
        live
    }

    /// Every intact record, oldest first.
    pub fn records(&self) -> &[SwapRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir;

    #[test]
    fn full_two_phase_swap_commits() {
        let dir = tmp_dir("swap-commit");
        let (mut journal, recovery) = SwapJournal::open(&dir).unwrap();
        assert_eq!(recovery, RecoveryReport::default());
        assert_eq!(journal.committed_hash(), None);

        let seq = journal.begin(0xA, 0xB).unwrap();
        journal.mark_validated(seq).unwrap();
        journal.commit(seq).unwrap();

        assert_eq!(journal.committed_hash(), Some(0xA));
        assert_eq!(journal.previous_hash(), Some(0xB));
        assert!(journal.pending().is_empty());

        // Reopen: the same state, recovered from disk.
        let (journal, recovery) = SwapJournal::open(&dir).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(journal.committed_hash(), Some(0xA));
        assert_eq!(journal.previous_hash(), Some(0xB));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_swap_recovers_to_last_committed() {
        let dir = tmp_dir("swap-pending");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let first = journal.begin(0x1, 0x0).unwrap();
        journal.commit(first).unwrap();
        // Second swap crashes after validation, before commit.
        let second = journal.begin(0x2, 0x1).unwrap();
        journal.mark_validated(second).unwrap();
        drop(journal);

        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        assert_eq!(journal.pending().len(), 1);
        assert_eq!(journal.pending()[0].seq, second);
        // The torn swap must not have won.
        assert_eq!(journal.committed_hash(), Some(0x1));
        assert_eq!(journal.recover_pending().unwrap(), 1);
        assert!(journal.pending().is_empty());
        assert_eq!(journal.committed_hash(), Some(0x1));

        // New swaps get fresh sequence numbers after recovery.
        let third = journal.begin(0x3, 0x1).unwrap();
        assert!(third > second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_restores_the_previous_hash() {
        let dir = tmp_dir("swap-rollback");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let seq = journal.begin(0x2, 0x1).unwrap();
        journal.mark_validated(seq).unwrap();
        journal.commit(seq).unwrap();
        assert_eq!(journal.committed_hash(), Some(0x2));

        journal.record_rollback(0x1, 0x2).unwrap();
        assert_eq!(journal.committed_hash(), Some(0x1));
        assert_eq!(journal.previous_hash(), Some(0x2));

        let (journal, _) = SwapJournal::open(&dir).unwrap();
        assert_eq!(journal.committed_hash(), Some(0x1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_hashes_pin_serving_previous_and_pending() {
        let dir = tmp_dir("swap-live");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let a = journal.begin(0x2, 0x1).unwrap();
        journal.commit(a).unwrap();
        journal.begin(0x3, 0x2).unwrap(); // pending

        let live = journal.live_hashes();
        assert!(live.contains(&0x2), "serving checkpoint");
        assert!(live.contains(&0x1), "rollback target");
        assert!(live.contains(&0x3), "pending candidate");
        assert_eq!(live.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_swaps_never_become_live() {
        let dir = tmp_dir("swap-abort");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        let seq = journal.begin(0x9, 0x1).unwrap();
        journal.abort(seq).unwrap();
        assert_eq!(journal.committed_hash(), None);
        assert!(journal.pending().is_empty());
        assert!(journal.live_hashes().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn advancing_an_unknown_seq_is_an_error() {
        let dir = tmp_dir("swap-unknown");
        let (mut journal, _) = SwapJournal::open(&dir).unwrap();
        assert!(journal.commit(7).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
