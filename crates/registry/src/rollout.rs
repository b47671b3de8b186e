//! The rolling-rollout journal: crash-safe bookkeeping for upgrading a
//! shard fleet one member at a time.
//!
//! A rolling checkpoint rollout walks the ring — drain one shard, sync the
//! target checkpoint into its registry, hot-swap, health-verify, readmit —
//! and a crash anywhere in that walk must not strand the fleet serving a
//! mix of epochs: replicated reads would then disagree forever. This
//! journal records the walk in the same crash-safe [`Journal`] as the swap
//! journal ([`crate::swap`]):
//!
//! ```text
//! begin    rollout to target T is starting (incumbent I still serves)
//! shard    shard N now serves T (synced, swapped, verified)
//! done     every shard serves T; T is the fleet checkpoint
//! aborted  the rollout was called off
//! ```
//!
//! Records are fsynced one by one into `rollouts.log`;
//! [`RolloutJournal::open`] gets back its intact prefix. Recovery is a fold
//! over those records: a `begin` without `done`/`aborted` is a
//! [`PendingRollout`], carrying exactly which shards already landed on the
//! target — the cluster launcher completes such a rollout by distributing
//! the *target* (not the operator's stale `--model` argument) to every
//! shard, restoring a single-epoch fleet before any request is routed.

use std::collections::HashSet;
use std::path::Path;

use crate::checkpoints::{hex16, parse_hex16};
use crate::journal::{Journal, JournalError, Record, RecoveryReport};

/// File name of the rollout journal inside a registry directory.
pub const ROLLOUT_JOURNAL_FILE: &str = "rollouts.log";

/// The step a rollout record announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutPhase {
    /// A rollout to `target` is starting.
    Begin,
    /// One shard (the record's `shard`) now serves `target`.
    Shard,
    /// Every shard serves `target`.
    Done,
    /// The rollout was called off.
    Aborted,
}

impl RolloutPhase {
    fn as_str(self) -> &'static str {
        match self {
            RolloutPhase::Begin => "begin",
            RolloutPhase::Shard => "shard",
            RolloutPhase::Done => "done",
            RolloutPhase::Aborted => "aborted",
        }
    }

    fn parse(s: &str) -> Option<RolloutPhase> {
        Some(match s {
            "begin" => RolloutPhase::Begin,
            "shard" => RolloutPhase::Shard,
            "done" => RolloutPhase::Done,
            "aborted" => RolloutPhase::Aborted,
            _ => return None,
        })
    }
}

/// One journal record. Every phase repeats the rollout's target and
/// incumbent hashes, so any prefix of the journal tells the full story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutRecord {
    /// Sequence number tying the records of one rollout together.
    pub seq: u64,
    /// The step this record announces.
    pub phase: RolloutPhase,
    /// The checkpoint being rolled out.
    pub target: u64,
    /// The checkpoint being replaced.
    pub incumbent: u64,
    /// For [`RolloutPhase::Shard`]: the shard that landed on the target.
    /// Zero (and meaningless) for the other phases.
    pub shard: u32,
}

impl Record for RolloutRecord {
    fn encode(&self) -> Result<String, JournalError> {
        Ok(format!(
            "{} {} {} {} {}",
            self.seq,
            self.phase.as_str(),
            hex16(self.target),
            hex16(self.incumbent),
            self.shard
        ))
    }

    fn decode(payload: &str) -> Option<RolloutRecord> {
        let mut parts = payload.split(' ');
        let seq = parts.next()?.parse().ok()?;
        let phase = RolloutPhase::parse(parts.next()?)?;
        let target = parse_hex16(parts.next()?)?;
        let incumbent = parse_hex16(parts.next()?)?;
        let shard = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(RolloutRecord {
            seq,
            phase,
            target,
            incumbent,
            shard,
        })
    }
}

/// A rollout that began but neither finished nor aborted — what a crash
/// mid-walk leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRollout {
    /// The rollout's sequence number.
    pub seq: u64,
    /// The checkpoint it was rolling out.
    pub target: u64,
    /// The checkpoint it was replacing.
    pub incumbent: u64,
    /// Shards that already landed on the target before the crash.
    pub done: Vec<u32>,
}

/// The append-only rollout journal. See the [module docs](self).
#[derive(Debug)]
pub struct RolloutJournal {
    log: Journal<RolloutRecord>,
    records: Vec<RolloutRecord>,
}

impl RolloutJournal {
    /// Opens (creating if absent) the journal under registry root `dir`,
    /// truncating any torn tail a crash left behind.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<(RolloutJournal, RecoveryReport)> {
        let (log, records, recovery) = Journal::open(dir.as_ref().join(ROLLOUT_JOURNAL_FILE))?;
        Ok((RolloutJournal { log, records }, recovery))
    }

    /// The sequence number the next new rollout gets.
    fn next_seq(&self) -> u64 {
        self.records.iter().map(|r| r.seq + 1).max().unwrap_or(0)
    }

    fn append(&mut self, record: RolloutRecord) -> std::io::Result<()> {
        self.log.append(&record)?;
        self.log.sync()?;
        self.records.push(record);
        Ok(())
    }

    /// Appends `phase` (and `shard`) for the existing rollout `seq`.
    fn advance(&mut self, seq: u64, phase: RolloutPhase, shard: u32) -> std::io::Result<()> {
        let base = self
            .records
            .iter()
            .rev()
            .find(|r| r.seq == seq)
            .copied()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("rollout journal: unknown rollout seq {seq}"),
                )
            })?;
        self.append(RolloutRecord {
            phase,
            shard,
            ..base
        })
    }

    /// Declares a rollout from `incumbent` to `target`. Returns its
    /// sequence number. At most one rollout may be pending at a time.
    pub fn begin(&mut self, target: u64, incumbent: u64) -> std::io::Result<u64> {
        if let Some(pending) = self.pending() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "rollout journal: rollout {} to {} is still pending",
                    pending.seq,
                    hex16(pending.target)
                ),
            ));
        }
        let seq = self.next_seq();
        self.append(RolloutRecord {
            seq,
            phase: RolloutPhase::Begin,
            target,
            incumbent,
            shard: 0,
        })?;
        Ok(seq)
    }

    /// Records that `shard` now serves rollout `seq`'s target (synced,
    /// swapped, and verified over the wire).
    pub fn record_shard(&mut self, seq: u64, shard: u32) -> std::io::Result<()> {
        self.advance(seq, RolloutPhase::Shard, shard)
    }

    /// Records that every shard serves rollout `seq`'s target.
    pub fn finish(&mut self, seq: u64) -> std::io::Result<()> {
        self.advance(seq, RolloutPhase::Done, 0)
    }

    /// Calls rollout `seq` off.
    pub fn abort(&mut self, seq: u64) -> std::io::Result<()> {
        self.advance(seq, RolloutPhase::Aborted, 0)
    }

    /// The rollout a crash interrupted, if any: begun, some shards
    /// possibly landed, no terminal record.
    pub fn pending(&self) -> Option<PendingRollout> {
        let mut pending: Option<PendingRollout> = None;
        for record in &self.records {
            match record.phase {
                RolloutPhase::Begin => {
                    pending = Some(PendingRollout {
                        seq: record.seq,
                        target: record.target,
                        incumbent: record.incumbent,
                        done: Vec::new(),
                    });
                }
                RolloutPhase::Shard => {
                    if let Some(p) = pending.as_mut() {
                        if p.seq == record.seq && !p.done.contains(&record.shard) {
                            p.done.push(record.shard);
                        }
                    }
                }
                RolloutPhase::Done | RolloutPhase::Aborted => {
                    if pending.as_ref().is_some_and(|p| p.seq == record.seq) {
                        pending = None;
                    }
                }
            }
        }
        pending
    }

    /// The fleet checkpoint according to the journal: the target of the
    /// last completed rollout. `None` before the first completion.
    pub fn completed_hash(&self) -> Option<u64> {
        self.records
            .iter()
            .rev()
            .find(|r| r.phase == RolloutPhase::Done)
            .map(|r| r.target)
    }

    /// The GC pin set: the last completed target and both hashes of a
    /// pending rollout. Collecting any of these could leave a recovering
    /// fleet pointing at a deleted object.
    pub fn live_hashes(&self) -> HashSet<u64> {
        let mut live = HashSet::new();
        live.extend(self.completed_hash());
        if let Some(pending) = self.pending() {
            live.insert(pending.target);
            live.insert(pending.incumbent);
        }
        live
    }

    /// Every intact record, oldest first.
    pub fn records(&self) -> &[RolloutRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir;

    #[test]
    fn full_walk_completes_and_survives_reopen() {
        let dir = tmp_dir("rollout-walk");
        let (mut journal, recovery) = RolloutJournal::open(&dir).unwrap();
        assert_eq!(recovery, RecoveryReport::default());

        let seq = journal.begin(0xA1B2, 0xBB).unwrap();
        journal.record_shard(seq, 0).unwrap();
        journal.record_shard(seq, 1).unwrap();
        journal.record_shard(seq, 2).unwrap();
        journal.finish(seq).unwrap();
        assert!(journal.pending().is_none());
        assert_eq!(journal.completed_hash(), Some(0xA1B2));

        let (journal, recovery) = RolloutJournal::open(&dir).unwrap();
        assert_eq!(recovery.records, 5);
        assert_eq!(journal.completed_hash(), Some(0xA1B2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_walk_is_pending_with_the_landed_shards() {
        let dir = tmp_dir("rollout-crash");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let seq = journal.begin(0x2, 0x1).unwrap();
        journal.record_shard(seq, 0).unwrap();
        drop(journal); // crash between shard 0 and shard 1

        let (journal, _) = RolloutJournal::open(&dir).unwrap();
        let pending = journal.pending().expect("crash leaves a pending rollout");
        assert_eq!(pending.target, 0x2);
        assert_eq!(pending.incumbent, 0x1);
        assert_eq!(pending.done, vec![0]);
        assert_eq!(journal.completed_hash(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_one_rollout_may_be_pending() {
        let dir = tmp_dir("rollout-single");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let seq = journal.begin(0x2, 0x1).unwrap();
        assert!(journal.begin(0x3, 0x1).is_err());
        journal.abort(seq).unwrap();
        assert!(journal.pending().is_none());
        journal.begin(0x3, 0x1).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_hashes_pin_completed_and_pending() {
        let dir = tmp_dir("rollout-live");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        let a = journal.begin(0x2, 0x1).unwrap();
        journal.finish(a).unwrap();
        journal.begin(0x3, 0x2).unwrap(); // pending

        let live = journal.live_hashes();
        assert!(live.contains(&0x2), "completed target");
        assert!(live.contains(&0x3), "pending target");
        assert_eq!(live.len(), 2, "pending incumbent == completed target");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn advancing_an_unknown_seq_is_an_error() {
        let dir = tmp_dir("rollout-unknown");
        let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
        assert!(journal.record_shard(7, 0).is_err());
        assert!(journal.finish(7).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
