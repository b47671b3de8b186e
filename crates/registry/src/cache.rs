//! The memoized result cache: a [`ShardedLru`] front with an optional
//! [`Journal`] behind it.
//!
//! Every insert goes to the LRU and (when persistence is on) appends to
//! the journal; opening a cache with the same directory replays the
//! journal into the LRU, so results survive restarts and `kill -9`. The
//! journal grows append-only and is compacted down to the LRU's resident
//! set once it exceeds a multiple of capacity, keeping disk usage
//! proportional to the cache, not to its history.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::journal::{Journal, JournalError, RecoveryReport};
use crate::lru::{LruStats, ShardedLru};

/// File name of the cache journal inside its directory. Builds that
/// wrote a binary `cache.journal` are not read: that file is left alone
/// and the cache starts empty.
pub const JOURNAL_FILE: &str = "cache.log";

/// Compact once the journal holds this many records per cache slot.
const COMPACT_FACTOR: usize = 4;

/// A point-in-time view of a [`ResultCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    /// The in-memory LRU's counters and occupancy.
    pub lru: LruStats,
    /// Records currently in the journal, or `None` for a memory-only cache.
    pub journal_records: Option<usize>,
    /// What startup recovery found (zeroed for a memory-only cache).
    pub recovery: RecoveryReport,
}

/// An LRU-bounded, optionally journal-backed map from fingerprints to
/// memoized values. See the [module docs](self).
#[derive(Debug)]
pub struct ResultCache<V> {
    lru: ShardedLru<V>,
    journal: Option<Mutex<Journal<(u64, V)>>>,
    recovery: RecoveryReport,
}

impl<V: Clone + Serialize + Deserialize> ResultCache<V> {
    /// A memory-only cache: nothing persists.
    pub fn in_memory(capacity: usize, shards: usize) -> Self {
        ResultCache {
            lru: ShardedLru::new(capacity, shards),
            journal: None,
            recovery: RecoveryReport::default(),
        }
    }

    /// A persistent cache journaled under `dir`, replaying (and if needed
    /// repairing) any journal already there. Replayed entries populate the
    /// LRU in append order, so on overflow the oldest records lose.
    pub fn persistent(
        capacity: usize,
        shards: usize,
        dir: impl AsRef<Path>,
    ) -> Result<Self, JournalError> {
        let (journal, entries, recovery) = Journal::open(dir.as_ref().join(JOURNAL_FILE))?;
        let lru = ShardedLru::new(capacity, shards);
        for (key, value) in entries {
            lru.insert(key, value);
        }
        Ok(ResultCache {
            lru,
            journal: Some(Mutex::new(journal)),
            recovery,
        })
    }

    /// Looks `key` up.
    pub fn get(&self, key: u64) -> Option<V> {
        self.lru.get(key)
    }

    /// Inserts `key`, journaling it when persistence is on. A full journal
    /// is compacted down to the resident set in the same call.
    pub fn insert(&self, key: u64, value: V) -> Result<(), JournalError> {
        self.lru.insert(key, value.clone());
        if let Some(journal) = &self.journal {
            let mut journal = journal
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            journal.append(&(key, value))?;
            if journal.records() > COMPACT_FACTOR * self.lru.capacity().max(1) {
                journal.rewrite(&self.lru.entries())?;
            }
        }
        Ok(())
    }

    /// Rewrites the journal to exactly the resident set (no-op when
    /// memory-only).
    pub fn compact(&self) -> Result<(), JournalError> {
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .rewrite(&self.lru.entries())?;
        }
        Ok(())
    }

    /// Forces journaled records to stable storage (no-op when memory-only).
    pub fn sync(&self) -> Result<(), JournalError> {
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .sync()?;
        }
        Ok(())
    }

    /// Whether inserts are journaled to disk.
    pub fn is_persistent(&self) -> bool {
        self.journal.is_some()
    }

    /// The journal path, when persistent.
    pub fn journal_path(&self) -> Option<PathBuf> {
        self.journal.as_ref().map(|j| {
            j.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .path()
                .to_path_buf()
        })
    }

    /// Counters, occupancy, journal size, and what recovery found.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lru: self.lru.stats(),
            journal_records: self.journal.as_ref().map(|j| {
                j.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .records()
            }),
            recovery: self.recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir;

    #[test]
    fn memory_only_cache_does_not_touch_disk() {
        let cache: ResultCache<f64> = ResultCache::in_memory(4, 2);
        assert!(!cache.is_persistent());
        cache.insert(1, 1.5).unwrap();
        assert_eq!(cache.get(1), Some(1.5));
        assert_eq!(cache.stats().journal_records, None);
    }

    #[test]
    fn persistent_cache_survives_reopen() {
        let dir = tmp_dir("cache-reopen");
        {
            let cache: ResultCache<Vec<f64>> = ResultCache::persistent(8, 2, &dir).unwrap();
            cache.insert(1, vec![1.0]).unwrap();
            cache.insert(2, vec![2.0, 2.5]).unwrap();
        }
        let cache: ResultCache<Vec<f64>> = ResultCache::persistent(8, 2, &dir).unwrap();
        assert_eq!(cache.get(1), Some(vec![1.0]));
        assert_eq!(cache.get(2), Some(vec![2.0, 2.5]));
        assert_eq!(cache.stats().recovery.records, 2);
        assert!(!cache.stats().recovery.repaired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_compacted_once_it_outgrows_the_cache() {
        let dir = tmp_dir("cache-autocompact");
        let cache: ResultCache<u64> = ResultCache::persistent(4, 1, &dir).unwrap();
        for i in 0..200u64 {
            cache.insert(i, i).unwrap();
        }
        let records = cache.stats().journal_records.unwrap();
        assert!(
            records <= COMPACT_FACTOR * 4 + 1,
            "journal held {records} records for a 4-slot cache"
        );
        // After compaction + reopen, only the resident set comes back.
        drop(cache);
        let cache: ResultCache<u64> = ResultCache::persistent(4, 1, &dir).unwrap();
        assert!(cache.stats().lru.entries <= 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_compact_shrinks_to_the_resident_set() {
        let dir = tmp_dir("cache-compact");
        let cache: ResultCache<u64> = ResultCache::persistent(2, 1, &dir).unwrap();
        cache.insert(1, 1).unwrap();
        cache.insert(2, 2).unwrap();
        cache.insert(3, 3).unwrap(); // evicts key 1
        cache.compact().unwrap();
        assert_eq!(cache.stats().journal_records, Some(2));
        drop(cache);
        let cache: ResultCache<u64> = ResultCache::persistent(8, 1, &dir).unwrap();
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.get(2), Some(2));
        assert_eq!(cache.get(3), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
