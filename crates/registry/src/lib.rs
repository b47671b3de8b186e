//! Content-addressed model registry and crash-safe memoized result cache.
//!
//! Modeling a kernel through the adaptive pipeline costs milliseconds to
//! seconds (cross-validated fits, optionally domain adaptation); looking
//! up a previous answer costs microseconds. This crate makes the lookup
//! safe to rely on:
//!
//! * [`lru`] — a sharded in-memory LRU keyed by the canonical fingerprints
//!   of [`nrpm_core::fingerprint`], with hit/miss/eviction counters;
//! * [`journal`] — the crash-safe append log: checksummed lines, torn-tail
//!   recovery, atomic-rename rewrite. The cache, swap, rollout and ingest
//!   journals are folds over its records;
//! * [`cache`] — the two combined: [`cache::ResultCache`] memoizes
//!   `fingerprint → outcome` across restarts;
//! * [`checkpoints`] — a content-addressed store of trained networks with
//!   named refs (`default`, `best`), `verify`, and `gc`;
//! * [`singleflight`] — request deduplication so N concurrent identical
//!   requests compute once and share the answer.
//!
//! The serving layer (`nrpm-serve`) wires these together: cache before
//! model, single-flight around the model path, journal under the cache.
//!
//! ```
//! use nrpm_registry::cache::ResultCache;
//!
//! let cache: ResultCache<f64> = ResultCache::in_memory(1024, 8);
//! assert_eq!(cache.get(42), None);
//! cache.insert(42, 1.25).unwrap();
//! assert_eq!(cache.get(42), Some(1.25));
//! assert_eq!(cache.stats().lru.hits, 1);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod checkpoints;
pub mod journal;
pub mod lru;
pub mod rollout;
pub mod singleflight;
pub mod swap;

pub use cache::{CacheStats, ResultCache};
pub use checkpoints::{
    hex16, parse_checkpoint, parse_hex16, CheckpointRegistry, RegistryError, VerifyOutcome,
};
pub use journal::{Journal, JournalError, Record, RecoveryReport};
pub use lru::{LruStats, ShardedLru};
pub use singleflight::{Joined, SingleFlight};
pub use swap::{SwapJournal, SwapPhase, SwapRecord};

/// A fresh (removed, not yet created) scratch directory for one test.
#[cfg(test)]
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nrpm-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
