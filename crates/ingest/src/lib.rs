//! Streaming measurement ingestion with windowed re-modeling.
//!
//! `nrpm-ingest` turns live measurement streams into versioned model
//! updates. It tails measurement sources — a file in the PARAMS/POINT text
//! format (with `KERNEL`/`TENANT`/`TIME` ingest directives) and/or the
//! newline-JSON TCP push protocol — sanitizes every record through
//! [`nrpm_core::sanitize`], assembles per-`(kernel, tenant)` sliding
//! windows with watermark-based lateness handling and bounded memory
//! (shed-oldest backpressure), and re-models each due window through the
//! paper's [`AdaptiveModeler`](nrpm_core::adaptive::AdaptiveModeler) with
//! domain adaptation. Adapted networks are published content-addressed
//! into the checkpoint registry under the [`INGEST_CANDIDATE_REF`] ref,
//! where `nrpm serve --feed` hot-swaps them in through the crash-safe
//! two-phase journal.
//!
//! Ingestion itself is crash-safe: the engine journals its resume offset,
//! parser context, and counters after every batch ([`IngestJournal`]), and
//! a restart replays exactly the records the crashed process still held —
//! no record is counted twice, none is lost (see [`journal`] for the
//! argument, and `tests/resume.rs` for the kill-and-restart proof).
//!
//! The module layout mirrors the pipeline: [`source`] (file follow with
//! rotation detection, TCP push), [`window`] (sliding windows, watermarks,
//! backpressure), [`journal`] (crash-safe resume), [`engine`] (the
//! pipeline itself plus re-modeling and publishing).

#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod source;
pub mod window;

pub use engine::{EngineError, FireReport, IngestEngine, IngestOptions, INGEST_CANDIDATE_REF};
pub use journal::{
    IngestCheckpoint, IngestCounters, IngestJournal, IngestRecovery, ResumeContext,
    INGEST_JOURNAL_FILE,
};
pub use nrpm_registry::JournalError;
pub use source::{parse_push_record, FollowChunk, FollowSource, PushRecord, PushSource};
pub use window::{
    HeldRecord, InsertOutcome, Rejection, ResumeAnchor, Window, WindowOptions, WindowSet,
};
