//! The ingestion engine: source bytes → records → sanitization → windows →
//! windowed re-modeling → versioned model updates in the registry.
//!
//! # Pipeline
//!
//! 1. **Frame** — raw chunks from a [`FollowSource`](crate::FollowSource)
//!    pass through an [`LineFramer`](nrpm_extrap::LineFramer); partial
//!    trailing lines are held, never parsed
//!    ([`TailPolicy::HoldForMore`](nrpm_extrap::TailPolicy) semantics).
//! 2. **Parse** — `KERNEL`/`TENANT`/`TIME` ingest directives update the
//!    parser context; `PARAMS`/`POINT` lines go through the shared
//!    [`parse_directive`](nrpm_extrap::parse_directive).
//! 3. **Sanitize** — each record runs through [`nrpm_core::sanitize`]
//!    individually: non-finite and non-positive repetitions are dropped,
//!    outliers winsorized, and a record whose every value is unusable is
//!    dropped whole (all counted).
//! 4. **Window** — the record lands in its `(kernel, tenant)` sliding
//!    window ([`WindowSet`]), subject to the watermark, capacity, and
//!    global-budget policies.
//! 5. **Re-model** — a due window's contents become a
//!    [`MeasurementSet`](nrpm_extrap::MeasurementSet) handed to the
//!    [`AdaptiveModeler`] with domain adaptation on: the paper's adaptation
//!    step retrains the network against the window's measurement positions
//!    and noise, and the adapted network is **published**
//!    content-addressed into the [`CheckpointRegistry`] under the
//!    [`INGEST_CANDIDATE_REF`] ref, where a serving process's feed watcher
//!    (`nrpm serve --feed`) picks it up for a journaled two-phase swap.
//!
//! # Crash-safe resume
//!
//! After every processed batch the engine journals one
//! [`IngestCheckpoint`]: the byte offset of the oldest record still held in
//! any window, the parser context in force there, and the cumulative
//! counters (see [`crate::journal`] for the exactly-once argument). On
//! restart the engine replays from that offset in **rebuild** mode —
//! refilling windows without bumping counters or firing re-modeling — and
//! switches to normal processing at the first line past the journaled
//! `applied_line`.

use crate::journal::{
    IngestCheckpoint, IngestCounters, IngestJournal, IngestRecovery, ResumeContext,
};
use crate::source::{FollowChunk, FollowSource, PushRecord, PushSource};
use crate::window::{HeldRecord, WindowOptions, WindowSet};
use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOptions, ModelerChoice};
use nrpm_core::sanitize::sanitize;
use nrpm_extrap::{parse_directive, Directive, LineFramer, MeasurementSet};
use nrpm_nn::Network;
use nrpm_registry::{CheckpointRegistry, JournalError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Registry ref the ingester publishes model candidates under: the one the
/// serving process's feed watcher follows.
pub use nrpm_serve::adapt::INGEST_CANDIDATE_REF;

/// Most recent fire reports kept for inspection.
const FIRE_LOG_CAP: usize = 32;

/// Configuration of the ingestion engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestOptions {
    /// Window assembly policies.
    pub windows: WindowOptions,
    /// Directory of the ingest journal; `None` disables crash-safe resume.
    pub state_dir: Option<PathBuf>,
    /// Directory of the checkpoint registry model updates are published
    /// into; `None` keeps re-modeling memory-only.
    pub registry_dir: Option<PathBuf>,
    /// Adaptive modeler configuration for windowed re-modeling. Its
    /// `sanitize` options also drive record-level sanitization (step 3 of
    /// the pipeline); the modeler's own set-level sanitization still
    /// applies at fire time.
    pub adaptive: AdaptiveOptions,
}

/// Errors opening the engine.
#[derive(Debug)]
pub enum EngineError {
    /// The ingest journal could not be opened.
    Journal(JournalError),
    /// The checkpoint registry could not be opened.
    Registry(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Journal(e) => write!(f, "ingest journal: {e}"),
            EngineError::Registry(e) => write!(f, "checkpoint registry: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One windowed re-modeling run.
#[derive(Debug, Clone)]
pub struct FireReport {
    /// The `(kernel, tenant)` key that fired.
    pub kernel: String,
    /// Tenant half of the key.
    pub tenant: String,
    /// Distinct points in the fired window.
    pub points: usize,
    /// Which modeler won, when modeling succeeded.
    pub choice: Option<ModelerChoice>,
    /// Cross-validated SMAPE of the selected model.
    pub cv_smape: Option<f64>,
    /// Estimated mean noise of the window.
    pub noise_mean: Option<f64>,
    /// Hash of the published candidate, when one was published.
    pub published: Option<u64>,
}

/// Current parser context (the ingest directives in force).
#[derive(Debug, Clone, Default)]
struct ParseContext {
    kernel: Option<String>,
    tenant: Option<String>,
    arity: Option<usize>,
    event_time: Option<f64>,
}

/// The streaming ingestion engine.
pub struct IngestEngine {
    opts: IngestOptions,
    windows: WindowSet,
    journal: Option<IngestJournal>,
    registry: Option<CheckpointRegistry>,
    base: Option<Network>,
    framer: LineFramer,
    /// Start offset of the next line (end offset of the last consumed one).
    prev_end: u64,
    /// Number of the last consumed line (1-based; 0 = nothing consumed).
    line: u64,
    /// Lines up to here replay in rebuild mode after a resume.
    rebuild_until: u64,
    context: ParseContext,
    counters: IngestCounters,
    last_published: Option<u64>,
    fires: Vec<FireReport>,
}

impl IngestEngine {
    /// Opens the engine: journal recovery, registry, and — when a
    /// checkpoint survived — the resume position. The caller seeks its
    /// [`FollowSource`] to [`IngestEngine::resume_offset`] before polling.
    pub fn open(
        opts: IngestOptions,
        base: Option<Network>,
    ) -> Result<(IngestEngine, IngestRecovery), EngineError> {
        let (journal, recovery) = match &opts.state_dir {
            Some(dir) => {
                let (journal, recovery) = IngestJournal::open(dir).map_err(EngineError::Journal)?;
                (Some(journal), recovery)
            }
            None => (None, IngestRecovery::default()),
        };
        let registry = match &opts.registry_dir {
            Some(dir) => Some(
                CheckpointRegistry::open(dir).map_err(|e| EngineError::Registry(e.to_string()))?,
            ),
            None => None,
        };
        let mut engine = IngestEngine {
            windows: WindowSet::new(opts.windows.clone()),
            journal,
            registry,
            base,
            framer: LineFramer::new(),
            prev_end: 0,
            line: 0,
            rebuild_until: 0,
            context: ParseContext::default(),
            counters: IngestCounters::default(),
            last_published: None,
            fires: Vec::new(),
            opts,
        };
        if let Some(cp) = recovery.resume.clone() {
            engine.counters = cp.counters;
            engine.framer = LineFramer::at_offset(cp.resume_offset);
            engine.prev_end = cp.resume_offset;
            engine.line = cp.resume_line.saturating_sub(1);
            engine.rebuild_until = cp.applied_line;
            engine.context = ParseContext {
                kernel: cp.context.kernel,
                tenant: cp.context.tenant,
                arity: cp.context.arity,
                event_time: cp.context.event_time,
            };
            engine.windows.set_watermark(cp.context.watermark);
        }
        Ok((engine, recovery))
    }

    /// The byte offset a [`FollowSource`] should resume reading from.
    pub fn resume_offset(&self) -> u64 {
        self.framer.consumed()
    }

    /// Cumulative counters.
    pub fn counters(&self) -> &IngestCounters {
        &self.counters
    }

    /// The window state (for inspection and tests).
    pub fn windows(&self) -> &WindowSet {
        &self.windows
    }

    /// Number of the last consumed line.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// The most recent fire reports (bounded ring, oldest first).
    pub fn fires(&self) -> &[FireReport] {
        &self.fires
    }

    /// Hash of the last published candidate, if any.
    pub fn last_published(&self) -> Option<u64> {
        self.last_published
    }

    /// Feeds one polled chunk through the pipeline. A rotated chunk first
    /// re-anchors the stream at offset zero: held records lose their replay
    /// offsets (the old file is gone), so resume degrades gracefully to the
    /// new file's consumed position.
    pub fn process_chunk(&mut self, chunk: &FollowChunk) {
        if chunk.rotated {
            self.windows.clear_offsets();
            self.framer = LineFramer::at_offset(chunk.base_offset);
            self.prev_end = chunk.base_offset;
        }
        if chunk.data.is_empty() {
            return;
        }
        for (raw, end) in self.framer.push(&chunk.data) {
            let start = self.prev_end;
            self.prev_end = end;
            self.line += 1;
            self.process_line(&raw, start, self.line);
        }
    }

    /// Flushes a held partial tail as one final record — the
    /// [`TailPolicy::CompleteOnEof`](nrpm_extrap::TailPolicy) ending, for
    /// one-shot (`--once`) ingestion where the stream is known finished.
    pub fn flush_tail(&mut self) {
        if let Some((raw, end)) = self.framer.finish() {
            let start = self.prev_end;
            self.prev_end = end;
            self.line += 1;
            let line = self.line;
            self.process_line(&raw, start, line);
        }
    }

    /// Feeds one pushed record (TCP source) through sanitize → window →
    /// fire. Push records carry no replayable offset and are always fresh.
    pub fn process_push(&mut self, record: PushRecord) {
        let held = HeldRecord {
            point: record.point,
            values: record.values,
            event_time: record.t,
            watermark_at_accept: None,
            offset: None,
            line: self.line,
        };
        let tenant = record.tenant.unwrap_or_else(|| "default".to_string());
        self.accept(&record.kernel, &tenant, held, true);
    }

    fn process_line(&mut self, raw: &str, start_offset: u64, line_no: u64) {
        let fresh = line_no > self.rebuild_until;
        let trimmed = raw.trim();
        let mut tokens = trimmed.split_whitespace();
        match tokens.next() {
            Some("KERNEL") => {
                let Some(kernel) = tokens.next() else {
                    if fresh {
                        self.counters.parse_errors += 1;
                    }
                    return;
                };
                self.context.kernel = Some(kernel.to_string());
                self.context.tenant = match (tokens.next(), tokens.next()) {
                    (Some("TENANT"), Some(tenant)) => Some(tenant.to_string()),
                    (None, _) => None,
                    _ => {
                        if fresh {
                            self.counters.parse_errors += 1;
                        }
                        None
                    }
                };
            }
            Some("TIME") => match tokens.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t.is_finite() => self.context.event_time = Some(t),
                _ => {
                    if fresh {
                        self.counters.parse_errors += 1;
                    }
                }
            },
            _ => match parse_directive(raw, line_no as usize) {
                Ok(None) => {}
                Ok(Some(Directive::Params { arity, .. })) => {
                    self.context.arity = Some(arity);
                }
                Ok(Some(Directive::Point { point, values })) => {
                    self.handle_point(point, values, start_offset, line_no, fresh);
                }
                Err(_) => {
                    if fresh {
                        self.counters.parse_errors += 1;
                    }
                }
            },
        }
    }

    fn handle_point(
        &mut self,
        point: Vec<f64>,
        values: Vec<f64>,
        start_offset: u64,
        line_no: u64,
        fresh: bool,
    ) {
        match self.context.arity {
            Some(arity) if arity == point.len() => {}
            _ => {
                // POINT before PARAMS, or a coordinate-count mismatch.
                if fresh {
                    self.counters.parse_errors += 1;
                }
                return;
            }
        }
        let kernel = self
            .context
            .kernel
            .clone()
            .unwrap_or_else(|| "default".to_string());
        let tenant = self
            .context
            .tenant
            .clone()
            .unwrap_or_else(|| "default".to_string());
        let held = HeldRecord {
            point,
            values,
            event_time: self.context.event_time,
            watermark_at_accept: None,
            offset: Some(start_offset),
            line: line_no,
        };
        self.accept(&kernel, &tenant, held, fresh);
    }

    /// The shared tail of both sources: record sanitization, window
    /// insertion, counter bookkeeping, and fire evaluation.
    fn accept(&mut self, kernel: &str, tenant: &str, mut record: HeldRecord, fresh: bool) {
        // Record-level pass through the core sanitizer: a one-point set
        // exercises the same drop/winsorize machinery the modelers use.
        let mut probe = MeasurementSet::new(record.point.len());
        probe.add_repetitions(&record.point, &record.values);
        let (clean, quality) = sanitize(&probe, &self.opts.adaptive.sanitize);
        if fresh {
            self.counters.values_dropped +=
                (quality.dropped_non_finite + quality.dropped_non_positive) as u64;
            self.counters.values_clamped += quality.clamped as u64;
        }
        let Some(cleaned) = clean.find(&record.point).map(|m| m.values.clone()) else {
            if fresh {
                self.counters.records_dropped += 1;
            }
            return;
        };
        record.values = cleaned;

        let outcome = self.windows.insert(kernel, tenant, record);
        if fresh {
            match outcome.rejected {
                Some(_) => self.counters.late_dropped += 1,
                None => self.counters.records += 1,
            }
            self.counters.evicted += outcome.evicted as u64;
            self.counters.shed += outcome.shed as u64;
            if outcome.rejected.is_none() {
                self.fire_due();
            }
        }
    }

    /// Fires every due window: re-model and publish.
    fn fire_due(&mut self) {
        for key in self.windows.due() {
            let Some(set) = self.windows.fire(&key) else {
                continue;
            };
            self.remodel(key, set);
        }
    }

    fn remodel(&mut self, key: (String, String), set: MeasurementSet) {
        self.counters.windows_fired += 1;
        let mut report = FireReport {
            kernel: key.0,
            tenant: key.1,
            points: set.len(),
            choice: None,
            cv_smape: None,
            noise_mean: None,
            published: None,
        };
        if let Some(base) = &self.base {
            let mut modeler =
                AdaptiveModeler::from_network(self.opts.adaptive.clone(), base.clone());
            match modeler.model(&set) {
                Ok(outcome) => {
                    report.choice = Some(outcome.choice);
                    report.cv_smape = Some(outcome.result.cv_smape);
                    report.noise_mean = Some(outcome.noise.mean());
                    let adapted = modeler.dnn().network().clone();
                    if let Some(registry) = &self.registry {
                        if let Ok(hash) = registry.put(&adapted) {
                            if self.last_published != Some(hash)
                                && registry.set_ref(INGEST_CANDIDATE_REF, hash).is_ok()
                            {
                                self.last_published = Some(hash);
                                self.counters.models_published += 1;
                                report.published = Some(hash);
                            }
                        }
                    }
                }
                Err(_) => self.counters.remodel_failures += 1,
            }
        }
        if self.fires.len() >= FIRE_LOG_CAP {
            self.fires.remove(0);
        }
        self.fires.push(report);
    }

    /// Journals one checkpoint: the resume anchor derived from held
    /// records, or the consumed position when the windows hold nothing
    /// replayable. A no-op without a state directory.
    pub fn checkpoint(&mut self) -> Result<(), JournalError> {
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        let cp = match self.windows.resume_anchor() {
            Some(anchor) => IngestCheckpoint {
                resume_offset: anchor.offset,
                resume_line: anchor.line,
                applied_line: self.line,
                context: ResumeContext {
                    kernel: Some(anchor.kernel),
                    tenant: Some(anchor.tenant),
                    arity: Some(anchor.arity),
                    event_time: anchor.event_time,
                    watermark: anchor.watermark,
                },
                counters: self.counters,
            },
            None => IngestCheckpoint {
                resume_offset: self.framer.consumed(),
                resume_line: self.line + 1,
                applied_line: self.line,
                context: ResumeContext {
                    kernel: self.context.kernel.clone(),
                    tenant: self.context.tenant.clone(),
                    arity: self.context.arity,
                    event_time: self.context.event_time,
                    watermark: self.windows.watermark(),
                },
                counters: self.counters,
            },
        };
        journal.checkpoint(&cp)
    }

    /// One poll of the follow source: read → process → checkpoint (only
    /// when something was consumed). Returns the number of new bytes.
    pub fn poll_source(&mut self, source: &mut FollowSource) -> std::io::Result<usize> {
        let chunk = source.poll()?;
        let bytes = chunk.data.len();
        if bytes > 0 || chunk.rotated {
            self.process_chunk(&chunk);
            self.checkpoint()
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        Ok(bytes)
    }

    /// Drains one push source: every queued record, then a checkpoint.
    pub fn poll_push(&mut self, push: &PushSource) -> Result<usize, JournalError> {
        let records = push.drain();
        let n = records.len();
        for record in records {
            self.process_push(record);
        }
        if n > 0 {
            self.checkpoint()?;
        }
        Ok(n)
    }

    /// The follow loop: poll the file source (and optionally a push
    /// source) every `interval` until `stop` is set. I/O errors are
    /// counted, not fatal — a tailing ingester outlives transient
    /// filesystem hiccups.
    pub fn run(
        &mut self,
        source: &mut FollowSource,
        push: Option<&PushSource>,
        interval: Duration,
        stop: &AtomicBool,
    ) {
        source.seek_to(self.resume_offset());
        while !stop.load(Ordering::SeqCst) {
            let mut news = self.poll_source(source).unwrap_or(0);
            if let Some(push) = push {
                news += self.poll_push(push).unwrap_or(0);
            }
            if news == 0 {
                std::thread::sleep(interval);
            }
        }
        let _ = self.checkpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(data: &str, base: u64) -> FollowChunk {
        FollowChunk {
            data: data.to_string(),
            base_offset: base,
            rotated: false,
        }
    }

    fn engine() -> IngestEngine {
        let opts = IngestOptions {
            windows: WindowOptions {
                min_points: 1000, // never fire in unit tests
                ..WindowOptions::default()
            },
            ..IngestOptions::default()
        };
        IngestEngine::open(opts, None).unwrap().0
    }

    #[test]
    fn directives_route_points_to_their_windows() {
        let mut e = engine();
        e.process_chunk(&chunk(
            "KERNEL mm TENANT acme\nPARAMS 1\nPOINT 4 DATA 1.0 1.1\nKERNEL fft\nPOINT 8 DATA 2.0\n",
            0,
        ));
        assert_eq!(e.counters().records, 2);
        let keys: Vec<_> = e.windows().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            keys,
            vec![
                ("fft".to_string(), "default".to_string()),
                ("mm".to_string(), "acme".to_string())
            ]
        );
    }

    #[test]
    fn partial_tails_are_held_across_chunks() {
        let mut e = engine();
        e.process_chunk(&chunk("PARAMS 1\nPOINT 4 DA", 0));
        assert_eq!(e.counters().records, 0, "partial line not parsed");
        e.process_chunk(&chunk("TA 1.0\nPOINT 8 DATA 2.0\n", 19));
        assert_eq!(e.counters().records, 2);
    }

    #[test]
    fn flush_tail_completes_the_last_line_on_eof() {
        let mut e = engine();
        e.process_chunk(&chunk("PARAMS 1\nPOINT 4 DATA 1.0", 0));
        assert_eq!(e.counters().records, 0);
        e.flush_tail();
        assert_eq!(e.counters().records, 1);
    }

    #[test]
    fn bad_lines_and_bad_values_are_counted_not_fatal() {
        let mut e = engine();
        e.process_chunk(&chunk(
            "PARAMS 1\nPOINT 4 DATA 1.0 nan -3.0\nGARBAGE here\nPOINT 9 9 DATA 1.0\nPOINT 5 DATA -1.0\nTIME soon\nKERNEL\n",
            0,
        ));
        // Line 2: nan and -3.0 dropped, 1.0 survives → record accepted.
        // Line 5's -1.0 also counts, making three dropped values in all.
        assert_eq!(e.counters().records, 1);
        assert_eq!(e.counters().values_dropped, 3);
        // GARBAGE + arity mismatch + bad TIME + bare KERNEL = 4 parse errors.
        assert_eq!(e.counters().parse_errors, 4);
        // Line 5: the only value is non-positive → whole record dropped.
        assert_eq!(e.counters().records_dropped, 1);
    }

    #[test]
    fn time_directive_feeds_the_watermark() {
        let mut e = engine();
        e.process_chunk(&chunk(
            "PARAMS 1\nTIME 100\nPOINT 4 DATA 1.0\nTIME 50\nPOINT 8 DATA 2.0\n",
            0,
        ));
        // Lateness allowance is 0: the TIME 50 point is late vs watermark 100.
        assert_eq!(e.counters().records, 1);
        assert_eq!(e.counters().late_dropped, 1);
        assert_eq!(e.windows().watermark(), Some(100.0));
    }

    #[test]
    fn push_records_join_the_same_windows() {
        let mut e = engine();
        e.process_push(PushRecord {
            kernel: "mm".into(),
            tenant: None,
            point: vec![4.0],
            values: vec![1.0, f64::NAN],
            t: None,
        });
        assert_eq!(e.counters().records, 1);
        assert_eq!(e.counters().values_dropped, 1);
        let anchor = e.windows().resume_anchor();
        assert!(anchor.is_none(), "push records are not replayable");
    }

    /// Every record pushed over loopback is acked, and every ack is a
    /// record the engine counted through `poll_push`.
    #[test]
    fn pushed_records_are_acked_and_counted_through_poll_push() {
        use std::io::{BufRead, BufReader, Write};
        const N: usize = 300;
        let mut e = engine();
        let push = PushSource::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(push.local_addr()).unwrap();
        let client = std::thread::spawn(move || {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut acks = 0;
            for i in 0..N {
                let x = [4.0, 8.0, 16.0, 32.0, 64.0][i % 5];
                let line = format!(
                    "{{\"kernel\":\"push-{}\",\"point\":[{x}],\"values\":[{}]}}\n",
                    i % 8,
                    2000 + i
                );
                writer.write_all(line.as_bytes()).unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                acks += usize::from(reply.trim() == r#"{"status":"ok"}"#);
            }
            acks
        });
        let mut drained = 0;
        while drained < N {
            let got = e.poll_push(&push).unwrap();
            if got == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            drained += got;
        }
        assert_eq!(client.join().unwrap(), N, "every push is acked ok");
        assert_eq!(e.counters().records, N as u64);
        push.shutdown();
    }
}
