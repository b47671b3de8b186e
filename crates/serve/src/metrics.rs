//! Server metrics: lock-free counters and a latency histogram.
//!
//! Workers and connection threads record into shared atomics; the `stats`
//! command takes a [`MetricsSnapshot`] — a plain serializable struct — so
//! the wire format is decoupled from the atomic representation.

use crate::protocol::ErrorKind;
use nrpm_core::adaptive::ModelerChoice;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (milliseconds) of the latency histogram buckets; the last
/// bucket is unbounded.
pub const LATENCY_BUCKETS_MS: [u64; 8] = [1, 5, 10, 50, 100, 500, 1000, 5000];

const NUM_BUCKETS: usize = LATENCY_BUCKETS_MS.len() + 1;

/// Shared metrics registry. All methods are `&self` and thread-safe.
#[derive(Debug, Default)]
pub struct Metrics {
    requests_model: AtomicU64,
    requests_batch: AtomicU64,
    requests_health: AtomicU64,
    requests_stats: AtomicU64,
    requests_shutdown: AtomicU64,
    responses_ok: AtomicU64,
    errors_parse: AtomicU64,
    errors_usage: AtomicU64,
    errors_recoverable: AtomicU64,
    errors_fatal: AtomicU64,
    errors_timeout: AtomicU64,
    errors_shutting_down: AtomicU64,
    shed: AtomicU64,
    queue_depth: AtomicI64,
    queue_depth_hwm: AtomicU64,
    retries_observed: AtomicU64,
    worker_restarts: AtomicU64,
    requests_adapt: AtomicU64,
    adapt_observations: AtomicU64,
    adapt_cycles: AtomicU64,
    adapt_rejected: AtomicU64,
    adapt_swaps: AtomicU64,
    adapt_rollbacks: AtomicU64,
    adapt_restarts: AtomicU64,
    adapt_feed_swaps: AtomicU64,
    choice_dnn: AtomicU64,
    choice_regression: AtomicU64,
    choice_constant_mean: AtomicU64,
    kernels_modeled: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_inserts: AtomicU64,
    singleflight_shared: AtomicU64,
    batched_forward_calls: AtomicU64,
    batched_rows: AtomicU64,
    quantized_forward_calls: AtomicU64,
    quant_fallbacks: AtomicU64,
    latency_buckets: [AtomicU64; NUM_BUCKETS],
    latency_total_us: AtomicU64,
    latency_count: AtomicU64,
}

/// Which request counter to bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A `model` request.
    Model,
    /// A `batch` request.
    Batch,
    /// A `health` request.
    Health,
    /// A `stats` request.
    Stats,
    /// A `shutdown` request.
    Shutdown,
    /// An adaptation control request (`force_adapt` or `adapt_fault`).
    Adapt,
}

impl Metrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records an incoming request of the given kind.
    pub fn record_request(&self, kind: RequestKind) {
        let counter = match kind {
            RequestKind::Model => &self.requests_model,
            RequestKind::Batch => &self.requests_batch,
            RequestKind::Health => &self.requests_health,
            RequestKind::Stats => &self.requests_stats,
            RequestKind::Shutdown => &self.requests_shutdown,
            RequestKind::Adapt => &self.requests_adapt,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful response.
    pub fn record_ok(&self) {
        self.responses_ok.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an error response of the given kind.
    pub fn record_error(&self, kind: ErrorKind) {
        let counter = match kind {
            ErrorKind::Parse => &self.errors_parse,
            ErrorKind::Usage => &self.errors_usage,
            ErrorKind::Recoverable => &self.errors_recoverable,
            ErrorKind::Fatal => &self.errors_fatal,
            ErrorKind::Timeout => &self.errors_timeout,
            ErrorKind::Overloaded => &self.shed,
            ErrorKind::ShuttingDown => &self.errors_shutting_down,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one admitted job entering the queue, updating the
    /// high-water mark.
    pub fn queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        let depth = depth.max(0) as u64;
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one job leaving the queue (a worker dequeued it).
    pub fn queue_exit(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a request that announced itself as a retry (`attempt >= 1`).
    pub fn record_retry_observed(&self) {
        self.retries_observed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the supervisor respawning a dead worker.
    pub fn record_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one noise observation handed to the adaptation engine.
    pub fn record_adapt_observation(&self) {
        self.adapt_observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the adaptation engine starting a retrain cycle.
    pub fn record_adapt_cycle(&self) {
        self.adapt_cycles.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an adaptation candidate that was rejected before going live
    /// (validation-gated retrain failed, corrupt checkpoint, or the shadow
    /// gate measured a SMAPE regression).
    pub fn record_adapt_rejected(&self) {
        self.adapt_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a committed checkpoint hot-swap.
    pub fn record_adapt_swap(&self) {
        self.adapt_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the post-swap watchdog rolling back to the previous
    /// checkpoint.
    pub fn record_adapt_rollback(&self) {
        self.adapt_rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the supervisor respawning a dead adaptation engine.
    pub fn record_adapt_restart(&self) {
        self.adapt_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a hot-swap to a candidate published by an external ingester
    /// (the `--feed` registry watcher).
    pub fn record_adapt_feed_swap(&self) {
        self.adapt_feed_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records which modeler produced a kernel's answer.
    pub fn record_choice(&self, choice: ModelerChoice) {
        let counter = match choice {
            ModelerChoice::Dnn => &self.choice_dnn,
            ModelerChoice::Regression => &self.choice_regression,
            ModelerChoice::ConstantMean => &self.choice_constant_mean,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.kernels_modeled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `model` request answered straight from the result cache.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `model` request that missed the result cache.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a freshly modeled outcome entering the result cache.
    pub fn record_cache_insert(&self) {
        self.cache_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request that shared a concurrent identical request's
    /// answer through single-flight instead of modeling.
    pub fn record_singleflight_shared(&self) {
        self.singleflight_shared.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one coalesced DNN inference covering `rows` measurement
    /// lines. `forward_passes` is `0` when every line was degenerate;
    /// `quantized` says whether the pass ran on the int8 network.
    pub fn record_batched_inference(&self, forward_passes: usize, rows: usize, quantized: bool) {
        self.batched_forward_calls
            .fetch_add(forward_passes as u64, Ordering::Relaxed);
        self.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
        if quantized {
            self.quantized_forward_calls
                .fetch_add(forward_passes as u64, Ordering::Relaxed);
        }
    }

    /// Records a worker whose modeler requested quantization but fell back
    /// to the f64 reference because the accuracy gate rejected the int8
    /// snapshot.
    pub fn record_quant_fallback(&self) {
        self.quant_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the end-to-end latency of one modeling request.
    pub fn record_latency(&self, elapsed: Duration) {
        let ms = elapsed.as_millis() as u64;
        let bucket = LATENCY_BUCKETS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(NUM_BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_total_us
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for the `stats` response.
    /// Individual counters are read relaxed; cross-counter relations (e.g.
    /// `responses_ok + errors == requests`) hold once the server is idle.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests_model: get(&self.requests_model),
            requests_batch: get(&self.requests_batch),
            requests_health: get(&self.requests_health),
            requests_stats: get(&self.requests_stats),
            requests_shutdown: get(&self.requests_shutdown),
            responses_ok: get(&self.responses_ok),
            errors_parse: get(&self.errors_parse),
            errors_usage: get(&self.errors_usage),
            errors_recoverable: get(&self.errors_recoverable),
            errors_fatal: get(&self.errors_fatal),
            errors_timeout: get(&self.errors_timeout),
            errors_shutting_down: get(&self.errors_shutting_down),
            shed: get(&self.shed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed).max(0) as u64,
            queue_depth_hwm: get(&self.queue_depth_hwm),
            retries_observed: get(&self.retries_observed),
            worker_restarts: get(&self.worker_restarts),
            requests_adapt: get(&self.requests_adapt),
            adapt_observations: get(&self.adapt_observations),
            adapt_cycles: get(&self.adapt_cycles),
            adapt_rejected: get(&self.adapt_rejected),
            adapt_swaps: get(&self.adapt_swaps),
            adapt_rollbacks: get(&self.adapt_rollbacks),
            adapt_restarts: get(&self.adapt_restarts),
            adapt_feed_swaps: get(&self.adapt_feed_swaps),
            choice_dnn: get(&self.choice_dnn),
            choice_regression: get(&self.choice_regression),
            choice_constant_mean: get(&self.choice_constant_mean),
            kernels_modeled: get(&self.kernels_modeled),
            cache_hits: get(&self.cache_hits),
            cache_misses: get(&self.cache_misses),
            cache_inserts: get(&self.cache_inserts),
            singleflight_shared: get(&self.singleflight_shared),
            batched_forward_calls: get(&self.batched_forward_calls),
            batched_rows: get(&self.batched_rows),
            quantized_forward_calls: get(&self.quantized_forward_calls),
            quant_fallbacks: get(&self.quant_fallbacks),
            latency_bucket_bounds_ms: LATENCY_BUCKETS_MS.to_vec(),
            latency_buckets: self.latency_buckets.iter().map(get).collect(),
            latency_total_us: get(&self.latency_total_us),
            latency_count: get(&self.latency_count),
        }
    }
}

/// A point-in-time copy of every counter, in wire form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `model` requests received.
    pub requests_model: u64,
    /// `batch` requests received.
    pub requests_batch: u64,
    /// `health` requests received.
    pub requests_health: u64,
    /// `stats` requests received.
    pub requests_stats: u64,
    /// `shutdown` requests received.
    pub requests_shutdown: u64,
    /// Successful responses sent.
    pub responses_ok: u64,
    /// Unparseable request lines.
    pub errors_parse: u64,
    /// Well-formed but unusable requests.
    pub errors_usage: u64,
    /// Recoverable modeling failures.
    pub errors_recoverable: u64,
    /// Fatal modeling failures.
    pub errors_fatal: u64,
    /// Requests that missed their deadline.
    pub errors_timeout: u64,
    /// Requests refused during drain.
    pub errors_shutting_down: u64,
    /// Requests shed with an `overloaded` response (full admission queue
    /// or full connection table).
    pub shed: u64,
    /// Jobs currently waiting in or entering the admission queue.
    pub queue_depth: u64,
    /// High-water mark of [`MetricsSnapshot::queue_depth`].
    pub queue_depth_hwm: u64,
    /// Modeling requests that carried a retry ordinal (`attempt >= 1`).
    pub retries_observed: u64,
    /// Dead workers respawned by the supervisor.
    pub worker_restarts: u64,
    /// Adaptation control requests received (`force_adapt`/`adapt_fault`).
    pub requests_adapt: u64,
    /// Noise observations handed to the adaptation engine.
    pub adapt_observations: u64,
    /// Adaptation retrain cycles started.
    pub adapt_cycles: u64,
    /// Adaptation candidates rejected before going live.
    pub adapt_rejected: u64,
    /// Checkpoint hot-swaps committed.
    pub adapt_swaps: u64,
    /// Post-swap watchdog rollbacks to the previous checkpoint.
    pub adapt_rollbacks: u64,
    /// Dead adaptation engines respawned by the supervisor.
    pub adapt_restarts: u64,
    /// Hot-swaps to candidates published by an external ingester (`--feed`).
    pub adapt_feed_swaps: u64,
    /// Kernels answered by the DNN modeler.
    pub choice_dnn: u64,
    /// Kernels answered by the regression modeler.
    pub choice_regression: u64,
    /// Kernels answered by the constant-mean fallback.
    pub choice_constant_mean: u64,
    /// Kernels modeled successfully in total.
    pub kernels_modeled: u64,
    /// `model` requests answered from the result cache (no modeling).
    pub cache_hits: u64,
    /// `model` requests that missed the result cache.
    pub cache_misses: u64,
    /// Freshly modeled outcomes inserted into the result cache.
    pub cache_inserts: u64,
    /// Requests that shared a concurrent identical request's answer via
    /// single-flight instead of modeling.
    pub singleflight_shared: u64,
    /// Coalesced DNN forward passes issued by `batch` requests.
    pub batched_forward_calls: u64,
    /// Measurement lines classified through those coalesced passes.
    pub batched_rows: u64,
    /// Coalesced forward passes that ran on the int8-quantized network
    /// (subset of [`Self::batched_forward_calls`]; `model` requests use
    /// the same path internally but report here only via `batch`).
    pub quantized_forward_calls: u64,
    /// Workers that requested quantization but fell back to the f64
    /// reference because the accuracy gate rejected the int8 snapshot.
    pub quant_fallbacks: u64,
    /// Upper bounds of the latency buckets (ms); last bucket unbounded.
    pub latency_bucket_bounds_ms: Vec<u64>,
    /// Latency histogram counts (one per bound, plus the overflow bucket).
    pub latency_buckets: Vec<u64>,
    /// Sum of modeling-request latencies (microseconds).
    pub latency_total_us: u64,
    /// Number of latency observations.
    pub latency_count: u64,
}

impl MetricsSnapshot {
    /// Total requests of all kinds.
    pub fn requests_total(&self) -> u64 {
        self.requests_model
            + self.requests_batch
            + self.requests_health
            + self.requests_stats
            + self.requests_shutdown
            + self.requests_adapt
    }

    /// Total error responses of all classes.
    pub fn errors_total(&self) -> u64 {
        self.errors_parse
            + self.errors_usage
            + self.errors_recoverable
            + self.errors_fatal
            + self.errors_timeout
            + self.errors_shutting_down
            + self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.record_request(RequestKind::Model);
        m.record_request(RequestKind::Model);
        m.record_request(RequestKind::Batch);
        m.record_ok();
        m.record_error(ErrorKind::Parse);
        m.record_error(ErrorKind::Timeout);
        m.record_choice(ModelerChoice::Regression);
        m.record_choice(ModelerChoice::Dnn);
        m.record_batched_inference(1, 8, false);

        let s = m.snapshot();
        assert_eq!(s.requests_model, 2);
        assert_eq!(s.requests_batch, 1);
        assert_eq!(s.requests_total(), 3);
        assert_eq!(s.responses_ok, 1);
        assert_eq!(s.errors_parse, 1);
        assert_eq!(s.errors_timeout, 1);
        assert_eq!(s.errors_total(), 2);
        assert_eq!(s.choice_regression, 1);
        assert_eq!(s.choice_dnn, 1);
        assert_eq!(s.kernels_modeled, 2);
        assert_eq!(s.batched_forward_calls, 1);
        assert_eq!(s.batched_rows, 8);
    }

    #[test]
    fn overload_counters_accumulate() {
        let m = Metrics::new();
        m.queue_enter();
        m.queue_enter();
        m.queue_exit();
        m.record_error(ErrorKind::Overloaded);
        m.record_retry_observed();
        m.record_worker_restart();
        m.record_worker_restart();

        let s = m.snapshot();
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_depth_hwm, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.retries_observed, 1);
        assert_eq!(s.worker_restarts, 2);
        assert_eq!(s.errors_total(), 1);
        assert_eq!(s.adapt_swaps, 0);

        // The gauge clamps at zero even if exits race ahead of enters.
        m.queue_exit();
        m.queue_exit();
        assert_eq!(m.snapshot().queue_depth, 0);
    }

    #[test]
    fn cache_counters_accumulate() {
        let m = Metrics::new();
        m.record_cache_miss();
        m.record_cache_insert();
        m.record_cache_hit();
        m.record_cache_hit();
        m.record_singleflight_shared();
        let s = m.snapshot();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_inserts, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.singleflight_shared, 1);
    }

    #[test]
    fn adaptation_counters_accumulate() {
        let m = Metrics::new();
        m.record_request(RequestKind::Adapt);
        m.record_adapt_observation();
        m.record_adapt_observation();
        m.record_adapt_cycle();
        m.record_adapt_rejected();
        m.record_adapt_swap();
        m.record_adapt_rollback();
        m.record_adapt_restart();
        let s = m.snapshot();
        assert_eq!(s.requests_adapt, 1);
        assert_eq!(s.requests_total(), 1, "adapt requests count as requests");
        assert_eq!(s.adapt_observations, 2);
        assert_eq!(s.adapt_cycles, 1);
        assert_eq!(s.adapt_rejected, 1);
        assert_eq!(s.adapt_swaps, 1);
        assert_eq!(s.adapt_rollbacks, 1);
        assert_eq!(s.adapt_restarts, 1);
    }

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::new();
        m.record_latency(Duration::from_micros(800)); // <= 1ms
        m.record_latency(Duration::from_millis(7)); // <= 10ms
        m.record_latency(Duration::from_secs(60)); // overflow
        let s = m.snapshot();
        assert_eq!(s.latency_buckets[0], 1);
        assert_eq!(s.latency_buckets[2], 1);
        assert_eq!(s.latency_buckets[LATENCY_BUCKETS_MS.len()], 1);
        assert_eq!(s.latency_count, 3);
        assert!(s.latency_total_us >= 60_000_000);
    }

    #[test]
    fn snapshot_survives_the_wire() {
        let m = Metrics::new();
        m.record_request(RequestKind::Stats);
        m.record_latency(Duration::from_millis(3));
        let s = m.snapshot();
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(s, back);
    }
}
