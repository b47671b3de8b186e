//! Server metrics: the [`Counter`] table, a queue gauge and a latency
//! histogram. Each counter is declared once, with its doc comment and its
//! wire key; the `stats` body ([`Metrics::to_value`]) walks that table.

use crate::counters::{CounterTable, Counters};
use crate::protocol::ErrorKind;
use nrpm_core::adaptive::ModelerChoice;
use serde::Value;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (milliseconds) of the latency histogram buckets; the last
/// bucket is unbounded.
pub const LATENCY_BUCKETS_MS: [u64; 8] = [1, 5, 10, 50, 100, 500, 1000, 5000];

const NUM_BUCKETS: usize = LATENCY_BUCKETS_MS.len() + 1;

crate::counter_table! {
    /// The server's counters, in `stats` wire order.
    pub enum Counter {
        /// `model` requests received.
        RequestsModel => "requests_model",
        /// `batch` requests received.
        RequestsBatch => "requests_batch",
        /// `health` requests received.
        RequestsHealth => "requests_health",
        /// `stats` requests received.
        RequestsStats => "requests_stats",
        /// `shutdown` requests received.
        RequestsShutdown => "requests_shutdown",
        /// Successful responses sent.
        ResponsesOk => "responses_ok",
        /// Unparseable request lines.
        ErrorsParse => "errors_parse",
        /// Well-formed but unusable requests.
        ErrorsUsage => "errors_usage",
        /// Recoverable modeling failures.
        ErrorsRecoverable => "errors_recoverable",
        /// Fatal modeling failures.
        ErrorsFatal => "errors_fatal",
        /// Requests that missed their deadline.
        ErrorsTimeout => "errors_timeout",
        /// Requests refused during drain.
        ErrorsShuttingDown => "errors_shutting_down",
        /// Requests shed with an `overloaded` response (full admission
        /// queue or full connection table); `stats` follows it with the
        /// `queue_depth` gauge.
        Shed => "shed",
        /// High-water mark of the `queue_depth` gauge.
        QueueDepthHwm => "queue_depth_hwm",
        /// Modeling requests that carried a retry ordinal (`attempt >= 1`).
        RetriesObserved => "retries_observed",
        /// Dead workers respawned by the supervisor.
        WorkerRestarts => "worker_restarts",
        /// Adaptation control requests (`force_adapt`/`adapt_fault`).
        RequestsAdapt => "requests_adapt",
        /// Noise observations handed to the adaptation engine.
        AdaptObservations => "adapt_observations",
        /// Adaptation retrain cycles started.
        AdaptCycles => "adapt_cycles",
        /// Adaptation candidates rejected before going live (failed
        /// retrain gate, corrupt checkpoint or shadow SMAPE regression).
        AdaptRejected => "adapt_rejected",
        /// Checkpoint hot-swaps committed.
        AdaptSwaps => "adapt_swaps",
        /// Post-swap watchdog rollbacks to the previous checkpoint.
        AdaptRollbacks => "adapt_rollbacks",
        /// Dead adaptation engines respawned by the supervisor.
        AdaptRestarts => "adapt_restarts",
        /// Hot-swaps to candidates published by an external ingester
        /// (the `--feed` registry watcher).
        AdaptFeedSwaps => "adapt_feed_swaps",
        /// Kernels answered by the DNN modeler.
        ChoiceDnn => "choice_dnn",
        /// Kernels answered by the regression modeler.
        ChoiceRegression => "choice_regression",
        /// Kernels answered by the constant-mean fallback.
        ChoiceConstantMean => "choice_constant_mean",
        /// Kernels modeled successfully in total.
        KernelsModeled => "kernels_modeled",
        /// `model` requests answered from the result cache (no modeling).
        CacheHits => "cache_hits",
        /// `model` requests that missed the result cache.
        CacheMisses => "cache_misses",
        /// Freshly modeled outcomes inserted into the result cache.
        CacheInserts => "cache_inserts",
        /// Requests that shared a concurrent identical request's answer
        /// via single-flight instead of modeling.
        SingleflightShared => "singleflight_shared",
        /// Coalesced DNN forward passes issued by `batch` requests.
        BatchedForwardCalls => "batched_forward_calls",
        /// Measurement lines classified through those coalesced passes.
        BatchedRows => "batched_rows",
        /// Coalesced forward passes that ran on the int8-quantized network
        /// (a subset of `batched_forward_calls`; `model` requests use the
        /// same path internally but report here only via `batch`).
        QuantizedForwardCalls => "quantized_forward_calls",
        /// Workers that requested quantization but serve the f64 reference
        /// because the accuracy gate rejected the int8 snapshot.
        QuantFallbacks => "quant_fallbacks",
    }
}

/// Shared metrics registry. All methods are `&self` and thread-safe.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Counters<Counter>,
    /// Jobs waiting in or entering the admission queue.
    queue_depth: AtomicI64,
    latency_buckets: [AtomicU64; NUM_BUCKETS],
    latency_total_us: AtomicU64,
    latency_count: AtomicU64,
}

impl Metrics {
    /// Adds one to `counter`.
    pub fn bump(&self, counter: Counter) {
        self.counters.bump(counter);
    }

    /// Records an error response of the given kind.
    pub fn record_error(&self, kind: ErrorKind) {
        self.bump(match kind {
            ErrorKind::Parse => Counter::ErrorsParse,
            ErrorKind::Usage => Counter::ErrorsUsage,
            ErrorKind::Recoverable => Counter::ErrorsRecoverable,
            ErrorKind::Fatal => Counter::ErrorsFatal,
            ErrorKind::Timeout => Counter::ErrorsTimeout,
            ErrorKind::Overloaded => Counter::Shed,
            ErrorKind::ShuttingDown => Counter::ErrorsShuttingDown,
        });
    }

    /// Records which modeler produced a kernel's answer.
    pub fn record_choice(&self, choice: ModelerChoice) {
        self.bump(match choice {
            ModelerChoice::Dnn => Counter::ChoiceDnn,
            ModelerChoice::Regression => Counter::ChoiceRegression,
            ModelerChoice::ConstantMean => Counter::ChoiceConstantMean,
        });
        self.bump(Counter::KernelsModeled);
    }

    /// Records one coalesced DNN inference covering `rows` measurement
    /// lines. `forward_passes` is `0` when every line was degenerate;
    /// `quantized` says whether the pass ran on the int8 network.
    pub fn record_batched_inference(&self, forward_passes: usize, rows: usize, quantized: bool) {
        let passes = forward_passes as u64;
        self.counters.add(Counter::BatchedForwardCalls, passes);
        self.counters.add(Counter::BatchedRows, rows as u64);
        if quantized {
            self.counters.add(Counter::QuantizedForwardCalls, passes);
        }
    }

    /// Records one admitted job entering the queue, updating the
    /// high-water mark.
    pub fn queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        let depth = depth.max(0) as u64;
        self.counters.raise(Counter::QueueDepthHwm, depth);
    }

    /// Records one job leaving the queue (a worker dequeued it).
    pub fn queue_exit(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
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

    /// The `stats` body: every counter in table order, the `queue_depth`
    /// gauge (clamped at 0) after `shed`, then the latency histogram.
    pub fn to_value(&self) -> Value {
        let get = |a: &AtomicU64| Value::U64(a.load(Ordering::Relaxed));
        let mut entries: Vec<(String, Value)> = self.counters.entries().collect();
        let depth = self.queue_depth.load(Ordering::Relaxed).max(0) as u64;
        let gauge = ("queue_depth".into(), Value::U64(depth));
        entries.insert(Counter::Shed.index() + 1, gauge);
        let bounds = LATENCY_BUCKETS_MS.iter().map(|&b| Value::U64(b)).collect();
        let buckets = self.latency_buckets.iter().map(get).collect();
        entries.extend([
            ("latency_bucket_bounds_ms".into(), Value::Seq(bounds)),
            ("latency_buckets".into(), Value::Seq(buckets)),
            ("latency_total_us".into(), get(&self.latency_total_us)),
            ("latency_count".into(), get(&self.latency_count)),
        ]);
        Value::Map(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `u64` under `key` in a `stats` body.
    fn field(stats: &Value, key: &str) -> u64 {
        stats.get(key).and_then(Value::as_u64).unwrap()
    }

    /// Asserts each counter's value under its wire key in the `stats` body.
    fn assert_counts(m: &Metrics, expected: &[(Counter, u64)]) {
        let stats = m.to_value();
        for &(counter, count) in expected {
            let key = Counter::KEYS[counter.index()];
            assert_eq!(field(&stats, key), count, "{key}");
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::default();
        m.bump(Counter::RequestsModel);
        m.bump(Counter::RequestsModel);
        m.bump(Counter::RequestsBatch);
        m.bump(Counter::ResponsesOk);
        m.record_error(ErrorKind::Parse);
        m.record_error(ErrorKind::Timeout);
        m.record_choice(ModelerChoice::Regression);
        m.record_choice(ModelerChoice::Dnn);
        m.record_batched_inference(1, 8, false);
        m.record_batched_inference(2, 16, true);
        assert_counts(
            &m,
            &[
                (Counter::RequestsModel, 2),
                (Counter::RequestsBatch, 1),
                (Counter::ResponsesOk, 1),
                (Counter::ErrorsParse, 1),
                (Counter::ErrorsTimeout, 1),
                (Counter::ChoiceRegression, 1),
                (Counter::ChoiceDnn, 1),
                (Counter::KernelsModeled, 2),
                (Counter::BatchedForwardCalls, 3),
                (Counter::BatchedRows, 24),
                (Counter::QuantizedForwardCalls, 2),
            ],
        );
    }

    #[test]
    fn overload_counters_accumulate() {
        let m = Metrics::default();
        m.queue_enter();
        m.queue_enter();
        m.queue_exit();
        m.record_error(ErrorKind::Overloaded);
        m.bump(Counter::RetriesObserved);
        m.bump(Counter::WorkerRestarts);
        m.bump(Counter::WorkerRestarts);
        assert_eq!(field(&m.to_value(), "queue_depth"), 1);
        assert_counts(
            &m,
            &[
                (Counter::QueueDepthHwm, 2),
                (Counter::Shed, 1),
                (Counter::RetriesObserved, 1),
                (Counter::WorkerRestarts, 2),
                (Counter::AdaptSwaps, 0),
            ],
        );

        // The gauge clamps at zero even if exits race ahead of enters, and
        // the high-water mark stays.
        m.queue_exit();
        m.queue_exit();
        let stats = m.to_value();
        assert_eq!(field(&stats, "queue_depth"), 0);
        assert_eq!(field(&stats, "queue_depth_hwm"), 2);
    }

    #[test]
    fn cache_counters_accumulate() {
        let m = Metrics::default();
        m.bump(Counter::CacheMisses);
        m.bump(Counter::CacheInserts);
        m.bump(Counter::CacheHits);
        m.bump(Counter::CacheHits);
        m.bump(Counter::SingleflightShared);
        assert_counts(
            &m,
            &[
                (Counter::CacheMisses, 1),
                (Counter::CacheInserts, 1),
                (Counter::CacheHits, 2),
                (Counter::SingleflightShared, 1),
            ],
        );
    }

    #[test]
    fn adaptation_counters_accumulate() {
        let m = Metrics::default();
        m.bump(Counter::RequestsAdapt);
        m.bump(Counter::AdaptObservations);
        m.bump(Counter::AdaptObservations);
        m.bump(Counter::AdaptCycles);
        m.bump(Counter::AdaptRejected);
        m.bump(Counter::AdaptSwaps);
        m.bump(Counter::AdaptRollbacks);
        m.bump(Counter::AdaptRestarts);
        assert_counts(
            &m,
            &[
                (Counter::RequestsAdapt, 1),
                (Counter::AdaptObservations, 2),
                (Counter::AdaptCycles, 1),
                (Counter::AdaptRejected, 1),
                (Counter::AdaptSwaps, 1),
                (Counter::AdaptRollbacks, 1),
                (Counter::AdaptRestarts, 1),
            ],
        );
    }

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::default();
        m.record_latency(Duration::from_micros(800)); // <= 1ms
        m.record_latency(Duration::from_millis(7)); // <= 10ms
        m.record_latency(Duration::from_secs(60)); // overflow
        let stats = m.to_value();
        let Some(Value::Seq(buckets)) = stats.get("latency_buckets") else {
            panic!("no latency_buckets in {stats:?}");
        };
        let counts: Vec<u64> = buckets.iter().filter_map(Value::as_u64).collect();
        assert_eq!(counts, [1, 0, 1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(field(&stats, "latency_count"), 3);
        assert!(field(&stats, "latency_total_us") >= 60_000_000);
    }
}
