//! The concurrent serving loop: acceptor, per-connection readers, a
//! worker pool over a bounded job queue, and a supervisor that respawns
//! dead workers.
//!
//! ## Threading model
//!
//! - One **acceptor** thread owns the [`TcpListener`] and runs the shared
//!   front end ([`crate::line`]): a blocking `accept()`, one connection
//!   thread per client, finished threads reaped on every accept, and
//!   connections past `max_conns` shed with an `overloaded` line.
//! - Each **connection** thread is framed by [`serve_lines`]; it answers
//!   `health`/`stats`/`shutdown` inline, and hands `model`/`batch` work to
//!   the pool through a **bounded** [`mpsc::sync_channel`], waiting for the
//!   reply with the request's deadline. A full queue sheds the request
//!   immediately with an `overloaded` error — fail fast instead of
//!   queue-and-time-out. A connection that stalls mid-request (slowloris)
//!   or blocks writes past `io_timeout` is closed.
//! - **Worker** threads each own an [`AdaptiveModeler`] warmed from the
//!   shared [`ModelStore`] — weights are loaded and validated once, then
//!   cloned per worker, so adaptation in one worker can never bleed into
//!   another. A job whose deadline already expired while queued is answered
//!   `timeout` *before* any modeling work is spent on it.
//! - One **supervisor** thread polls the worker handles and respawns any
//!   worker that died (panic outside the per-job `catch_unwind`, or the
//!   `crash_worker` debug hook), restoring full pool capacity from the warm
//!   store and counting `worker_restarts`.
//!
//! ## Graceful drain
//!
//! A `shutdown` request (or [`Server::request_shutdown`]) flips a shared
//! flag and wakes the acceptor with a loopback connect ([`line::stop`]);
//! the acceptor stops accepting and joins its connection threads;
//! connections finish the request in flight, refuse new modeling work with
//! `shutting_down`, and close at their next read tick; the supervisor
//! exits without respawning; dropping the last job sender lets every worker
//! drain the queue and exit. [`Server::join`] observes the whole cascade.

use crate::adapt::{AdaptFaultKind, AdaptOptions, AdaptState, Observation};
use crate::line::{self, serve_lines, Disposition, LineHandler, LineLimits};
use crate::metrics::{Metrics, RequestKind};
use crate::protocol::{
    batch_entry, error_line, ok_line, outcome_value, ErrorKind, Request, MAX_LINE_BYTES,
};
use crate::store::ModelStore;
use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOutcome};
use nrpm_core::fingerprint::ModelKey;
use nrpm_extrap::MeasurementSet;
use nrpm_registry::{hex16, Joined, ResultCache, SingleFlight};
use serde::{Serialize, Value};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Shard count of the serving result cache; bounded lock contention
/// without per-entry overhead.
const CACHE_SHARDS: usize = 8;

/// Tuning knobs of [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads computing models.
    pub workers: usize,
    /// Run domain adaptation for single `model` requests. `batch` requests
    /// never adapt — a server cannot retrain per request without making
    /// results depend on request order. With adaptation on, each `model`
    /// request rebuilds its modeler from the warm base weights, so results
    /// stay order-independent at the cost of extra training time.
    pub adapt: bool,
    /// Deadline applied when a request carries no `timeout_ms`.
    pub default_timeout: Duration,
    /// How often blocked connection reads and the supervisor wake up to
    /// check the drain flag. The acceptor blocks in `accept()` and is
    /// woken on drain instead.
    pub poll_interval: Duration,
    /// Capacity of the admission queue. Once `queue_depth` jobs wait for a
    /// worker, further modeling requests are shed with an `overloaded`
    /// response instead of queuing toward a timeout.
    pub queue_depth: usize,
    /// Maximum live connections. Connections accepted past the cap receive
    /// one `overloaded` error line and are closed immediately.
    pub max_conns: usize,
    /// Per-connection I/O stall limit: a connection that leaves a request
    /// line incomplete for this long, or blocks a response write for this
    /// long, is closed (slowloris defense).
    pub io_timeout: Duration,
    /// Testing/benchmark knob: simulated service time added to every
    /// modeling job (after the deadline check), making server capacity
    /// deterministic for overload experiments. `None` in production.
    pub work_delay: Option<Duration>,
    /// Enables test-only fault hooks (the `crash_worker` request). Off in
    /// production.
    pub debug_hooks: bool,
    /// Capacity of the memoized result cache for `model` requests, keyed
    /// by the canonical measurement-set fingerprint plus the checkpoint's
    /// content hash. `0` disables caching *and* single-flight entirely —
    /// every request reaches the modeler, as before the cache existed.
    pub cache_capacity: usize,
    /// Directory for the cache's crash-safe journal. `None` keeps the
    /// cache memory-only; with a directory, cached outcomes survive
    /// restarts (including `kill -9`) of a server on the same checkpoint.
    pub cache_dir: Option<PathBuf>,
    /// Background adaptation engine configuration (accumulate → retrain →
    /// shadow-validate → swap → watch). Disabled by default; see
    /// [`crate::adapt`].
    pub adaptation: AdaptOptions,
    /// Identity of this backend within a cluster; surfaced in `health` and
    /// `stats` responses so a router can confirm it is talking to the shard
    /// it thinks it is. `None` for standalone servers.
    pub shard_id: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            adapt: false,
            default_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            queue_depth: 64,
            max_conns: 256,
            io_timeout: Duration::from_secs(10),
            work_delay: None,
            debug_hooks: false,
            cache_capacity: 1024,
            cache_dir: None,
            adaptation: AdaptOptions::default(),
            shard_id: None,
        }
    }
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) store: ModelStore,
    pub(crate) metrics: Metrics,
    shutdown: AtomicBool,
    pub(crate) opts: ServeOptions,
    addr: SocketAddr,
    /// Memoized `model` outcomes; `None` when `cache_capacity` is 0.
    cache: Option<ResultCache<AdaptiveOutcome>>,
    /// Deduplicates concurrent identical `model` requests. Only consulted
    /// when the cache is on — with caching off, every request must reach
    /// the modeler.
    flight: SingleFlight<Arc<AdaptiveOutcome>>,
    /// Mailbox between the serving path and the adaptation engine; `None`
    /// when the engine is disabled.
    pub(crate) adapt: Option<Arc<AdaptState>>,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the drain flag and wakes the blocked acceptor.
    fn begin_shutdown(&self) {
        line::stop(&self.shutdown, self.addr);
    }
}

/// The worker pool's join handles, shared between the supervisor (which
/// swaps dead handles for fresh ones) and [`Server::join`].
struct WorkerPool {
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The adaptation engine's handle, supervised exactly like the workers:
    /// a dead engine (chaos kill, retrain panic) is respawned and recovers
    /// from the swap journal. `None` when adaptation is disabled.
    adapt: Mutex<Option<JoinHandle<()>>>,
}

/// Locks a mutex, recovering from poisoning: our critical sections only
/// read/swap plain values, so a panicking holder cannot leave them
/// inconsistent — dying with it would turn one crashed thread into a dead
/// server.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One unit of modeling work handed to the pool.
struct Job {
    request: JobRequest,
    deadline: Instant,
    reply: mpsc::Sender<Reply>,
}

enum JobRequest {
    Model {
        set: Box<MeasurementSet>,
        at: Option<Vec<f64>>,
        id: Option<String>,
        /// Tenant/workload tag, forwarded into the adaptation engine's
        /// per-key noise accumulation.
        tenant: Option<String>,
    },
    Batch {
        sets: Vec<MeasurementSet>,
        id: Option<String>,
    },
    /// Test-only: the worker that dequeues this dies abruptly so the
    /// supervisor's respawn path can be exercised end to end.
    Crash,
}

impl JobRequest {
    fn id(&self) -> Option<String> {
        match self {
            JobRequest::Model { id, .. } | JobRequest::Batch { id, .. } => id.clone(),
            JobRequest::Crash => None,
        }
    }
}

/// A computed response plus its class, so the connection thread records
/// exactly what it sends. Successful `model` replies also carry the
/// structured outcome, so the connection thread can cache it and hand it
/// to single-flight followers without reparsing the wire line.
struct Reply {
    line: String,
    error: Option<ErrorKind>,
    outcome: Option<Arc<AdaptiveOutcome>>,
    /// Checkpoint hash of the exact weights that computed `outcome`, taken
    /// from the same store snapshot as the modeler. The connection thread
    /// refuses to cache an outcome whose hash differs from the one in its
    /// cache key — the guard that keeps a concurrent hot-swap from ever
    /// poisoning the result cache. `0` when there is no outcome.
    served_hash: u64,
}

/// What [`dispatch_job`] resolved to: the wire line (metrics already
/// recorded) plus the structured outcome (and the hash of the weights that
/// computed it) when the job was a successful `model`.
struct Dispatched {
    line: String,
    outcome: Option<Arc<AdaptiveOutcome>>,
    served_hash: u64,
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`Server::request_shutdown`] (or send a `shutdown` request) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    pool: Arc<WorkerPool>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port), warms the worker
    /// pool from `store`, and starts serving in background threads.
    pub fn start(addr: &str, store: ModelStore, opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = opts.workers.max(1);
        let queue_depth = opts.queue_depth.max(1);
        // `opts.adapt` is the single adaptation knob: align the store's
        // modeling options so per-worker modelers inherit it.
        let store = store.with_adaptation(opts.adapt);
        let cache = match (opts.cache_capacity, &opts.cache_dir) {
            (0, _) => None,
            (capacity, Some(dir)) => Some(
                ResultCache::persistent(capacity, CACHE_SHARDS, dir)
                    .map_err(|e| std::io::Error::other(format!("cannot open result cache: {e}")))?,
            ),
            (capacity, None) => Some(ResultCache::in_memory(capacity, CACHE_SHARDS)),
        };
        let adapt_enabled = opts.adaptation.enabled;
        let shared = Arc::new(Shared {
            store,
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            opts,
            addr: local,
            cache,
            flight: SingleFlight::new(),
            adapt: adapt_enabled.then(|| Arc::new(AdaptState::new())),
        });

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let pool = Arc::new(WorkerPool {
            handles: Mutex::new(
                (0..workers)
                    .map(|i| spawn_worker(i, &shared, &job_rx))
                    .collect(),
            ),
            adapt: Mutex::new(adapt_enabled.then(|| spawn_adapt(&shared))),
        });

        let supervisor = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            let job_rx = Arc::clone(&job_rx);
            thread::Builder::new()
                .name("nrpm-serve-supervisor".into())
                .spawn(move || run_supervisor(&shared, &pool, &job_rx))
                .expect("spawn supervisor thread")
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("nrpm-serve-acceptor".into())
                .spawn(move || run_acceptor(listener, &shared, job_tx))
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
            pool,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// `true` once a drain has begun.
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Begins a graceful drain, as if a `shutdown` request had arrived.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the drain cascade to finish: acceptor, connections,
    /// supervisor, then workers. Blocks forever unless a shutdown was
    /// requested.
    pub fn join(mut self) -> std::thread::Result<()> {
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join()?;
        }
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join()?;
        }
        let handles = std::mem::take(&mut *lock_recovering(&self.pool.handles));
        for worker in handles {
            worker.join()?;
        }
        if let Some(engine) = lock_recovering(&self.pool.adapt).take() {
            // A panic here is a chaos fault that landed after the
            // supervisor's last tick; the drain already completed, so it is
            // swallowed rather than failing the join.
            let _ = engine.join();
        }
        Ok(())
    }
}

fn spawn_worker(
    index: usize,
    shared: &Arc<Shared>,
    job_rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let job_rx = Arc::clone(job_rx);
    thread::Builder::new()
        .name(format!("nrpm-serve-worker-{index}"))
        .spawn(move || run_worker(&shared, &job_rx))
        .expect("spawn worker thread")
}

fn spawn_adapt(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name("nrpm-serve-adapt".into())
        .spawn(move || crate::adapt::run_adapt_engine(&shared))
        .expect("spawn adaptation engine thread")
}

/// Polls the worker handles; any worker found dead outside a drain is
/// joined (collecting its panic) and replaced with a fresh one warmed from
/// the store, restoring full pool capacity.
fn run_supervisor(
    shared: &Arc<Shared>,
    pool: &Arc<WorkerPool>,
    job_rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
) {
    // Respawned workers get fresh indices so thread names stay unique.
    let mut next_index = shared.opts.workers.max(1);
    while !shared.draining() {
        {
            let mut handles = lock_recovering(&pool.handles);
            for slot in handles.iter_mut() {
                if slot.is_finished() {
                    let fresh = spawn_worker(next_index, shared, job_rx);
                    next_index += 1;
                    let dead = std::mem::replace(slot, fresh);
                    let _ = dead.join(); // swallow the panic payload
                    shared.metrics.record_worker_restart();
                }
            }
        }
        {
            // The adaptation engine is supervised the same way: a chaos
            // kill or retrain panic gets a fresh engine, which re-runs
            // journal recovery before doing anything else. A clean exit
            // only happens on drain, which the guard below excludes.
            let mut engine = lock_recovering(&pool.adapt);
            if engine.as_ref().is_some_and(|h| h.is_finished()) && !shared.draining() {
                let dead = engine.take().expect("checked is_some above");
                let _ = dead.join(); // swallow the panic payload
                *engine = Some(spawn_adapt(shared));
                shared.metrics.record_adapt_restart();
            }
        }
        thread::sleep(shared.opts.poll_interval);
    }
}

fn run_acceptor(listener: TcpListener, shared: &Arc<Shared>, job_tx: mpsc::SyncSender<Job>) {
    let limits = LineLimits::new(&shared.opts, MAX_LINE_BYTES);
    let conn_shared = Arc::clone(shared);
    line::run_acceptor(
        listener,
        "nrpm-serve-conn",
        limits.max_conns,
        || shared.draining(),
        || shared.metrics.record_error(ErrorKind::Overloaded),
        move |stream| {
            let mut conn = Connection {
                shared: &conn_shared,
                job_tx: &job_tx,
            };
            serve_lines(stream, &limits, &mut conn);
        },
    );
    // The last `job_tx` (inside the connection closure) dropped with the
    // acceptor's connections, so the workers drain the queue and exit.
}

/// One client connection's view of the server.
struct Connection<'a> {
    shared: &'a Arc<Shared>,
    job_tx: &'a mpsc::SyncSender<Job>,
}

impl LineHandler for Connection<'_> {
    fn handle(&mut self, line: &str) -> Disposition {
        handle_line(line, self.shared, self.job_tx)
    }

    fn rejected(&mut self, kind: ErrorKind) {
        self.shared.metrics.record_error(kind);
    }

    fn stopped(&self) -> bool {
        self.shared.draining()
    }
}

fn handle_line(line: &str, shared: &Arc<Shared>, job_tx: &mpsc::SyncSender<Job>) -> Disposition {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err((kind, message)) => return Disposition::Respond(refuse(shared, None, kind, &message)),
    };
    match request {
        Request::Health => {
            shared.metrics.record_request(RequestKind::Health);
            shared.metrics.record_ok();
            let mut fields = vec![
                ("service".into(), Value::Str("nrpm-serve".into())),
                ("workers".into(), Value::U64(shared.opts.workers as u64)),
                ("adapt".into(), Value::Bool(shared.opts.adapt)),
                ("draining".into(), Value::Bool(shared.draining())),
            ];
            if let Some(shard) = shared.opts.shard_id {
                fields.push(("shard_id".into(), Value::U64(shard)));
            }
            Disposition::Respond(ok_line(None, fields))
        }
        Request::Stats => {
            shared.metrics.record_request(RequestKind::Stats);
            shared.metrics.record_ok();
            Disposition::Respond(ok_line(None, vec![("stats".into(), stats_value(shared))]))
        }
        Request::Shutdown => {
            shared.metrics.record_request(RequestKind::Shutdown);
            shared.metrics.record_ok();
            shared.begin_shutdown();
            Disposition::RespondAndClose(ok_line(
                None,
                vec![("draining".into(), Value::Bool(true))],
            ))
        }
        Request::CrashWorker => {
            if !shared.opts.debug_hooks {
                return Disposition::Respond(refuse(
                    shared,
                    None,
                    ErrorKind::Usage,
                    "crash_worker is a test hook; start the server with debug hooks to use it",
                ));
            }
            let (reply_tx, _discard) = mpsc::channel::<Reply>();
            let job = Job {
                request: JobRequest::Crash,
                deadline: Instant::now() + shared.opts.default_timeout,
                reply: reply_tx,
            };
            match job_tx.try_send(job) {
                Ok(()) => {
                    shared.metrics.queue_enter();
                    shared.metrics.record_ok();
                    Disposition::Respond(ok_line(
                        None,
                        vec![("crash_queued".into(), Value::Bool(true))],
                    ))
                }
                Err(_) => Disposition::Respond(refuse(
                    shared,
                    None,
                    ErrorKind::Overloaded,
                    "admission queue full; crash hook not queued",
                )),
            }
        }
        Request::Model {
            set,
            at,
            timeout_ms,
            id,
            attempt,
            tenant,
        } => {
            shared.metrics.record_request(RequestKind::Model);
            if attempt.unwrap_or(0) >= 1 {
                shared.metrics.record_retry_observed();
            }
            Disposition::Respond(answer_model(
                shared, job_tx, set, at, timeout_ms, id, tenant,
            ))
        }
        Request::ForceAdapt => {
            shared.metrics.record_request(RequestKind::Adapt);
            match &shared.adapt {
                Some(state) => {
                    state.request_cycle();
                    shared.metrics.record_ok();
                    Disposition::Respond(ok_line(
                        None,
                        vec![("adapt_forced".into(), Value::Bool(true))],
                    ))
                }
                None => Disposition::Respond(refuse(
                    shared,
                    None,
                    ErrorKind::Usage,
                    "adaptation is disabled; start the server with adaptation enabled",
                )),
            }
        }
        Request::AdaptFault { kind } => {
            shared.metrics.record_request(RequestKind::Adapt);
            if !shared.opts.debug_hooks {
                return Disposition::Respond(refuse(
                    shared,
                    None,
                    ErrorKind::Usage,
                    "adapt_fault is a test hook; start the server with debug hooks to use it",
                ));
            }
            let Some(state) = &shared.adapt else {
                return Disposition::Respond(refuse(
                    shared,
                    None,
                    ErrorKind::Usage,
                    "adaptation is disabled; there is no engine to inject faults into",
                ));
            };
            match AdaptFaultKind::parse(&kind) {
                Some(fault) => {
                    state.inject_fault(fault);
                    shared.metrics.record_ok();
                    Disposition::Respond(ok_line(
                        None,
                        vec![
                            ("fault_queued".into(), Value::Bool(true)),
                            ("kind".into(), Value::Str(kind)),
                        ],
                    ))
                }
                None => Disposition::Respond(refuse(
                    shared,
                    None,
                    ErrorKind::Usage,
                    &format!(
                        "unknown adapt fault '{kind}'; expected kill_retrain, \
                         corrupt_candidate, regress_swap, or kill_commit"
                    ),
                )),
            }
        }
        Request::Batch {
            sets,
            timeout_ms,
            id,
            attempt,
        } => {
            shared.metrics.record_request(RequestKind::Batch);
            if attempt.unwrap_or(0) >= 1 {
                shared.metrics.record_retry_observed();
            }
            let request = JobRequest::Batch { sets, id };
            Disposition::Respond(dispatch_job(shared, job_tx, request, timeout_ms).line)
        }
    }
}

/// Records an error response of `kind` and builds its line.
fn refuse(shared: &Shared, id: Option<&str>, kind: ErrorKind, message: &str) -> String {
    shared.metrics.record_error(kind);
    error_line(id, kind, message)
}

/// Builds the `stats` response body: the metrics snapshot, extended with
/// the server build version, the serving checkpoint's content hash, and —
/// when caching is on — the result cache's own counters.
fn stats_value(shared: &Arc<Shared>) -> Value {
    let mut stats = shared.metrics.snapshot().to_value();
    if let Value::Map(entries) = &mut stats {
        entries.push((
            "server_version".into(),
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ));
        entries.push((
            "checkpoint_hash".into(),
            Value::Str(hex16(shared.store.checkpoint_hash())),
        ));
        entries.push(("epoch".into(), Value::U64(shared.store.epoch())));
        if let Some(shard) = shared.opts.shard_id {
            entries.push(("shard_id".into(), Value::U64(shard)));
        }
        if let Some(cache) = &shared.cache {
            let cache_stats = cache.stats();
            entries.push((
                "cache".into(),
                Value::Map(vec![
                    (
                        "capacity".into(),
                        Value::U64(cache_stats.lru.capacity as u64),
                    ),
                    ("entries".into(), Value::U64(cache_stats.lru.entries as u64)),
                    ("lru_hits".into(), Value::U64(cache_stats.lru.hits)),
                    ("lru_misses".into(), Value::U64(cache_stats.lru.misses)),
                    ("insertions".into(), Value::U64(cache_stats.lru.insertions)),
                    ("evictions".into(), Value::U64(cache_stats.lru.evictions)),
                    ("persistent".into(), Value::Bool(cache.is_persistent())),
                    (
                        "journal_records".into(),
                        match cache_stats.journal_records {
                            Some(records) => Value::U64(records as u64),
                            None => Value::Null,
                        },
                    ),
                    (
                        "recovered_records".into(),
                        Value::U64(cache_stats.recovery.records as u64),
                    ),
                    (
                        "recovery_repaired".into(),
                        Value::Bool(cache_stats.recovery.repaired),
                    ),
                ]),
            ));
        }
    }
    stats
}

/// Answers one `model` request: result cache first, then single-flight
/// deduplication around the modeler, then the worker pool.
///
/// The ordering makes "N concurrent identical requests model exactly once"
/// deterministic, not probabilistic: a successful leader inserts into the
/// cache *before* publishing its flight, and a caller that becomes leader
/// re-checks the cache after winning — so a request arriving at any point
/// relative to an identical in-flight one either shares its answer or
/// finds it cached.
fn answer_model(
    shared: &Arc<Shared>,
    job_tx: &mpsc::SyncSender<Job>,
    set: MeasurementSet,
    at: Option<Vec<f64>>,
    timeout_ms: Option<u64>,
    id: Option<String>,
    tenant: Option<String>,
) -> String {
    let Some(cache) = &shared.cache else {
        // Caching off: the pre-cache serving path, one modeler run per
        // request.
        let request = JobRequest::Model {
            set: Box::new(set),
            at,
            id,
            tenant,
        };
        return dispatch_job(shared, job_tx, request, timeout_ms).line;
    };
    let started = Instant::now();
    let timeout = timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.opts.default_timeout);
    let key_hash = shared.store.checkpoint_hash();
    let key_epoch = shared.store.epoch();
    let key = ModelKey::new(&set, key_hash, shared.opts.adapt).combined();

    let cached_answer = |outcome: &AdaptiveOutcome| {
        shared.metrics.record_ok();
        shared.metrics.record_latency(started.elapsed());
        ok_line(
            id.as_deref(),
            vec![
                ("outcome".into(), outcome_value(outcome, at.as_deref())),
                ("served_hash".into(), Value::Str(hex16(key_hash))),
                ("epoch".into(), Value::U64(key_epoch)),
            ],
        )
    };
    if let Some(outcome) = cache.get(key) {
        shared.metrics.record_cache_hit();
        return cached_answer(&outcome);
    }
    shared.metrics.record_cache_miss();

    // Dispatches to the pool with whatever budget the flight join left,
    // caching a successful outcome. Shared by the leader path (which then
    // publishes) and the leader-failed fallback (which cannot).
    let model_and_cache = |set: MeasurementSet, at: Option<Vec<f64>>, id: Option<String>| {
        let remaining = timeout.saturating_sub(started.elapsed());
        let request = JobRequest::Model {
            set: Box::new(set),
            at,
            id,
            tenant: tenant.clone(),
        };
        let dispatched = dispatch_job(shared, job_tx, request, Some(remaining.as_millis() as u64));
        if let Some(outcome) = &dispatched.outcome {
            // The hash guard: if a hot-swap landed between building the key
            // and the worker running the modeler, the answer was computed
            // on different weights than the key names — caching it would
            // serve stale results under the new (or, after a rollback, the
            // restored) checkpoint. Skip the insert; the answer itself is
            // still valid for this client.
            if dispatched.served_hash == key_hash {
                // Journal failures must not fail the request: the answer is
                // already computed, persistence is an optimization.
                if cache.insert(key, (**outcome).clone()).is_ok() {
                    shared.metrics.record_cache_insert();
                }
            }
        }
        dispatched
    };

    match shared.flight.join(key, timeout) {
        Joined::Leader(leader) => {
            // Double check: the previous leader may have cached this key
            // between our miss and winning the new flight.
            if let Some(outcome) = cache.get(key) {
                let line = cached_answer(&outcome);
                leader.publish(Arc::new(outcome));
                return line;
            }
            let dispatched = model_and_cache(set, at, id);
            match dispatched.outcome {
                // Publishing *after* the cache insert is what pins the
                // "exactly one modeler run" guarantee — see above.
                Some(outcome) => leader.publish(outcome),
                None => leader.abandon(),
            }
            dispatched.line
        }
        Joined::Shared(outcome) => {
            shared.metrics.record_singleflight_shared();
            cached_answer(&outcome)
        }
        Joined::LeaderFailed => {
            // The leader's failure was an answer for *its* client only
            // (its timeout, its transient error); compute independently
            // with the time we have left.
            model_and_cache(set, at, id).line
        }
        Joined::TimedOut => {
            shared.metrics.record_latency(started.elapsed());
            refuse(
                shared,
                id.as_deref(),
                ErrorKind::Timeout,
                &format!(
                    "deadline of {timeout:?} exceeded waiting on an identical in-flight request"
                ),
            )
        }
    }
}

/// Admits one modeling job into the bounded queue and waits for its reply
/// within the deadline; a full queue sheds the job immediately.
fn dispatch_job(
    shared: &Arc<Shared>,
    job_tx: &mpsc::SyncSender<Job>,
    request: JobRequest,
    timeout_ms: Option<u64>,
) -> Dispatched {
    let id = request.id();
    let refused = |kind: ErrorKind, message: &str| Dispatched {
        line: refuse(shared, id.as_deref(), kind, message),
        outcome: None,
        served_hash: 0,
    };
    if shared.draining() {
        return refused(
            ErrorKind::ShuttingDown,
            "server is draining; no new modeling work accepted",
        );
    }
    let started = Instant::now();
    let timeout = timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.opts.default_timeout);
    let deadline = started + timeout;
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let job = Job {
        request,
        deadline,
        reply: reply_tx,
    };
    match job_tx.try_send(job) {
        Ok(()) => shared.metrics.queue_enter(),
        Err(TrySendError::Full(_)) => {
            // Fail fast: the queue already holds `queue_depth` jobs, so
            // this request would only wait toward its own timeout while
            // delaying everyone behind it.
            return refused(
                ErrorKind::Overloaded,
                &format!(
                    "admission queue full ({} jobs); retry with backoff",
                    shared.opts.queue_depth.max(1)
                ),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            return refused(
                ErrorKind::ShuttingDown,
                "worker pool is gone; server is shutting down",
            );
        }
    }
    match reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(reply) => {
            match reply.error {
                None => shared.metrics.record_ok(),
                Some(kind) => shared.metrics.record_error(kind),
            }
            shared.metrics.record_latency(started.elapsed());
            Dispatched {
                line: reply.line,
                outcome: reply.outcome,
                served_hash: reply.served_hash,
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            // The worker may still answer later; the receiver is dropped
            // here, so that late reply is discarded unrecorded.
            shared.metrics.record_latency(started.elapsed());
            refused(
                ErrorKind::Timeout,
                &format!("deadline of {timeout:?} exceeded"),
            )
        }
        Err(RecvTimeoutError::Disconnected) => refused(
            ErrorKind::ShuttingDown,
            "worker dropped the request during shutdown",
        ),
    }
}

/// Records a gate rejection on a freshly built worker modeler: quantized
/// inference was requested but this modeler will serve the f64 reference.
fn note_quant_fallback(shared: &Shared, modeler: &nrpm_core::adaptive::AdaptiveModeler) {
    if modeler.dnn().quant_rejection().is_some() {
        shared.metrics.record_quant_fallback();
    }
}

fn run_worker(shared: &Arc<Shared>, job_rx: &Arc<Mutex<mpsc::Receiver<Job>>>) {
    let (mut modeler, mut warm_hash, mut warm_epoch) = shared.store.warm_modeler();
    note_quant_fallback(shared, &modeler);
    loop {
        // Take the lock only to receive; computing happens lock-free so the
        // other workers can pick up jobs concurrently. The guard drops
        // before any work, so even a crashing job cannot poison it for
        // longer than a `recv` — and a poisoned lock is recovered anyway.
        let job = {
            let guard = lock_recovering(job_rx);
            guard.recv()
        };
        let Ok(job) = job else { break }; // all senders gone: drain complete
        shared.metrics.queue_exit();
        if matches!(job.request, JobRequest::Crash) {
            // Deliberately outside catch_unwind: this kills the worker
            // thread so the supervisor's respawn path is exercised for
            // real, not simulated.
            panic!("debug hook: crash_worker requested");
        }
        if shared.store.epoch() != warm_epoch {
            // A hot-swap published a new generation: rebuild before touching
            // the job, so this worker serves the new weights from here on.
            (modeler, warm_hash, warm_epoch) = shared.store.warm_modeler();
            note_quant_fallback(shared, &modeler);
        }
        let reply = compute_reply(shared, &mut modeler, warm_hash, warm_epoch, &job);
        let reply = match reply {
            Ok(reply) => reply,
            Err(panic_message) => {
                // A modeling panic must never take the server down. The
                // worker's modeler is rebuilt from the warm store in case
                // the panic left it inconsistent.
                (modeler, warm_hash, warm_epoch) = shared.store.warm_modeler();
                note_quant_fallback(shared, &modeler);
                Reply {
                    line: error_line(
                        job.request.id().as_deref(),
                        ErrorKind::Fatal,
                        &format!("internal modeling failure: {panic_message}"),
                    ),
                    error: Some(ErrorKind::Fatal),
                    outcome: None,
                    served_hash: 0,
                }
            }
        };
        // The connection may have timed out and moved on; a failed send
        // just means nobody is listening anymore.
        let _ = job.reply.send(reply);
    }
}

/// Computes the reply for one job, catching panics into `Err(message)`.
/// `warm_hash`/`warm_epoch` identify the exact generation `modeler` was
/// warmed from.
fn compute_reply(
    shared: &Arc<Shared>,
    modeler: &mut AdaptiveModeler,
    warm_hash: u64,
    warm_epoch: u64,
    job: &Job,
) -> Result<Reply, String> {
    if Instant::now() >= job.deadline {
        // Deadline propagation: the job expired while queued, so answer
        // `timeout` without spending any modeling work (no DNN forward
        // pass, no choice counter) on an answer nobody is waiting for.
        return Ok(Reply {
            line: error_line(
                job.request.id().as_deref(),
                ErrorKind::Timeout,
                "deadline expired before a worker picked the request up",
            ),
            error: Some(ErrorKind::Timeout),
            outcome: None,
            served_hash: 0,
        });
    }
    if let Some(delay) = shared.opts.work_delay {
        thread::sleep(delay);
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &job.request {
        JobRequest::Model {
            set,
            at,
            id,
            tenant,
        } => {
            let (result, served_hash, served_epoch) = if shared.opts.adapt {
                // Adaptation mutates weights: start from the warm base so
                // results cannot depend on what this worker served before.
                let (mut fresh, hash, epoch) = shared.store.warm_modeler();
                (fresh.model(set), hash, epoch)
            } else {
                (modeler.model(set), warm_hash, warm_epoch)
            };
            match result {
                Ok(outcome) => {
                    shared.metrics.record_choice(outcome.choice);
                    if let Some(adapt) = &shared.adapt {
                        // Feed the adaptation engine: what this deployment
                        // is measuring (noise profile) and how well it was
                        // answered (live SMAPE, for the post-swap watch).
                        let repetitions = set
                            .measurements()
                            .iter()
                            .map(|m| m.values.len())
                            .max()
                            .unwrap_or(1);
                        adapt.push_observation(Observation {
                            tenant: tenant.clone(),
                            set: (**set).clone(),
                            noise_mean: outcome.noise.mean(),
                            noise_range: outcome.noise.range(),
                            repetitions,
                            cv_smape: outcome.result.cv_smape,
                            epoch: served_epoch,
                        });
                    }
                    Reply {
                        line: ok_line(
                            id.as_deref(),
                            vec![
                                ("outcome".into(), outcome_value(&outcome, at.as_deref())),
                                ("served_hash".into(), Value::Str(hex16(served_hash))),
                                ("epoch".into(), Value::U64(served_epoch)),
                            ],
                        ),
                        error: None,
                        outcome: Some(Arc::new(outcome)),
                        served_hash,
                    }
                }
                Err(e) => {
                    let kind = ErrorKind::of_model_error(&e);
                    Reply {
                        line: error_line(id.as_deref(), kind, &e.to_string()),
                        error: Some(kind),
                        outcome: None,
                        served_hash: 0,
                    }
                }
            }
        }
        JobRequest::Batch { sets, id } => {
            let batch = modeler.model_batch(sets);
            shared.metrics.record_batched_inference(
                batch.forward_passes,
                batch.batched_lines,
                batch.quantized,
            );
            let mut ok = 0u64;
            let entries: Vec<Value> = batch
                .outcomes
                .iter()
                .map(|result| {
                    if let Ok(outcome) = result {
                        shared.metrics.record_choice(outcome.choice);
                        ok += 1;
                    }
                    batch_entry(result)
                })
                .collect();
            Reply {
                outcome: None,
                served_hash: 0,
                line: ok_line(
                    id.as_deref(),
                    vec![
                        ("results".into(), Value::Seq(entries)),
                        ("kernels".into(), Value::U64(batch.outcomes.len() as u64)),
                        ("kernels_ok".into(), Value::U64(ok)),
                        (
                            "forward_passes".into(),
                            Value::U64(batch.forward_passes as u64),
                        ),
                        (
                            "batched_lines".into(),
                            Value::U64(batch.batched_lines as u64),
                        ),
                        ("quantized".into(), Value::Bool(batch.quantized)),
                        ("served_hash".into(), Value::Str(hex16(warm_hash))),
                        ("epoch".into(), Value::U64(warm_epoch)),
                    ],
                ),
                error: None,
            }
        }
        JobRequest::Crash => unreachable!("crash jobs are handled before compute_reply"),
    }));
    outcome.map_err(|panic| {
        if let Some(s) = panic.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = panic.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic".to_string()
        }
    })
}
