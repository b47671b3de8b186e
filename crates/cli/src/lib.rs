//! Library backing the `nrpm` command-line tool — parsing, command
//! dispatch, and rendering live here so they are unit-testable without
//! spawning processes.

#![warn(missing_docs)]

mod cli;

use cli::{CommandLine, Flags};
use nrpm_bench::estimator::EstimatorSpec;
use nrpm_bench::harness::{
    held_out_accuracy, ChaosConfig, Harness, CALIBRATION_NOISE_LEVELS, CASE_STUDY_SEED,
};
use nrpm_bench::regime::{run_regime_sweep, RegimeSweepConfig};
use nrpm_bench::sweep::SweepConfig;
use nrpm_cluster::{Cluster, ClusterOptions, JoinAgent, JoinAgentOptions};
use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOptions, AdaptiveOutcome};
use nrpm_core::dnn::{DnnModeler, DnnOptions};
use nrpm_core::fingerprint::ModelKey;
use nrpm_core::noise::NoiseEstimate;
use nrpm_core::preprocess::ValueScaling;
use nrpm_core::report::render_outcome;
use nrpm_core::sanitize::{sanitize, SanitizeOptions, SanitizePolicy};
use nrpm_core::threshold::ThresholdTable;
use nrpm_extrap::{parse_text_file, MeasurementSet, ModelError, RegressionModeler};
use nrpm_ingest::{FollowSource, IngestEngine, IngestOptions, PushSource, WindowOptions};
use nrpm_linalg::ThreadBudget;
use nrpm_nn::Network;
use nrpm_registry::cache::JOURNAL_FILE;
use nrpm_registry::checkpoints::VerifyIssue;
use nrpm_registry::rollout::{RolloutJournal, RolloutRecord, ROLLOUT_JOURNAL_FILE};
use nrpm_registry::swap::SWAP_JOURNAL_FILE;
use nrpm_registry::{
    hex16, CheckpointRegistry, Journal, JournalError, RecoveryReport, ResultCache, SwapJournal,
    SwapRecord,
};
use nrpm_serve::adapt::AdaptOptions;
use nrpm_serve::client::{Client, RetryPolicy, RetryingClient};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::Value;
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
usage:
  nrpm fit <file> [--adaptive] [--strict|--lenient] [--network net.json] [--at x1,x2,...]
           [--thresholds table.json [--regime NAME]]
  nrpm noise <file>
  nrpm pretrain --out net.json [--samples N] [--epochs E] [--paper-net]
                [--train-threads N]
  nrpm serve --model net.json [--addr HOST:PORT] [--workers N] [--adapt]
             [--timeout-ms T] [--queue-depth N] [--max-conns N]
             [--io-timeout-ms T] [--work-delay-ms T]
             [--cache-capacity N] [--cache-dir DIR] [--train-threads N]
             [--adapt-interval MS] [--swap-smape-tolerance FRAC]
             [--feed] [--thresholds table.json [--regime NAME]] [--quantize]
  nrpm ingest [--follow FILE] [--push-addr HOST:PORT] [--state-dir DIR]
              [--registry-dir DIR] [--model net.json] [--interval-ms T]
              [--once | --duration-ms T] [--window-capacity N]
              [--min-points N] [--fire-interval N] [--max-records N]
              [--allowed-lateness T]
  nrpm sweep [--out FILE] [--thresholds-out FILE] [--functions N]
             [--params M] [--noise l1,l2,...] [--matrix-noise L]
             [--seed S] [--quick]
  nrpm query health|stats|shutdown [--addr HOST:PORT] [--timeout-ms T]
  nrpm query model <file> [--at x1,x2,...] [--addr HOST:PORT] [--timeout-ms T]
  nrpm query batch <file>... [--addr HOST:PORT] [--timeout-ms T]
  query flags: [--retries N] retry overloaded/timeout responses and
               transport failures with backoff + jitter (default 0)
  nrpm registry stats|verify|gc --dir DIR [--cache-capacity N]
  registry gc flags: [--dry-run] list what gc would remove without
               touching disk
  nrpm registry warm --dir DIR --model net.json <file>... [--ref NAME] [--adapt]
  nrpm cluster launch --model net.json [--shards N] [--addr HOST:PORT]
               [--workers N] [--vnodes N] [--registry-dir DIR] [--debug-hooks]
               [--replication R] [--join-token TOKEN] [--lease-ms MS]
               [--standby]
  nrpm cluster status [--addr HOST:PORT] [--timeout-ms T]
  nrpm cluster drain|kill <shard> [--addr HOST:PORT] [--timeout-ms T]
  nrpm cluster rollout --model net.json [--addr HOST:PORT] [--timeout-ms T]
  serve may also enroll in a cluster as a network shard:
  nrpm serve ... --join ROUTER:PORT --join-token TOKEN [--advertise HOST:PORT]

paper-figure harnesses (each table prints as soon as it is computed):
  nrpm fig3_accuracy [FIG3 FLAGS] [--show-dnn] [--top-k K]
  nrpm fig3_power [FIG3 FLAGS]
  nrpm fig4_case_studies [--seed S] [--show-models] [--no-adaptation] [--paper-net]
  nrpm fig5_noise [--seed S]
  nrpm fig6_overhead [--seed S] [--trials T] [--paper-net]
  nrpm noise_estimator_eval [--sets N] [--points P] [--reps R] [--seed S] [--noise l1,...]
  nrpm threshold_calibration [--params M] [--functions N] [--noise l1,...] [--seed S]
  nrpm chaos_eval [--campaigns N] [--rates r1,r2,...] [--noise L] [--seed S]
  nrpm dump_campaigns [--out DIR] [--seed S]
  FIG3 FLAGS: [--params 1|2|3] [--functions N] [--noise l1,...] [--seed S] [--reps R]
              [--aggregation median|mean|min] [--paper-net] [--no-adaptation]
              [--linear-encoding] [--refined-baseline] [--ci]
  (--params 0, the default, runs m = 1, 2 and 3)

measurement files: PARAMS/POINT text format, or a MeasurementSet .json

input handling:
  --lenient (default)  repair corrupt values (drop NaN/Inf/zeros, clamp
                       spikes) and report what changed
  --strict             refuse input that would need any repair

serving:
  `serve` loads the checkpoint once into a warm store and answers
  newline-delimited JSON requests until a shutdown request drains it;
  `query` is the matching client (default --addr 127.0.0.1:7077)

overload behavior:
  once --queue-depth jobs wait for a worker, further modeling requests
  are shed immediately with an `overloaded` error; connections past
  --max-conns are refused the same way; a connection that stalls
  mid-request or blocks writes for --io-timeout-ms is closed.
  --work-delay-ms adds simulated service time per job (testing only)

threading:
  --train-threads sets the worker threads for corpus generation and
  training (0 = the process thread budget, which honors NRPM_THREADS
  and defaults to the machine's cores). Results are bitwise identical
  at every thread count. `serve` divides the budget among its workers;
  with --adapt-interval, a quarter of the budget is reserved for the
  adaptation engine's retraining before the division.

background adaptation:
  --adapt-interval MS runs a supervised background engine that
  accumulates per-tenant noise profiles from live requests, retrains
  the network, shadow-validates the candidate against mirrored
  traffic, and hot-swaps it in through a crash-safe two-phase journal
  (stored under --cache-dir; memory-only without one). A swap whose
  live SMAPE regresses afterwards is rolled back automatically.
  --swap-smape-tolerance FRAC (default 0.10) sets the shadow gate.
  --feed (requires --cache-dir) additionally watches the registry's
  `ingest-candidate` ref for models published by an external `nrpm
  ingest` and hot-swaps them in through the same two-phase journal;
  the post-swap watchdog still applies.

streaming ingestion:
  `ingest` tails live measurement sources — --follow FILE follows a
  PARAMS/POINT log (with KERNEL/TENANT/TIME directives) through
  appends and rotations, --push-addr accepts newline-JSON records
  over TCP — sanitizes each record, assembles per-(kernel, tenant)
  sliding windows (watermark lateness via --allowed-lateness, bounded
  memory via --window-capacity/--max-records with shed-oldest
  backpressure), and re-models each due window (--min-points,
  --fire-interval) through the adaptive modeler seeded from --model,
  publishing adapted networks into --registry under the
  `ingest-candidate` ref for `serve --feed`. Progress is journaled
  under --state-dir: a killed ingester resumes from its checkpoint
  with no record duplicated or dropped. --once drains the current
  file and exits; --duration-ms bounds a live run (default: forever).

regime sweeping:
  `sweep` grids the four noise regimes (uniform, heteroscedastic,
  spike, device) train × test: per regime it sweeps --noise levels,
  locates the DNN/regression accuracy crossover, and calibrates a
  switching-threshold table (--thresholds-out) that `fit`/`serve`
  load via --thresholds (with --regime selecting the row; default
  uniform). The full result including the transfer matrix at
  --matrix-noise goes to --out as JSON. --quick shrinks
  the network for CI-sized runs.

caching:
  `serve` memoizes model outcomes per (measurement set, checkpoint,
  adaptation) — identical concurrent requests collapse into one modeler
  run; --cache-capacity 0 disables it, --cache-dir journals outcomes to
  disk so they survive restarts. `registry` maintains such a directory:
  `stats` summarizes it, `verify` is a read-only integrity sweep (exit 4
  on damage), `gc` drops unreferenced checkpoints and compacts the
  journal — checkpoints the swap journal still names (serving,
  rollback target, pending candidates) are pinned; --dry-run lists
  the doomed and pinned hashes without deleting anything — and `warm`
  stores a checkpoint and pre-models files into the cache (pass
  --adapt iff the server runs with --adapt)

cluster serving:
  `cluster launch` starts N backend shards behind one router speaking
  the same protocol; requests route by measurement-set fingerprint
  over a consistent-hash ring, so every shard keeps its own warm
  cache. A dead shard is ejected and its keys fail over to its ring
  successors; a returning shard must answer consecutive health probes
  before traffic comes back. --registry-dir distributes the serving
  checkpoint through a content-addressed registry so every shard
  serves the same hash. `status` renders per-shard state plus
  checkpoint/epoch divergence; `drain` retires one shard gracefully;
  `kill` (needs --debug-hooks on the router) stops one abruptly for
  failover drills. `query` works against a router unchanged — model
  replies carry a `served by shard ...` trailer.

replication & cross-machine membership:
  --replication R fans each request out to the first R distinct ring
  successors in parallel; the answer is resolved by served_hash/epoch
  quorum and replica disagreement is surfaced in `status`. --join-token
  opens the cluster to network shards: an `nrpm serve --join ROUTER
  --join-token T` on another host enrolls through a token-authenticated
  handshake (its checkpoint hash is verified over the wire) and stays
  enrolled by heartbeat lease (--lease-ms, default 2000); a lapsed lease
  ejects the member until it rejoins. --standby runs a warm standby
  router that mirrors membership via state sync and takes over the
  advertised address when the primary stops answering. `cluster
  rollout` upgrades the fleet one shard at a time (drain, sync, swap,
  verify over the wire, readmit), journaled in the registry so a crash
  mid-rollout recovers to a single-epoch fleet at the next launch.

exit codes: 0 success, 2 usage, 3 unreadable or malformed input,
            4 recoverable modeling failure, 5 fatal modeling failure";

/// Default address of `nrpm serve` and `nrpm query`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7077";

/// An error carrying the process exit code of its class: `2` usage,
/// `3` I/O or parse, `4` recoverable modeling error, `5` fatal modeling
/// error.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
    /// Process exit code.
    pub code: u8,
}

impl CliError {
    fn io(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 3,
        }
    }

    fn model(e: ModelError) -> Self {
        let code = if e.is_recoverable() { 4 } else { 5 };
        CliError {
            message: e.to_string(),
            code,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// A parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    /// Fit a model to a measurement file.
    Fit {
        /// Input file.
        file: PathBuf,
        /// Use the adaptive (DNN) modeler instead of regression only.
        adaptive: bool,
        /// Load a pretrained network instead of pretraining now.
        network: Option<PathBuf>,
        /// Evaluate the fitted model at this point.
        at: Option<Vec<f64>>,
        /// How corrupt input is handled (`--strict` / `--lenient`).
        policy: SanitizePolicy,
        /// Calibrated threshold table (from `nrpm sweep`) for the
        /// adaptive switch.
        thresholds: Option<PathBuf>,
        /// Regime row of the threshold table (default `uniform`).
        regime: Option<String>,
    },
    /// Analyze the noise of a measurement file.
    Noise {
        /// Input file.
        file: PathBuf,
    },
    /// Pretrain a network and save it.
    Pretrain {
        /// Output path.
        out: PathBuf,
        /// Samples per class.
        samples: usize,
        /// Training epochs.
        epochs: usize,
        /// Use the paper's full architecture.
        paper_net: bool,
        /// Worker threads for corpus generation and training (0 = the
        /// process thread budget).
        train_threads: usize,
    },
    /// Run the model-serving subsystem until it is drained.
    Serve {
        /// Pretrained checkpoint to warm the model store with.
        model: PathBuf,
        /// Listen address.
        addr: String,
        /// Worker threads.
        workers: usize,
        /// Run domain adaptation for single `model` requests.
        adapt: bool,
        /// Default per-request deadline in milliseconds.
        timeout_ms: Option<u64>,
        /// Admission-queue depth before requests are shed.
        queue_depth: usize,
        /// Maximum live connections before new ones are shed.
        max_conns: usize,
        /// Per-connection I/O stall limit in milliseconds.
        io_timeout_ms: Option<u64>,
        /// Simulated per-job service time in milliseconds (testing knob).
        work_delay_ms: Option<u64>,
        /// Result-cache capacity (0 disables caching and single-flight).
        cache_capacity: usize,
        /// Journal cached outcomes under this directory.
        cache_dir: Option<PathBuf>,
        /// Total thread budget shared by the workers (0 = the process
        /// thread budget).
        train_threads: usize,
        /// Run the background adaptation engine, cycling every this many
        /// milliseconds. `None` disables the engine.
        adapt_interval_ms: Option<u64>,
        /// Shadow-validation gate: a candidate may exceed the incumbent's
        /// SMAPE on mirrored requests by at most this fraction.
        swap_smape_tolerance: Option<f64>,
        /// Enroll as a network shard with the cluster router at this
        /// address (requires `--join-token`).
        join: Option<String>,
        /// Join token the router was launched with.
        join_token: Option<String>,
        /// Address the router should reach this shard at (defaults to the
        /// bound listen address).
        advertise: Option<String>,
        /// Watch the registry's ingest-candidate ref for externally
        /// published models and hot-swap them in (requires `--cache-dir`).
        feed: bool,
        /// Calibrated threshold table (from `nrpm sweep`) for the
        /// adaptive switch.
        thresholds: Option<PathBuf>,
        /// Regime row of the threshold table (default `uniform`).
        regime: Option<String>,
        /// Serve inference through the int8-quantized fast path when the
        /// accuracy gate accepts it (falls back to f64 otherwise).
        quantize: bool,
    },
    /// Tail live measurement sources, window them, re-model, publish.
    Ingest {
        /// Measurement log to follow through appends and rotations.
        follow: Option<PathBuf>,
        /// Accept newline-JSON push records on this address.
        push_addr: Option<String>,
        /// Journal the ingest checkpoint here (crash-safe resume).
        state_dir: Option<PathBuf>,
        /// Publish adapted networks into this checkpoint registry.
        registry_dir: Option<PathBuf>,
        /// Base network the windowed re-modeling adapts from.
        model: Option<PathBuf>,
        /// Idle poll interval in milliseconds.
        interval_ms: u64,
        /// Drain the current file contents, checkpoint, and exit.
        once: bool,
        /// Stop after this many milliseconds (`None` = run forever).
        duration_ms: Option<u64>,
        /// Sliding-window capacity per (kernel, tenant).
        window_capacity: usize,
        /// Minimum records in a window before it may fire.
        min_points: usize,
        /// Accepted records between fires of the same window.
        fire_interval: usize,
        /// Global record budget across all windows (shed-oldest past it).
        max_records: usize,
        /// Watermark lateness allowance (event-time units).
        allowed_lateness: f64,
    },
    /// Run the train-regime × test-regime noise sweep and calibrate the
    /// switching-threshold table.
    Sweep {
        /// Write the full result (curves, thresholds, transfer matrix)
        /// as JSON here.
        out: Option<PathBuf>,
        /// Write just the loadable threshold table as JSON here.
        thresholds_out: Option<PathBuf>,
        /// Functions generated per (regime, level) cell.
        functions: usize,
        /// Number of model parameters `m`.
        params: usize,
        /// Noise levels of the crossover curves (ascending).
        noise_levels: Option<Vec<f64>>,
        /// Noise level of the transfer-matrix cells.
        matrix_noise: Option<f64>,
        /// Base RNG seed.
        seed: u64,
        /// Shrink the network and corpus to CI size.
        quick: bool,
    },
    /// Inspect or maintain a registry/cache directory.
    Registry {
        /// What to do.
        action: RegistryAction,
        /// The registry/cache root directory.
        dir: PathBuf,
        /// Checkpoint to store (`warm` only).
        model: Option<PathBuf>,
        /// Measurement files to pre-model into the cache (`warm` only).
        files: Vec<PathBuf>,
        /// Ref name pointed at the warmed checkpoint (default `default`).
        ref_name: Option<String>,
        /// Cache capacity for `gc` compaction and `warm` insertion.
        cache_capacity: usize,
        /// Warm with domain adaptation (must match the server's --adapt).
        adapt: bool,
        /// `gc` only: report what would be removed, touch nothing.
        dry_run: bool,
    },
    /// Operate the sharded serving tier.
    Cluster {
        /// What to do.
        action: ClusterAction,
        /// Checkpoint every shard serves (`launch` only).
        model: Option<PathBuf>,
        /// Backend shard count (`launch` only).
        shards: usize,
        /// Router address: bind address for `launch`, target otherwise.
        addr: String,
        /// Worker threads per shard (`launch` only).
        workers: usize,
        /// Virtual nodes per shard on the routing ring (`launch` only).
        vnodes: usize,
        /// Distribute the serving checkpoint through a registry here
        /// (`launch` only).
        registry_dir: Option<PathBuf>,
        /// Enable the `cluster_kill` test hook (`launch` only).
        debug_hooks: bool,
        /// Target shard id (`drain`/`kill` only).
        shard: Option<u32>,
        /// Per-request deadline in milliseconds (every action but
        /// `launch`).
        timeout_ms: Option<u64>,
        /// Replicas per key (`launch` only; 1 disables replication).
        replication: usize,
        /// Token network shards must present to join (`launch` only;
        /// absent = closed cluster).
        join_token: Option<String>,
        /// Heartbeat lease granted to network members, in milliseconds
        /// (`launch` only).
        lease_ms: Option<u64>,
        /// Run a warm standby router for failover (`launch` only).
        standby: bool,
    },
    /// Run one of the paper-figure harnesses (`fig3_accuracy`, ...).
    Harness(Harness),
    /// Query a running server.
    Query {
        /// What to ask.
        what: QueryKind,
        /// Server address.
        addr: String,
        /// Measurement files (for `model` and `batch`).
        files: Vec<PathBuf>,
        /// Evaluate the fitted model at this point (for `model`).
        at: Option<Vec<f64>>,
        /// Per-request deadline in milliseconds.
        timeout_ms: Option<u64>,
        /// Retry attempts for shed/timed-out requests (0 = no retries).
        retries: u32,
    },
}

/// The sub-command of `nrpm query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Liveness probe.
    Health,
    /// Metrics snapshot.
    Stats,
    /// Graceful drain.
    Shutdown,
    /// Model one measurement file.
    Model,
    /// Model several files through one coalesced batch request.
    Batch,
}

/// The sub-command of `nrpm registry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryAction {
    /// Summarize checkpoints, refs, and the cache journal.
    Stats,
    /// Read-only integrity sweep; exit 4 when damage is found.
    Verify,
    /// Drop unreferenced checkpoints and compact the cache journal.
    Gc,
    /// Store a checkpoint and pre-model measurement files into the cache.
    Warm,
}

/// The sub-command of `nrpm cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAction {
    /// Start shards + router and run until the tier is drained.
    Launch,
    /// Render a running router's per-shard state and divergence view.
    Status,
    /// Gracefully retire one shard from rotation.
    Drain,
    /// Abruptly stop one shard (router must run with --debug-hooks).
    Kill,
    /// Roll a new checkpoint out across the fleet one shard at a time.
    Rollout,
}

impl Invocation {
    /// Parses raw arguments (without the binary name).
    pub fn parse(args: &[String]) -> Result<Invocation, String> {
        let (command, rest) = args.split_first().ok_or("missing command")?;
        let CommandLine {
            flags,
            positional,
            follows,
        } = cli::lex(command, rest)?;

        let invocation = match command.as_str() {
            "fit" => {
                let file = positional.first().ok_or("fit: missing <file>")?.into();
                let at = flags.list("at")?;
                let policy = match (flags.switch("strict"), flags.switch("lenient")) {
                    (true, true) => return Err("--strict and --lenient conflict".to_string()),
                    (true, false) => SanitizePolicy::Strict,
                    _ => SanitizePolicy::Lenient,
                };
                let adaptive = flags.switch("adaptive");
                let thresholds = flags.value("thresholds")?.map(PathBuf::from);
                let regime = flags.value("regime")?;
                if thresholds.is_some() && !adaptive {
                    return Err("fit: --thresholds requires --adaptive".to_string());
                }
                if regime.is_some() && thresholds.is_none() {
                    return Err("fit: --regime requires --thresholds".to_string());
                }
                Ok(Invocation::Fit {
                    file,
                    adaptive,
                    network: flags.value("network")?.map(PathBuf::from),
                    at,
                    policy,
                    thresholds,
                    regime,
                })
            }
            "noise" => Ok(Invocation::Noise {
                file: positional.first().ok_or("noise: missing <file>")?.into(),
            }),
            "pretrain" => Ok(Invocation::Pretrain {
                out: flags
                    .value("out")?
                    .ok_or("pretrain: --out is required")?
                    .into(),
                samples: flags.number("samples")?.unwrap_or(500),
                epochs: flags.number("epochs")?.unwrap_or(20),
                paper_net: flags.switch("paper-net"),
                train_threads: flags.number("train-threads")?.unwrap_or(0),
            }),
            "serve" => {
                let join = flags.value("join")?;
                let join_token = flags.value("join-token")?;
                let advertise = flags.value("advertise")?;
                if join.is_none() && (join_token.is_some() || advertise.is_some()) {
                    return Err("serve: --join-token and --advertise require --join".to_string());
                }
                if join.is_some() && join_token.is_none() {
                    return Err("serve: --join requires --join-token".to_string());
                }
                let feed = flags.switch("feed");
                let cache_dir = flags.value("cache-dir")?.map(PathBuf::from);
                if feed && cache_dir.is_none() {
                    return Err("serve: --feed requires --cache-dir".to_string());
                }
                let adapt_interval_ms = flags.number("adapt-interval")?;
                if adapt_interval_ms == Some(0) {
                    return Err("--adapt-interval: must be at least 1 ms".to_string());
                }
                let thresholds = flags.value("thresholds")?.map(PathBuf::from);
                let regime = flags.value("regime")?;
                if regime.is_some() && thresholds.is_none() {
                    return Err("serve: --regime requires --thresholds".to_string());
                }
                Ok(Invocation::Serve {
                    model: flags
                        .value("model")?
                        .ok_or("serve: --model is required")?
                        .into(),
                    addr: flags
                        .value("addr")?
                        .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
                    workers: flags.number("workers")?.unwrap_or(4),
                    adapt: flags.switch("adapt"),
                    timeout_ms: flags.number("timeout-ms")?,
                    queue_depth: flags.number("queue-depth")?.unwrap_or(64),
                    max_conns: flags.number("max-conns")?.unwrap_or(256),
                    io_timeout_ms: flags.number("io-timeout-ms")?,
                    work_delay_ms: flags.number("work-delay-ms")?,
                    cache_capacity: flags.number("cache-capacity")?.unwrap_or(1024),
                    cache_dir,
                    train_threads: flags.number("train-threads")?.unwrap_or(0),
                    adapt_interval_ms,
                    swap_smape_tolerance: {
                        let tolerance = flags.number::<f64>("swap-smape-tolerance")?;
                        match tolerance {
                            Some(t) if !t.is_finite() || t < 0.0 => {
                                return Err(
                                    "--swap-smape-tolerance: must be a non-negative fraction"
                                        .to_string(),
                                )
                            }
                            Some(_) if adapt_interval_ms.is_none() => {
                                return Err(
                                    "--swap-smape-tolerance requires --adapt-interval".to_string()
                                )
                            }
                            _ => tolerance,
                        }
                    },
                    join,
                    join_token,
                    advertise,
                    feed,
                    thresholds,
                    regime,
                    quantize: flags.switch("quantize"),
                })
            }
            "ingest" => {
                let follow = flags.value("follow")?.map(PathBuf::from);
                let push_addr = flags.value("push-addr")?;
                if follow.is_none() && push_addr.is_none() {
                    return Err("ingest: need --follow and/or --push-addr".to_string());
                }
                let once = flags.switch("once");
                if once && follow.is_none() {
                    return Err("ingest: --once requires --follow".to_string());
                }
                let duration_ms = flags.number("duration-ms")?;
                if once && duration_ms.is_some() {
                    return Err("ingest: --once and --duration-ms conflict".to_string());
                }
                let defaults = WindowOptions::default();
                let allowed_lateness = flags
                    .number::<f64>("allowed-lateness")?
                    .unwrap_or(defaults.allowed_lateness);
                if allowed_lateness.is_nan() || allowed_lateness < 0.0 {
                    return Err("--allowed-lateness: must be non-negative".to_string());
                }
                Ok(Invocation::Ingest {
                    follow,
                    push_addr,
                    state_dir: flags.value("state-dir")?.map(PathBuf::from),
                    registry_dir: flags.value("registry-dir")?.map(PathBuf::from),
                    model: flags.value("model")?.map(PathBuf::from),
                    interval_ms: flags.number("interval-ms")?.unwrap_or(200),
                    once,
                    duration_ms,
                    window_capacity: flags
                        .number("window-capacity")?
                        .unwrap_or(defaults.capacity),
                    min_points: flags.number("min-points")?.unwrap_or(defaults.min_points),
                    fire_interval: flags
                        .number("fire-interval")?
                        .unwrap_or(defaults.fire_interval),
                    max_records: flags
                        .number("max-records")?
                        .unwrap_or(defaults.max_total_records),
                    allowed_lateness,
                })
            }
            "sweep" => {
                let noise_levels = flags.list("noise")?;
                if let Some(levels) = &noise_levels {
                    if levels.len() < 2 {
                        return Err("--noise: need at least two levels".to_string());
                    }
                    if levels.windows(2).any(|w| w[1] <= w[0]) {
                        return Err("--noise: levels must be strictly ascending".to_string());
                    }
                }
                let matrix_noise = flags.number::<f64>("matrix-noise")?;
                if matrix_noise.is_some_and(|m| m.is_nan() || m <= 0.0) {
                    return Err("--matrix-noise: must be positive".to_string());
                }
                Ok(Invocation::Sweep {
                    out: flags.value("out")?.map(PathBuf::from),
                    thresholds_out: flags.value("thresholds-out")?.map(PathBuf::from),
                    functions: flags.number("functions")?.unwrap_or(100),
                    params: flags.number("params")?.unwrap_or(1),
                    noise_levels,
                    matrix_noise,
                    seed: flags.number("seed")?.unwrap_or(0x1265),
                    quick: flags.switch("quick"),
                })
            }
            "registry" => {
                let action = match positional.first().map(String::as_str) {
                    Some("stats") => RegistryAction::Stats,
                    Some("verify") => RegistryAction::Verify,
                    Some("gc") => RegistryAction::Gc,
                    Some("warm") => RegistryAction::Warm,
                    Some(other) => return Err(format!("registry: unknown action `{other}`")),
                    None => return Err("registry: missing action".to_string()),
                };
                let files: Vec<PathBuf> = positional[1..].iter().map(PathBuf::from).collect();
                let model = flags.value("model")?.map(PathBuf::from);
                match action {
                    RegistryAction::Warm if model.is_none() => {
                        return Err("registry warm: --model is required".to_string())
                    }
                    RegistryAction::Warm => {}
                    _ if !files.is_empty() => {
                        return Err("registry: this action takes no files".to_string())
                    }
                    _ => {}
                }
                let dry_run = flags.switch("dry-run");
                if dry_run && action != RegistryAction::Gc {
                    return Err("registry: --dry-run only applies to gc".to_string());
                }
                Ok(Invocation::Registry {
                    action,
                    dir: flags
                        .value("dir")?
                        .ok_or("registry: --dir is required")?
                        .into(),
                    model,
                    files,
                    ref_name: flags.value("ref")?,
                    cache_capacity: flags.number("cache-capacity")?.unwrap_or(1024),
                    adapt: flags.switch("adapt"),
                    dry_run,
                })
            }
            "cluster" => {
                let action = match positional.first().map(String::as_str) {
                    Some("launch") => ClusterAction::Launch,
                    Some("status") => ClusterAction::Status,
                    Some("drain") => ClusterAction::Drain,
                    Some("kill") => ClusterAction::Kill,
                    Some("rollout") => ClusterAction::Rollout,
                    Some(other) => return Err(format!("cluster: unknown action `{other}`")),
                    None => return Err("cluster: missing action".to_string()),
                };
                let rest = &positional[1..];
                let shard = match action {
                    ClusterAction::Drain | ClusterAction::Kill => {
                        let raw = match rest {
                            [one] => one,
                            _ => {
                                return Err(
                                    "cluster drain|kill: exactly one <shard> required".to_string()
                                )
                            }
                        };
                        Some(
                            raw.parse::<u32>()
                                .map_err(|_| format!("cluster: `{raw}` is not a shard id"))?,
                        )
                    }
                    _ if !rest.is_empty() => {
                        return Err("cluster: this action takes no extra arguments".to_string())
                    }
                    _ => None,
                };
                let model = flags.value("model")?.map(PathBuf::from);
                let needs_model = matches!(action, ClusterAction::Launch | ClusterAction::Rollout);
                if needs_model && model.is_none() {
                    return Err(format!(
                        "cluster {}: --model is required",
                        if action == ClusterAction::Launch {
                            "launch"
                        } else {
                            "rollout"
                        }
                    ));
                }
                if !needs_model && model.is_some() {
                    return Err("cluster: --model only applies to launch and rollout".to_string());
                }
                if action != ClusterAction::Launch {
                    for flag in [
                        "shards",
                        "workers",
                        "vnodes",
                        "registry-dir",
                        "replication",
                        "join-token",
                        "lease-ms",
                    ] {
                        if flags.value(flag)?.is_some() {
                            return Err(format!("cluster: --{flag} only applies to launch"));
                        }
                    }
                    for flag in ["debug-hooks", "standby"] {
                        if flags.switch(flag) {
                            return Err(format!("cluster: --{flag} only applies to launch"));
                        }
                    }
                }
                let shards = flags.number("shards")?.unwrap_or(3);
                if shards == 0 {
                    return Err("--shards: need at least one shard".to_string());
                }
                let vnodes = flags
                    .number("vnodes")?
                    .unwrap_or(nrpm_cluster::DEFAULT_VNODES);
                if vnodes == 0 {
                    return Err("--vnodes: need at least one virtual node".to_string());
                }
                let replication = flags.number("replication")?.unwrap_or(1);
                if replication == 0 {
                    return Err("--replication: need at least one replica".to_string());
                }
                let lease_ms = flags.number("lease-ms")?;
                if lease_ms == Some(0) {
                    return Err("--lease-ms: must be at least 1 ms".to_string());
                }
                Ok(Invocation::Cluster {
                    action,
                    model,
                    shards,
                    addr: flags
                        .value("addr")?
                        .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
                    workers: flags.number("workers")?.unwrap_or(2),
                    vnodes,
                    registry_dir: flags.value("registry-dir")?.map(PathBuf::from),
                    debug_hooks: flags.switch("debug-hooks"),
                    shard,
                    timeout_ms: flags.number("timeout-ms")?,
                    replication,
                    join_token: flags.value("join-token")?,
                    lease_ms,
                    standby: flags.switch("standby"),
                })
            }
            "query" => {
                let what = match positional.first().map(String::as_str) {
                    Some("health") => QueryKind::Health,
                    Some("stats") => QueryKind::Stats,
                    Some("shutdown") => QueryKind::Shutdown,
                    Some("model") => QueryKind::Model,
                    Some("batch") => QueryKind::Batch,
                    Some(other) => return Err(format!("query: unknown request `{other}`")),
                    None => return Err("query: missing request kind".to_string()),
                };
                let files: Vec<PathBuf> = positional[1..].iter().map(PathBuf::from).collect();
                match what {
                    QueryKind::Model if files.len() != 1 => {
                        return Err("query model: exactly one <file> required".to_string())
                    }
                    QueryKind::Batch if files.is_empty() => {
                        return Err("query batch: at least one <file> required".to_string())
                    }
                    QueryKind::Health | QueryKind::Stats | QueryKind::Shutdown
                        if !files.is_empty() =>
                    {
                        return Err("query: this request takes no files".to_string())
                    }
                    _ => {}
                }
                Ok(Invocation::Query {
                    what,
                    addr: flags
                        .value("addr")?
                        .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
                    files,
                    at: flags.list("at")?,
                    timeout_ms: flags.number("timeout-ms")?,
                    retries: flags.number("retries")?.unwrap_or(0),
                })
            }
            "fig3_accuracy" => Ok(Invocation::Harness(Harness::Fig3Accuracy {
                sweeps: fig3_sweeps(&flags, true)?,
                ci: flags.switch("ci"),
                show_dnn: flags.switch("show-dnn"),
            })),
            "fig3_power" => Ok(Invocation::Harness(Harness::Fig3Power {
                sweeps: fig3_sweeps(&flags, false)?,
                ci: flags.switch("ci"),
            })),
            "fig4_case_studies" => {
                let seed = flags.number("seed")?.unwrap_or(CASE_STUDY_SEED);
                Ok(Invocation::Harness(Harness::Fig4CaseStudies {
                    options: AdaptiveOptions {
                        dnn: dnn_options(&flags, Some(seed)),
                        use_domain_adaptation: !flags.switch("no-adaptation"),
                        ..Default::default()
                    },
                    seed,
                    show_models: flags.switch("show-models"),
                }))
            }
            "fig5_noise" => Ok(Invocation::Harness(Harness::Fig5Noise {
                seed: flags.number("seed")?.unwrap_or(CASE_STUDY_SEED),
            })),
            "fig6_overhead" => {
                let seed = flags.number("seed")?.unwrap_or(CASE_STUDY_SEED);
                Ok(Invocation::Harness(Harness::Fig6Overhead {
                    options: AdaptiveOptions {
                        dnn: dnn_options(&flags, Some(seed)),
                        ..Default::default()
                    },
                    seed,
                    trials: flags.count("trials", 3, 1)?,
                }))
            }
            "noise_estimator_eval" => {
                let defaults = EstimatorSpec::default();
                Ok(Invocation::Harness(Harness::NoiseEstimatorEval(
                    EstimatorSpec {
                        sets: flags.count("sets", defaults.sets, 1)?,
                        points: flags.count("points", defaults.points, 2)?,
                        reps: flags.count("reps", defaults.reps, 2)?,
                        seed: flags.number("seed")?.unwrap_or(defaults.seed),
                        levels: flags.list("noise")?.unwrap_or(defaults.levels),
                    },
                )))
            }
            "threshold_calibration" => {
                let template = SweepConfig {
                    noise_levels: flags
                        .list("noise")?
                        .unwrap_or(CALIBRATION_NOISE_LEVELS.to_vec()),
                    functions: flags.count("functions", 150, 1)?,
                    seed: flags.number("seed")?.unwrap_or(0x7123),
                    adaptation: true,
                    ..Default::default()
                };
                Ok(Invocation::Harness(Harness::ThresholdCalibration(
                    per_param_count(&flags, template)?,
                )))
            }
            "chaos_eval" => {
                let defaults = ChaosConfig::default();
                Ok(Invocation::Harness(Harness::ChaosEval(ChaosConfig {
                    campaigns: flags.count("campaigns", defaults.campaigns, 1)?,
                    seed: flags.number("seed")?.unwrap_or(defaults.seed),
                    noise: flags.number("noise")?.unwrap_or(defaults.noise),
                    rates: flags.list("rates")?.unwrap_or(defaults.rates),
                })))
            }
            "dump_campaigns" => Ok(Invocation::Harness(Harness::DumpCampaigns {
                out: flags
                    .value("out")?
                    .unwrap_or_else(|| "campaigns".to_string())
                    .into(),
                seed: flags.number("seed")?.unwrap_or(CASE_STUDY_SEED),
            })),
            other => Err(format!("unknown command `{other}`")),
        }?;
        match flags.unread().as_slice() {
            [] => {}
            [one] => return Err(format!("{command}: unknown flag --{one}")),
            many => return Err(format!("{command}: unknown flags --{}", many.join(", --"))),
        }
        // `registry`, `cluster` and `query` check their own positionals.
        let takes = match command.as_str() {
            "fit" | "noise" => 1,
            "registry" | "cluster" | "query" => usize::MAX,
            _ => 0,
        };
        match (positional.get(takes), follows.get(takes)) {
            (Some(token), Some(Some(switch))) => Err(format!(
                "{command}: --{switch} takes no value, got `{token}`"
            )),
            (Some(token), _) => Err(format!("{command}: unexpected argument `{token}`")),
            _ => Ok(invocation),
        }
    }
}

/// The DNN modeler `--paper-net` selects (the paper's full architecture, or
/// the compact default), seeded with `seed` when one is given.
fn dnn_options(flags: &Flags, seed: Option<u64>) -> DnnOptions {
    let dnn = if flags.switch("paper-net") {
        DnnOptions::paper_fidelity()
    } else {
        DnnOptions::default()
    };
    DnnOptions {
        seed: seed.unwrap_or(dnn.seed),
        ..dnn
    }
}

/// One copy of `template` per parameter count `--params` selects: `1`, `2`
/// or `3`, or all three when it is absent or `0`.
fn per_param_count(flags: &Flags, template: SweepConfig) -> Result<Vec<SweepConfig>, String> {
    let counts = match flags.number("params")?.unwrap_or(0) {
        0 => vec![1, 2, 3],
        m @ 1..=3 => vec![m],
        _ => return Err("--params: must be 1, 2 or 3 (0 runs all three)".to_string()),
    };
    Ok(counts
        .into_iter()
        .map(|num_params| SweepConfig {
            num_params,
            ..template.clone()
        })
        .collect())
}

/// The sweeps of `fig3_accuracy` and `fig3_power`, which read the same
/// flags; `--top-k` is read only when `top_k` is set (`fig3_accuracy`).
fn fig3_sweeps(flags: &Flags, top_k: bool) -> Result<Vec<SweepConfig>, String> {
    let defaults = SweepConfig::default();
    let seed = flags.number("seed")?;
    let aggregation = flags.aggregation()?;
    let mut dnn = dnn_options(flags, seed);
    if top_k {
        dnn.top_k = flags.number("top-k")?.unwrap_or(dnn.top_k);
    }
    dnn.aggregation = aggregation;
    if flags.switch("linear-encoding") {
        dnn.encoding = ValueScaling::MaxAbs;
    }
    let template = SweepConfig {
        noise_levels: flags.list("noise")?.unwrap_or(defaults.noise_levels),
        functions: flags.count("functions", defaults.functions, 1)?,
        seed: seed.unwrap_or(defaults.seed),
        dnn,
        adaptation: !flags.switch("no-adaptation"),
        repetitions: flags.count("reps", defaults.repetitions, 1)?,
        aggregation,
        refined_baseline: flags.switch("refined-baseline"),
        ..defaults
    };
    per_param_count(flags, template)
}

/// Loads a measurement set from a text or JSON file. Every failure carries
/// the offending path (and, for text files, the line number).
pub fn load_measurements(path: &Path) -> Result<MeasurementSet, String> {
    if path.extension().is_some_and(|e| e == "json") {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        MeasurementSet::from_json(&raw).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        parse_text_file(path)
            .map(|named| named.set)
            .map_err(|e| e.to_string())
    }
}

/// Executes an invocation and returns the text to print.
pub fn run(invocation: &Invocation) -> Result<String, CliError> {
    match invocation {
        Invocation::Fit {
            file,
            adaptive,
            network,
            at,
            policy,
            thresholds,
            regime,
        } => {
            let set = load_measurements(file).map_err(CliError::io)?;
            let mut out = String::new();
            if *adaptive {
                let options = AdaptiveOptions {
                    sanitize: SanitizeOptions {
                        policy: *policy,
                        ..Default::default()
                    },
                    thresholds: thresholds
                        .as_deref()
                        .map(|path| load_switch_thresholds(path, regime.as_deref()))
                        .transpose()?,
                    ..Default::default()
                };
                let mut modeler = match network {
                    Some(path) => {
                        let net = Network::load(path)
                            .map_err(|e| CliError::io(format!("{}: {e}", path.display())))?;
                        AdaptiveModeler::from_network(options, net)
                    }
                    None => {
                        let _ = writeln!(out, "pretraining the DNN (pass --network to skip)...");
                        AdaptiveModeler::pretrained(options)
                    }
                };
                let outcome = modeler.model(&set).map_err(CliError::model)?;
                out.push_str(&render_outcome(&outcome));
                if let Some(point) = at {
                    let _ = writeln!(
                        out,
                        "prediction at {:?}: {:.6}",
                        point,
                        outcome.result.model.evaluate(point)
                    );
                }
            } else {
                // The regression-only path honors the same input policy.
                let sanitize_opts = SanitizeOptions {
                    policy: *policy,
                    ..Default::default()
                };
                let (clean, quality) = sanitize(&set, &sanitize_opts);
                if *policy == SanitizePolicy::Strict && !quality.is_clean() {
                    return Err(CliError::model(ModelError::CorruptData {
                        dropped: quality.dropped() + quality.points_dropped,
                        clamped: quality.clamped,
                    }));
                }
                if clean.is_empty() {
                    return Err(CliError::model(ModelError::NoUsableData));
                }
                let result = RegressionModeler::default()
                    .model(&clean)
                    .map_err(CliError::model)?;
                let _ = writeln!(out, "model:      {}", result.model);
                let _ = writeln!(out, "growth:     {}", result.model.asymptotic_string());
                let _ = writeln!(
                    out,
                    "selection:  regression modeler (cv-SMAPE {:.3}%, fit-SMAPE {:.3}%)",
                    result.cv_smape, result.fit_smape
                );
                if !quality.is_clean() {
                    let _ = writeln!(
                        out,
                        "quality:    {} of {} points removed, {} repetitions dropped, {} clamped",
                        quality.points_dropped,
                        quality.points_in,
                        quality.dropped(),
                        quality.clamped,
                    );
                }
                if let Some(point) = at {
                    let _ = writeln!(
                        out,
                        "prediction at {:?}: {:.6}",
                        point,
                        result.model.evaluate(point)
                    );
                }
            }
            Ok(out)
        }
        Invocation::Noise { file } => {
            let set = load_measurements(file).map_err(CliError::io)?;
            let est = NoiseEstimate::of(&set);
            let mut out = String::new();
            if est.is_empty() {
                let _ = writeln!(
                    out,
                    "no repetition information (need >= 2 values per point)"
                );
            } else {
                let _ = writeln!(out, "points analyzed: {}", est.per_point.len());
                let _ = writeln!(out, "mean noise:      {:.2}%", est.mean() * 100.0);
                let _ = writeln!(out, "median noise:    {:.2}%", est.median() * 100.0);
                let _ = writeln!(
                    out,
                    "range:           [{:.2}, {:.2}]%",
                    est.min() * 100.0,
                    est.max() * 100.0
                );
                let _ = writeln!(out, "pooled estimate: {:.2}%", est.pooled * 100.0);
            }
            Ok(out)
        }
        Invocation::Pretrain {
            out,
            samples,
            epochs,
            paper_net,
            train_threads,
        } => {
            let mut options = if *paper_net {
                DnnOptions::paper_fidelity()
            } else {
                DnnOptions::default()
            };
            options.pretrain_spec.samples_per_class = *samples;
            options.pretrain_epochs = *epochs;
            options.train_threads = *train_threads;
            let modeler = DnnModeler::pretrained(options);
            let network = modeler.network();
            let (top1, top3) = held_out_accuracy(network).map_err(|e| CliError {
                message: format!("held-out evaluation: {e}"),
                code: 5,
            })?;
            network
                .save(out)
                .map_err(|e| CliError::io(format!("{}: {e}", out.display())))?;
            Ok(format!(
                "held-out (full noise range): top-1 {top1:.3}, top-3 {top3:.3}\n\
                 trained {} parameters, saved to {}\n",
                network.num_parameters(),
                out.display()
            ))
        }
        Invocation::Serve {
            model,
            addr,
            workers,
            adapt,
            timeout_ms,
            queue_depth,
            max_conns,
            io_timeout_ms,
            work_delay_ms,
            cache_capacity,
            cache_dir,
            train_threads,
            adapt_interval_ms,
            swap_smape_tolerance,
            join,
            join_token,
            advertise,
            feed,
            thresholds,
            regime,
            quantize,
        } => {
            // Divide the thread budget among the serving workers so
            // concurrent adaptation jobs don't oversubscribe the cores.
            // When the background adaptation engine runs, it *reserves* a
            // quarter of the budget for its retraining up front — the
            // engine's threads come out of the same process-wide budget,
            // never on top of the serve workers'.
            let budget = if *train_threads > 0 {
                *train_threads
            } else {
                ThreadBudget::get()
            };
            let adapt_threads = if adapt_interval_ms.is_some() {
                (budget / 4).max(1)
            } else {
                0
            };
            let serve_budget = budget.saturating_sub(adapt_threads).max(1);
            ThreadBudget::set((serve_budget / (*workers).max(1)).max(1));
            let mut core_opts = AdaptiveOptions {
                thresholds: thresholds
                    .as_deref()
                    .map(|path| load_switch_thresholds(path, regime.as_deref()))
                    .transpose()?,
                ..Default::default()
            };
            // The flag rides on the modeler options the store hands every
            // worker: each warm rebuild re-runs the quantization gate, so a
            // hot-swapped checkpoint that fails it falls back to f64.
            core_opts.dnn.quantize = *quantize;
            let store = ModelStore::open(model, core_opts)
                .map_err(|e| CliError::io(format!("{}: {e}", model.display())))?;
            let mut opts = ServeOptions {
                workers: *workers,
                adapt: *adapt,
                queue_depth: *queue_depth,
                max_conns: *max_conns,
                work_delay: work_delay_ms.map(Duration::from_millis),
                cache_capacity: *cache_capacity,
                cache_dir: cache_dir.clone(),
                ..Default::default()
            };
            if let Some(t) = timeout_ms {
                opts.default_timeout = Duration::from_millis(*t);
            }
            if let Some(t) = io_timeout_ms {
                opts.io_timeout = Duration::from_millis(*t);
            }
            if let Some(interval) = adapt_interval_ms {
                opts.adaptation = AdaptOptions {
                    enabled: true,
                    interval: Duration::from_millis(*interval),
                    smape_tolerance: swap_smape_tolerance
                        .unwrap_or(AdaptOptions::default().smape_tolerance),
                    // Adapted checkpoints and the swap journal live beside
                    // the result cache, so one directory is the server's
                    // whole durable state.
                    dir: cache_dir.clone(),
                    train_threads: adapt_threads,
                    ..Default::default()
                };
            }
            if *feed {
                // The feed watcher rides on the adaptation engine; without
                // --adapt-interval the engine runs but its scheduled
                // retrain cycles never trigger.
                opts.adaptation.enabled = true;
                opts.adaptation.feed = true;
                opts.adaptation.dir = cache_dir.clone();
                if adapt_interval_ms.is_none() {
                    opts.adaptation.min_observations = usize::MAX;
                }
            }
            let checkpoint_hash = store.checkpoint_hash();
            let server = Server::start(addr, store, opts)
                .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
            // Announce the bound address immediately (scripts poll for it);
            // `run` only returns once the server has drained.
            println!(
                "nrpm-serve listening on {} ({} workers)",
                server.addr(),
                workers
            );
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            // Enroll with a cluster router as a network shard; the agent
            // heartbeats (and rejoins after router failover) until the
            // server drains.
            let _join_agent = join
                .as_deref()
                .map(|router| -> Result<JoinAgent, CliError> {
                    let router_addr = resolve_addr(router)?;
                    let advertise_addr = match advertise.as_deref() {
                        Some(a) => resolve_addr(a)?,
                        None => server.addr(),
                    };
                    let token = join_token.clone().expect("parse enforces --join-token");
                    println!("joining cluster at {router_addr} as {advertise_addr}");
                    std::io::stdout().flush().ok();
                    Ok(JoinAgent::start(JoinAgentOptions::new(
                        router_addr,
                        token,
                        advertise_addr,
                        checkpoint_hash,
                    )))
                })
                .transpose()?;
            server
                .join()
                .map_err(|_| CliError::io("a server thread panicked"))?;
            Ok("server drained cleanly\n".to_string())
        }
        Invocation::Registry {
            action,
            dir,
            model,
            files,
            ref_name,
            cache_capacity,
            adapt,
            dry_run,
        } => match action {
            RegistryAction::Stats => registry_stats(dir),
            RegistryAction::Verify => registry_verify(dir),
            RegistryAction::Gc => registry_gc(dir, *cache_capacity, *dry_run),
            RegistryAction::Warm => registry_warm(
                dir,
                model.as_deref().expect("parse enforces --model"),
                files,
                ref_name.as_deref().unwrap_or("default"),
                *cache_capacity,
                *adapt,
            ),
        },
        Invocation::Harness(harness) => {
            // Straight to stdout, so each table shows as soon as it is
            // computed: a `--paper-net` sweep runs for many minutes.
            harness
                .run(&mut std::io::stdout())
                .map_err(|e| CliError::io(e.to_string()))?;
            Ok(String::new())
        }
        Invocation::Query {
            what,
            addr,
            files,
            at,
            timeout_ms,
            retries,
        } => {
            let socket = resolve_addr(addr)?;
            let connect_timeout = Duration::from_millis(timeout_ms.unwrap_or(30_000).max(1));
            let mut sets = files
                .iter()
                .map(|f| load_measurements(f))
                .collect::<Result<Vec<_>, String>>()
                .map_err(CliError::io)?;
            let response = if *retries > 0 {
                // Overload-aware path: shed/timed-out responses and
                // transport failures are retried with backoff + jitter.
                let policy = RetryPolicy {
                    max_attempts: retries.saturating_add(1),
                    ..Default::default()
                };
                let mut client = RetryingClient::new(socket, connect_timeout, policy);
                let result = match what {
                    QueryKind::Health => client.roundtrip_line(r#"{"cmd":"health"}"#),
                    QueryKind::Stats => client
                        .roundtrip_line(r#"{"cmd":"stats"}"#)
                        .map(|response| response.get("stats").cloned().unwrap_or(response)),
                    QueryKind::Shutdown => client.roundtrip_line(r#"{"cmd":"shutdown"}"#),
                    QueryKind::Model => client.model(sets.remove(0), at.clone(), *timeout_ms),
                    QueryKind::Batch => client.batch(sets, *timeout_ms),
                };
                result.map_err(|e| CliError {
                    message: format!("{addr}: {e}"),
                    code: 4, // gave up on a retryable condition
                })?
            } else {
                let mut client = Client::connect(socket, connect_timeout)
                    .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
                match what {
                    QueryKind::Health => client.health(),
                    QueryKind::Stats => client.stats(),
                    QueryKind::Shutdown => client.shutdown(),
                    QueryKind::Model => client.model(sets.remove(0), at.clone(), *timeout_ms),
                    QueryKind::Batch => client.batch(sets, *timeout_ms),
                }
                .map_err(|e| CliError::io(format!("{addr}: {e}")))?
            };
            response_to_output(&response)
        }
        Invocation::Cluster {
            action,
            model,
            shards,
            addr,
            workers,
            vnodes,
            registry_dir,
            debug_hooks,
            shard,
            timeout_ms,
            replication,
            join_token,
            lease_ms,
            standby,
        } => match action {
            ClusterAction::Launch => cluster_launch(ClusterLaunchArgs {
                model: model.as_deref().expect("parse enforces --model"),
                shards: *shards,
                addr,
                workers: *workers,
                vnodes: *vnodes,
                registry_dir: registry_dir.as_deref(),
                debug_hooks: *debug_hooks,
                replication: *replication,
                join_token: join_token.clone(),
                lease_ms: *lease_ms,
                standby: *standby,
            }),
            ClusterAction::Status => cluster_status(addr, *timeout_ms),
            ClusterAction::Drain => cluster_signal(
                "drain",
                shard.expect("parse enforces <shard>"),
                addr,
                *timeout_ms,
            ),
            ClusterAction::Kill => cluster_signal(
                "kill",
                shard.expect("parse enforces <shard>"),
                addr,
                *timeout_ms,
            ),
            ClusterAction::Rollout => cluster_rollout(
                model.as_deref().expect("parse enforces --model"),
                addr,
                *timeout_ms,
            ),
        },
        Invocation::Ingest {
            follow,
            push_addr,
            state_dir,
            registry_dir,
            model,
            interval_ms,
            once,
            duration_ms,
            window_capacity,
            min_points,
            fire_interval,
            max_records,
            allowed_lateness,
        } => run_ingest(IngestArgs {
            follow: follow.as_deref(),
            push_addr: push_addr.as_deref(),
            state_dir: state_dir.clone(),
            registry_dir: registry_dir.clone(),
            model: model.as_deref(),
            interval: Duration::from_millis((*interval_ms).max(1)),
            once: *once,
            duration: duration_ms.map(Duration::from_millis),
            windows: WindowOptions {
                capacity: *window_capacity,
                min_points: *min_points,
                fire_interval: *fire_interval,
                max_total_records: *max_records,
                allowed_lateness: *allowed_lateness,
            },
        }),
        Invocation::Sweep {
            out,
            thresholds_out,
            functions,
            params,
            noise_levels,
            matrix_noise,
            seed,
            quick,
        } => run_sweep(
            out.as_deref(),
            thresholds_out.as_deref(),
            RegimeSweepConfig {
                num_params: (*params).max(1),
                functions: (*functions).max(1),
                seed: *seed,
                ..Default::default()
            },
            noise_levels.clone(),
            *matrix_noise,
            *quick,
        ),
    }
}

/// Loads a `nrpm sweep` threshold table and extracts the switch vector for
/// `regime` (default `uniform`).
fn load_switch_thresholds(path: &Path, regime: Option<&str>) -> Result<Vec<f64>, CliError> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("{}: {e}", path.display())))?;
    let table = ThresholdTable::from_json(&raw)
        .map_err(|e| CliError::io(format!("{}: {e}", path.display())))?;
    let regime = regime.unwrap_or("uniform");
    table.switch_thresholds(regime).ok_or_else(|| {
        CliError::io(format!(
            "{}: regime `{regime}` is not in the table or has no crossover \
             (regimes: {})",
            path.display(),
            table
                .entries
                .iter()
                .map(|e| e.regime.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })
}

/// What `nrpm ingest` passes down to [`run_ingest`].
struct IngestArgs<'a> {
    follow: Option<&'a Path>,
    push_addr: Option<&'a str>,
    state_dir: Option<PathBuf>,
    registry_dir: Option<PathBuf>,
    model: Option<&'a Path>,
    interval: Duration,
    once: bool,
    duration: Option<Duration>,
    windows: WindowOptions,
}

/// `nrpm ingest`: open the engine (resuming from the journal), announce
/// the sources, and pump them until `--once` drains, `--duration-ms`
/// elapses, or forever.
fn run_ingest(args: IngestArgs<'_>) -> Result<String, CliError> {
    let base = args
        .model
        .map(|path| {
            Network::load(path).map_err(|e| CliError::io(format!("{}: {e}", path.display())))
        })
        .transpose()?;
    let opts = IngestOptions {
        windows: args.windows,
        state_dir: args.state_dir,
        registry_dir: args.registry_dir,
        ..Default::default()
    };
    let (mut engine, recovery) =
        IngestEngine::open(opts, base).map_err(|e| CliError::io(e.to_string()))?;
    if let Some(resume) = &recovery.resume {
        println!(
            "nrpm-ingest resuming at line {} (offset {}), {} records accounted",
            resume.resume_line, resume.resume_offset, resume.counters.records
        );
    }
    let push = args
        .push_addr
        .map(|addr| PushSource::bind(addr).map_err(|e| CliError::io(format!("{addr}: {e}"))))
        .transpose()?;
    if let Some(push) = &push {
        println!("nrpm-ingest push source on {}", push.local_addr());
    }
    let mut source = args.follow.map(FollowSource::open);
    if let Some(source) = &mut source {
        println!("nrpm-ingest following {}", source.path().display());
        source.seek_to(engine.resume_offset());
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let deadline = args.duration.map(|d| std::time::Instant::now() + d);
    loop {
        let mut news = 0usize;
        if let Some(source) = &mut source {
            news += engine
                .poll_source(source)
                .map_err(|e| CliError::io(format!("poll: {e}")))?;
        }
        if let Some(push) = &push {
            news += engine
                .poll_push(push)
                .map_err(|e| CliError::io(e.to_string()))?;
        }
        if args.once && news == 0 {
            break;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break;
        }
        if news == 0 {
            std::thread::sleep(args.interval);
        }
    }
    if args.once {
        // Drained to EOF: the held tail line is a complete record.
        engine.flush_tail();
    }
    engine
        .checkpoint()
        .map_err(|e| CliError::io(e.to_string()))?;

    let c = engine.counters();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ingested {} records ({} late-dropped, {} shed, {} evicted, {} parse errors)",
        c.records, c.late_dropped, c.shed, c.evicted, c.parse_errors
    );
    let _ = writeln!(
        out,
        "sanitizer: {} values dropped, {} clamped, {} records unusable",
        c.values_dropped, c.values_clamped, c.records_dropped
    );
    let _ = writeln!(
        out,
        "windows fired {} times, {} models published ({} re-model failures)",
        c.windows_fired, c.models_published, c.remodel_failures
    );
    if let Some(hash) = engine.last_published() {
        let _ = writeln!(
            out,
            "latest candidate {} under ref `{}`",
            hex16(hash),
            nrpm_ingest::INGEST_CANDIDATE_REF
        );
    }
    Ok(out)
}

/// `nrpm sweep`: run the regime grid, render the crossover and transfer
/// tables, and write the JSON artifacts.
fn run_sweep(
    out_path: Option<&Path>,
    thresholds_out: Option<&Path>,
    mut config: RegimeSweepConfig,
    noise_levels: Option<Vec<f64>>,
    matrix_noise: Option<f64>,
    quick: bool,
) -> Result<String, CliError> {
    if let Some(levels) = noise_levels {
        config.noise_levels = levels;
    }
    if let Some(m) = matrix_noise {
        config.matrix_noise = m;
    }
    if quick {
        // CI-sized: a small network, short pretraining, light adaptation.
        config.dnn.network = nrpm_nn::NetworkConfig::new(&[
            nrpm_core::preprocess::NUM_INPUTS,
            48,
            nrpm_extrap::NUM_CLASSES,
        ]);
        config.dnn.pretrain_spec.samples_per_class = 30;
        config.dnn.pretrain_epochs = 3;
        config.dnn.adaptation_samples_per_class = 12;
    }
    let result = run_regime_sweep(&config);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== regime crossover calibration (m = {}, {} functions/cell) ==",
        config.num_params, config.functions
    );
    for entry in &result.table.entries {
        let threshold = match entry.threshold {
            Some(t) => format!("{:.1}%", t * 100.0),
            None => "no crossover (regression dominates)".to_string(),
        };
        let _ = writeln!(out, "  {:<16} threshold {}", entry.regime, threshold);
        let curve = |acc: &[f64]| {
            acc.iter()
                .map(|a| format!("{:>5.1}", a * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(
            out,
            "    noise   {}",
            entry
                .noise_levels
                .iter()
                .map(|n| format!("{:>5.2}", n))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(out, "    reg %   {}", curve(&entry.regression_accuracy));
        let _ = writeln!(out, "    dnn %   {}", curve(&entry.dnn_accuracy));
    }
    let _ = writeln!(
        out,
        "\n== transfer matrix: DNN accuracy %, adapt on row / test on column \
         (noise {:.2}) ==",
        result.matrix_noise
    );
    let names: Vec<&str> = {
        let mut seen = Vec::new();
        for cell in &result.matrix {
            if !seen.contains(&cell.train.as_str()) {
                seen.push(cell.train.as_str());
            }
        }
        seen
    };
    let _ = writeln!(
        out,
        "  {:<16} {}",
        "train \\ test",
        names
            .iter()
            .map(|n| format!("{:>16}", n))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for train in &names {
        let cells = names
            .iter()
            .map(|test| {
                result
                    .cell(train, test)
                    .map(|c| format!("{:>16.1}", c.dnn_accuracy * 100.0))
                    .unwrap_or_else(|| format!("{:>16}", "-"))
            })
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "  {train:<16} {cells}");
    }

    if let Some(path) = out_path {
        std::fs::write(path, result.to_json())
            .map_err(|e| CliError::io(format!("{}: {e}", path.display())))?;
        let _ = writeln!(out, "\nwrote {}", path.display());
    }
    if let Some(path) = thresholds_out {
        std::fs::write(path, result.table.to_json())
            .map_err(|e| CliError::io(format!("{}: {e}", path.display())))?;
        let _ = writeln!(out, "wrote {}", path.display());
    }
    Ok(out)
}

/// What `nrpm cluster launch` passes down to [`cluster_launch`].
struct ClusterLaunchArgs<'a> {
    model: &'a Path,
    shards: usize,
    addr: &'a str,
    workers: usize,
    vnodes: usize,
    registry_dir: Option<&'a Path>,
    debug_hooks: bool,
    replication: usize,
    join_token: Option<String>,
    lease_ms: Option<u64>,
    standby: bool,
}

/// `nrpm cluster launch`: start the sharded tier, announce the router's
/// bound address, and block until the tier is drained.
fn cluster_launch(args: ClusterLaunchArgs<'_>) -> Result<String, CliError> {
    let ClusterLaunchArgs {
        model,
        shards,
        addr,
        workers,
        vnodes,
        registry_dir,
        debug_hooks,
        replication,
        join_token,
        lease_ms,
        standby,
    } = args;
    let network =
        Network::load(model).map_err(|e| CliError::io(format!("{}: {e}", model.display())))?;
    let mut opts = ClusterOptions {
        shards,
        vnodes,
        workers_per_shard: workers,
        router_addr: addr.to_string(),
        registry_dir: registry_dir.map(Path::to_path_buf),
        debug_hooks,
        replication,
        join_token,
        standby,
        ..ClusterOptions::default()
    };
    if let Some(ms) = lease_ms {
        opts.member_lease = Duration::from_millis(ms);
    }
    let cluster =
        Cluster::launch(network, opts).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    // Announce the bound address immediately (scripts poll for it); `run`
    // only returns once the whole tier has drained.
    println!(
        "nrpm-cluster router listening on {} ({} shards)",
        cluster.router_addr(),
        cluster.shards()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    cluster
        .join()
        .map_err(|_| CliError::io("a cluster thread panicked"))?;
    Ok("cluster drained cleanly\n".to_string())
}

/// `nrpm cluster status`: one `stats` roundtrip against the router,
/// rendered as a per-shard table plus the divergence verdict.
fn cluster_status(addr: &str, timeout_ms: Option<u64>) -> Result<String, CliError> {
    let socket = resolve_addr(addr)?;
    let timeout = Duration::from_millis(timeout_ms.unwrap_or(30_000).max(1));
    let mut client =
        Client::connect(socket, timeout).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let stats = client
        .stats()
        .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    if stats.get("service").and_then(Value::as_str) != Some("nrpm-cluster-router") {
        return Err(CliError::io(format!(
            "{addr}: not an nrpm-cluster router (is this a plain nrpm-serve backend?)"
        )));
    }
    let num = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0);
    let diverged = |k: &str| stats.get(k).and_then(Value::as_bool).unwrap_or(false);
    let verdict = |k| if diverged(k) { "DIVERGED" } else { "uniform" };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "router:     {addr} ({}, generation {})",
        stats.get("role").and_then(Value::as_str).unwrap_or("?"),
        num("generation")
    );
    let _ = writeln!(
        out,
        "shards:     {} ({} routable), replication {}",
        num("shards"),
        num("routable"),
        num("replication").max(1)
    );
    let _ = writeln!(
        out,
        "requests:   {} routed, {} failovers, {} rejected",
        num("requests_routed"),
        num("failovers"),
        num("rejected")
    );
    let _ = writeln!(
        out,
        "replicas:   {} fanouts, {} divergences resolved by quorum",
        num("replica_fanouts"),
        num("replica_divergences")
    );
    let _ = writeln!(
        out,
        "membership: {} joins, {} lease expiries, {} rollouts",
        num("joins"),
        num("lease_expiries"),
        num("rollouts")
    );
    let _ = writeln!(
        out,
        "serving:    {}",
        stats
            .get("serving_hash")
            .and_then(Value::as_str)
            .unwrap_or("(no registry)")
    );
    let _ = writeln!(
        out,
        "divergence: checkpoint {}, epoch {}",
        verdict("checkpoint_divergence"),
        verdict("epoch_divergence")
    );
    if let Some(per_shard) = stats.get("per_shard").and_then(Value::as_seq) {
        for shard in per_shard {
            let s = |k: &str| shard.get(k).and_then(Value::as_str).unwrap_or("?");
            let n = |k: &str| shard.get(k).and_then(Value::as_u64).unwrap_or(0);
            let remote = shard
                .get("remote")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let origin = if remote {
                match shard.get("lease_ms").and_then(Value::as_u64) {
                    Some(ms) => format!("network (lease {ms}ms)"),
                    None => "network (adopted)".to_string(),
                }
            } else {
                "local".to_string()
            };
            let _ = writeln!(
                out,
                "shard {}: {:<9} {:<21} routed {:<6} failed {:<4} checkpoint {} epoch {} {origin}",
                n("shard"),
                s("state"),
                s("addr"),
                n("routed"),
                n("failed"),
                shard
                    .get("checkpoint_hash")
                    .and_then(Value::as_str)
                    .unwrap_or("-"),
                n("epoch"),
            );
        }
    }
    Ok(out)
}

/// `nrpm cluster drain|kill`: one admin roundtrip against the router.
fn cluster_signal(
    action: &str,
    shard: u32,
    addr: &str,
    timeout_ms: Option<u64>,
) -> Result<String, CliError> {
    let socket = resolve_addr(addr)?;
    let timeout = Duration::from_millis(timeout_ms.unwrap_or(30_000).max(1));
    let mut client =
        Client::connect(socket, timeout).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let response = client
        .roundtrip_line(&format!(r#"{{"cmd":"cluster_{action}","shard":{shard}}}"#))
        .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    response_to_output(&response)
}

/// `nrpm cluster rollout`: push a new checkpoint through the router's
/// rolling-rollout driver. The walk is synchronous on the router side
/// (drain → sync → swap → verify per shard), so the default timeout is
/// generous.
fn cluster_rollout(model: &Path, addr: &str, timeout_ms: Option<u64>) -> Result<String, CliError> {
    let network =
        Network::load(model).map_err(|e| CliError::io(format!("{}: {e}", model.display())))?;
    let socket = resolve_addr(addr)?;
    let timeout = Duration::from_millis(timeout_ms.unwrap_or(120_000).max(1));
    let request = serde_json::to_string(&Value::Map(vec![
        ("cmd".to_string(), Value::Str("cluster_rollout".to_string())),
        ("network".to_string(), Value::Str(network.to_json())),
    ]))
    .map_err(|e| CliError::io(format!("{}: {e}", model.display())))?;
    let mut client =
        Client::connect(socket, timeout).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let response = client
        .roundtrip_line(&request)
        .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    if !nrpm_serve::client::is_ok(&response) {
        return response_to_output(&response);
    }
    let shard_list = |k: &str| -> String {
        let ids: Vec<String> = response
            .get(k)
            .and_then(Value::as_seq)
            .map(|seq| {
                seq.iter()
                    .filter_map(Value::as_u64)
                    .map(|id| id.to_string())
                    .collect()
            })
            .unwrap_or_default();
        if ids.is_empty() {
            "(none)".to_string()
        } else {
            ids.join(", ")
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rolled out: {}",
        response
            .get("target")
            .and_then(Value::as_str)
            .unwrap_or("?")
    );
    let _ = writeln!(out, "updated:    {}", shard_list("updated"));
    let _ = writeln!(
        out,
        "skipped:    {} (network members)",
        shard_list("skipped_remote")
    );
    Ok(out)
}

/// Maps a registry-layer failure onto exit code 3, carrying the directory.
fn in_dir(dir: &Path, e: impl std::fmt::Display) -> CliError {
    CliError::io(format!("{}: {e}", dir.display()))
}

/// Opens the checkpoint registry at `dir`. Read-only actions require the
/// directory to exist already (opening creates `objects/` and `refs/`).
fn open_registry(dir: &Path, must_exist: bool) -> Result<CheckpointRegistry, CliError> {
    if must_exist && !dir.is_dir() {
        return Err(CliError::io(format!(
            "{}: no such registry directory",
            dir.display()
        )));
    }
    CheckpointRegistry::open(dir).map_err(|e| in_dir(dir, e))
}

/// A read-only scan of one crash-safe log in a registry directory.
type LogScan = fn(&Path) -> Result<RecoveryReport, JournalError>;

/// Every crash-safe log a registry directory may hold: its label in CLI
/// output, its file name, and its read-only scan.
const LOGS: [(&str, &str, LogScan); 3] = [
    (
        "cache journal",
        JOURNAL_FILE,
        Journal::<(u64, AdaptiveOutcome)>::verify,
    ),
    (
        "swap journal",
        SWAP_JOURNAL_FILE,
        Journal::<SwapRecord>::verify,
    ),
    (
        "rollout journal",
        ROLLOUT_JOURNAL_FILE,
        Journal::<RolloutRecord>::verify,
    ),
];

/// `nrpm registry stats`: checkpoints, refs, and the occupancy of every log.
fn registry_stats(dir: &Path) -> Result<String, CliError> {
    let registry = open_registry(dir, true)?;
    let objects = registry.list().map_err(|e| in_dir(dir, e))?;
    let mut refs = registry.refs().map_err(|e| in_dir(dir, e))?;
    refs.sort();
    let mut out = String::new();
    let _ = writeln!(out, "checkpoints:   {}", objects.len());
    for (name, hash) in refs {
        let _ = writeln!(out, "ref:           {name} -> {}", hex16(hash));
    }
    for (label, file, scan) in LOGS {
        let path = dir.join(file);
        if !path.exists() {
            let _ = writeln!(out, "{label}: none");
            continue;
        }
        let bytes = std::fs::metadata(&path).map_err(|e| in_dir(dir, e))?.len();
        let report = scan(&path).map_err(|e| in_dir(dir, e))?;
        let _ = writeln!(
            out,
            "{label}: {} records, {} bytes{}",
            report.records,
            bytes,
            if report.repaired {
                " (torn tail pending repair)"
            } else {
                ""
            }
        );
    }
    Ok(out)
}

/// `nrpm registry verify`: read-only integrity sweep over checkpoint
/// objects, refs, and every log (cache, swap, rollout). Damage exits 4
/// without touching anything on disk.
fn registry_verify(dir: &Path) -> Result<String, CliError> {
    let registry = open_registry(dir, true)?;
    let outcome = registry.verify().map_err(|e| in_dir(dir, e))?;
    let mut problems: Vec<String> = outcome
        .issues
        .iter()
        .map(|issue| match issue {
            VerifyIssue::HashMismatch { named, actual } => format!(
                "checkpoint {}: content actually hashes to {}",
                hex16(*named),
                hex16(*actual)
            ),
            VerifyIssue::Unloadable { hash, error } => {
                format!("checkpoint {}: not loadable: {error}", hex16(*hash))
            }
            VerifyIssue::DanglingRef { name, target } => {
                format!("ref {name}: dangling target `{target}`")
            }
        })
        .collect();
    let mut cached = 0usize;
    for (label, file, scan) in LOGS {
        let path = dir.join(file);
        if !path.exists() {
            continue;
        }
        match scan(&path) {
            Ok(report) => {
                if file == JOURNAL_FILE {
                    cached = report.records;
                }
                if report.repaired {
                    problems.push(format!(
                        "{label}: torn tail, {} trailing bytes need truncation \
                         (recovered on the next open)",
                        report.truncated_bytes
                    ));
                }
            }
            Err(e) => problems.push(format!("{label}: {e}")),
        }
    }
    if problems.is_empty() {
        Ok(format!(
            "registry clean: {} checkpoint(s) intact, {} cached outcome(s)\n",
            outcome.intact, cached
        ))
    } else {
        Err(CliError {
            message: problems.join("\n"),
            code: 4,
        })
    }
}

/// `nrpm registry gc`: drop checkpoints no ref points at and rewrite the
/// cache journal down to its live entries. Checkpoints named by the swap
/// journal — the serving one, the previous (rollback-target) one, and any
/// pending swap's candidate — and by the rollout journal — the last
/// completed target and both sides of a pending rollout — are pinned even
/// without a ref, so a crash, rollback or resumed rollout can never land
/// on a collected hash.
fn registry_gc(dir: &Path, cache_capacity: usize, dry_run: bool) -> Result<String, CliError> {
    let registry = open_registry(dir, true)?;
    type LiveHashes = fn(&Path) -> std::io::Result<std::collections::HashSet<u64>>;
    // Every journal that can name a checkpoint no ref points at: a swap's
    // serving and rollback targets, an interrupted rollout's target and
    // incumbent. Their union is pinned.
    let journals: [(&str, &str, LiveHashes); 2] = [
        ("swap", SWAP_JOURNAL_FILE, |d| {
            Ok(SwapJournal::open(d)?.0.live_hashes())
        }),
        ("rollout", ROLLOUT_JOURNAL_FILE, |d| {
            Ok(RolloutJournal::open(d)?.0.live_hashes())
        }),
    ];
    let mut pins = std::collections::HashSet::new();
    let mut out = String::new();
    for (name, file, live_hashes) in journals {
        if !dir.join(file).exists() {
            continue;
        }
        let live = live_hashes(dir).map_err(|e| {
            CliError::io(format!(
                "{}: cannot read {name} journal: {e}",
                dir.display()
            ))
        })?;
        let _ = writeln!(out, "{name}-journal pinned checkpoints: {}", live.len());
        if dry_run {
            let mut pinned: Vec<u64> = live.iter().copied().collect();
            pinned.sort_unstable();
            for hash in pinned {
                let _ = writeln!(out, "pinned checkpoint {} ({name} journal)", hex16(hash));
            }
        }
        pins.extend(live);
    }
    if dry_run {
        let doomed = registry.gc_plan(&pins).map_err(|e| in_dir(dir, e))?;
        for hash in &doomed {
            let _ = writeln!(out, "would remove unreferenced checkpoint {}", hex16(*hash));
        }
        let _ = writeln!(
            out,
            "checkpoints that would be removed: {} (dry run; nothing deleted)",
            doomed.len()
        );
        return Ok(out);
    }
    let removed = registry.gc_with_pins(&pins).map_err(|e| in_dir(dir, e))?;
    for hash in &removed {
        let _ = writeln!(out, "removed unreferenced checkpoint {}", hex16(*hash));
    }
    let _ = writeln!(out, "checkpoints removed: {}", removed.len());
    if dir.join(JOURNAL_FILE).exists() {
        let cache: ResultCache<AdaptiveOutcome> =
            ResultCache::persistent(cache_capacity.max(1), 8, dir).map_err(|e| in_dir(dir, e))?;
        let before = cache.stats().journal_records.unwrap_or(0);
        cache.compact().map_err(|e| in_dir(dir, e))?;
        let after = cache.stats().journal_records.unwrap_or(0);
        let _ = writeln!(out, "cache journal compacted: {before} -> {after} records");
    }
    Ok(out)
}

/// `nrpm registry warm`: store a checkpoint (pointing `ref_name` at it),
/// then model each measurement file locally and journal the outcomes under
/// exactly the keys a server on the same checkpoint would look up.
fn registry_warm(
    dir: &Path,
    model: &Path,
    files: &[PathBuf],
    ref_name: &str,
    cache_capacity: usize,
    adapt: bool,
) -> Result<String, CliError> {
    let network = Network::load(model).map_err(|e| in_dir(model, e))?;
    let registry = open_registry(dir, false)?;
    let hash = registry.put(&network).map_err(|e| in_dir(dir, e))?;
    registry
        .set_ref(ref_name, hash)
        .map_err(|e| in_dir(dir, e))?;
    let store = ModelStore::from_network(network, AdaptiveOptions::default())
        .map_err(|e| in_dir(model, e))?
        .with_adaptation(adapt);
    let cache: ResultCache<AdaptiveOutcome> =
        ResultCache::persistent(cache_capacity.max(1), 8, dir).map_err(|e| in_dir(dir, e))?;
    let mut warmed = 0usize;
    let mut already = 0usize;
    for file in files {
        let set = load_measurements(file).map_err(CliError::io)?;
        let key = ModelKey::new(&set, store.checkpoint_hash(), adapt).combined();
        if cache.get(key).is_some() {
            already += 1;
            continue;
        }
        let outcome = store.modeler().model(&set).map_err(CliError::model)?;
        cache.insert(key, outcome).map_err(|e| in_dir(dir, e))?;
        warmed += 1;
    }
    cache.sync().map_err(|e| in_dir(dir, e))?;
    Ok(format!(
        "checkpoint {} (ref {ref_name}); warmed {warmed} outcome(s), {already} already cached\n",
        hex16(hash)
    ))
}

/// Resolves a `HOST:PORT` string to a socket address.
fn resolve_addr(addr: &str) -> Result<SocketAddr, CliError> {
    addr.to_socket_addrs()
        .map_err(|e| CliError::io(format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| CliError::io(format!("{addr}: resolves to no address")))
}

/// Renders a server response, mapping error responses onto the CLI's exit
/// code taxonomy: `parse`/`usage` → 2, `fatal` → 5, everything else
/// (recoverable, timeout, overloaded, shutting down) → 4. Model replies
/// get a human-readable provenance trailer: which checkpoint (and, through
/// a cluster router, which shard) answered, at which adaptation epoch.
fn response_to_output(response: &Value) -> Result<String, CliError> {
    let text = serde_json::to_string_pretty(response).unwrap_or_else(|_| format!("{response:?}"));
    if response.get("status").and_then(Value::as_str) == Some("error") {
        let code = match response.get("kind").and_then(Value::as_str) {
            Some("parse") | Some("usage") => 2,
            Some("fatal") => 5,
            _ => 4,
        };
        return Err(CliError {
            message: text,
            code,
        });
    }
    let mut out = format!("{text}\n");
    if let Some(hash) = response.get("served_hash").and_then(Value::as_str) {
        let epoch = response.get("epoch").and_then(Value::as_u64).unwrap_or(0);
        match response.get("shard").and_then(Value::as_u64) {
            Some(shard) => {
                let _ = writeln!(
                    out,
                    "served by shard {shard}, checkpoint {hash} (epoch {epoch})"
                );
            }
            None => {
                let _ = writeln!(out, "served by checkpoint {hash} (epoch {epoch})");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_extrap::Aggregation;

    fn parse(s: &str) -> Result<Invocation, String> {
        Invocation::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// Parses and runs one command line.
    fn run_line(line: &str) -> Result<String, CliError> {
        run(&parse(line).unwrap())
    }

    /// A small untrained network (11 → 16 → 43).
    fn tiny_network(seed: u64) -> Network {
        use nrpm_core::preprocess::NUM_INPUTS;
        let config = nrpm_nn::NetworkConfig::new(&[NUM_INPUTS, 16, nrpm_extrap::NUM_CLASSES]);
        Network::new(&config, seed)
    }

    /// Writes `dir/name`: one parameter, points 4 … 64, the repetitions of
    /// the point whose true value is `y` given by `reps(y)`.
    fn write_linear(dir: &Path, name: &str, reps: fn(u32) -> String) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let mut text = String::from("PARAMS 1 processes\n");
        for x in [4, 8, 16, 32, 64] {
            text.push_str(&format!("POINT {x} DATA {}\n", reps(2 * x)));
        }
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn parses_fit_with_flags() {
        let inv = parse("fit data.txt --adaptive --network net.json --at 4096,8192").unwrap();
        assert_eq!(
            inv,
            Invocation::Fit {
                file: "data.txt".into(),
                adaptive: true,
                network: Some("net.json".into()),
                at: Some(vec![4096.0, 8192.0]),
                policy: SanitizePolicy::Lenient,
                thresholds: None,
                regime: None,
            }
        );
        // A switch never takes the next token as its value.
        assert!(matches!(
            parse("fit --adaptive data.txt").unwrap(),
            Invocation::Fit { adaptive: true, file, .. } if file == Path::new("data.txt")
        ));
    }

    #[test]
    fn parses_minimal_fit() {
        let inv = parse("fit data.txt").unwrap();
        assert_eq!(
            inv,
            Invocation::Fit {
                file: "data.txt".into(),
                adaptive: false,
                network: None,
                at: None,
                policy: SanitizePolicy::Lenient,
                thresholds: None,
                regime: None,
            }
        );
    }

    #[test]
    fn parses_the_strictness_flags() {
        assert!(matches!(
            parse("fit data.txt --strict").unwrap(),
            Invocation::Fit {
                policy: SanitizePolicy::Strict,
                ..
            }
        ));
        assert!(matches!(
            parse("fit data.txt --lenient").unwrap(),
            Invocation::Fit {
                policy: SanitizePolicy::Lenient,
                ..
            }
        ));
        assert!(matches!(
            parse("fit --strict data.txt").unwrap(),
            Invocation::Fit {
                policy: SanitizePolicy::Strict,
                file,
                ..
            } if file == Path::new("data.txt")
        ));
        assert!(parse("fit data.txt --strict --lenient").is_err());
    }

    #[test]
    fn parses_noise_and_pretrain() {
        assert_eq!(
            parse("noise m.json").unwrap(),
            Invocation::Noise {
                file: "m.json".into()
            }
        );
        let inv =
            parse("pretrain --out n.json --samples 100 --epochs 5 --paper-net --train-threads 2")
                .unwrap();
        assert_eq!(
            inv,
            Invocation::Pretrain {
                out: "n.json".into(),
                samples: 100,
                epochs: 5,
                paper_net: true,
                train_threads: 2,
            }
        );
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse("").is_err());
        assert!(parse("frobnicate x").is_err());
        assert!(parse("fit").is_err());
        assert!(parse("pretrain").is_err()); // --out required
        assert!(parse("fit f.txt --at abc").is_err());
        assert!(parse("serve").is_err()); // --model required
        assert!(parse("serve --model n.json --workers three").is_err());
        assert!(parse("serve --model n.json --queue-depth deep").is_err());
        assert!(parse("serve --model n.json --cache-capacity lots").is_err());
        assert!(parse("serve --model n.json --train-threads three").is_err());
        assert!(parse("serve --model n.json --adapt-interval soon").is_err());
        assert!(parse("serve --model n.json --adapt-interval 0").is_err());
        assert!(
            parse("serve --model n.json --adapt-interval 1000 --swap-smape-tolerance lax").is_err()
        );
        assert!(
            parse("serve --model n.json --adapt-interval 1000 --swap-smape-tolerance -0.5")
                .is_err()
        );
        // The gate tolerance is meaningless without the engine that uses it.
        assert!(parse("serve --model n.json --swap-smape-tolerance 0.2").is_err());
        assert!(parse("pretrain --out n.json --train-threads many").is_err());
        assert!(parse("registry").is_err()); // action required
        assert!(parse("registry frobnicate --dir d").is_err());
        assert!(parse("registry stats").is_err()); // --dir required
        assert!(parse("registry warm --dir d").is_err()); // --model required
        assert!(parse("registry stats stray.txt --dir d").is_err());
        assert!(parse("registry stats --dir d --dry-run").is_err()); // gc only
        assert!(parse("registry warm --dir d --model n.json --dry-run").is_err());
        assert!(parse("cluster").is_err()); // action required
        assert!(parse("cluster frobnicate").is_err());
        assert!(parse("cluster launch").is_err()); // --model required
        assert!(parse("cluster launch --model n.json --shards 0").is_err());
        assert!(parse("cluster launch --model n.json --shards few").is_err());
        assert!(parse("cluster launch --model n.json --vnodes 0").is_err());
        assert!(parse("cluster launch --model n.json stray").is_err());
        assert!(parse("cluster status stray").is_err());
        assert!(parse("cluster status --model n.json").is_err()); // launch only
        assert!(parse("cluster status --debug-hooks").is_err()); // launch only
        assert!(parse("cluster drain").is_err()); // shard required
        assert!(parse("cluster drain 1 2").is_err()); // exactly one
        assert!(parse("cluster kill one").is_err()); // numeric id
        assert!(parse("query health --retries many").is_err());
        assert!(parse("query").is_err());
        assert!(parse("query frobnicate").is_err());
        assert!(parse("query model").is_err()); // file required
        assert!(parse("query model a.txt b.txt").is_err()); // exactly one
        assert!(parse("query batch").is_err()); // at least one file
        assert!(parse("query health stray.txt").is_err());
        // Feed swaps need a durable registry; thresholds need a regime row
        // and (for fit) the adaptive switch.
        assert!(parse("serve --model n.json --feed").is_err());
        assert!(parse("serve --model n.json --regime spike").is_err());
        assert!(parse("fit f.txt --thresholds t.json").is_err()); // --adaptive
        assert!(parse("fit f.txt --adaptive --regime spike").is_err());
        assert!(parse("ingest").is_err()); // need a source
        assert!(parse("ingest --once").is_err()); // --once needs --follow
        assert!(parse("ingest --follow f.log --once --duration-ms 5").is_err());
        assert!(parse("ingest --follow f.log --interval-ms soon").is_err());
        assert!(parse("ingest --follow f.log --allowed-lateness -1").is_err());
        assert!(parse("sweep --noise 0.5").is_err()); // two levels minimum
        assert!(parse("sweep --noise 0.5,0.2").is_err()); // ascending
        assert!(parse("sweep --matrix-noise 0").is_err());
        assert!(parse("sweep --functions lots").is_err());
        // A token after a switch is that switch's error on a command that
        // takes no positional, and an extra positional is never ignored.
        assert_eq!(
            parse("fig3_accuracy --paper-net 1").unwrap_err(),
            "fig3_accuracy: --paper-net takes no value, got `1`"
        );
        assert_eq!(
            parse("pretrain --out n.json --paper-net 1").unwrap_err(),
            "pretrain: --paper-net takes no value, got `1`"
        );
        assert_eq!(
            parse("fit a.txt b.txt").unwrap_err(),
            "fit: unexpected argument `b.txt`"
        );
        assert!(parse("fig3_accuracy --params 4").is_err());
        assert!(parse("fig3_power --aggregation mode").is_err());
        assert!(parse("noise_estimator_eval --noise 0.1,x").is_err());
        // A count below what the harness can compute with is named, not
        // turned into a NaN table, a 0 % estimate or a panic.
        for (command, flag, value, min) in [
            ("noise_estimator_eval", "reps", 1, 2),
            ("noise_estimator_eval", "points", 1, 2),
            ("noise_estimator_eval", "points", 0, 2),
            ("noise_estimator_eval", "sets", 0, 1),
            ("chaos_eval", "campaigns", 0, 1),
            ("fig6_overhead", "trials", 0, 1),
            ("fig3_accuracy", "functions", 0, 1),
            ("fig3_power", "functions", 0, 1),
            ("fig3_power", "reps", 0, 1),
            ("threshold_calibration", "functions", 0, 1),
        ] {
            assert_eq!(
                parse(&format!("{command} --{flag} {value}")).unwrap_err(),
                format!("--{flag}: must be at least {min}, got {value}")
            );
        }
        for (command, number) in [
            ("fig3_accuracy", "functions"),
            ("fig3_power", "reps"),
            ("fig4_case_studies", "seed"),
            ("fig5_noise", "seed"),
            ("fig6_overhead", "trials"),
            ("noise_estimator_eval", "sets"),
            ("threshold_calibration", "functions"),
            ("chaos_eval", "campaigns"),
            ("dump_campaigns", "seed"),
        ] {
            assert_eq!(
                parse(&format!("{command} stray")).unwrap_err(),
                format!("{command}: unexpected argument `stray`")
            );
            assert_eq!(
                parse(&format!("{command} --{number} x")).unwrap_err(),
                format!("--{number}: `x` is not a number")
            );
        }
    }

    #[test]
    fn parses_the_harness_subcommands() {
        let Invocation::Harness(Harness::Fig3Accuracy {
            sweeps,
            ci: true,
            show_dnn: false,
        }) = parse("fig3_accuracy --functions 10 --seed 7 --top-k 2 --ci").unwrap()
        else {
            panic!("not a fig3_accuracy run");
        };
        // No --params: one sweep for each of m = 1, 2, 3. --seed seeds both
        // the sweep and the network.
        assert_eq!(
            sweeps.iter().map(|s| s.num_params).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert!(sweeps
            .iter()
            .all(|s| s.functions == 10 && s.seed == 7 && s.dnn.seed == 7 && s.dnn.top_k == 2));
        // Every other field keeps the sweep's defaults (200 functions, 5
        // repetitions, seed 0xF16).
        assert_eq!(
            parse("fig3_power --params 3 --aggregation min --noise 0.1,1 --no-adaptation").unwrap(),
            Invocation::Harness(Harness::Fig3Power {
                sweeps: vec![SweepConfig {
                    num_params: 3,
                    noise_levels: vec![0.1, 1.0],
                    adaptation: false,
                    aggregation: Aggregation::Minimum,
                    dnn: DnnOptions {
                        aggregation: Aggregation::Minimum,
                        ..Default::default()
                    },
                    ..Default::default()
                }],
                ci: false,
            })
        );
        assert_eq!(
            parse("noise_estimator_eval --sets 5 --reps 2").unwrap(),
            Invocation::Harness(Harness::NoiseEstimatorEval(EstimatorSpec {
                sets: 5,
                reps: 2,
                ..EstimatorSpec::default()
            }))
        );
        assert_eq!(
            parse("chaos_eval --campaigns 5 --rates 0.05").unwrap(),
            Invocation::Harness(Harness::ChaosEval(ChaosConfig {
                campaigns: 5,
                rates: vec![0.05],
                ..ChaosConfig::default()
            }))
        );
        assert_eq!(
            parse("dump_campaigns").unwrap(),
            Invocation::Harness(Harness::DumpCampaigns {
                out: "campaigns".into(),
                seed: CASE_STUDY_SEED,
            })
        );
        assert!(matches!(
            parse("fig4_case_studies --seed 3 --no-adaptation").unwrap(),
            Invocation::Harness(Harness::Fig4CaseStudies { options, seed: 3, show_models: false })
                if options.dnn.seed == 3 && !options.use_domain_adaptation
        ));
    }

    #[test]
    fn parses_ingest_and_sweep() {
        let defaults = WindowOptions::default();
        assert_eq!(
            parse("ingest --follow m.log --state-dir s --registry-dir r --model n.json").unwrap(),
            Invocation::Ingest {
                follow: Some("m.log".into()),
                push_addr: None,
                state_dir: Some("s".into()),
                registry_dir: Some("r".into()),
                model: Some("n.json".into()),
                interval_ms: 200,
                once: false,
                duration_ms: None,
                window_capacity: defaults.capacity,
                min_points: defaults.min_points,
                fire_interval: defaults.fire_interval,
                max_records: defaults.max_total_records,
                allowed_lateness: defaults.allowed_lateness,
            }
        );
        assert_eq!(
            parse(
                "ingest --push-addr 127.0.0.1:0 --duration-ms 500 --window-capacity 16 \
                 --min-points 3 --fire-interval 4 --max-records 64 --allowed-lateness 2.5"
            )
            .unwrap(),
            Invocation::Ingest {
                follow: None,
                push_addr: Some("127.0.0.1:0".into()),
                state_dir: None,
                registry_dir: None,
                model: None,
                interval_ms: 200,
                once: false,
                duration_ms: Some(500),
                window_capacity: 16,
                min_points: 3,
                fire_interval: 4,
                max_records: 64,
                allowed_lateness: 2.5,
            }
        );
        assert!(matches!(
            parse("ingest --follow m.log --once").unwrap(),
            Invocation::Ingest { once: true, .. }
        ));
        assert_eq!(
            parse(
                "sweep --out b.json --thresholds-out t.json --functions 12 --params 2 \
                 --noise 0.1,0.5,1.0 --matrix-noise 0.4 --seed 7 --quick"
            )
            .unwrap(),
            Invocation::Sweep {
                out: Some("b.json".into()),
                thresholds_out: Some("t.json".into()),
                functions: 12,
                params: 2,
                noise_levels: Some(vec![0.1, 0.5, 1.0]),
                matrix_noise: Some(0.4),
                seed: 7,
                quick: true,
            }
        );
        assert_eq!(
            parse("sweep").unwrap(),
            Invocation::Sweep {
                out: None,
                thresholds_out: None,
                functions: 100,
                params: 1,
                noise_levels: None,
                matrix_noise: None,
                seed: 0x1265,
                quick: false,
            }
        );
    }

    #[test]
    fn parses_serve_feed_and_thresholds() {
        assert!(matches!(
            parse("serve --model n.json --cache-dir d --feed").unwrap(),
            Invocation::Serve { feed: true, .. }
        ));
        assert!(matches!(
            parse("serve --model n.json --thresholds t.json --regime spike").unwrap(),
            Invocation::Serve {
                thresholds: Some(_),
                regime: Some(_),
                ..
            }
        ));
        assert!(matches!(
            parse("fit f.txt --adaptive --thresholds t.json").unwrap(),
            Invocation::Fit {
                thresholds: Some(_),
                regime: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_serve_and_query() {
        assert_eq!(
            parse(
                "serve --model net.json --addr 0.0.0.0:9000 --workers 8 --adapt --timeout-ms 500 \
                 --queue-depth 2 --max-conns 32 --io-timeout-ms 750 --work-delay-ms 10 \
                 --cache-capacity 9 --cache-dir /var/cache/nrpm --train-threads 6 \
                 --adapt-interval 5000 --swap-smape-tolerance 0.25 --quantize"
            )
            .unwrap(),
            Invocation::Serve {
                model: "net.json".into(),
                addr: "0.0.0.0:9000".into(),
                workers: 8,
                adapt: true,
                timeout_ms: Some(500),
                queue_depth: 2,
                max_conns: 32,
                io_timeout_ms: Some(750),
                work_delay_ms: Some(10),
                cache_capacity: 9,
                cache_dir: Some("/var/cache/nrpm".into()),
                train_threads: 6,
                adapt_interval_ms: Some(5000),
                swap_smape_tolerance: Some(0.25),
                join: None,
                join_token: None,
                advertise: None,
                feed: false,
                thresholds: None,
                regime: None,
                quantize: true,
            }
        );
        assert_eq!(
            parse("serve --model net.json").unwrap(),
            Invocation::Serve {
                model: "net.json".into(),
                addr: DEFAULT_ADDR.into(),
                workers: 4,
                adapt: false,
                timeout_ms: None,
                queue_depth: 64,
                max_conns: 256,
                io_timeout_ms: None,
                work_delay_ms: None,
                cache_capacity: 1024,
                cache_dir: None,
                train_threads: 0,
                adapt_interval_ms: None,
                swap_smape_tolerance: None,
                join: None,
                join_token: None,
                advertise: None,
                feed: false,
                thresholds: None,
                regime: None,
                quantize: false,
            }
        );
        assert!(matches!(
            parse(
                "serve --model net.json --join 10.0.0.1:9000 --join-token s3cret \
                 --advertise 10.0.0.2:7070"
            )
            .unwrap(),
            Invocation::Serve {
                join: Some(_),
                join_token: Some(_),
                advertise: Some(_),
                ..
            }
        ));
        // Join flags are all-or-nothing: the agent cannot authenticate
        // without a token, and the token is meaningless without a router.
        assert!(parse("serve --model net.json --join-token s3cret").is_err());
        assert!(parse("serve --model net.json --advertise 10.0.0.2:7070").is_err());
        assert!(parse("serve --model net.json --join 10.0.0.1:9000").is_err());
        assert_eq!(
            parse("query health").unwrap(),
            Invocation::Query {
                what: QueryKind::Health,
                addr: DEFAULT_ADDR.into(),
                files: vec![],
                at: None,
                timeout_ms: None,
                retries: 0,
            }
        );
        assert_eq!(
            parse("query model data.txt --at 1024 --addr 127.0.0.1:7171 --timeout-ms 2000 --retries 3")
                .unwrap(),
            Invocation::Query {
                what: QueryKind::Model,
                addr: "127.0.0.1:7171".into(),
                files: vec!["data.txt".into()],
                at: Some(vec![1024.0]),
                timeout_ms: Some(2000),
                retries: 3,
            }
        );
        assert_eq!(
            parse("query batch a.txt b.json").unwrap(),
            Invocation::Query {
                what: QueryKind::Batch,
                addr: DEFAULT_ADDR.into(),
                files: vec!["a.txt".into(), "b.json".into()],
                at: None,
                timeout_ms: None,
                retries: 0,
            }
        );
    }

    #[test]
    fn parses_registry_commands() {
        assert_eq!(
            parse("registry stats --dir /var/nrpm").unwrap(),
            Invocation::Registry {
                action: RegistryAction::Stats,
                dir: "/var/nrpm".into(),
                model: None,
                files: vec![],
                ref_name: None,
                cache_capacity: 1024,
                adapt: false,
                dry_run: false,
            }
        );
        assert_eq!(
            parse("registry gc --dir d --cache-capacity 16").unwrap(),
            Invocation::Registry {
                action: RegistryAction::Gc,
                dir: "d".into(),
                model: None,
                files: vec![],
                ref_name: None,
                cache_capacity: 16,
                adapt: false,
                dry_run: false,
            }
        );
        assert_eq!(
            parse("registry warm --dir d --model n.json a.txt b.json --ref best --adapt").unwrap(),
            Invocation::Registry {
                action: RegistryAction::Warm,
                dir: "d".into(),
                model: Some("n.json".into()),
                files: vec!["a.txt".into(), "b.json".into()],
                ref_name: Some("best".into()),
                cache_capacity: 1024,
                adapt: true,
                dry_run: false,
            }
        );
        assert!(matches!(
            parse("registry verify --dir d").unwrap(),
            Invocation::Registry {
                action: RegistryAction::Verify,
                ..
            }
        ));
        assert!(matches!(
            parse("registry gc --dir d --dry-run").unwrap(),
            Invocation::Registry {
                action: RegistryAction::Gc,
                dry_run: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_cluster_commands() {
        assert_eq!(
            parse(
                "cluster launch --model net.json --shards 4 --addr 127.0.0.1:0 --workers 3 \
                 --vnodes 96 --registry-dir /var/nrpm --debug-hooks --replication 2 \
                 --join-token s3cret --lease-ms 750 --standby"
            )
            .unwrap(),
            Invocation::Cluster {
                action: ClusterAction::Launch,
                model: Some("net.json".into()),
                shards: 4,
                addr: "127.0.0.1:0".into(),
                workers: 3,
                vnodes: 96,
                registry_dir: Some("/var/nrpm".into()),
                debug_hooks: true,
                shard: None,
                timeout_ms: None,
                replication: 2,
                join_token: Some("s3cret".into()),
                lease_ms: Some(750),
                standby: true,
            }
        );
        assert_eq!(
            parse("cluster launch --model net.json").unwrap(),
            Invocation::Cluster {
                action: ClusterAction::Launch,
                model: Some("net.json".into()),
                shards: 3,
                addr: DEFAULT_ADDR.into(),
                workers: 2,
                vnodes: nrpm_cluster::DEFAULT_VNODES,
                registry_dir: None,
                debug_hooks: false,
                shard: None,
                timeout_ms: None,
                replication: 1,
                join_token: None,
                lease_ms: None,
                standby: false,
            }
        );
        assert!(matches!(
            parse("cluster rollout --model next.json --addr 127.0.0.1:9000 --timeout-ms 500")
                .unwrap(),
            Invocation::Cluster {
                action: ClusterAction::Rollout,
                model: Some(_),
                timeout_ms: Some(500),
                ..
            }
        ));
        // A replication factor of zero would route every request nowhere.
        assert!(parse("cluster launch --model net.json --replication 0").is_err());
        assert!(parse("cluster rollout").is_err());
        assert!(matches!(
            parse("cluster status --addr 127.0.0.1:9000 --timeout-ms 500").unwrap(),
            Invocation::Cluster {
                action: ClusterAction::Status,
                shard: None,
                timeout_ms: Some(500),
                ..
            }
        ));
        assert!(matches!(
            parse("cluster drain 2").unwrap(),
            Invocation::Cluster {
                action: ClusterAction::Drain,
                shard: Some(2),
                ..
            }
        ));
        assert!(matches!(
            parse("cluster kill 0 --addr 127.0.0.1:9000").unwrap(),
            Invocation::Cluster {
                action: ClusterAction::Kill,
                shard: Some(0),
                ..
            }
        ));
    }

    /// End-to-end `registry` lifecycle: warm a cache directory from the
    /// CLI, inspect and verify it, gc an unreferenced checkpoint — then
    /// prove a server over the same checkpoint answers from the warmed
    /// journal without a single modeler run.
    /// One command line per command shape that passes every flag the
    /// command reads (`fit` twice, for the two strictness flags; `ingest`
    /// twice, for `--once` against `--duration-ms`).
    const EVERY_FLAG: &[&str] = &[
        "fit f.txt --adaptive --strict --network n.json --at 1,2 --thresholds t.json \
         --regime spike",
        "fit f.txt --lenient",
        "noise f.txt",
        "pretrain --out n.json --samples 3 --epochs 2 --paper-net --train-threads 1",
        "serve --model n.json --addr a:1 --workers 2 --adapt --timeout-ms 5 --queue-depth 3 \
         --max-conns 4 --io-timeout-ms 6 --work-delay-ms 7 --cache-capacity 8 --cache-dir d \
         --train-threads 1 --adapt-interval 100 --swap-smape-tolerance 0.2 --join r:2 \
         --join-token t --advertise a:3 --feed --thresholds t.json --regime spike --quantize",
        "ingest --follow f.log --push-addr a:1 --state-dir s --registry-dir r --model n.json \
         --interval-ms 5 --duration-ms 9 --window-capacity 3 --min-points 2 --fire-interval 1 \
         --max-records 7 --allowed-lateness 0.5",
        "ingest --follow f.log --once",
        "sweep --out o.json --thresholds-out t.json --functions 3 --params 2 --noise 0.1,0.2 \
         --matrix-noise 0.3 --seed 4 --quick",
        "query health --addr a:1 --timeout-ms 5 --retries 2",
        "query model f.txt --at 1 --addr a:1 --timeout-ms 5 --retries 2",
        "query batch f.txt g.txt --addr a:1",
        "registry gc --dir d --cache-capacity 3 --dry-run",
        "registry warm --dir d --model n.json f.txt --ref r --adapt",
        "cluster launch --model n.json --shards 2 --addr a:1 --workers 1 --vnodes 8 \
         --registry-dir r --debug-hooks --replication 2 --join-token t --lease-ms 100 --standby",
        "cluster status --addr a:1 --timeout-ms 5",
        "cluster drain 1 --addr a:1",
        "cluster rollout --model n.json --addr a:1 --timeout-ms 5",
        "fig3_accuracy --params 1 --functions 2 --noise 0.1,0.2 --seed 3 --reps 2 \
         --aggregation mean --paper-net --no-adaptation --linear-encoding --refined-baseline \
         --ci --show-dnn --top-k 2",
        "fig3_power --params 1 --functions 2 --noise 0.1,0.2 --seed 3 --reps 2 \
         --aggregation min --paper-net --no-adaptation --linear-encoding --refined-baseline --ci",
        "fig4_case_studies --seed 1 --show-models --no-adaptation --paper-net",
        "fig5_noise --seed 1",
        "fig6_overhead --seed 1 --trials 2 --paper-net",
        "noise_estimator_eval --sets 2 --points 3 --reps 2 --seed 1 --noise 0.1,0.2",
        "threshold_calibration --params 2 --functions 3 --noise 0.1,0.2 --seed 1",
        "chaos_eval --campaigns 2 --rates 0.1,0.2 --noise 0.05 --seed 1",
        "dump_campaigns --out d --seed 1",
    ];

    #[test]
    fn every_flag_a_command_reads_parses() {
        for line in EVERY_FLAG {
            assert!(parse(line).is_ok(), "{line}: {:?}", parse(line).err());
        }
    }

    #[test]
    fn a_flag_no_command_reads_is_a_usage_error() {
        for line in EVERY_FLAG {
            let err = parse(&format!("{line} --bogus")).unwrap_err();
            assert!(err.ends_with("unknown flag --bogus"), "{line}: {err}");
            // A repeated flag is refused by name, never resolved silently.
            let command = line.split_whitespace().next().unwrap();
            if let Some(flag) = line.split_whitespace().find(|t| t.starts_with("--")) {
                assert_eq!(
                    parse(&format!("{line} {flag} 1")).unwrap_err(),
                    format!("{command}: {flag} given twice")
                );
            }
        }
        assert_eq!(
            parse("serve --model n.json --workers 2 --workers 8").unwrap_err(),
            "serve: --workers given twice"
        );
        // fig3_power shares fig3_accuracy's flags but not its extras.
        assert_eq!(
            parse("fig3_power --top-k 2").unwrap_err(),
            "fig3_power: unknown flag --top-k"
        );
        assert_eq!(
            parse("fig3_power --show-dnn").unwrap_err(),
            "fig3_power: unknown flag --show-dnn"
        );
        assert_eq!(
            parse("fit lin.txt --adaptve --strickt").unwrap_err(),
            "fit: unknown flags --adaptve, --strickt"
        );
        assert_eq!(
            parse("serve --model n.json --quantise").unwrap_err(),
            "serve: unknown flag --quantise"
        );
        // A flag of another command is just as unknown.
        assert_eq!(
            parse("noise f.txt --adaptive").unwrap_err(),
            "noise: unknown flag --adaptive"
        );
    }

    /// The arguments of a shell command line after its `nrpm` prefix, cut
    /// at the first shell operator or comment.
    fn shell_args(rest: &str) -> Vec<String> {
        let end = rest
            .find(['|', '<', '>', ';', '&', ')', '#'])
            .unwrap_or(rest.len());
        rest[..end]
            .replace('"', "")
            .split_whitespace()
            .map(String::from)
            .collect()
    }

    /// The `nrpm` command lines of a Markdown document: lines of fenced
    /// blocks (after `VAR=value` prefixes) that start with `nrpm `,
    /// `target/release/nrpm ` or `cargo run -p nrpm-cli --release -- `, and
    /// inline code spans that start with either of the last two.
    fn doc_command_lines(doc: &str) -> Vec<Vec<String>> {
        const PREFIXES: [&str; 3] = [
            "cargo run -p nrpm-cli --release -- ",
            "target/release/nrpm ",
            "nrpm ",
        ];
        let command = |text: &str, prefixes: &[&str]| {
            prefixes
                .iter()
                .find_map(|p| text.strip_prefix(p))
                .map(shell_args)
        };
        let mut lines = Vec::new();
        let mut fenced = false;
        for line in doc.replace("\\\n", " ").lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            } else if fenced {
                let mut rest = line.trim();
                while let Some((word, tail)) = rest.split_once(' ') {
                    if !word.contains('=') {
                        break;
                    }
                    rest = tail.trim_start();
                }
                lines.extend(command(rest, &PREFIXES));
            } else {
                let spans = line.split('`').skip(1).step_by(2);
                lines.extend(spans.filter_map(|span| command(span, &PREFIXES[..2])));
            }
        }
        lines
    }

    /// Every `"$NRPM" …` command line of the CI workflow parses, except that
    /// one marked `# usage error` must not. Every `nrpm` command line of
    /// the user-facing docs parses, and each doc keeps a floor on their
    /// count, so a line rewritten to another binary (`cargo run --bin …`)
    /// fails too.
    #[test]
    fn every_ci_invocation_parses() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let workflow = std::fs::read_to_string(root.join(".github/workflows/ci.yml"))
            .unwrap()
            .replace("\\\n", " ");
        let mut seen = 0;
        for line in workflow.lines() {
            for (at, call) in line.match_indices("\"$NRPM\" ") {
                let args = shell_args(&line[at + call.len()..]);
                let parsed = Invocation::parse(&args);
                if line.contains("# usage error") {
                    assert!(parsed.is_err(), "{args:?} parses");
                } else {
                    assert!(parsed.is_ok(), "{args:?}: {:?}", parsed.err());
                }
                seen += 1;
            }
        }
        assert!(seen > 20, "found only {seen} nrpm command lines");

        for (doc, floor) in [
            ("README.md", 42),
            ("EXPERIMENTS.md", 8),
            ("DESIGN.md", 9),
            (".claude/skills/verify/SKILL.md", 30),
        ] {
            let text = std::fs::read_to_string(root.join(doc)).unwrap();
            let lines = doc_command_lines(&text);
            for args in &lines {
                let parsed = Invocation::parse(args);
                assert!(parsed.is_ok(), "{doc}: {args:?}: {:?}", parsed.err());
            }
            assert!(
                lines.len() >= floor,
                "{doc}: {} nrpm command lines, expected at least {floor}",
                lines.len()
            );
        }
    }

    #[test]
    fn registry_warm_feeds_a_server_cache() {
        let dir =
            std::env::temp_dir().join(format!("nrpm_cli_registry_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache_dir = dir.join("registry");
        std::fs::create_dir_all(&cache_dir).unwrap();

        let net_path = dir.join("net.json");
        tiny_network(7).save(&net_path).unwrap();
        let data = write_linear(&dir, "linear.txt", |y| format!("{y} {y}"));

        let (cache, net, file) = (cache_dir.display(), net_path.display(), data.display());
        let warm = || run_line(&format!("registry warm --dir {cache} --model {net} {file}"));
        let maintain = |action: &str| run_line(&format!("registry {action} --dir {cache}"));

        let warmed = warm().unwrap();
        assert!(warmed.contains("warmed 1 outcome(s)"), "{warmed}");
        assert!(warmed.contains("(ref default)"), "{warmed}");

        // Idempotent: the outcome is already journaled.
        let again = warm().unwrap();
        assert!(
            again.contains("warmed 0 outcome(s), 1 already cached"),
            "{again}"
        );

        let stats = maintain("stats").unwrap();
        assert!(stats.contains("checkpoints:   1"), "{stats}");
        assert!(stats.contains("default ->"), "{stats}");
        assert!(stats.contains("cache journal: 1 records"), "{stats}");

        let verified = maintain("verify").unwrap();
        assert!(verified.contains("registry clean"), "{verified}");

        // An unreferenced checkpoint is swept by gc; the referenced one and
        // the journal survive.
        let registry = CheckpointRegistry::open(&cache_dir).unwrap();
        let stray = registry.put(&tiny_network(8)).unwrap();
        let swept = maintain("gc").unwrap();
        assert!(swept.contains(&hex16(stray)), "{swept}");
        assert!(swept.contains("checkpoints removed: 1"), "{swept}");
        assert!(swept.contains("compacted: 1 -> 1 records"), "{swept}");

        // The warmed journal is a real serving cache: a server over the
        // same checkpoint answers the same request without modeling.
        let store = ModelStore::open(&net_path, AdaptiveOptions::default()).unwrap();
        let server = Server::start(
            "127.0.0.1:0",
            store,
            ServeOptions {
                workers: 1,
                cache_dir: Some(cache_dir.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let modeled = run_line(&format!("query model {file} --at 1024 --addr {addr}")).unwrap();
        assert!(modeled.contains("2048"), "{modeled}");
        let stats = run_line(&format!("query stats --addr {addr}")).unwrap();
        assert!(stats.contains("\"kernels_modeled\": 0"), "{stats}");
        assert!(stats.contains("\"cache_hits\": 1"), "{stats}");
        run_line(&format!("query shutdown --addr {addr}")).unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_pins_checkpoints_the_swap_journal_still_names() {
        let dir = std::env::temp_dir().join("nrpm_cli_gc_pins_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let net = tiny_network;
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let referenced = registry.put(&net(1)).unwrap();
        registry.set_ref("default", referenced).unwrap();
        // Serving + rollback-target checkpoints: named only by the swap
        // journal, no ref points at them.
        let serving = registry.put(&net(2)).unwrap();
        let previous = registry.put(&net(3)).unwrap();
        let stray = registry.put(&net(4)).unwrap();
        {
            let (mut journal, _) = SwapJournal::open(&dir).unwrap();
            let seq = journal.begin(serving, previous).unwrap();
            journal.mark_validated(seq).unwrap();
            journal.commit(seq).unwrap();
        }

        // A dry run names the doomed and pinned hashes but deletes nothing.
        let planned = registry_gc(&dir, 16, true).unwrap();
        assert!(
            planned.contains(&format!(
                "would remove unreferenced checkpoint {}",
                hex16(stray)
            )),
            "{planned}"
        );
        assert!(
            planned.contains(&format!(
                "pinned checkpoint {}",
                hex16(serving.min(previous))
            )),
            "{planned}"
        );
        assert!(planned.contains("dry run; nothing deleted"), "{planned}");
        assert!(registry.get(stray).is_ok(), "dry run must not delete");

        let swept = registry_gc(&dir, 16, false).unwrap();
        assert!(
            swept.contains("swap-journal pinned checkpoints: 2"),
            "{swept}"
        );
        assert!(swept.contains(&hex16(stray)), "{swept}");
        assert!(swept.contains("checkpoints removed: 1"), "{swept}");
        assert!(registry.get(referenced).is_ok());
        assert!(
            registry.get(serving).is_ok(),
            "serving checkpoint collected"
        );
        assert!(
            registry.get(previous).is_ok(),
            "rollback target collected — a post-gc rollback would have nothing to restore"
        );
        assert!(registry.get(stray).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_pins_the_target_of_an_interrupted_rollout() {
        let dir = std::env::temp_dir().join("nrpm_cli_gc_rollout_pins_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let net = tiny_network;
        let registry = CheckpointRegistry::open(&dir).unwrap();
        let incumbent = registry.put(&net(1)).unwrap();
        registry.set_ref("default", incumbent).unwrap();
        let target = registry.put(&net(2)).unwrap();
        let stray = registry.put(&net(3)).unwrap();
        {
            // A rollout that began and never finished: no `Done` record,
            // and no ref names its target.
            let (mut journal, _) = RolloutJournal::open(&dir).unwrap();
            journal.begin(target, incumbent).unwrap();
        }

        let planned = registry_gc(&dir, 16, true).unwrap();
        assert!(
            planned.contains("rollout-journal pinned checkpoints: 2"),
            "{planned}"
        );
        assert!(
            planned.contains(&format!(
                "pinned checkpoint {} (rollout journal)",
                hex16(target)
            )),
            "{planned}"
        );
        assert!(
            !planned.contains("swap-journal"),
            "no swap journal: {planned}"
        );

        let swept = registry_gc(&dir, 16, false).unwrap();
        assert!(swept.contains("checkpoints removed: 1"), "{swept}");
        assert!(registry.get(target).is_ok(), "rollout target collected");
        assert!(registry.get(incumbent).is_ok());
        assert!(registry.get(stray).is_err());
        assert!(
            !dir.join(SWAP_JOURNAL_FILE).exists(),
            "gc must not create journals"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_a_torn_swap_journal_without_touching_it() {
        let dir = std::env::temp_dir().join("nrpm_cli_torn_swaps_test");
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointRegistry::open(&dir).unwrap();
        {
            let (mut journal, _) = SwapJournal::open(&dir).unwrap();
            let seq = journal.begin(0x2, 0x1).unwrap();
            journal.commit(seq).unwrap();
        }
        assert!(registry_verify(&dir).unwrap().contains("registry clean"));

        // A crash mid-append: the last record loses its tail.
        let path = dir.join(SWAP_JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        let torn = std::fs::read(&path).unwrap();

        let err = registry_verify(&dir).unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);
        assert!(
            err.message.contains("swap journal: torn tail"),
            "{}",
            err.message
        );
        assert_eq!(std::fs::read(&path).unwrap(), torn, "verify must not write");
        let stats = registry_stats(&dir).unwrap();
        assert!(
            stats.contains("swap journal: 1 records") && stats.contains("pending repair"),
            "{stats}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_round_trips_against_a_live_server() {
        let dir = std::env::temp_dir().join("nrpm_cli_query_test");
        let data = write_linear(&dir, "linear.txt", |y| format!("{y} {y}"));
        let store = ModelStore::from_network(tiny_network(7), AdaptiveOptions::default()).unwrap();
        let server = Server::start("127.0.0.1:0", store, ServeOptions::default()).unwrap();
        let addr = server.addr();
        let query = |request: &str| run_line(&format!("query {request} --addr {addr}"));

        let health = query("health").unwrap();
        assert!(health.contains("\"status\": \"ok\""), "{health}");

        // The retrying path answers identically on a healthy server.
        let retried = query("health --retries 2").unwrap();
        assert!(retried.contains("\"status\": \"ok\""), "{retried}");

        let file = data.display();
        let modeled = query(&format!("model {file} --at 1024")).unwrap();
        assert!(modeled.contains("\"choice\": \"regression\""), "{modeled}");
        assert!(modeled.contains("2048"), "{modeled}");
        // Provenance trailer: which checkpoint answered, at which epoch.
        assert!(modeled.contains("served by checkpoint"), "{modeled}");
        assert!(modeled.contains("(epoch 0)"), "{modeled}");

        let batched = query(&format!("batch {file} {file}")).unwrap();
        assert!(batched.contains("\"kernels\": 2"), "{batched}");

        let stats = query("stats").unwrap();
        assert!(stats.contains("\"requests_batch\": 1"), "{stats}");

        let drained = query("shutdown").unwrap();
        assert!(drained.contains("\"draining\": true"), "{drained}");
        server.join().unwrap();
        std::fs::remove_file(&data).ok();
    }

    /// `cluster status`/`drain`/`kill` and `query model` all work against
    /// a live router: status renders the per-shard table, a drained shard
    /// leaves rotation, kill needs the debug hook, and model replies name
    /// the answering shard.
    #[test]
    fn cluster_cli_round_trips_against_a_live_router() {
        let dir = std::env::temp_dir().join("nrpm_cli_cluster_test");
        let data = write_linear(&dir, "linear.txt", |y| format!("{y} {y}"));
        let cluster = Cluster::launch(
            tiny_network(7),
            ClusterOptions {
                shards: 2,
                workers_per_shard: 1,
                debug_hooks: true,
                probe_interval: Duration::from_millis(50),
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        let addr = cluster.router_addr();
        let cluster_cmd = |action: &str| run_line(&format!("cluster {action} --addr {addr}"));

        let file = data.display();
        let modeled = run_line(&format!("query model {file} --at 1024 --addr {addr}")).unwrap();
        assert!(modeled.contains("2048"), "{modeled}");
        assert!(modeled.contains("served by shard"), "{modeled}");

        let status = cluster_cmd("status").unwrap();
        assert!(status.contains("shards:     2 (2 routable)"), "{status}");
        assert!(status.contains("requests:   1 routed"), "{status}");
        assert!(status.contains("serving:    (no registry)"), "{status}");
        assert!(status.contains("shard 0: healthy"), "{status}");
        assert!(status.contains("shard 1: healthy"), "{status}");

        // `status` against a plain backend refuses rather than rendering
        // nonsense.
        let shard_addr = cluster.shard_addr(0).unwrap();
        let not_router = run_line(&format!("cluster status --addr {shard_addr}")).unwrap_err();
        assert!(not_router.message.contains("not an nrpm-cluster router"));

        let drained = cluster_cmd("drain 1").unwrap();
        assert!(drained.contains("\"draining\": true"), "{drained}");
        // Draining the same shard twice is a usage error (exit 2).
        let again = cluster_cmd("drain 1").unwrap_err();
        assert_eq!(again.code, 2, "{again:?}");

        let killed = cluster_cmd("kill 0").unwrap();
        assert!(killed.contains("\"killed\": true"), "{killed}");

        let status = cluster_cmd("status").unwrap();
        assert!(status.contains("(0 routable)"), "{status}");
        assert!(status.contains("shard 0: killed"), "{status}");
        assert!(status.contains("shard 1: draining"), "{status}");

        run_line(&format!("query shutdown --addr {addr}")).unwrap();
        cluster.join().unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn fit_runs_on_a_text_file() {
        let dir = std::env::temp_dir().join("nrpm_cli_test");
        let path = write_linear(&dir, "linear.txt", |y| format!("{y} {y} {y}"));
        let out = run_line(&format!("fit {} --at 1024", path.display())).unwrap();
        assert!(out.contains("O(x1)"), "{out}");
        assert!(out.contains("2048"), "{out}"); // 2 * 1024
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_input_is_repaired_leniently_and_refused_strictly() {
        let dir = std::env::temp_dir().join("nrpm_cli_test");
        // One NaN repetition per point.
        let path = write_linear(&dir, "corrupt.txt", |y| format!("{y} {y} nan"));
        let lenient = run_line(&format!("fit {}", path.display())).unwrap();
        assert!(lenient.contains("quality:"), "{lenient}");
        assert!(lenient.contains("5 repetitions dropped"), "{lenient}");

        let strict = run_line(&format!("fit --strict {}", path.display())).unwrap_err();
        assert_eq!(strict.code, 4, "CorruptData is recoverable: {strict:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_failures_carry_the_path_and_exit_code_3() {
        let dir = std::env::temp_dir().join("nrpm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.txt");
        std::fs::write(&path, "PARAMS 1 p\nPOINT oops DATA 1\n").unwrap();
        let err = run(&Invocation::Noise { file: path.clone() }).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("broken.txt"), "{err:?}");
        assert!(err.message.contains("line 2"), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn noise_runs_on_a_json_file() {
        let dir = std::env::temp_dir().join("nrpm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("noisy.json");
        let mut set = MeasurementSet::new(1);
        for &x in &[2.0, 4.0, 8.0] {
            set.add_repetitions(&[x], &[x * 0.95, x * 1.05]);
        }
        std::fs::write(&path, set.to_json()).unwrap();

        let out = run(&Invocation::Noise { file: path.clone() }).unwrap();
        assert!(out.contains("mean noise"), "{out}");
        assert!(out.contains("10.00%"), "{out}"); // rrd of (0.95, 1.05)
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_produce_errors_not_panics() {
        assert!(run(&Invocation::Noise {
            file: "/nonexistent/x.txt".into()
        })
        .is_err());
        assert!(load_measurements(Path::new("/nonexistent/x.json")).is_err());
    }
}
