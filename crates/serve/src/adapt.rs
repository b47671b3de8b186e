//! The background adaptation engine: accumulate → retrain → shadow-validate
//! → commit → watch → rollback.
//!
//! The paper's domain adaptation (Sec. IV-E) retrains the network on
//! synthetic data mirroring a task's measurement positions, repetitions,
//! and noise. This module does the same thing *online*, against the live
//! request stream, without ever serving a worse model or dropping a
//! request:
//!
//! 1. **Accumulate** — workers push one [`Observation`] per successfully
//!    modeled request (tenant tag, measurement set, estimated noise); the
//!    engine folds them into a per-key
//!    [`NoiseAccumulator`](nrpm_core::accumulate::NoiseAccumulator).
//! 2. **Retrain** — each cycle, the dominant key's profile becomes a
//!    synthetic training spec and the incumbent network is retrained
//!    behind the validation gate of
//!    [`DnnModeler::adapt_with_spec_validated`] — a retrain that gives up
//!    or regresses on its own holdout never produces a candidate.
//! 3. **Shadow-validate** — the candidate and the incumbent both model a
//!    ring of recently served (mirrored) measurement sets; the candidate
//!    is rejected unless its mean CV-SMAPE stays within
//!    [`AdaptOptions::smape_tolerance`] of the incumbent's.
//! 4. **Commit** — the swap goes through the crash-safe two-phase journal
//!    (`intent → validated → committed`, [`nrpm_registry::SwapJournal`]),
//!    the candidate is stored content-addressed in the checkpoint
//!    registry, and [`ModelStore::swap`](crate::store::ModelStore::swap)
//!    publishes it atomically — in-flight requests finish on the old
//!    weights.
//! 5. **Watch** — after a commit, the next [`AdaptOptions::watch_window`]
//!    live observations on the new epoch are compared against the
//!    incumbent's shadow baseline; if live SMAPE worsened beyond
//!    [`AdaptOptions::watch_tolerance`], the engine **rolls back** to the
//!    previous checkpoint and journals the reversion.
//!
//! **Crash recovery invariant:** a swap is serving iff the journal's last
//! terminal record says so. On every engine start (first spawn or a
//! supervisor respawn after a crash), pending journal entries are aborted
//! and the store is re-pointed at the last committed hash — so an engine
//! killed mid-retrain changes nothing, and one killed mid-commit resolves
//! to "the swap never happened". The engine thread is supervised exactly
//! like serve workers; its training threads come out of the same
//! process-wide `ThreadBudget` slice (reserved by the CLI), not on top of
//! it.

use crate::metrics::Counter;
use crate::server::Shared;
use nrpm_core::accumulate::NoiseAccumulator;
use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOptions};
use nrpm_core::dnn::DnnModeler;
use nrpm_extrap::MeasurementSet;
use nrpm_nn::Network;
use nrpm_registry::{parse_checkpoint, CheckpointRegistry, SwapJournal};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ref name of the serving checkpoint in the registry.
pub const SERVING_REF: &str = "serving";
/// Ref name of the rollback target (the previously serving checkpoint).
pub const SERVING_PREVIOUS_REF: &str = "serving-previous";
/// Ref name the ingester publishes candidates under and feed mode watches
/// (`nrpm-ingest` re-exports it).
pub const INGEST_CANDIDATE_REF: &str = "ingest-candidate";

/// Bound on buffered observations between engine ticks; oldest are dropped
/// first (the accumulator wants recent workload, not history).
const OBSERVATION_BUFFER: usize = 256;
/// How many recent measurement sets are mirrored for shadow validation.
const MIRROR_CAP: usize = 8;

/// Tuning knobs of the background adaptation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptOptions {
    /// Runs the engine at all. Off by default — adaptation is opt-in.
    pub enabled: bool,
    /// Time between retrain cycles (a `force_adapt` request skips the
    /// wait).
    pub interval: Duration,
    /// Shadow gate: the candidate's mean CV-SMAPE on mirrored requests may
    /// exceed the incumbent's by at most this fraction.
    pub smape_tolerance: f64,
    /// Minimum observations accumulated before a scheduled cycle retrains
    /// (`force_adapt` bypasses this).
    pub min_observations: usize,
    /// Post-swap watch: how many live observations on the new checkpoint
    /// are collected before judging it.
    pub watch_window: usize,
    /// Post-swap watch: live mean CV-SMAPE above
    /// `baseline * (1 + watch_tolerance)` triggers an automatic rollback.
    pub watch_tolerance: f64,
    /// Directory of the checkpoint registry + swap journal. `None` keeps
    /// adaptation memory-only: swaps still happen (gated and watched), but
    /// nothing survives a process restart.
    pub dir: Option<PathBuf>,
    /// Training threads for the retrain (the CLI reserves these out of the
    /// process-wide budget so retraining never oversubscribes the serve
    /// workers). `0` inherits the global budget.
    pub train_threads: usize,
    /// Watch the registry ref [`INGEST_CANDIDATE_REF`] for
    /// candidates published by an external ingester (`nrpm ingest`) and
    /// hot-swap them in through the two-phase journal. The shadow-SMAPE
    /// gate is skipped — the ingester modeled the candidate against its
    /// own live window — but the post-swap watchdog still applies, so a
    /// regressing fed model rolls back like any other. Requires `dir`.
    pub feed: bool,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            enabled: false,
            interval: Duration::from_secs(30),
            smape_tolerance: 0.10,
            min_observations: 8,
            watch_window: 8,
            watch_tolerance: 0.5,
            dir: None,
            train_threads: 0,
            feed: false,
        }
    }
}

/// Adaptation-specific chaos faults, queued via the `adapt_fault` debug
/// request and consumed (all at once) by the engine's next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptFaultKind {
    /// The engine thread panics at the start of the retrain — before any
    /// journal or store state is touched.
    KillRetrain,
    /// The candidate's serialized checkpoint is corrupted before storage;
    /// the content-addressed registry must reject it.
    CorruptCandidate,
    /// The shadow gate is bypassed (the swap always commits) and live
    /// SMAPE observations on the new checkpoint are inflated — a
    /// deterministic regression that must trigger the watchdog rollback.
    RegressSwap,
    /// The engine thread panics after shadow validation, mid-commit —
    /// recovery must resolve the pending swap to "never happened".
    KillCommit,
}

impl AdaptFaultKind {
    /// Parses the wire name used by the `adapt_fault` request.
    pub fn parse(s: &str) -> Option<AdaptFaultKind> {
        Some(match s {
            "kill_retrain" => AdaptFaultKind::KillRetrain,
            "corrupt_candidate" => AdaptFaultKind::CorruptCandidate,
            "regress_swap" => AdaptFaultKind::RegressSwap,
            "kill_commit" => AdaptFaultKind::KillCommit,
            _ => return None,
        })
    }
}

/// One successfully modeled request, as seen by the adaptation engine.
#[derive(Debug, Clone)]
pub(crate) struct Observation {
    /// The request's tenant/workload tag (`None` folds into `"default"`).
    pub tenant: Option<String>,
    /// The modeled measurement set (mirrored for shadow validation).
    pub set: MeasurementSet,
    /// Estimated mean noise fraction of the request.
    pub noise_mean: f64,
    /// Estimated `(min, max)` noise range.
    pub noise_range: (f64, f64),
    /// Measurement repetitions of the request.
    pub repetitions: usize,
    /// Cross-validated SMAPE of the served answer (the live quality signal
    /// the post-swap watchdog reads).
    pub cv_smape: f64,
    /// Store epoch the answer was computed at.
    pub epoch: u64,
}

/// Shared mailbox between the serving path and the engine: workers push
/// observations, the debug hooks queue faults and force cycles, the engine
/// drains all of it at its ticks.
#[derive(Debug, Default)]
pub(crate) struct AdaptState {
    observations: Mutex<VecDeque<Observation>>,
    faults: Mutex<Vec<AdaptFaultKind>>,
    force: AtomicBool,
}

impl AdaptState {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Buffers one observation, dropping the oldest past the cap — the
    /// serving path must never block on the engine.
    pub(crate) fn push_observation(&self, obs: Observation) {
        let mut queue = self.observations.lock().unwrap_or_else(|p| p.into_inner());
        if queue.len() >= OBSERVATION_BUFFER {
            queue.pop_front();
        }
        queue.push_back(obs);
    }

    fn take_observations(&self) -> Vec<Observation> {
        let mut queue = self.observations.lock().unwrap_or_else(|p| p.into_inner());
        queue.drain(..).collect()
    }

    /// Queues one fault for the engine's next cycle.
    pub(crate) fn inject_fault(&self, kind: AdaptFaultKind) {
        self.faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(kind);
    }

    fn take_faults(&self) -> Vec<AdaptFaultKind> {
        std::mem::take(&mut *self.faults.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Asks the engine to cycle at its next tick regardless of interval and
    /// observation count.
    pub(crate) fn request_cycle(&self) {
        self.force.store(true, Ordering::SeqCst);
    }
}

/// Post-commit watch window over the freshly swapped checkpoint.
struct WatchState {
    /// The incumbent's shadow-validation SMAPE: what "as good as before"
    /// means.
    baseline: f64,
    /// Store epoch of the swapped-in checkpoint; only observations computed
    /// on it count.
    epoch: u64,
    /// Hash swapped in (rolled back *from* if the watch trips).
    swapped_hash: u64,
    /// Hash of the previous checkpoint (rolled back *to*).
    previous_hash: u64,
    /// The previous network, kept in memory so rollback cannot fail on a
    /// registry read.
    previous: Network,
    /// Live CV-SMAPE samples on the new epoch.
    collected: Vec<f64>,
    /// `regress_swap` fault: inflate the live samples to force the trip.
    inflate: bool,
}

/// The engine's per-thread state. Rebuilt from disk (journal + registry)
/// whenever the supervisor respawns the engine, which is exactly the
/// crash-recovery path.
struct Engine {
    shared: Arc<Shared>,
    opts: AdaptOptions,
    registry: Option<CheckpointRegistry>,
    journal: Option<SwapJournal>,
    accumulator: NoiseAccumulator,
    mirror: VecDeque<MeasurementSet>,
    watch: Option<WatchState>,
    /// Last feed-ref hash examined, swapped or not — a rejected candidate
    /// is not retried every tick.
    feed_seen: Option<u64>,
}

/// Runs the adaptation engine until the server drains. Spawned (and
/// respawned after panics) by the server's supervisor.
pub(crate) fn run_adapt_engine(shared: &Arc<Shared>) {
    let Some(state) = shared.adapt.clone() else {
        return;
    };
    let opts = shared.opts.adaptation.clone();
    let mut engine = Engine::open(Arc::clone(shared), opts);
    engine.recover();
    let mut last_cycle = Instant::now();
    while !shared.draining() {
        std::thread::sleep(shared.opts.poll_interval);
        engine.ingest(&state);
        engine.evaluate_watch();
        engine.poll_feed();
        let forced = state.force.swap(false, Ordering::SeqCst);
        let due = last_cycle.elapsed() >= engine.opts.interval
            && engine.accumulator.total() >= engine.opts.min_observations as u64;
        if forced || due {
            last_cycle = Instant::now();
            engine.cycle(&state);
            engine.accumulator.clear();
        }
    }
}

impl Engine {
    fn open(shared: Arc<Shared>, opts: AdaptOptions) -> Engine {
        let (registry, journal) = match &opts.dir {
            Some(dir) => {
                // Open failures degrade to memory-only adaptation rather
                // than killing the engine in a respawn loop.
                let registry = CheckpointRegistry::open(dir).ok();
                let journal = registry
                    .is_some()
                    .then(|| SwapJournal::open(dir).ok().map(|(j, _)| j))
                    .flatten();
                (registry, journal)
            }
            None => (None, None),
        };
        Engine {
            shared,
            opts,
            registry,
            journal,
            accumulator: NoiseAccumulator::new(),
            mirror: VecDeque::new(),
            watch: None,
            feed_seen: None,
        }
    }

    /// The crash-recovery step, run on every engine start: abort pending
    /// swaps and re-point the store at the journal's last committed hash.
    /// A crash between the store swap and the journal commit resolves here
    /// to "the swap never happened" — the journal, not the in-memory
    /// store, is the source of truth.
    fn recover(&mut self) {
        let Some(journal) = &mut self.journal else {
            return;
        };
        let _ = journal.recover_pending();
        let Some(committed) = journal.committed_hash() else {
            return;
        };
        if committed == self.shared.store.checkpoint_hash() {
            return;
        }
        if let Some(registry) = &self.registry {
            if let Ok(network) = registry.get(committed) {
                let _ = self.shared.store.swap(network, committed);
            }
        }
    }

    /// Drains the mailbox: feeds the accumulator, the mirror ring, and —
    /// when a watch window is open — the live-quality samples.
    fn ingest(&mut self, state: &AdaptState) {
        let aggregation = self.shared.store.options().dnn.aggregation;
        for obs in state.take_observations() {
            self.shared.metrics.bump(Counter::AdaptObservations);
            let sequence: Vec<f64> = obs
                .set
                .line(0, aggregation)
                .iter()
                .map(|&(x, _)| x)
                .collect();
            self.accumulator.record(
                obs.tenant.as_deref().unwrap_or("default"),
                obs.noise_mean,
                obs.noise_range,
                obs.repetitions,
                &sequence,
            );
            if let Some(watch) = &mut self.watch {
                if obs.epoch == watch.epoch {
                    let sample = if watch.inflate {
                        obs.cv_smape * 10.0 + 1.0
                    } else {
                        obs.cv_smape
                    };
                    watch.collected.push(sample);
                }
            }
            if self.mirror.len() >= MIRROR_CAP {
                self.mirror.pop_front();
            }
            self.mirror.push_back(obs.set);
        }
    }

    /// Judges an open watch window once it filled: live SMAPE beyond the
    /// tolerance rolls the store back to the previous checkpoint.
    fn evaluate_watch(&mut self) {
        let Some(watch) = &self.watch else {
            return;
        };
        if watch.collected.len() < self.opts.watch_window.max(1) {
            return;
        }
        let live = watch.collected.iter().sum::<f64>() / watch.collected.len() as f64;
        let regressed = live > watch.baseline * (1.0 + self.opts.watch_tolerance) + 1e-9;
        let watch = self.watch.take().expect("checked above");
        if !regressed {
            return;
        }
        if self
            .shared
            .store
            .swap(watch.previous.clone(), watch.previous_hash)
            .is_err()
        {
            return;
        }
        if let Some(journal) = &mut self.journal {
            let _ = journal.record_rollback(watch.previous_hash, watch.swapped_hash);
        }
        if let Some(registry) = &self.registry {
            let _ = registry.set_ref(SERVING_REF, watch.previous_hash);
            let _ = registry.set_ref(SERVING_PREVIOUS_REF, watch.swapped_hash);
        }
        self.shared.metrics.bump(Counter::AdaptRollbacks);
    }

    /// Feed mode: hot-swap in a candidate published by an external
    /// ingester. The feed ref is polled every tick; a new hash is loaded
    /// from the registry and committed through the same two-phase journal
    /// as a local retrain, minus the shadow-SMAPE gate (the ingester
    /// already modeled the candidate against its live window — the
    /// registry load is the structural validation). When mirrored traffic
    /// exists, a watch window opens so a regressing fed model still rolls
    /// back automatically.
    fn poll_feed(&mut self) {
        if !self.opts.feed {
            return;
        }
        let Some(registry) = &self.registry else {
            return;
        };
        let Ok(Some(hash)) = registry.ref_hash(INGEST_CANDIDATE_REF) else {
            return;
        };
        if self.feed_seen == Some(hash) {
            return;
        }
        // Examined is examined: a candidate that fails below must not be
        // retried every tick.
        self.feed_seen = Some(hash);
        let incumbent_hash = self.shared.store.checkpoint_hash();
        if hash == incumbent_hash {
            return;
        }
        let Ok(candidate) = registry.get(hash) else {
            return;
        };
        let incumbent = self.shared.store.network();
        let seq = match &mut self.journal {
            Some(journal) => match journal.begin(hash, incumbent_hash) {
                Ok(seq) => Some(seq),
                Err(_) => return,
            },
            None => None,
        };
        if let (Some(journal), Some(seq)) = (&mut self.journal, seq) {
            if journal.mark_validated(seq).is_err() {
                let _ = journal.abort(seq);
                return;
            }
        }
        if self.shared.store.swap(candidate, hash).is_err() {
            if let (Some(journal), Some(seq)) = (&mut self.journal, seq) {
                let _ = journal.abort(seq);
            }
            return;
        }
        if let Some(registry) = &self.registry {
            pin(registry, &incumbent, incumbent_hash);
            let _ = registry.set_ref(SERVING_REF, hash);
            let _ = registry.set_ref(SERVING_PREVIOUS_REF, incumbent_hash);
        }
        if let (Some(journal), Some(seq)) = (&mut self.journal, seq) {
            let _ = journal.commit(seq);
        }
        self.shared.metrics.bump(Counter::AdaptFeedSwaps);
        // Watch the fed model against the incumbent's shadow baseline when
        // there is mirrored traffic to define one; without a baseline the
        // watchdog would have nothing sound to compare against.
        let core_opts: AdaptiveOptions = self.shared.store.options();
        let mirror: Vec<MeasurementSet> = self.mirror.iter().cloned().collect();
        if let Some(baseline) = shadow_smape(&incumbent, &core_opts, &mirror) {
            self.watch = Some(WatchState {
                baseline,
                epoch: self.shared.store.epoch(),
                swapped_hash: hash,
                previous_hash: incumbent_hash,
                previous: incumbent,
                collected: Vec::new(),
                inflate: false,
            });
        }
    }

    /// One full adaptation cycle: retrain → store candidate →
    /// shadow-validate → commit → open the watch window.
    fn cycle(&mut self, state: &AdaptState) {
        let faults = state.take_faults();
        let has = |kind: AdaptFaultKind| faults.contains(&kind);
        let rejected = || self.shared.metrics.bump(Counter::AdaptRejected);
        self.shared.metrics.bump(Counter::AdaptCycles);
        if has(AdaptFaultKind::KillRetrain) {
            panic!("adapt fault: killed mid-retrain");
        }
        let Some((_, profile)) = self.accumulator.dominant() else {
            rejected();
            return;
        };
        let profile = profile.clone();

        // Retrain the incumbent behind the validation gate.
        let incumbent = self.shared.store.network();
        let incumbent_hash = self.shared.store.checkpoint_hash();
        let core_opts: AdaptiveOptions = self.shared.store.options();
        let mut dnn_opts = core_opts.dnn.clone();
        if self.opts.train_threads > 0 {
            dnn_opts.train_threads = self.opts.train_threads;
        }
        let spec =
            profile.training_spec(dnn_opts.adaptation_samples_per_class, dnn_opts.aggregation);
        let mut dnn = DnnModeler::from_network(dnn_opts, incumbent.clone());
        let report = dnn.adapt_with_spec_validated(&spec);
        if !report.accepted {
            rejected();
            return;
        }
        let candidate = dnn.network().clone();

        // Store the candidate content-addressed. The registry validates the
        // bytes load as a network — a corrupted candidate dies here, before
        // any journal or store state exists.
        let json = candidate.to_json();
        let stored: String = if has(AdaptFaultKind::CorruptCandidate) {
            json[..json.len() / 2].to_string()
        } else {
            json
        };
        let candidate_hash = match &self.registry {
            Some(registry) => match registry.put_bytes(&stored) {
                Ok((_, hash)) => hash,
                Err(_) => {
                    rejected();
                    return;
                }
            },
            None => match parse_checkpoint(&stored) {
                Ok((_, hash)) => hash,
                Err(_) => {
                    rejected();
                    return;
                }
            },
        };
        if candidate_hash == incumbent_hash {
            // Adaptation converged to the very same weights: nothing to swap.
            rejected();
            return;
        }

        // Two-phase swap: intent → shadow gate → validated → commit.
        let seq = match &mut self.journal {
            Some(journal) => match journal.begin(candidate_hash, incumbent_hash) {
                Ok(seq) => Some(seq),
                Err(_) => {
                    rejected();
                    return;
                }
            },
            None => None,
        };
        let mirror: Vec<MeasurementSet> = self.mirror.iter().cloned().collect();
        let incumbent_smape = shadow_smape(&incumbent, &core_opts, &mirror);
        let candidate_smape = shadow_smape(&candidate, &core_opts, &mirror);
        let gate_passed = match (candidate_smape, incumbent_smape) {
            (Some(cand), Some(inc)) => cand <= inc * (1.0 + self.opts.smape_tolerance) + 1e-9,
            // No mirrored traffic to judge on: the candidate cannot be
            // proven safe, so it does not go live.
            _ => false,
        };
        if !gate_passed && !has(AdaptFaultKind::RegressSwap) {
            if let (Some(journal), Some(seq)) = (&mut self.journal, seq) {
                let _ = journal.abort(seq);
            }
            rejected();
            return;
        }
        if let (Some(journal), Some(seq)) = (&mut self.journal, seq) {
            if journal.mark_validated(seq).is_err() {
                let _ = journal.abort(seq);
                rejected();
                return;
            }
        }
        if has(AdaptFaultKind::KillCommit) {
            // The swap is validated but not committed; recovery must abort
            // it and leave the incumbent serving.
            panic!("adapt fault: killed mid-commit");
        }
        if self.shared.store.swap(candidate, candidate_hash).is_err() {
            if let (Some(journal), Some(seq)) = (&mut self.journal, seq) {
                let _ = journal.abort(seq);
            }
            rejected();
            return;
        }
        if let Some(registry) = &self.registry {
            pin(registry, &incumbent, incumbent_hash);
            let _ = registry.set_ref(SERVING_REF, candidate_hash);
            let _ = registry.set_ref(SERVING_PREVIOUS_REF, incumbent_hash);
        }
        if let (Some(journal), Some(seq)) = (&mut self.journal, seq) {
            // A commit-record write failure is survivable: recovery treats
            // the swap as pending, aborts it, and re-points the store at
            // the last committed hash.
            let _ = journal.commit(seq);
        }
        self.shared.metrics.bump(Counter::AdaptSwaps);
        let baseline = incumbent_smape.or(candidate_smape).unwrap_or(0.0);
        self.watch = Some(WatchState {
            baseline,
            epoch: self.shared.store.epoch(),
            swapped_hash: candidate_hash,
            previous_hash: incumbent_hash,
            previous: incumbent,
            collected: Vec::new(),
            inflate: has(AdaptFaultKind::RegressSwap),
        });
    }
}

/// Pins the rollback target `network`, named `hash`, in the registry. Only
/// a checkpoint the registry lacks is serialized and stored: after the
/// first swap the incumbent is a candidate stored there already.
fn pin(registry: &CheckpointRegistry, network: &Network, hash: u64) {
    if !registry.contains(hash) {
        let _ = registry.put(network);
    }
}

/// Mean CV-SMAPE of `network` modeling the mirrored sets, with adaptation
/// off (shadow evaluation must not mutate weights). `None` when nothing
/// could be modeled.
fn shadow_smape(
    network: &Network,
    opts: &AdaptiveOptions,
    mirror: &[MeasurementSet],
) -> Option<f64> {
    let mut shadow_opts = opts.clone();
    shadow_opts.use_domain_adaptation = false;
    let mut modeler = AdaptiveModeler::from_network(shadow_opts, network.clone());
    let mut sum = 0.0;
    let mut n = 0usize;
    for set in mirror {
        if let Ok(outcome) = modeler.model(set) {
            sum += outcome.result.cv_smape;
            n += 1;
        }
        // Background work cedes the CPU between evaluations so the serving
        // path keeps its latency on machines with few cores.
        std::thread::yield_now();
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kinds_parse_their_wire_names() {
        assert_eq!(
            AdaptFaultKind::parse("kill_retrain"),
            Some(AdaptFaultKind::KillRetrain)
        );
        assert_eq!(
            AdaptFaultKind::parse("corrupt_candidate"),
            Some(AdaptFaultKind::CorruptCandidate)
        );
        assert_eq!(
            AdaptFaultKind::parse("regress_swap"),
            Some(AdaptFaultKind::RegressSwap)
        );
        assert_eq!(
            AdaptFaultKind::parse("kill_commit"),
            Some(AdaptFaultKind::KillCommit)
        );
        assert_eq!(AdaptFaultKind::parse("meteor_strike"), None);
    }

    #[test]
    fn observation_buffer_is_bounded() {
        let state = AdaptState::new();
        let mut set = MeasurementSet::new(1);
        set.add_repetitions(&[2.0], &[1.0]);
        for i in 0..(OBSERVATION_BUFFER + 10) {
            state.push_observation(Observation {
                tenant: Some(format!("t{i}")),
                set: set.clone(),
                noise_mean: 0.01,
                noise_range: (0.0, 0.02),
                repetitions: 1,
                cv_smape: 0.1,
                epoch: 0,
            });
        }
        let drained = state.take_observations();
        assert_eq!(drained.len(), OBSERVATION_BUFFER);
        // Oldest were dropped: the first surviving tenant is t10.
        assert_eq!(drained[0].tenant.as_deref(), Some("t10"));
    }

    #[test]
    fn faults_are_consumed_once() {
        let state = AdaptState::new();
        state.inject_fault(AdaptFaultKind::KillRetrain);
        state.inject_fault(AdaptFaultKind::RegressSwap);
        let taken = state.take_faults();
        assert_eq!(taken.len(), 2);
        assert!(state.take_faults().is_empty(), "faults fire once");
    }
}
