//! The rolling checkpoint rollout driver: upgrade the fleet one shard at
//! a time without ever refusing a request or serving a mixed answer.
//!
//! The walk, per local shard in id order:
//!
//! 1. **drain** — the member leaves rotation (`Updating`); its keys are
//!    covered by replicas (R > 1) or ring successors (R = 1);
//! 2. **sync** — the target checkpoint is synced from the source registry
//!    into the shard's own per-shard registry, the same distribution path
//!    `launch` uses;
//! 3. **swap** — the store hot-swaps to the target (epoch bump, journaled
//!    by the store's own swap machinery);
//! 4. **verify** — the driver probes the shard *over the wire* until it
//!    reports the target `checkpoint_hash`: readmission is earned by
//!    observed behavior, not assumed from a successful API call;
//! 5. **readmit** — the member returns directly to `Healthy` (the
//!    verification was the probe), and the walk's journal records it.
//!
//! Every step is recorded in the registry's [`RolloutJournal`], so a
//! crash anywhere mid-walk leaves a `pending` record that the next
//! cluster launch completes — the fleet always converges to a
//! single-epoch view of the rollout's *target* (see
//! `Cluster::launch`). Network members are skipped (their weights live on
//! another host); they upgrade by syncing the new serving checkpoint and
//! rejoining, and the join handshake's hash check enforces exactly that.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nrpm_nn::Network;
use nrpm_registry::rollout::RolloutJournal;
use nrpm_registry::{hex16, CheckpointRegistry};

use crate::cluster::{probe_shard, ClusterState, RouterCounter};

/// What a completed rollout did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutReport {
    /// Content hash of the checkpoint the fleet now serves.
    pub target: u64,
    /// Local shards updated (or confirmed already on target), in walk
    /// order.
    pub updated: Vec<u32>,
    /// Network members skipped — they upgrade from their own host and
    /// rejoin.
    pub skipped_remote: Vec<u32>,
}

/// Releases the concurrent-rollout guard even on early error returns.
struct ActiveGuard<'a>(&'a ClusterState);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.rollout_active.store(false, Ordering::SeqCst);
    }
}

/// The registry a rollout's target must be stored in before
/// [`run_rollout`] walks it out: the cluster's `--registry-dir`.
pub(crate) fn source_registry(state: &ClusterState) -> Result<CheckpointRegistry, String> {
    let Some(dir) = &state.opts.registry_dir else {
        return Err("rolling rollout requires a registry (launch with --registry-dir)".into());
    };
    CheckpointRegistry::open(dir).map_err(|e| e.to_string())
}

/// Runs a rolling rollout of `network`, already stored in the
/// [`source_registry`] under `target` (see the [module docs](self)).
///
/// `crash_after` is the crash-drill hook: `Some(n)` aborts the process of
/// walking after `n` shards landed, leaving the journal pending exactly
/// as a real crash would.
pub(crate) fn run_rollout(
    state: &Arc<ClusterState>,
    (network, target): (Network, u64),
    crash_after: Option<usize>,
) -> Result<RolloutReport, String> {
    let source = source_registry(state)?;
    let dir = source.root();
    if state
        .rollout_active
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Err("a rollout is already in progress".into());
    }
    let _guard = ActiveGuard(state);

    let incumbent = state.serving_hash().unwrap_or(0);
    let (mut journal, _) = RolloutJournal::open(dir).map_err(|e| e.to_string())?;
    let (seq, mut landed) = match journal.pending() {
        // Re-running the same rollout resumes where it stopped.
        Some(pending) if pending.target == target => (pending.seq, pending.done),
        Some(pending) => {
            return Err(format!(
                "rollout {} to {} is pending; relaunch the cluster to recover it first",
                pending.seq,
                hex16(pending.target)
            ));
        }
        None => (
            journal
                .begin(target, incumbent)
                .map_err(|e| e.to_string())?,
            Vec::new(),
        ),
    };
    source
        .set_ref(&state.opts.serving_ref, target)
        .map_err(|e| e.to_string())?;

    let mut updated = Vec::new();
    let mut skipped_remote = Vec::new();
    let mut walked = 0usize;
    for member in state.members_snapshot() {
        let Some(store) = member.store() else {
            skipped_remote.push(member.id);
            continue;
        };
        if landed.contains(&member.id) {
            updated.push(member.id);
            continue;
        }
        if crash_after == Some(walked) {
            return Err(format!(
                "rollout crash drill: stopped after {walked} shards; journal left pending"
            ));
        }
        walked += 1;

        if store.checkpoint_hash() == target {
            // Already on target (e.g. the incumbent *is* the target);
            // journal it without a needless drain cycle.
            journal
                .record_shard(seq, member.id)
                .map_err(|e| e.to_string())?;
            landed.push(member.id);
            updated.push(member.id);
            continue;
        }

        // 1. drain — but only readmit directly if it was serving before.
        let was_routable = member.is_routable();
        member.begin_update();

        // 2. sync through the shard's own registry.
        let dest =
            CheckpointRegistry::open(dir.join("shards").join(format!("shard-{}", member.id)))
                .map_err(|e| e.to_string())?;
        source.sync_to(&dest, target).map_err(|e| e.to_string())?;

        // 3. swap. The sync checked the shard's copy against `target`, so
        // the shard serves the network already in hand under that name.
        if let Err(e) = store.swap(network.clone(), target) {
            member.finish_update(false);
            return Err(format!("shard {} refused the swap: {e}", member.id));
        }

        // 4. verify over the wire.
        match verify_on_target(state, member.addr(), target) {
            Ok(polled) => {
                *member
                    .polled
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = polled;
            }
            Err(e) => {
                // Leave the member out of rotation and the journal pending:
                // a relaunch (or a rerun of the same rollout) finishes the
                // job. Readmitting an unverified shard is the one thing
                // this driver must never do.
                member.finish_update(false);
                return Err(format!(
                    "shard {} did not verify on {} : {e}",
                    member.id,
                    hex16(target)
                ));
            }
        }

        // 5. readmit and journal.
        member.finish_update(was_routable);
        journal
            .record_shard(seq, member.id)
            .map_err(|e| e.to_string())?;
        landed.push(member.id);
        updated.push(member.id);
    }

    journal.finish(seq).map_err(|e| e.to_string())?;
    state.set_serving_hash(target);
    state.counters.bump(RouterCounter::Rollouts);
    Ok(RolloutReport {
        target,
        updated,
        skipped_remote,
    })
}

/// Probes `addr` until it reports `target` as its checkpoint hash, or a
/// deadline scaled off the probe timeout expires.
fn verify_on_target(
    state: &ClusterState,
    addr: std::net::SocketAddr,
    target: u64,
) -> Result<crate::shard::PolledStats, String> {
    let want = hex16(target);
    let deadline = Instant::now() + (state.opts.probe_timeout * 4).max(Duration::from_secs(2));
    let pause = state.opts.probe_interval.min(Duration::from_millis(25));
    let mut last_err;
    loop {
        match probe_shard(addr, state.opts.probe_timeout) {
            Ok(polled) if polled.checkpoint_hash.as_deref() == Some(want.as_str()) => {
                return Ok(polled);
            }
            Ok(polled) => {
                last_err = format!(
                    "shard reports checkpoint {:?}, want {want}",
                    polled.checkpoint_hash
                );
            }
            Err(e) => last_err = e.to_string(),
        }
        if Instant::now() >= deadline {
            return Err(last_err);
        }
        std::thread::sleep(pause);
    }
}
