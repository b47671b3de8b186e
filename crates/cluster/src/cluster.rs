//! Cluster lifecycle: launch N in-process shards behind one router,
//! accept network shards through the `cluster_join` handshake, distribute
//! the serving checkpoint through the content-addressed registry, and
//! supervise every member's health over the wire.
//!
//! Membership is dynamic but append-only: a member's id is its index in
//! the members vector, ids are never reused, and leaving members are
//! skipped at lookup time rather than removed — so a returning member gets
//! its exact old ring positions back. Every membership change bumps a
//! `generation` counter that the standby router's state sync keys on.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_nn::Network;
use nrpm_registry::rollout::RolloutJournal;
use nrpm_registry::CheckpointRegistry;
use nrpm_serve::client::{is_ok, Client, RetryPolicy};
use nrpm_serve::line;
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::Value;

use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::shard::{Availability, PolledStats, ShardRuntime};

/// Tuning knobs of [`Cluster::launch`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Locally-spawned backend shard count.
    pub shards: usize,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Router bind address; use port `0` for an ephemeral port.
    pub router_addr: String,
    /// When set, the serving checkpoint is published here under
    /// [`ClusterOptions::serving_ref`], synced into a per-shard registry
    /// (`<dir>/shards/shard-<i>`), and each shard loads its weights from
    /// its own copy — the distribution path every deployment would use
    /// across real machines. `None` hands each shard a clone directly.
    pub registry_dir: Option<PathBuf>,
    /// Ref name the serving checkpoint is published under.
    pub serving_ref: String,
    /// How often the supervisor wire-polls each shard's `health`/`stats`.
    pub probe_interval: Duration,
    /// Connect/roundtrip deadline of one probe.
    pub probe_timeout: Duration,
    /// Consecutive probe failures that eject a healthy shard.
    pub eject_after: u32,
    /// Consecutive successful probes a returning shard must pass before
    /// traffic comes back (gradual re-admission).
    pub readmit_probes: u32,
    /// Per-forwarded-request deadline the router's shard clients use.
    pub shard_timeout: Duration,
    /// Retry/backoff/breaker policy of the router's per-shard clients.
    /// Failover to ring successors happens *after* this policy exhausts
    /// its in-place retries against one shard.
    pub retry: RetryPolicy,
    /// Distinct shards one request may try before giving up.
    pub max_failover: usize,
    /// Replicas per key: `model`/`batch` requests fan out to the first
    /// `replication` distinct ring successors in parallel and the answer
    /// is resolved by `served_hash`/`epoch` quorum. `1` (the default)
    /// routes to the owner only, with sequential failover.
    pub replication: usize,
    /// Token a network shard must present to `cluster_join`; `None` (the
    /// default) closes the cluster to network members.
    pub join_token: Option<String>,
    /// Heartbeat lease granted to network members; a member whose lease
    /// lapses is ejected until it heartbeats and re-passes probation.
    pub member_lease: Duration,
    /// Launches a warm standby router that mirrors membership via
    /// periodic state sync and takes over the advertised address when the
    /// primary stops answering.
    pub standby: bool,
    /// How often the standby router syncs state from the primary.
    pub gossip_interval: Duration,
    /// Consecutive failed syncs after which the standby takes over.
    pub takeover_after: u32,
    /// Enables the `cluster_kill` / `router_kill` / rollout `crash_after`
    /// test hooks on the router.
    pub debug_hooks: bool,
    /// Template for each shard's server options; `workers` and `shard_id`
    /// are overridden per shard.
    pub shard_opts: ServeOptions,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            shards: 3,
            vnodes: DEFAULT_VNODES,
            workers_per_shard: 2,
            router_addr: "127.0.0.1:0".into(),
            registry_dir: None,
            serving_ref: "cluster-serving".into(),
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(2),
            eject_after: 2,
            readmit_probes: 3,
            shard_timeout: Duration::from_secs(10),
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            max_failover: usize::MAX,
            replication: 1,
            join_token: None,
            member_lease: Duration::from_secs(2),
            standby: false,
            gossip_interval: Duration::from_millis(100),
            takeover_after: 3,
            debug_hooks: false,
            shard_opts: ServeOptions::default(),
        }
    }
}

fn io_other(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

pub(crate) fn read_recovering<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub(crate) fn write_recovering<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// State shared by the router, the supervisor, and the [`Cluster`] handle.
/// A promoted standby router builds its own instance (role `"standby"`)
/// sharing only the shutdown flag and the advertised address.
pub(crate) struct ClusterState {
    /// Routing ring. Ejection skips members at lookup time instead of
    /// editing the ring; only a *join* edits it (append-only), so
    /// returning members get their exact old keys back.
    ring: RwLock<HashRing>,
    /// Members by id (`id == index`, ids never reused).
    members: RwLock<Vec<Arc<ShardRuntime>>>,
    /// Bumped on every membership change; state sync keys on it.
    pub(crate) generation: AtomicU64,
    pub(crate) opts: ClusterOptions,
    pub(crate) router_addr: SocketAddr,
    /// Which router owns this state: `"primary"` or `"standby"`.
    pub(crate) role: &'static str,
    /// Content hash of the registry-distributed serving checkpoint, when
    /// a registry is in use; updated by completed rollouts.
    serving_hash: RwLock<Option<u64>>,
    /// Shared with the standby path so one flag drains everything.
    shutdown: Arc<AtomicBool>,
    /// `router_kill` test hook: stops the router and supervisor while the
    /// shards live on, simulating a router-host crash for takeover drills.
    router_dead: AtomicBool,
    /// Guards against concurrent rolling rollouts.
    pub(crate) rollout_active: AtomicBool,
    /// Requests the router relayed to a shard successfully.
    pub(crate) routed: AtomicU64,
    /// Relayed requests answered by a shard other than the ring owner.
    pub(crate) failovers: AtomicU64,
    /// Requests no shard could answer.
    pub(crate) rejected: AtomicU64,
    /// Requests fanned out to more than one replica.
    pub(crate) replica_fanouts: AtomicU64,
    /// Fanned-out requests whose replicas disagreed on `served_hash`/
    /// `epoch` (resolved by quorum, but worth watching).
    pub(crate) replica_divergences: AtomicU64,
    /// Network members admitted through `cluster_join` (rejoins included).
    pub(crate) joins: AtomicU64,
    /// Heartbeat leases that lapsed and ejected their member.
    pub(crate) lease_expiries: AtomicU64,
    /// Rolling rollouts completed by this router.
    pub(crate) rollouts: AtomicU64,
}

impl ClusterState {
    pub(crate) fn new(
        opts: ClusterOptions,
        router_addr: SocketAddr,
        members: Vec<Arc<ShardRuntime>>,
        serving_hash: Option<u64>,
        shutdown: Arc<AtomicBool>,
        role: &'static str,
    ) -> ClusterState {
        let ring = HashRing::new(members.iter().map(|m| m.id), opts.vnodes);
        ClusterState {
            ring: RwLock::new(ring),
            generation: AtomicU64::new(members.len() as u64),
            members: RwLock::new(members),
            opts,
            router_addr,
            role,
            serving_hash: RwLock::new(serving_hash),
            shutdown,
            router_dead: AtomicBool::new(false),
            rollout_active: AtomicBool::new(false),
            routed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            replica_fanouts: AtomicU64::new(0),
            replica_divergences: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            lease_expiries: AtomicU64::new(0),
            rollouts: AtomicU64::new(0),
        }
    }

    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the drain flag and wakes whichever router (primary or
    /// promoted standby) is blocked accepting on the router address.
    pub(crate) fn begin_shutdown(&self) {
        line::stop(&self.shutdown, self.router_addr);
    }

    /// `router_kill` test hook: see the field docs. The wake makes the
    /// router drop its listener, so a standby can bind the address.
    pub(crate) fn kill_router(&self) {
        line::stop(&self.router_dead, self.router_addr);
    }

    /// `true` once this router must stop: on drain, or after `router_kill`.
    pub(crate) fn router_stopped(&self) -> bool {
        self.draining() || self.router_dead.load(Ordering::SeqCst)
    }

    pub(crate) fn member(&self, id: u32) -> Option<Arc<ShardRuntime>> {
        read_recovering(&self.members).get(id as usize).cloned()
    }

    pub(crate) fn members_snapshot(&self) -> Vec<Arc<ShardRuntime>> {
        read_recovering(&self.members).clone()
    }

    pub(crate) fn member_count(&self) -> usize {
        read_recovering(&self.members).len()
    }

    pub(crate) fn routable_count(&self) -> usize {
        read_recovering(&self.members)
            .iter()
            .filter(|m| m.is_routable())
            .count()
    }

    pub(crate) fn find_member_by_addr(&self, addr: SocketAddr) -> Option<Arc<ShardRuntime>> {
        read_recovering(&self.members)
            .iter()
            .find(|m| m.addr() == addr)
            .cloned()
    }

    /// Fills `order` with the distinct-shard successor list of `key`
    /// under a short read lock (allocation-free once warmed).
    pub(crate) fn successors_into(&self, key: u64, order: &mut Vec<u32>) {
        read_recovering(&self.ring).successors_into(key, order);
    }

    /// Admits a new member: appends it (its id must equal the current
    /// member count), extends the ring, and bumps the generation.
    pub(crate) fn add_member(&self, member: Arc<ShardRuntime>) {
        let mut members = write_recovering(&self.members);
        debug_assert_eq!(member.id as usize, members.len(), "member id == index");
        write_recovering(&self.ring).add_shard(member.id);
        members.push(member);
        drop(members);
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn serving_hash(&self) -> Option<u64> {
        *read_recovering(&self.serving_hash)
    }

    pub(crate) fn set_serving_hash(&self, hash: u64) {
        *write_recovering(&self.serving_hash) = Some(hash);
    }

    fn shard_serve_opts(&self, id: u32) -> ServeOptions {
        shard_serve_opts(&self.opts, id)
    }

    /// Gracefully removes a shard from rotation: routing stops first, then
    /// the backend drains. `killed` marks the test-hook variant, which is
    /// identical mechanically (in-process threads cannot be aborted) but
    /// recorded distinctly in `status`. Network members cannot be removed
    /// this way — their server belongs to another host.
    pub(crate) fn remove_shard(&self, id: u32, killed: bool) -> Result<(), String> {
        let shard = self.member(id).ok_or_else(|| format!("no shard {id}"))?;
        if shard.is_remote() {
            return Err(format!(
                "shard {id} is a network member; stop it on its own host"
            ));
        }
        let server = shard
            .take_server()
            .ok_or_else(|| format!("shard {id} is not running"))?;
        shard.mark_leaving(killed);
        server.request_shutdown();
        // The drain cascade can take a few poll ticks; finish it off the
        // router's request path.
        let _ = thread::Builder::new()
            .name(format!("nrpm-cluster-reap-{id}"))
            .spawn(move || {
                let _ = server.join();
            });
        Ok(())
    }

    /// Restarts a drained/killed shard on a fresh ephemeral port, serving
    /// the same store (same checkpoint, same epoch counter). It returns as
    /// `Ejected` and must pass the supervisor's probation before traffic
    /// comes back.
    pub(crate) fn revive_shard(&self, id: u32) -> Result<SocketAddr, String> {
        let shard = self.member(id).ok_or_else(|| format!("no shard {id}"))?;
        let store = shard
            .store()
            .ok_or_else(|| format!("shard {id} is a network member; restart it on its own host"))?
            .clone();
        if shard.has_server() {
            return Err(format!("shard {id} is already running"));
        }
        let server = Server::start("127.0.0.1:0", store, self.shard_serve_opts(id))
            .map_err(|e| format!("cannot restart shard {id}: {e}"))?;
        let addr = server.addr();
        shard.mark_revived(addr, server);
        Ok(addr)
    }
}

fn shard_serve_opts(opts: &ClusterOptions, id: u32) -> ServeOptions {
    ServeOptions {
        workers: opts.workers_per_shard.max(1),
        shard_id: Some(u64::from(id)),
        ..opts.shard_opts.clone()
    }
}

/// A running sharded serving tier. Dropping the handle does **not** stop
/// it; call [`Cluster::request_shutdown`] (or send the router a `shutdown`
/// request) and then [`Cluster::join`].
pub struct Cluster {
    state: Arc<ClusterState>,
    router: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    standby: Option<JoinHandle<()>>,
    /// Threads a promoted standby router spawned (its supervisor); drained
    /// by [`Cluster::join`].
    promoted: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Cluster {
    /// Publishes `network` as the serving checkpoint (through the registry
    /// when one is configured), starts every shard and the router, and
    /// begins supervising. A rollout a previous run crashed mid-walk is
    /// completed first: the fleet launches on the rollout's *target*
    /// checkpoint, not `network`, restoring a single-epoch fleet before
    /// any request is routed.
    pub fn launch(network: Network, opts: ClusterOptions) -> std::io::Result<Cluster> {
        let count = opts.shards.max(1) as u32;
        let (serving_hash, shard_networks) = distribute_checkpoint(network, &opts, count)?;

        let mut members = Vec::with_capacity(count as usize);
        for (i, net) in shard_networks.into_iter().enumerate() {
            let id = i as u32;
            let store =
                ModelStore::from_network(net, AdaptiveOptions::default()).map_err(io_other)?;
            let server = Server::start("127.0.0.1:0", store.clone(), shard_serve_opts(&opts, id))?;
            let addr = server.addr();
            members.push(Arc::new(ShardRuntime::local(id, addr, store, server)));
        }

        let listener = TcpListener::bind(&opts.router_addr)?;
        let router_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let standby_requested = opts.standby;
        let state = Arc::new(ClusterState::new(
            opts,
            router_addr,
            members,
            serving_hash,
            Arc::clone(&shutdown),
            "primary",
        ));

        let router = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("nrpm-cluster-router".into())
                .spawn(move || crate::router::run_router(listener, &state))
                .expect("spawn router thread")
        };
        let supervisor = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("nrpm-cluster-supervisor".into())
                .spawn(move || run_supervisor(&state))
                .expect("spawn cluster supervisor thread")
        };
        let promoted = Arc::new(Mutex::new(Vec::new()));
        let standby = if standby_requested {
            let opts = state.opts.clone();
            let shutdown = Arc::clone(&shutdown);
            let promoted = Arc::clone(&promoted);
            Some(
                thread::Builder::new()
                    .name("nrpm-cluster-standby".into())
                    .spawn(move || {
                        crate::standby::run_standby(router_addr, opts, shutdown, promoted)
                    })
                    .expect("spawn standby router thread"),
            )
        } else {
            None
        };

        Ok(Cluster {
            state,
            router: Some(router),
            supervisor: Some(supervisor),
            standby,
            promoted,
        })
    }

    /// The router's bound address (resolves ephemeral ports).
    pub fn router_addr(&self) -> SocketAddr {
        self.state.router_addr
    }

    /// Current member count (local shards plus admitted network members).
    pub fn shards(&self) -> usize {
        self.state.member_count()
    }

    /// A shard's current address, if the id exists.
    pub fn shard_addr(&self, id: u32) -> Option<SocketAddr> {
        self.state.member(id).map(|s| s.addr())
    }

    /// A shard's store handle — tests use this to force checkpoint
    /// divergence with a direct hot-swap. `None` for network members.
    pub fn shard_store(&self, id: u32) -> Option<ModelStore> {
        self.state.member(id).and_then(|s| s.store().cloned())
    }

    /// A shard's routing availability.
    pub fn shard_availability(&self, id: u32) -> Option<Availability> {
        self.state.member(id).map(|s| s.availability())
    }

    /// Content hash of the registry-distributed serving checkpoint (`None`
    /// without a registry); tracks completed rollouts.
    pub fn serving_hash(&self) -> Option<u64> {
        self.state.serving_hash()
    }

    /// Gracefully removes one shard from rotation (see
    /// [`ClusterState::remove_shard`]).
    pub fn drain_shard(&self, id: u32) -> Result<(), String> {
        self.state.remove_shard(id, false)
    }

    /// Abruptly removes one shard, as the `cluster_kill` test hook does.
    pub fn kill_shard(&self, id: u32) -> Result<(), String> {
        self.state.remove_shard(id, true)
    }

    /// Restarts a removed shard under probation rules.
    pub fn revive_shard(&self, id: u32) -> Result<SocketAddr, String> {
        self.state.revive_shard(id)
    }

    /// Rolls `network` out to the fleet one shard at a time: drain, sync,
    /// hot-swap, verify over the wire, readmit — journaled so a crash
    /// anywhere in the walk recovers to a single-epoch fleet at the next
    /// launch. Requires a registry.
    pub fn rollout(&self, network: Network) -> Result<crate::rollout::RolloutReport, String> {
        crate::rollout::run_rollout(&self.state, network, None)
    }

    /// `true` once a drain has begun.
    pub fn draining(&self) -> bool {
        self.state.draining()
    }

    /// Begins a graceful drain of the router and every shard.
    pub fn request_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Waits for the drain cascade: router, supervisor, standby, then
    /// every local shard.
    pub fn join(mut self) -> std::thread::Result<()> {
        if let Some(router) = self.router.take() {
            router.join()?;
        }
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join()?;
        }
        if let Some(standby) = self.standby.take() {
            standby.join()?;
        }
        let promoted: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .promoted
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for handle in promoted {
            handle.join()?;
        }
        for shard in self.state.members_snapshot() {
            if let Some(server) = shard.take_server() {
                server.request_shutdown();
                server.join()?;
            }
        }
        Ok(())
    }
}

/// Publishes the serving checkpoint and produces each shard's copy of the
/// network. With a registry, every shard loads from its own synced
/// registry — the same object bytes, so every store computes the same
/// `checkpoint_hash`.
///
/// A rollout the previous run crashed mid-walk wins over the operator's
/// (stale) launch network: the fleet must not come up serving a mix of
/// epochs, and the journaled target is the newest intent on record.
fn distribute_checkpoint(
    network: Network,
    opts: &ClusterOptions,
    count: u32,
) -> std::io::Result<(Option<u64>, Vec<Network>)> {
    let Some(dir) = &opts.registry_dir else {
        return Ok((None, vec![network; count as usize]));
    };
    let source = CheckpointRegistry::open(dir).map_err(io_other)?;
    let (mut journal, _) = RolloutJournal::open(dir)?;
    let network = match journal.pending() {
        Some(pending) if source.contains(pending.target) => {
            let recovered = source.get(pending.target).map_err(io_other)?;
            // The distribution loop below lands every shard on the target,
            // which is exactly the walk the crashed rollout owed.
            journal.finish(pending.seq)?;
            recovered
        }
        Some(pending) => {
            // The target object is gone (GC'd or never fully written); the
            // rollout cannot be completed, so call it off explicitly.
            journal.abort(pending.seq)?;
            network
        }
        None => network,
    };
    let hash = source.put(&network).map_err(io_other)?;
    source.set_ref(&opts.serving_ref, hash).map_err(io_other)?;
    let mut networks = Vec::with_capacity(count as usize);
    for i in 0..count {
        let dest = CheckpointRegistry::open(dir.join("shards").join(format!("shard-{i}")))
            .map_err(io_other)?;
        source.sync_to(&dest, hash).map_err(io_other)?;
        networks.push(dest.get(hash).map_err(io_other)?);
    }
    Ok((Some(hash), networks))
}

/// Wire-polls every probed member's `health` and `stats` each tick,
/// driving the eject/re-admit state machine and refreshing the router's
/// per-shard checkpoint-hash/epoch view. For network members it also
/// enforces the heartbeat lease: a lapsed lease ejects, and probes cannot
/// readmit a member whose lease is dead — liveness of the *join agent* is
/// part of being servable.
pub(crate) fn run_supervisor(state: &Arc<ClusterState>) {
    while !state.router_stopped() {
        let now = Instant::now();
        for member in state.members_snapshot() {
            if member.note_lease_lapse(now) {
                state.lease_expiries.fetch_add(1, Ordering::Relaxed);
            }
            if !member.is_probed() {
                continue;
            }
            match probe_shard(member.addr(), state.opts.probe_timeout) {
                Ok(polled) => {
                    *member
                        .polled
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner()) = polled;
                    if member.lease_allows_readmission(Instant::now()) {
                        member.note_probe_ok(state.opts.readmit_probes);
                    }
                }
                Err(_) => member.note_probe_fail(state.opts.eject_after),
            }
        }
        thread::sleep(state.opts.probe_interval);
    }
}

/// One probe: `health` must answer ok and not be draining, then `stats`
/// yields the shard's checkpoint hash and adaptation epoch.
pub(crate) fn probe_shard(addr: SocketAddr, timeout: Duration) -> std::io::Result<PolledStats> {
    let mut client = Client::connect(addr, timeout)?;
    let health = client.health()?;
    if !is_ok(&health) || health.get("draining").and_then(Value::as_bool) == Some(true) {
        return Err(io_other("shard reports unhealthy or draining"));
    }
    let stats = client.stats()?;
    Ok(PolledStats {
        checkpoint_hash: stats
            .get("checkpoint_hash")
            .and_then(Value::as_str)
            .map(str::to_string),
        epoch: stats.get("epoch").and_then(Value::as_u64).unwrap_or(0),
    })
}
