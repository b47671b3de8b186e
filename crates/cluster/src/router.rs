//! The router front-end: speaks the same newline-JSON protocol as
//! `nrpm-serve`, answers `health`/`stats`/`shutdown` and the `cluster_*`
//! admin commands itself, and relays `model`/`batch` requests to the
//! replica set that owns the request's measurement-set fingerprint on the
//! ring (see [`crate::replicate`] for the relay, failover, and quorum
//! machinery).
//!
//! Admin vocabulary beyond the shard protocol:
//!
//! | command             | effect                                          |
//! |---------------------|-------------------------------------------------|
//! | `cluster_drain`     | gracefully remove one local shard               |
//! | `cluster_kill`      | abruptly remove one local shard (test hook)     |
//! | `cluster_revive`    | restart a removed local shard under probation   |
//! | `cluster_join`      | admit a network shard (token + hash handshake)  |
//! | `cluster_heartbeat` | renew a network member's lease                  |
//! | `cluster_sync`      | full membership view (standby state sync)       |
//! | `cluster_rollout`   | rolling checkpoint rollout across the fleet     |
//! | `router_kill`       | kill the router, not the shards (test hook)     |
//!
//! The relayed reply gains a `"shard"` field naming the backend that
//! answered — plus `"replicas"`/`"quorum"`/`"divergent"` under
//! replication — so a client can check shard affinity and see a
//! divergent quorum.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nrpm_core::fingerprint::{mix64, set_fingerprint};
use nrpm_registry::hex16;
use nrpm_serve::line::{self, serve_lines, Disposition, LineHandler, LineLimits};
use nrpm_serve::protocol::{error_line, ok_line, parse_json, ErrorKind, Request, MAX_LINE_BYTES};
use serde::Value;

use crate::cluster::ClusterState;
use crate::replicate::{forward, RouteScratch, ShardConns};

/// Distinguishes router connections in the per-shard retry jitter seeds.
static CONN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The next router-connection id (jitter-seed material).
pub(crate) fn next_conn_id() -> u64 {
    CONN_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Serves the router protocol on the shared front end ([`line`]), with
/// the shards' `max_conns`, read tick and I/O timeout and the shard
/// protocol's frame cap, so the router is never the weaker link. It stops
/// on drain or when the `router_kill` hook fires — which stops the router
/// *without* draining the shards, the takeover drill's stand-in for a
/// router-host crash.
pub(crate) fn run_router(listener: TcpListener, state: &Arc<ClusterState>) {
    let limits = LineLimits::new(&state.opts.shard_opts, MAX_LINE_BYTES);
    let conn_state = Arc::clone(state);
    line::run_acceptor(
        listener,
        "nrpm-cluster-conn",
        limits.max_conns,
        || state.router_stopped(),
        || {},
        move |stream| {
            let mut conn = RouterConnection {
                state: &conn_state,
                conns: ShardConns::new(),
                scratch: RouteScratch::new(),
            };
            serve_lines(stream, &limits, &mut conn);
        },
    );
}

/// One client connection to the router, with its own shard connections
/// and routing scratch.
struct RouterConnection<'a> {
    state: &'a Arc<ClusterState>,
    conns: ShardConns,
    scratch: RouteScratch,
}

impl LineHandler for RouterConnection<'_> {
    fn handle(&mut self, line: &str) -> Disposition {
        let RouterConnection {
            state,
            conns,
            scratch,
        } = self;
        // One parse serves both vocabularies: the router's admin commands
        // are dispatched on the value before the shard protocol reads it
        // (and would reject them as unknown commands).
        let value = match parse_json(line) {
            Ok(value) => value,
            Err((kind, message)) => return Disposition::Respond(error_line(None, kind, &message)),
        };
        if let Some(cmd) = value.get("cmd").and_then(Value::as_str) {
            if let Some(disposition) = handle_admin(cmd, &value, state) {
                return disposition;
            }
        }
        let request = match Request::from_value(&value) {
            Ok(request) => request,
            Err((kind, message)) => return Disposition::Respond(error_line(None, kind, &message)),
        };
        match request {
            Request::Health => Disposition::Respond(ok_line(
                None,
                vec![
                    ("service".into(), Value::Str("nrpm-cluster-router".into())),
                    ("role".into(), Value::Str(state.role.into())),
                    ("shards".into(), Value::U64(state.member_count() as u64)),
                    ("routable".into(), Value::U64(state.routable_count() as u64)),
                    ("draining".into(), Value::Bool(state.draining())),
                ],
            )),
            Request::Stats => Disposition::Respond(ok_line(
                None,
                vec![("stats".into(), router_stats_value(state))],
            )),
            Request::Shutdown => {
                state.begin_shutdown();
                Disposition::RespondAndClose(ok_line(
                    None,
                    vec![("draining".into(), Value::Bool(true))],
                ))
            }
            Request::Model { set, id, .. } => {
                let key = set_fingerprint(&set);
                Disposition::Respond(forward(state, conns, scratch, key, line, id.as_deref()))
            }
            Request::Batch { sets, id, .. } => {
                // One batch stays whole: it routes by the combined
                // fingerprint of its sets, so the shard-side batched forward
                // pass is preserved at the cost of cross-set affinity.
                let key = sets
                    .iter()
                    .fold(0u64, |acc, set| mix64(acc ^ set_fingerprint(set)));
                Disposition::Respond(forward(state, conns, scratch, key, line, id.as_deref()))
            }
            Request::CrashWorker | Request::ForceAdapt | Request::AdaptFault { .. } => {
                Disposition::Respond(error_line(
                    None,
                    ErrorKind::Usage,
                    "this command is shard-local; the cluster router does not relay it",
                ))
            }
        }
    }

    fn stopped(&self) -> bool {
        self.state.router_stopped()
    }
}

/// Dispatches the `cluster_*` / `router_kill` admin vocabulary; `None`
/// when `cmd` belongs to the ordinary shard protocol.
fn handle_admin(cmd: &str, value: &Value, state: &Arc<ClusterState>) -> Option<Disposition> {
    let reply = match cmd {
        "cluster_join" => crate::join::handle_join(value, state),
        "cluster_heartbeat" => crate::join::handle_heartbeat(value, state),
        "cluster_sync" => crate::join::handle_sync(value, state),
        "cluster_rollout" => handle_rollout(value, state),
        "cluster_drain" | "cluster_kill" | "cluster_revive" => handle_membership(cmd, value, state),
        "router_kill" if state.opts.debug_hooks => {
            state.kill_router();
            return Some(Disposition::RespondAndClose(ok_line(
                None,
                vec![("router_killed".into(), Value::Bool(true))],
            )));
        }
        "router_kill" => error_line(
            None,
            ErrorKind::Usage,
            "router_kill is a test hook; launch the cluster with debug hooks to use it",
        ),
        _ => return None,
    };
    Some(Disposition::Respond(reply))
}

/// Handles `cluster_drain` / `cluster_kill` / `cluster_revive`.
fn handle_membership(verb: &str, value: &Value, state: &Arc<ClusterState>) -> String {
    let Some(shard) = value.get("shard").and_then(Value::as_u64) else {
        return error_line(
            None,
            ErrorKind::Usage,
            &format!("`{verb}` requires a numeric `shard` field"),
        );
    };
    let Ok(shard) = u32::try_from(shard) else {
        return error_line(None, ErrorKind::Usage, "`shard` is out of range");
    };
    let outcome = match verb {
        "cluster_drain" => state.remove_shard(shard, false).map(|()| "draining"),
        "cluster_kill" => {
            if !state.opts.debug_hooks {
                return error_line(
                    None,
                    ErrorKind::Usage,
                    "cluster_kill is a test hook; launch the cluster with debug hooks to use it",
                );
            }
            state.remove_shard(shard, true).map(|()| "killed")
        }
        "cluster_revive" => state.revive_shard(shard).map(|_| "revived"),
        _ => unreachable!("verb matched by the dispatcher"),
    };
    match outcome {
        Ok(did) => ok_line(
            None,
            vec![
                ("shard".into(), Value::U64(u64::from(shard))),
                (did.into(), Value::Bool(true)),
            ],
        ),
        Err(message) => error_line(None, ErrorKind::Usage, &message),
    }
}

/// Handles `cluster_rollout`: parses the target network off the request
/// and drives the rolling walk synchronously, answering when the fleet is
/// fully on the target (or the walk failed with the journal pending).
fn handle_rollout(value: &Value, state: &Arc<ClusterState>) -> String {
    let Some(text) = value.get("network").and_then(Value::as_str) else {
        return error_line(
            None,
            ErrorKind::Usage,
            "cluster_rollout requires a `network` field (the serialized target network)",
        );
    };
    let network = match nrpm_nn::Network::from_json(text) {
        Ok(network) => network,
        Err(e) => {
            return error_line(
                None,
                ErrorKind::Usage,
                &format!("cluster_rollout: invalid network: {e}"),
            );
        }
    };
    let crash_after = value.get("crash_after").and_then(Value::as_u64);
    if crash_after.is_some() && !state.opts.debug_hooks {
        return error_line(
            None,
            ErrorKind::Usage,
            "crash_after is a test hook; launch the cluster with debug hooks to use it",
        );
    }
    match crate::rollout::run_rollout(state, network, crash_after.map(|n| n as usize)) {
        Ok(report) => ok_line(
            None,
            vec![
                ("target".into(), Value::Str(hex16(report.target))),
                (
                    "updated".into(),
                    Value::Seq(
                        report
                            .updated
                            .iter()
                            .map(|&id| Value::U64(u64::from(id)))
                            .collect(),
                    ),
                ),
                (
                    "skipped_remote".into(),
                    Value::Seq(
                        report
                            .skipped_remote
                            .iter()
                            .map(|&id| Value::U64(u64::from(id)))
                            .collect(),
                    ),
                ),
            ],
        ),
        Err(message) => error_line(None, ErrorKind::Usage, &message),
    }
}

/// The router's `stats` body: aggregate counters, per-member state, and
/// the checkpoint-divergence view operators watch during rolling swaps.
fn router_stats_value(state: &Arc<ClusterState>) -> Value {
    let members = state.members_snapshot();
    let now = Instant::now();
    let mut per_shard = Vec::with_capacity(members.len());
    let mut hashes: Vec<String> = Vec::new();
    let mut epochs: Vec<u64> = Vec::new();
    for shard in &members {
        let polled = shard
            .polled
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        if shard.is_probed() {
            if let Some(hash) = &polled.checkpoint_hash {
                if !hashes.contains(hash) {
                    hashes.push(hash.clone());
                }
                if !epochs.contains(&polled.epoch) {
                    epochs.push(polled.epoch);
                }
            }
        }
        per_shard.push(Value::Map(vec![
            ("shard".into(), Value::U64(u64::from(shard.id))),
            ("addr".into(), Value::Str(shard.addr().to_string())),
            (
                "state".into(),
                Value::Str(shard.availability().name().into()),
            ),
            ("remote".into(), Value::Bool(shard.is_remote())),
            (
                "lease_ms".into(),
                match shard.lease_remaining_ms(now) {
                    Some(ms) => Value::U64(ms),
                    None => Value::Null,
                },
            ),
            ("incarnation".into(), Value::U64(shard.incarnation())),
            (
                "routed".into(),
                Value::U64(shard.routed.load(Ordering::Relaxed)),
            ),
            (
                "failed".into(),
                Value::U64(shard.failed.load(Ordering::Relaxed)),
            ),
            (
                "checkpoint_hash".into(),
                match &polled.checkpoint_hash {
                    Some(hash) => Value::Str(hash.clone()),
                    None => Value::Null,
                },
            ),
            ("epoch".into(), Value::U64(polled.epoch)),
        ]));
    }
    let routable = members.iter().filter(|s| s.is_routable()).count();
    Value::Map(vec![
        ("service".into(), Value::Str("nrpm-cluster-router".into())),
        (
            "server_version".into(),
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("role".into(), Value::Str(state.role.into())),
        (
            "generation".into(),
            Value::U64(state.generation.load(Ordering::SeqCst)),
        ),
        ("shards".into(), Value::U64(members.len() as u64)),
        ("routable".into(), Value::U64(routable as u64)),
        ("draining".into(), Value::Bool(state.draining())),
        (
            "replication".into(),
            Value::U64(state.opts.replication.max(1) as u64),
        ),
        (
            "requests_routed".into(),
            Value::U64(state.routed.load(Ordering::Relaxed)),
        ),
        (
            "failovers".into(),
            Value::U64(state.failovers.load(Ordering::Relaxed)),
        ),
        (
            "rejected".into(),
            Value::U64(state.rejected.load(Ordering::Relaxed)),
        ),
        (
            "replica_fanouts".into(),
            Value::U64(state.replica_fanouts.load(Ordering::Relaxed)),
        ),
        (
            "replica_divergences".into(),
            Value::U64(state.replica_divergences.load(Ordering::Relaxed)),
        ),
        (
            "joins".into(),
            Value::U64(state.joins.load(Ordering::Relaxed)),
        ),
        (
            "lease_expiries".into(),
            Value::U64(state.lease_expiries.load(Ordering::Relaxed)),
        ),
        (
            "rollouts".into(),
            Value::U64(state.rollouts.load(Ordering::SeqCst)),
        ),
        (
            "serving_hash".into(),
            match state.serving_hash() {
                Some(hash) => Value::Str(hex16(hash)),
                None => Value::Null,
            },
        ),
        (
            "checkpoint_divergence".into(),
            Value::Bool(hashes.len() > 1),
        ),
        ("epoch_divergence".into(), Value::Bool(epochs.len() > 1)),
        ("per_shard".into(), Value::Seq(per_shard)),
    ])
}
