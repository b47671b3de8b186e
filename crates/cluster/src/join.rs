//! Network shard membership: the `cluster_join` handshake, the heartbeat
//! lease, the `cluster_sync` state-sync endpoint, and the shard-side
//! [`JoinAgent`] that keeps a server enrolled.
//!
//! ## The handshake
//!
//! An `nrpm serve` on another host registers with the router by sending
//! one admin command over the ordinary newline-JSON protocol:
//!
//! ```text
//! {"cmd":"cluster_join","token":"...","addr":"host:port",
//!  "checkpoint_hash":"<hex16>","protocol":1}
//! ```
//!
//! The router refuses the join unless (in order): joins are enabled
//! (`--join-token` was set), the token matches, the protocol version is
//! compatible, the advertised checkpoint hash equals the cluster's
//! serving hash, and one direct probe of the advertised address confirms
//! the shard is reachable *and really serves that hash* — the shard's
//! claim is verified over the wire, never trusted. An admitted member
//! starts `Ejected` and earns traffic through the same probation gauntlet
//! as a revived local shard.
//!
//! ## The lease
//!
//! Admission grants a heartbeat lease (`lease_ms` in the reply). The
//! agent renews it at a third of its duration with `cluster_heartbeat`;
//! the supervisor ejects any member whose lease lapses, and a dead lease
//! also blocks probe-driven readmission — a server that answers probes
//! but lost its agent is *not* servable, because nobody would renew its
//! membership claim. Rejoining after a lapse is the same `cluster_join`
//! again: same address means the same member id (with a bumped
//! incarnation, so routers drop cached connections to the old process).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use nrpm_registry::{hex16, parse_hex16};
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::protocol::{error_line, ok_line, ErrorKind};
use serde::Value;
use serde_json;

use crate::cluster::{probe_shard, ClusterState, RouterCounter};
use crate::shard::ShardRuntime;

/// Version of the join/heartbeat/sync vocabulary. A joiner advertising a
/// different version is refused rather than half-understood.
pub const JOIN_PROTOCOL_VERSION: u64 = 1;

/// Checks the `token` field of an admin command against the configured
/// join token. `Err` carries the refusal reply.
fn check_token(value: &Value, state: &ClusterState, verb: &str) -> Result<(), String> {
    let Some(expected) = &state.opts.join_token else {
        return Err(error_line(
            None,
            ErrorKind::Usage,
            &format!("{verb} refused: this cluster is closed to network members (no join token configured)"),
        ));
    };
    if value.get("token").and_then(Value::as_str) != Some(expected.as_str()) {
        return Err(error_line(
            None,
            ErrorKind::Usage,
            &format!("{verb} refused: join token rejected"),
        ));
    }
    Ok(())
}

/// Handles `cluster_join`. See the [module docs](self) for the contract.
pub(crate) fn handle_join(value: &Value, state: &Arc<ClusterState>) -> String {
    if let Err(refusal) = check_token(value, state, "cluster_join") {
        return refusal;
    }
    if value.get("protocol").and_then(Value::as_u64) != Some(JOIN_PROTOCOL_VERSION) {
        return error_line(
            None,
            ErrorKind::Usage,
            &format!(
                "cluster_join refused: this router speaks join protocol {JOIN_PROTOCOL_VERSION}"
            ),
        );
    }
    let Some(addr) = value
        .get("addr")
        .and_then(Value::as_str)
        .and_then(|s| s.parse::<SocketAddr>().ok())
    else {
        return error_line(
            None,
            ErrorKind::Usage,
            "cluster_join requires an `addr` field (\"host:port\" the router can reach)",
        );
    };
    let Some(claimed) = value
        .get("checkpoint_hash")
        .and_then(Value::as_str)
        .and_then(parse_hex16)
    else {
        return error_line(
            None,
            ErrorKind::Usage,
            "cluster_join requires a `checkpoint_hash` field (hex16 of the served checkpoint)",
        );
    };
    if let Some(serving) = state.serving_hash() {
        if claimed != serving {
            return error_line(
                None,
                ErrorKind::Usage,
                &format!(
                    "cluster_join refused: shard serves checkpoint {} but the cluster serves {}; \
                     sync the serving checkpoint and rejoin",
                    hex16(claimed),
                    hex16(serving)
                ),
            );
        }
    }
    // Verify the claim over the wire: the advertised address must answer a
    // probe and actually serve the claimed checkpoint.
    let polled = match probe_shard(addr, state.opts.probe_timeout) {
        Ok(polled) => polled,
        Err(e) => {
            return error_line(
                None,
                ErrorKind::Recoverable,
                &format!("cluster_join refused: cannot probe advertised address {addr}: {e}"),
            );
        }
    };
    if polled.checkpoint_hash.as_deref() != Some(hex16(claimed).as_str()) {
        return error_line(
            None,
            ErrorKind::Usage,
            &format!(
                "cluster_join refused: {addr} reports checkpoint {:?}, not the claimed {}",
                polled.checkpoint_hash,
                hex16(claimed)
            ),
        );
    }

    let lease = state.opts.member_lease;
    let member = match state.find_member_by_addr(addr) {
        Some(existing) => {
            // Same address, possibly a new process: renew membership under
            // a fresh lease and incarnation.
            existing.mark_rejoined(addr, lease);
            existing
        }
        None => {
            let id = state.member_count() as u32;
            let member = Arc::new(ShardRuntime::remote(id, addr, lease));
            state.add_member(Arc::clone(&member));
            member
        }
    };
    *member
        .polled
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = polled;
    state.counters.bump(RouterCounter::Joins);
    ok_line(
        None,
        vec![
            ("shard".into(), Value::U64(u64::from(member.id))),
            ("lease_ms".into(), Value::U64(lease.as_millis() as u64)),
            (
                "serving_hash".into(),
                match state.serving_hash() {
                    Some(hash) => Value::Str(hex16(hash)),
                    None => Value::Null,
                },
            ),
            (
                "generation".into(),
                Value::U64(state.generation.load(Ordering::SeqCst)),
            ),
        ],
    )
}

/// Handles `cluster_heartbeat`: renews a network member's lease.
pub(crate) fn handle_heartbeat(value: &Value, state: &Arc<ClusterState>) -> String {
    if let Err(refusal) = check_token(value, state, "cluster_heartbeat") {
        return refusal;
    }
    let Some(id) = value
        .get("shard")
        .and_then(Value::as_u64)
        .and_then(|v| u32::try_from(v).ok())
    else {
        return error_line(
            None,
            ErrorKind::Usage,
            "cluster_heartbeat requires a numeric `shard` field",
        );
    };
    let Some(member) = state.member(id) else {
        return error_line(
            None,
            ErrorKind::Usage,
            &format!("cluster_heartbeat refused: unknown shard {id}; rejoin"),
        );
    };
    if !member.is_remote() {
        return error_line(
            None,
            ErrorKind::Usage,
            &format!("cluster_heartbeat refused: shard {id} is a local member"),
        );
    }
    member.renew_lease(state.opts.member_lease);
    ok_line(
        None,
        vec![
            ("shard".into(), Value::U64(u64::from(id))),
            (
                "lease_ms".into(),
                Value::U64(state.opts.member_lease.as_millis() as u64),
            ),
            (
                "serving_hash".into(),
                match state.serving_hash() {
                    Some(hash) => Value::Str(hex16(hash)),
                    None => Value::Null,
                },
            ),
        ],
    )
}

/// Handles `cluster_sync`: the full membership view a standby router
/// mirrors. Token-gated exactly like joins when a token is configured
/// (membership is topology information).
pub(crate) fn handle_sync(value: &Value, state: &Arc<ClusterState>) -> String {
    if state.opts.join_token.is_some() {
        if let Err(refusal) = check_token(value, state, "cluster_sync") {
            return refusal;
        }
    }
    let now = Instant::now();
    let members: Vec<Value> = state
        .members_snapshot()
        .iter()
        .map(|m| {
            Value::Map(vec![
                ("shard".into(), Value::U64(u64::from(m.id))),
                ("addr".into(), Value::Str(m.addr().to_string())),
                (
                    "state".into(),
                    Value::Str(m.availability().name().to_string()),
                ),
                ("remote".into(), Value::Bool(m.is_remote())),
                (
                    "lease_ms".into(),
                    match m.lease_remaining_ms(now) {
                        Some(ms) => Value::U64(ms),
                        None => Value::Null,
                    },
                ),
            ])
        })
        .collect();
    ok_line(
        None,
        vec![
            ("role".into(), Value::Str(state.role.into())),
            (
                "generation".into(),
                Value::U64(state.generation.load(Ordering::SeqCst)),
            ),
            (
                "serving_hash".into(),
                match state.serving_hash() {
                    Some(hash) => Value::Str(hex16(hash)),
                    None => Value::Null,
                },
            ),
            (
                "lease_ms".into(),
                Value::U64(state.opts.member_lease.as_millis() as u64),
            ),
            ("members".into(), Value::Seq(members)),
        ],
    )
}

/// Configuration of a [`JoinAgent`].
#[derive(Debug, Clone)]
pub struct JoinAgentOptions {
    /// The cluster router's advertised address.
    pub router: SocketAddr,
    /// The join token the router was launched with.
    pub token: String,
    /// The address the router should reach this shard at.
    pub advertise: SocketAddr,
    /// Content hash of the checkpoint this shard serves.
    pub checkpoint_hash: u64,
    /// Connect/roundtrip deadline for join and heartbeat calls.
    pub timeout: Duration,
    /// How long to wait before retrying a refused or failed join.
    pub retry_interval: Duration,
}

impl JoinAgentOptions {
    /// Sensible defaults around the required fields.
    pub fn new(
        router: SocketAddr,
        token: impl Into<String>,
        advertise: SocketAddr,
        checkpoint_hash: u64,
    ) -> JoinAgentOptions {
        JoinAgentOptions {
            router,
            token: token.into(),
            advertise,
            checkpoint_hash,
            timeout: Duration::from_secs(2),
            retry_interval: Duration::from_millis(250),
        }
    }
}

/// The shard-side enrollment loop: joins the cluster, heartbeats at a
/// third of the granted lease, and rejoins from scratch whenever a
/// heartbeat is refused or the router is unreachable — including after a
/// router failover, since the promoted standby answers at the same
/// advertised address.
pub struct JoinAgent {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl JoinAgent {
    /// Starts the enrollment loop in a background thread.
    pub fn start(opts: JoinAgentOptions) -> JoinAgent {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("nrpm-join-agent".into())
            .spawn(move || run_agent(&opts, &flag))
            .expect("spawn join agent thread");
        JoinAgent {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops heartbeating and waits for the loop to exit. The router will
    /// eject the member when its lease lapses.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for JoinAgent {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sleeps up to `total` in small slices, returning early (true) when the
/// stop flag flips.
fn sleep_interruptibly(total: Duration, stop: &AtomicBool) -> bool {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if stop.load(Ordering::SeqCst) {
            return true;
        }
        thread::sleep(Duration::from_millis(10).min(total));
    }
    stop.load(Ordering::SeqCst)
}

fn run_agent(opts: &JoinAgentOptions, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match join_once(opts) {
            Ok((shard, lease_ms)) => {
                let interval = Duration::from_millis((lease_ms / 3).max(10));
                loop {
                    if sleep_interruptibly(interval, stop) {
                        return;
                    }
                    if heartbeat_once(opts, shard).is_err() {
                        // Lost the router (or it forgot us — e.g. a promoted
                        // standby that never saw this member). Re-enroll.
                        break;
                    }
                }
            }
            Err(_) => {
                if sleep_interruptibly(opts.retry_interval, stop) {
                    return;
                }
            }
        }
    }
}

/// One join attempt; `Ok((shard_id, lease_ms))` on admission.
fn join_once(opts: &JoinAgentOptions) -> Result<(u32, u64), String> {
    let line = serde_json::to_string(&Value::Map(vec![
        ("cmd".into(), Value::Str("cluster_join".into())),
        ("token".into(), Value::Str(opts.token.clone())),
        ("addr".into(), Value::Str(opts.advertise.to_string())),
        (
            "checkpoint_hash".into(),
            Value::Str(hex16(opts.checkpoint_hash)),
        ),
        ("protocol".into(), Value::U64(JOIN_PROTOCOL_VERSION)),
    ]))
    .expect("serializing a join request cannot fail");
    let reply = roundtrip(opts.router, opts.timeout, &line)?;
    if !is_ok(&reply) {
        return Err(reply
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("join refused")
            .to_string());
    }
    let shard = reply
        .get("shard")
        .and_then(Value::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or("join reply lacks a shard id")?;
    let lease_ms = reply
        .get("lease_ms")
        .and_then(Value::as_u64)
        .unwrap_or(1000);
    Ok((shard, lease_ms))
}

fn heartbeat_once(opts: &JoinAgentOptions, shard: u32) -> Result<(), String> {
    let line = serde_json::to_string(&Value::Map(vec![
        ("cmd".into(), Value::Str("cluster_heartbeat".into())),
        ("token".into(), Value::Str(opts.token.clone())),
        ("shard".into(), Value::U64(u64::from(shard))),
    ]))
    .expect("serializing a heartbeat cannot fail");
    let reply = roundtrip(opts.router, opts.timeout, &line)?;
    if !is_ok(&reply) {
        return Err("heartbeat refused".into());
    }
    Ok(())
}

fn roundtrip(addr: SocketAddr, timeout: Duration, line: &str) -> Result<Value, String> {
    let mut client = Client::connect(addr, timeout).map_err(|e| e.to_string())?;
    client.roundtrip_line(line).map_err(|e| e.to_string())
}
