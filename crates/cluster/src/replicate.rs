//! The relay path: per-shard connection pooling and the replicated
//! forward with quorum resolution.
//!
//! ## Single-replica mode (`replication == 1`, the default)
//!
//! A request walks the key's ring successors sequentially: the owner
//! first — preserving per-shard result-cache and single-flight affinity —
//! then each distinct successor, ejecting any shard whose retrying client
//! gives up. Exactly the failover the router always had.
//!
//! ## Replicated mode (`replication = R > 1`)
//!
//! The request fans out to the first R *routable* ring successors in
//! parallel — a fully hedged read: every replica gets the request at
//! once, each behind its own retrying client (retry/timeout/backoff per
//! replica), and the slowest straggler can no longer hold the answer
//! hostage. Each reply carries the shard's `served_hash` and `epoch`
//! (stamped by the serving layer); the router groups replies by that pair
//! and answers with the majority group — ties prefer the ring owner's
//! group, keeping affinity deterministic. Disagreement between replicas
//! (a mid-rollout shard, a diverged hot-swap) is *resolved* by that
//! quorum and *surfaced* in `stats` as `replica_divergences`, plus a
//! `"divergent": true` field on the winning reply. If every replica in
//! the fan fails, the walk continues sequentially through the remaining
//! successors, so replication never reduces availability below
//! single-replica failover.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

use nrpm_core::fingerprint::mix64;
use nrpm_serve::client::{RetryError, RetryingClient};
use nrpm_serve::protocol::{error_line, ErrorKind};
use serde::Value;
use serde_json;

use crate::cluster::{ClusterState, RouterCounter};
use crate::router::next_conn_id;
use crate::shard::ShardRuntime;

/// One retrying client pinned to the shard address and incarnation it was
/// built for; a revive or rejoin moves the shard to a new process (and
/// usually a new port), so a stale connection is rebuilt rather than
/// reused — without burning any of the request's retry budget on a socket
/// that can only fail.
pub(crate) struct ShardConn {
    addr: std::net::SocketAddr,
    incarnation: u64,
    client: RetryingClient,
}

/// Per-connection pool of shard clients, built lazily on first use.
pub(crate) struct ShardConns {
    conns: HashMap<u32, ShardConn>,
    conn_id: u64,
}

impl ShardConns {
    pub(crate) fn new() -> ShardConns {
        ShardConns {
            conns: HashMap::new(),
            conn_id: next_conn_id(),
        }
    }

    fn fresh_conn(&self, member: &ShardRuntime, state: &ClusterState) -> ShardConn {
        let addr = member.addr();
        let mut policy = state.opts.retry.clone();
        policy.seed ^= mix64(self.conn_id << 32 | u64::from(member.id));
        ShardConn {
            addr,
            incarnation: member.incarnation(),
            client: RetryingClient::new(addr, state.opts.shard_timeout, policy),
        }
    }

    /// Evicts the cached client if the member moved (new address) or was
    /// reincarnated (revive/rejoin — same address, new process).
    fn evict_stale(&mut self, member: &ShardRuntime) {
        let stale = self.conns.get(&member.id).is_some_and(|conn| {
            conn.addr != member.addr() || conn.incarnation != member.incarnation()
        });
        if stale {
            self.conns.remove(&member.id);
        }
    }

    /// The pooled client for `member` (sequential relay path).
    pub(crate) fn client(
        &mut self,
        member: &ShardRuntime,
        state: &ClusterState,
    ) -> &mut RetryingClient {
        self.evict_stale(member);
        if !self.conns.contains_key(&member.id) {
            let conn = self.fresh_conn(member, state);
            self.conns.insert(member.id, conn);
        }
        &mut self
            .conns
            .get_mut(&member.id)
            .expect("just inserted")
            .client
    }

    /// Removes and returns `member`'s client so the fan-out can drive
    /// several replicas from scoped threads; return it with
    /// [`ShardConns::put_conn`].
    fn take_conn(&mut self, member: &ShardRuntime, state: &ClusterState) -> ShardConn {
        self.evict_stale(member);
        self.conns
            .remove(&member.id)
            .unwrap_or_else(|| self.fresh_conn(member, state))
    }

    fn put_conn(&mut self, id: u32, conn: ShardConn) {
        self.conns.insert(id, conn);
    }
}

/// Per-connection reusable routing buffers; keeps the single-replica hot
/// path allocation-free once warmed.
pub(crate) struct RouteScratch {
    order: Vec<u32>,
    replicas: Vec<Arc<ShardRuntime>>,
}

impl RouteScratch {
    pub(crate) fn new() -> RouteScratch {
        RouteScratch {
            order: Vec::new(),
            replicas: Vec::new(),
        }
    }
}

/// Relays `line` to the owner (and replicas) of `key`. See the
/// [module docs](self).
pub(crate) fn forward(
    state: &Arc<ClusterState>,
    conns: &mut ShardConns,
    scratch: &mut RouteScratch,
    key: u64,
    line: &str,
    id: Option<&str>,
) -> String {
    if state.draining() {
        return error_line(
            id,
            ErrorKind::ShuttingDown,
            "cluster is draining; no new modeling work accepted",
        );
    }
    state.successors_into(key, &mut scratch.order);
    let owner = scratch.order.first().copied();
    scratch.replicas.clear();
    for &shard_id in &scratch.order {
        if let Some(member) = state.member(shard_id) {
            if member.is_routable() {
                scratch.replicas.push(member);
            }
        }
    }

    let limit = state.opts.max_failover.max(1);
    let replication = state.opts.replication.max(1);
    let fan = replication.min(scratch.replicas.len()).min(limit);
    let mut tried = 0usize;

    if fan > 1 {
        tried = fan;
        if let Some(response) = fan_out(state, conns, &scratch.replicas[..fan], owner, line) {
            return response;
        }
    }

    // Sequential walk: the whole successor list in single-replica mode, or
    // whatever survives past a fully-failed fan.
    for member in &scratch.replicas[if fan > 1 { fan } else { 0 }..] {
        if tried >= limit {
            break;
        }
        tried += 1;
        let answer = conns.client(member, state).roundtrip_line(line);
        match answer {
            Ok(response)
                if response.get("kind").and_then(Value::as_str) == Some("shutting_down") =>
            {
                // The retrying client rightly treats `shutting_down` as an
                // answer; at the cluster level it means "this shard is
                // leaving", which is the router's cue to eject and move on.
                member.note_route_failure();
            }
            Ok(response) => {
                member.routed.fetch_add(1, Ordering::Relaxed);
                state.counters.bump(RouterCounter::Routed);
                if owner != Some(member.id) {
                    state.counters.bump(RouterCounter::Failovers);
                }
                return annotate(response, member.id, None, line);
            }
            Err(RetryError::CircuitOpen | RetryError::Exhausted(_)) => {
                member.note_route_failure();
            }
        }
    }
    state.counters.bump(RouterCounter::Rejected);
    error_line(
        id,
        ErrorKind::Overloaded,
        "no healthy shard could answer; retry with backoff",
    )
}

/// Drives one request against `fan` replicas in parallel and resolves the
/// answer by quorum. `None` when every replica failed (the caller falls
/// back to the sequential walk).
fn fan_out(
    state: &Arc<ClusterState>,
    conns: &mut ShardConns,
    fan: &[Arc<ShardRuntime>],
    owner: Option<u32>,
    line: &str,
) -> Option<String> {
    state.counters.bump(RouterCounter::ReplicaFanouts);
    let mut taken: Vec<ShardConn> = fan.iter().map(|m| conns.take_conn(m, state)).collect();
    let mut results: Vec<Option<Result<Value, RetryError>>> = fan.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let mut lanes = taken.iter_mut().zip(results.iter_mut());
        // Drive the first replica on this thread; hedge the rest.
        let first = lanes.next();
        for (conn, slot) in lanes {
            scope.spawn(move || {
                *slot = Some(conn.client.roundtrip_line(line));
            });
        }
        if let Some((conn, slot)) = first {
            *slot = Some(conn.client.roundtrip_line(line));
        }
    });
    for (member, conn) in fan.iter().zip(taken) {
        conns.put_conn(member.id, conn);
    }

    let mut answers: Vec<(u32, Value)> = Vec::new();
    for (member, result) in fan.iter().zip(results) {
        match result.expect("every fan lane ran") {
            Ok(response)
                if response.get("kind").and_then(Value::as_str) == Some("shutting_down") =>
            {
                member.note_route_failure();
            }
            Ok(response) => answers.push((member.id, response)),
            Err(RetryError::CircuitOpen | RetryError::Exhausted(_)) => {
                member.note_route_failure();
            }
        }
    }
    if answers.is_empty() {
        return None;
    }

    let verdict = resolve_quorum(&answers);
    if verdict.divergent {
        state.counters.bump(RouterCounter::ReplicaDivergences);
    }
    for (shard_id, _) in &answers {
        if let Some(member) = state.member(*shard_id) {
            member.routed.fetch_add(1, Ordering::Relaxed);
        }
    }
    state.counters.bump(RouterCounter::Routed);
    if !answers.iter().any(|(shard_id, _)| Some(*shard_id) == owner) {
        state.counters.bump(RouterCounter::Failovers);
    }
    let (winner_shard, winner) = answers.swap_remove(verdict.winner);
    Some(annotate(
        winner,
        winner_shard,
        Some(ReplicaNote {
            replicas: fan.len(),
            quorum: verdict.votes,
            divergent: verdict.divergent,
        }),
        line,
    ))
}

/// What quorum resolution concluded about one fan of replies.
#[derive(Debug, PartialEq, Eq)]
struct QuorumVerdict {
    /// Index into the replies of the chosen answer.
    winner: usize,
    /// Size of the winning `(served_hash, epoch)` group.
    votes: usize,
    /// Whether any reply disagreed with the winner's group.
    divergent: bool,
}

/// Groups replies by `(served_hash, epoch)` and picks the majority group;
/// ties go to the group of the earliest reply (the fan is successor-
/// ordered, so that is the ring owner whenever it answered).
fn resolve_quorum(answers: &[(u32, Value)]) -> QuorumVerdict {
    fn group_key(response: &Value) -> (&str, u64) {
        (
            response
                .get("served_hash")
                .and_then(Value::as_str)
                .unwrap_or(""),
            response.get("epoch").and_then(Value::as_u64).unwrap_or(0),
        )
    }
    let mut winner = 0usize;
    let mut votes = 0usize;
    for (i, (_, response)) in answers.iter().enumerate() {
        let key = group_key(response);
        let group = answers
            .iter()
            .filter(|(_, other)| group_key(other) == key)
            .count();
        if group > votes {
            winner = i;
            votes = group;
        }
    }
    QuorumVerdict {
        winner,
        votes,
        divergent: votes < answers.len(),
    }
}

struct ReplicaNote {
    replicas: usize,
    quorum: usize,
    divergent: bool,
}

/// Adds `"shard": id` (and, for replicated reads, the quorum verdict) to
/// a relayed reply so clients can see how it was answered: which shard
/// (affinity) and whether the replicas agreed (divergence).
fn annotate(response: Value, shard: u32, note: Option<ReplicaNote>, raw: &str) -> String {
    let Value::Map(mut entries) = response else {
        // A non-object reply should be impossible; relay the raw shard
        // bytes unmodified rather than inventing a frame.
        return raw.to_string();
    };
    entries.push(("shard".into(), Value::U64(u64::from(shard))));
    if let Some(note) = note {
        entries.push(("replicas".into(), Value::U64(note.replicas as u64)));
        entries.push(("quorum".into(), Value::U64(note.quorum as u64)));
        entries.push(("divergent".into(), Value::Bool(note.divergent)));
    }
    serde_json::to_string(&Value::Map(entries)).expect("reserializing a reply map cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(hash: &str, epoch: u64) -> Value {
        Value::Map(vec![
            ("status".into(), Value::Str("ok".into())),
            ("served_hash".into(), Value::Str(hash.into())),
            ("epoch".into(), Value::U64(epoch)),
        ])
    }

    #[test]
    fn unanimous_fan_is_not_divergent() {
        let answers = vec![(0, reply("aa", 1)), (2, reply("aa", 1))];
        let verdict = resolve_quorum(&answers);
        assert_eq!(
            verdict,
            QuorumVerdict {
                winner: 0,
                votes: 2,
                divergent: false
            }
        );
    }

    #[test]
    fn majority_wins_over_a_diverged_replica() {
        let answers = vec![
            (0, reply("old", 1)),
            (1, reply("new", 2)),
            (2, reply("new", 2)),
        ];
        let verdict = resolve_quorum(&answers);
        assert_eq!(verdict.votes, 2);
        assert!(verdict.divergent);
        assert_eq!(verdict.winner, 1, "first member of the majority group");
    }

    #[test]
    fn ties_prefer_the_owner_side_of_the_fan() {
        let answers = vec![(3, reply("aa", 1)), (5, reply("bb", 1))];
        let verdict = resolve_quorum(&answers);
        assert_eq!(verdict.winner, 0, "successor order breaks the tie");
        assert_eq!(verdict.votes, 1);
        assert!(verdict.divergent);
    }

    #[test]
    fn same_hash_different_epoch_counts_as_divergence() {
        let answers = vec![(0, reply("aa", 1)), (1, reply("aa", 2))];
        let verdict = resolve_quorum(&answers);
        assert!(verdict.divergent, "epoch is part of the quorum key");
    }
}
