//! `nrpm-cluster` — the scale-out serving tier.
//!
//! A [`Cluster`] composes the single-node pieces into a sharded
//! deployment: N in-process [`nrpm_serve::Server`] backends (one
//! [`nrpm_serve::ModelStore`] each), a **router** front-end speaking the
//! same newline-JSON protocol, and a **supervisor** that wire-polls every
//! shard's `health`/`stats` endpoints.
//!
//! Requests route by the measurement-set fingerprint over a consistent
//! [`HashRing`] with virtual nodes, so each shard keeps seeing the same
//! keys — its result cache and single-flight dedup work exactly as they do
//! standalone. A dead shard's keys remap to ring successors (the router
//! ejects on failure and retries the next shard in ring order); a shard
//! that returns must pass consecutive health probes before traffic comes
//! back, and then gets its exact old keys again because ejection never
//! edits the ring.
//!
//! Checkpoint distribution goes through the content-addressed registry:
//! `launch` publishes the serving network under a ref, syncs the object
//! into a per-shard registry (checking its bytes against the hash), and
//! every shard serves the network under that one hash — so "every shard
//! serves the same `checkpoint_hash`" is a verifiable property (router
//! `stats` reports per-shard hash/epoch and a divergence flag), not an
//! assumption.
//!
//! Beyond the locally-spawned fleet, the tier is replicated and
//! cross-machine capable:
//!
//! * **network membership** ([`join`]) — an `nrpm serve` on another host
//!   enrolls through the token-authenticated `cluster_join` handshake and
//!   stays enrolled by heartbeat lease;
//! * **per-key replication** ([`replicate`]) — requests fan out to the
//!   first R distinct ring successors in parallel and the answer is
//!   resolved by `served_hash`/`epoch` quorum, with divergence surfaced
//!   in `stats`;
//! * **router failover** ([`standby`]) — a warm standby mirrors
//!   membership via `cluster_sync` gossip and takes over the advertised
//!   address when the primary's heartbeat lapses;
//! * **rolling rollout** ([`rollout`]) — `cluster_rollout` upgrades the
//!   fleet one shard at a time (drain → sync → swap → verify → readmit),
//!   journaled so a crash mid-walk recovers to a single-epoch fleet.

#![warn(missing_docs)]

pub mod cluster;
pub mod join;
pub mod replicate;
pub mod ring;
pub mod rollout;
pub mod router;
pub mod shard;
pub mod standby;

pub use cluster::{Cluster, ClusterOptions};
pub use join::{JoinAgent, JoinAgentOptions, JOIN_PROTOCOL_VERSION};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use rollout::RolloutReport;
pub use shard::Availability;
