//! End-to-end tests of the sharded serving tier: fingerprint affinity
//! through the router, checkpoint distribution via the registry, kill →
//! failover → revive → re-admission, and graceful drains — all over real
//! TCP on ephemeral ports.

use nrpm_cluster::{Availability, Cluster, ClusterOptions, HashRing};
use nrpm_core::fingerprint::{bytes_hash, set_fingerprint};
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_nn::{Network, NetworkConfig};
use nrpm_registry::{hex16, CheckpointRegistry};
use nrpm_serve::client::{is_ok, Client, RetryPolicy, RetryingClient};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

fn test_network(seed: u64) -> Network {
    Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), seed)
}

/// Distinct slopes give distinct fingerprints, so keys spread over the
/// ring; every set stays exactly linear so answers are deterministic.
fn keyed_set(key: usize) -> MeasurementSet {
    let slope = 2.0 + key as f64 * 0.5;
    let mut set = MeasurementSet::new(1);
    for &x in &[4.0, 8.0, 16.0, 32.0, 64.0] {
        set.add_repetitions(&[x], &[slope * x, slope * x]);
    }
    set
}

fn fast_options() -> ClusterOptions {
    ClusterOptions {
        shards: 3,
        probe_interval: Duration::from_millis(50),
        readmit_probes: 2,
        debug_hooks: true,
        ..ClusterOptions::default()
    }
}

fn retrying(cluster: &Cluster) -> RetryingClient {
    RetryingClient::new(
        cluster.router_addr(),
        Duration::from_secs(30),
        RetryPolicy::default(),
    )
}

fn join_within(cluster: Cluster, limit: Duration) {
    cluster.request_shutdown();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let result = cluster.join();
        let _ = tx.send(result);
    });
    rx.recv_timeout(limit)
        .expect("cluster failed to drain within the limit")
        .expect("a cluster thread panicked");
}

fn shard_of(response: &Value) -> u64 {
    response
        .get("shard")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("reply lacks a shard field: {response:?}"))
}

fn router_stats(cluster: &Cluster) -> Value {
    let mut client = Client::connect(cluster.router_addr(), Duration::from_secs(10)).unwrap();
    client.stats().unwrap()
}

/// Polls `predicate` against router stats until it holds or `limit` runs
/// out (supervisor probes are asynchronous).
fn wait_for_stats(cluster: &Cluster, limit: Duration, predicate: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + limit;
    loop {
        let stats = router_stats(cluster);
        if predicate(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "condition not reached before deadline; last stats: {stats:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn requests_route_with_stable_fingerprint_affinity() {
    let cluster = Cluster::launch(test_network(7), fast_options()).unwrap();
    let mut client = retrying(&cluster);

    // Repeated requests for the same key must land on the same shard.
    let mut owners: HashMap<usize, u64> = HashMap::new();
    for round in 0..3 {
        for key in 0..12 {
            let response = client.model(keyed_set(key), None, None).unwrap();
            assert!(is_ok(&response), "round {round} key {key}: {response:?}");
            let shard = shard_of(&response);
            let previous = owners.insert(key, shard);
            if let Some(previous) = previous {
                assert_eq!(previous, shard, "key {key} moved between shards");
            }
            assert!(
                response
                    .get("served_hash")
                    .and_then(Value::as_str)
                    .is_some(),
                "reply must carry the serving checkpoint hash: {response:?}"
            );
        }
    }
    // 12 keys over 3 shards must touch more than one backend.
    let distinct: std::collections::HashSet<u64> = owners.values().copied().collect();
    assert!(distinct.len() >= 2, "all keys on one shard: {owners:?}");

    // The router agrees with a locally built ring over the same topology.
    let ring = HashRing::new(0..3, ClusterOptions::default().vnodes);
    for (key, shard) in &owners {
        let expected = ring.route(set_fingerprint(&keyed_set(*key))).unwrap();
        assert_eq!(u64::from(expected), *shard, "router disagrees with ring");
    }

    let stats = router_stats(&cluster);
    assert_eq!(
        stats.get("requests_routed").and_then(Value::as_u64),
        Some(36)
    );
    assert_eq!(stats.get("failovers").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("rejected").and_then(Value::as_u64), Some(0));
    join_within(cluster, Duration::from_secs(20));
}

#[test]
fn batches_route_whole_and_answer_through_one_shard() {
    let cluster = Cluster::launch(test_network(7), fast_options()).unwrap();
    let mut client = retrying(&cluster);
    let response = client
        .batch(vec![keyed_set(0), keyed_set(1), keyed_set(2)], None)
        .unwrap();
    assert!(is_ok(&response), "{response:?}");
    assert_eq!(response.get("kernels").and_then(Value::as_u64), Some(3));
    assert_eq!(response.get("kernels_ok").and_then(Value::as_u64), Some(3));
    // One shard answered the whole batch with one coalesced forward pass.
    assert_eq!(
        response.get("forward_passes").and_then(Value::as_u64),
        Some(1)
    );
    shard_of(&response);
    join_within(cluster, Duration::from_secs(20));
}

#[test]
fn killed_shard_fails_over_with_zero_client_visible_failures() {
    let cluster = Cluster::launch(test_network(7), fast_options()).unwrap();
    // Kill the owner of key 0 mid-burst so its keys must remap.
    let ring = HashRing::new(0..3, ClusterOptions::default().vnodes);
    let victim = ring.route(set_fingerprint(&keyed_set(0))).unwrap();

    let addr = cluster.router_addr();
    let workers: Vec<_> = (0..3)
        .map(|worker| {
            thread::spawn(move || {
                let mut client =
                    RetryingClient::new(addr, Duration::from_secs(30), RetryPolicy::default());
                let mut answered = 0usize;
                for round in 0..10 {
                    for key in 0..6 {
                        let response = client.model(keyed_set(key), None, None).unwrap();
                        assert!(
                            is_ok(&response),
                            "worker {worker} round {round} key {key}: {response:?}"
                        );
                        answered += 1;
                    }
                }
                answered
            })
        })
        .collect();

    // Let the burst get going, then pull the shard out abruptly via the
    // router's admin hook — exactly what the CI smoke job does.
    thread::sleep(Duration::from_millis(100));
    let mut admin = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let response = admin
        .roundtrip_line(&format!("{{\"cmd\":\"cluster_kill\",\"shard\":{victim}}}"))
        .unwrap();
    assert!(is_ok(&response), "{response:?}");

    let mut answered = 0usize;
    for worker in workers {
        answered += worker.join().expect("a burst worker panicked");
    }
    assert_eq!(answered, 180, "every request must be answered");

    // The victim's keys now answer from a surviving shard.
    let mut client = retrying(&cluster);
    let response = client.model(keyed_set(0), None, None).unwrap();
    assert!(is_ok(&response), "{response:?}");
    assert_ne!(shard_of(&response), u64::from(victim));

    // Revive: the shard must pass consecutive probes (probation) before
    // it is healthy again, and then its old keys come back to it.
    cluster.revive_shard(victim).unwrap();
    assert_eq!(
        cluster.shard_availability(victim),
        Some(Availability::Ejected)
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.shard_availability(victim) != Some(Availability::Healthy) {
        assert!(Instant::now() < deadline, "revived shard never re-admitted");
        thread::sleep(Duration::from_millis(25));
    }
    let response = client.model(keyed_set(0), None, None).unwrap();
    assert!(is_ok(&response), "{response:?}");
    assert_eq!(
        shard_of(&response),
        u64::from(victim),
        "returning shard must get its old keys back"
    );
    join_within(cluster, Duration::from_secs(20));
}

#[test]
fn drained_shard_leaves_rotation_gracefully() {
    let cluster = Cluster::launch(test_network(7), fast_options()).unwrap();
    cluster.drain_shard(1).unwrap();
    assert_eq!(cluster.shard_availability(1), Some(Availability::Draining));
    // Draining twice reports the shard as gone.
    assert!(cluster.drain_shard(1).is_err());

    let mut client = retrying(&cluster);
    for key in 0..8 {
        let response = client.model(keyed_set(key), None, None).unwrap();
        assert!(is_ok(&response), "key {key}: {response:?}");
        assert_ne!(shard_of(&response), 1, "drained shard must not serve");
    }
    let stats = router_stats(&cluster);
    assert_eq!(stats.get("routable").and_then(Value::as_u64), Some(2));
    join_within(cluster, Duration::from_secs(20));
}

#[test]
fn registry_distribution_gives_every_shard_the_same_checkpoint() {
    let dir = std::env::temp_dir().join(format!(
        "nrpm-cluster-registry-{}-{:?}",
        std::process::id(),
        thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ClusterOptions {
        registry_dir: Some(PathBuf::from(&dir)),
        ..fast_options()
    };
    let cluster = Cluster::launch(test_network(7), opts).unwrap();
    let serving = cluster.serving_hash().expect("registry distribution ran");

    // The source registry holds the published ref; every per-shard
    // registry holds a synced copy of the object.
    let source = CheckpointRegistry::open(&dir).unwrap();
    assert_eq!(source.ref_hash("cluster-serving").unwrap(), Some(serving));
    for shard in 0..3 {
        let dest =
            CheckpointRegistry::open(dir.join("shards").join(format!("shard-{shard}"))).unwrap();
        assert!(dest.contains(serving), "shard {shard} missing the object");
        assert_eq!(
            cluster.shard_store(shard).unwrap().checkpoint_hash(),
            serving,
            "shard {shard} serves under the registry's name"
        );
    }

    // The router's polled view converges on one hash everywhere: the
    // serving hash, no divergence.
    let expected = hex16(serving);
    let stats = wait_for_stats(&cluster, Duration::from_secs(10), |stats| {
        stats
            .get("per_shard")
            .and_then(Value::as_seq)
            .is_some_and(|shards| {
                shards.iter().all(|shard| {
                    shard.get("checkpoint_hash").and_then(Value::as_str) == Some(expected.as_str())
                })
            })
    });
    assert_eq!(
        stats.get("checkpoint_divergence").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        stats.get("serving_hash").and_then(Value::as_str),
        Some(expected.as_str())
    );

    // A model reply names the same checkpoint.
    let mut client = retrying(&cluster);
    let response = client.model(keyed_set(0), None, None).unwrap();
    assert_eq!(
        response.get("served_hash").and_then(Value::as_str),
        Some(expected.as_str())
    );

    // A rollout is named by the bytes it was sent, not by the canonical
    // JSON of the network they hold (here: a trailing newline).
    let bytes = format!("{}\n", test_network(9).to_json());
    let named = bytes_hash(bytes.as_bytes());
    let request = serde_json::to_string(&Value::Map(vec![
        ("cmd".into(), Value::Str("cluster_rollout".into())),
        ("network".into(), Value::Str(bytes.clone())),
    ]))
    .unwrap();
    let mut admin = Client::connect(cluster.router_addr(), Duration::from_secs(60)).unwrap();
    let reply = admin.roundtrip_line(&request).unwrap();
    assert_eq!(
        reply.get("target").and_then(Value::as_str),
        Some(hex16(named).as_str()),
        "{reply:?}"
    );
    assert_eq!(cluster.serving_hash(), Some(named));
    let object = dir.join("objects").join(format!("{}.json", hex16(named)));
    assert_eq!(std::fs::read_to_string(object).unwrap(), bytes);
    for shard in 0..3 {
        assert_eq!(cluster.shard_store(shard).unwrap().checkpoint_hash(), named);
    }

    // Hot-swap one shard's store directly: the router's stats must
    // surface the divergence operators would chase during a rolling swap.
    let other = test_network(8);
    let other_hash = bytes_hash(other.to_json().as_bytes());
    cluster
        .shard_store(0)
        .unwrap()
        .swap(other, other_hash)
        .unwrap();
    let stats = wait_for_stats(&cluster, Duration::from_secs(10), |stats| {
        stats.get("checkpoint_divergence").and_then(Value::as_bool) == Some(true)
    });
    assert_eq!(
        stats.get("epoch_divergence").and_then(Value::as_bool),
        Some(true),
        "{stats:?}"
    );

    join_within(cluster, Duration::from_secs(20));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_a_registry_every_shard_serves_the_canonical_hash() {
    let network = test_network(7);
    let canonical = bytes_hash(network.to_json().as_bytes());
    let cluster = Cluster::launch(network, fast_options()).unwrap();
    assert_eq!(cluster.serving_hash(), None);
    for shard in 0..3 {
        assert_eq!(
            cluster.shard_store(shard).unwrap().checkpoint_hash(),
            canonical,
            "shard {shard}"
        );
    }
    join_within(cluster, Duration::from_secs(20));
}

/// `cluster launch --model` reads the file once and serves it under the
/// hash of its own bytes, as `serve --model` names the same file: here a
/// pretty-printed one, whose canonical JSON would hash differently.
#[test]
fn a_model_file_is_served_under_the_hash_of_its_own_bytes() {
    let network = test_network(7);
    let pretty = serde_json::to_string_pretty(&network).unwrap();
    let named = bytes_hash(pretty.as_bytes());
    assert_ne!(named, bytes_hash(network.to_json().as_bytes()));
    let dir = std::env::temp_dir().join(format!("nrpm-cluster-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for registry_dir in [None, Some(dir.clone())] {
        let opts = ClusterOptions {
            registry_dir: registry_dir.clone(),
            ..fast_options()
        };
        let cluster = Cluster::launch_bytes(pretty.clone().into_bytes(), opts).unwrap();
        for shard in 0..3 {
            assert_eq!(
                cluster.shard_store(shard).unwrap().checkpoint_hash(),
                named,
                "shard {shard}, registry {registry_dir:?}"
            );
            assert_eq!(cluster.shard_store(shard).unwrap().network(), network);
        }
        assert_eq!(cluster.serving_hash(), registry_dir.as_ref().map(|_| named));
        if registry_dir.is_some() {
            let object = dir.join("objects").join(format!("{}.json", hex16(named)));
            assert_eq!(std::fs::read_to_string(object).unwrap(), pretty);
        }
        join_within(cluster, Duration::from_secs(20));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Bytes that are not a network are refused as invalid data.
    let err = Cluster::launch_bytes(b"{\"layers\": oops".to_vec(), fast_options())
        .err()
        .expect("a malformed model must not launch");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn router_rejects_shard_local_commands_and_bad_admin() {
    let opts = ClusterOptions {
        shards: 2,
        debug_hooks: false,
        ..fast_options()
    };
    let cluster = Cluster::launch(test_network(7), opts).unwrap();
    let mut client = Client::connect(cluster.router_addr(), Duration::from_secs(10)).unwrap();

    // Shard-local commands are not relayed.
    for line in [
        r#"{"cmd":"crash_worker"}"#,
        r#"{"cmd":"force_adapt"}"#,
        r#"{"cmd":"adapt_fault","kind":"kill_retrain"}"#,
    ] {
        let response = client.roundtrip_line(line).unwrap();
        assert_eq!(
            response.get("kind").and_then(Value::as_str),
            Some("usage"),
            "{line}: {response:?}"
        );
    }

    // cluster_kill needs debug hooks; admin needs a valid shard field.
    let refused = client
        .roundtrip_line(r#"{"cmd":"cluster_kill","shard":0}"#)
        .unwrap();
    assert_eq!(refused.get("kind").and_then(Value::as_str), Some("usage"));
    let no_shard = client.roundtrip_line(r#"{"cmd":"cluster_drain"}"#).unwrap();
    assert_eq!(no_shard.get("kind").and_then(Value::as_str), Some("usage"));
    let bad_shard = client
        .roundtrip_line(r#"{"cmd":"cluster_drain","shard":99}"#)
        .unwrap();
    assert_eq!(bad_shard.get("kind").and_then(Value::as_str), Some("usage"));

    // Malformed JSON still gets the protocol's structured parse error.
    let garbage = client.roundtrip_line("not json at all").unwrap();
    assert_eq!(garbage.get("kind").and_then(Value::as_str), Some("parse"));

    // The router's own health endpoint answers without touching a shard.
    let health = client.health().unwrap();
    assert!(is_ok(&health), "{health:?}");
    assert_eq!(
        health.get("service").and_then(Value::as_str),
        Some("nrpm-cluster-router")
    );
    join_within(cluster, Duration::from_secs(20));
}

/// The router sheds connections past the shards' `max_conns` at accept,
/// exactly as a shard does: one `overloaded` line, then a close.
#[test]
fn router_sheds_connections_past_max_conns() {
    let mut opts = ClusterOptions {
        shards: 1,
        ..fast_options()
    };
    opts.shard_opts.max_conns = 2;
    let cluster = Cluster::launch(test_network(9), opts).unwrap();

    // Both slots held by idle clients, each registered by a roundtrip.
    let held: Vec<Client> = (0..2)
        .map(|_| {
            let mut client =
                Client::connect(cluster.router_addr(), Duration::from_secs(10)).unwrap();
            assert!(is_ok(&client.health().unwrap()));
            client
        })
        .collect();

    let extra = TcpStream::connect(cluster.router_addr()).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(extra);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("overloaded"),
        "{response:?}"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "closed after one line"
    );

    drop(held);
    join_within(cluster, Duration::from_secs(20));
}

/// The router's `stats` body is a wire contract: perfbench reads
/// `replica_fanouts` and `failovers` by key, and a missing key reads as 0.
/// A renamed, dropped or reordered entry fails here.
#[test]
fn router_stats_keep_their_key_sequence() {
    let cluster = Cluster::launch(test_network(7), fast_options()).unwrap();
    let keys: Vec<String> = match router_stats(&cluster) {
        Value::Map(entries) => entries.into_iter().map(|(key, _)| key).collect(),
        other => panic!("expected a map, got {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "service",
            "server_version",
            "role",
            "generation",
            "shards",
            "routable",
            "draining",
            "replication",
            "requests_routed",
            "failovers",
            "rejected",
            "replica_fanouts",
            "replica_divergences",
            "joins",
            "lease_expiries",
            "rollouts",
            "serving_hash",
            "checkpoint_divergence",
            "epoch_divergence",
            "per_shard",
        ]
    );
    join_within(cluster, Duration::from_secs(20));
}
