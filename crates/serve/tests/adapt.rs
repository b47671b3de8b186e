//! Integration tests of the background adaptation pipeline: cache
//! correctness across hot-swaps, supervised engine respawn under chaos
//! faults (mid-retrain and mid-commit kills), a corrupt candidate that
//! never swaps, a clean validated swap, and the post-swap watchdog rollback — all under concurrent client load with
//! zero dropped requests.

use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_nn::{Network, NetworkConfig};
use nrpm_registry::{CheckpointRegistry, SwapJournal};
use nrpm_serve::adapt::{AdaptOptions, INGEST_CANDIDATE_REF, SERVING_REF};
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

fn test_network(seed: u64) -> Network {
    Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), seed)
}

/// A store whose retrain knobs are tiny, so an adaptation cycle completes
/// in well under a second.
fn fast_adapt_store(seed: u64) -> ModelStore {
    let mut opts = AdaptiveOptions::default();
    opts.dnn.adaptation_samples_per_class = 8;
    opts.dnn.adaptation_epochs = 2;
    opts.dnn.train_threads = 1;
    ModelStore::from_network(test_network(seed), opts).unwrap()
}

/// Distinct-per-index measurement sets: with caching off every request
/// reaches a worker (producing an adaptation observation), and with
/// caching on every index is its own cache key.
fn linear_set(index: usize) -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    let slope = 2.0 + index as f64 * 0.001;
    for &x in &[4.0, 8.0, 16.0, 32.0, 64.0] {
        set.add_repetitions(&[x], &[slope * x, slope * x]);
    }
    set
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr(), Duration::from_secs(30)).expect("connect")
}

fn join_within(server: Server, limit: Duration) {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    rx.recv_timeout(limit)
        .expect("server failed to drain within the limit")
        .expect("a server thread panicked");
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nrpm-serve-adapt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 `{key}` in {v:?}"))
}

fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing str `{key}` in {v:?}"))
}

/// Polls `stats` until `pred` holds, panicking after `limit`.
fn wait_for_stats(client: &mut Client, limit: Duration, pred: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + limit;
    loop {
        let stats = client.stats().expect("stats");
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "condition not reached within {limit:?}; last stats: {stats:?}"
        );
        thread::sleep(Duration::from_millis(40));
    }
}

/// Serve options for the adaptation tests: debug hooks on (fault
/// injection), caching off (every request must reach a worker so the
/// engine sees observations), a huge interval (only forced cycles run),
/// and a wide-open shadow gate so a clean retrain always commits.
fn adapt_serve_options(dir: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        workers: 2,
        debug_hooks: true,
        cache_capacity: 0,
        poll_interval: Duration::from_millis(20),
        adaptation: AdaptOptions {
            enabled: true,
            interval: Duration::from_secs(3600),
            smape_tolerance: 100.0,
            min_observations: 1,
            watch_window: 3,
            watch_tolerance: 0.5,
            dir,
            train_threads: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Sends `count` tagged model requests and asserts every one is answered
/// ok — the "zero dropped requests" check used across the chaos tests.
fn pump_requests(client: &mut Client, base: usize, count: usize) {
    for i in 0..count {
        let response = client
            .model_as(
                linear_set(base + i),
                Some(vec![128.0]),
                Some(30_000),
                Some("tenant-a".into()),
            )
            .expect("model request failed at the transport level");
        assert!(
            is_ok(&response),
            "request {} dropped: {response:?}",
            base + i
        );
    }
}

/// Forces adaptation cycles (optionally with a queued fault each try)
/// until `done` observes the target state. Retrains are statistical — a
/// candidate can legitimately fail its own validation gate — so the tests
/// force again with fresh observations rather than flaking.
fn force_until(client: &mut Client, fault: Option<&str>, done: impl Fn(&Value) -> bool) -> Value {
    for attempt in 0..10 {
        pump_requests(client, 100 * (attempt + 1), 4);
        if let Some(kind) = fault {
            let queued = client
                .roundtrip_line(&format!("{{\"cmd\":\"adapt_fault\",\"kind\":\"{kind}\"}}"))
                .unwrap();
            assert!(is_ok(&queued), "{queued:?}");
        }
        // `adapt_cycles` ticks at cycle *start*; swap/reject/restart are the
        // terminal outcomes, so waiting on them (not on the cycle counter)
        // avoids forcing a second cycle while the first retrain is running.
        let outcomes = |s: &Value| {
            get_u64(s, "adapt_swaps") + get_u64(s, "adapt_rejected") + get_u64(s, "adapt_restarts")
        };
        let outcomes_before = outcomes(&client.stats().unwrap());
        let forced = client.roundtrip_line("{\"cmd\":\"force_adapt\"}").unwrap();
        assert!(is_ok(&forced), "{forced:?}");
        let stats = wait_for_stats(client, Duration::from_secs(30), |s| {
            done(s) || outcomes(s) > outcomes_before
        });
        if done(&stats) {
            return stats;
        }
    }
    panic!("target adaptation state not reached in 10 forced cycles");
}

/// A result-cache entry keyed to the old checkpoint is never served after
/// a hot-swap: the same request models again on the new weights, and the
/// served checkpoint hash changes.
#[test]
fn cache_entries_of_the_old_checkpoint_die_with_the_swap() {
    let store = ModelStore::from_network(test_network(7), AdaptiveOptions::default()).unwrap();
    let handle = store.clone();
    let server = Server::start(
        "127.0.0.1:0",
        store,
        ServeOptions {
            workers: 2,
            cache_capacity: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = connect(&server);

    let first = client.model(linear_set(0), None, None).unwrap();
    assert!(is_ok(&first), "{first:?}");
    let again = client.model(linear_set(0), None, None).unwrap();
    assert!(is_ok(&again), "{again:?}");
    let stats = client.stats().unwrap();
    assert_eq!(get_u64(&stats, "kernels_modeled"), 1, "{stats:?}");
    assert_eq!(get_u64(&stats, "cache_hits"), 1, "{stats:?}");
    let old_hash = get_str(&stats, "checkpoint_hash").to_string();

    // Hot-swap through the shared store handle, as the adaptation engine
    // would.
    handle.swap(test_network(99)).unwrap();

    let after = client.model(linear_set(0), None, None).unwrap();
    assert!(is_ok(&after), "{after:?}");
    let stats = client.stats().unwrap();
    assert_eq!(
        get_u64(&stats, "kernels_modeled"),
        2,
        "the old cache entry must not answer for the new checkpoint: {stats:?}"
    );
    assert_eq!(get_u64(&stats, "cache_hits"), 1, "{stats:?}");
    assert_ne!(get_str(&stats, "checkpoint_hash"), old_hash, "{stats:?}");
    assert_eq!(get_u64(&stats, "epoch"), 1, "{stats:?}");

    // And the new checkpoint builds its own cache generation.
    let warm = client.model(linear_set(0), None, None).unwrap();
    assert!(is_ok(&warm), "{warm:?}");
    assert_eq!(get_u64(&client.stats().unwrap(), "cache_hits"), 2);

    client.shutdown().unwrap();
    join_within(server, Duration::from_secs(60));
}

/// Killing the engine mid-retrain loses nothing: the supervisor respawns
/// it, no request is dropped, and the serving checkpoint stays put.
#[test]
fn engine_killed_mid_retrain_respawns_without_dropping_requests() {
    let dir = tmp_dir("kill-retrain");
    let server = Server::start(
        "127.0.0.1:0",
        fast_adapt_store(7),
        adapt_serve_options(Some(dir.clone())),
    )
    .unwrap();
    let mut client = connect(&server);

    let hash_before = get_str(&client.stats().unwrap(), "checkpoint_hash").to_string();
    pump_requests(&mut client, 0, 6);
    let queued = client
        .roundtrip_line("{\"cmd\":\"adapt_fault\",\"kind\":\"kill_retrain\"}")
        .unwrap();
    assert!(is_ok(&queued), "{queued:?}");
    let forced = client.roundtrip_line("{\"cmd\":\"force_adapt\"}").unwrap();
    assert!(is_ok(&forced), "{forced:?}");

    // Load spans the kill and the respawn; every request must be answered.
    pump_requests(&mut client, 10, 20);
    let stats = wait_for_stats(&mut client, Duration::from_secs(30), |s| {
        get_u64(s, "adapt_restarts") >= 1
    });
    assert_eq!(
        get_str(&stats, "checkpoint_hash"),
        hash_before,
        "a killed retrain must not change the serving checkpoint: {stats:?}"
    );
    assert_eq!(get_u64(&stats, "adapt_swaps"), 0, "{stats:?}");
    pump_requests(&mut client, 40, 10);

    client.shutdown().unwrap();
    join_within(server, Duration::from_secs(60));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing the engine between shadow validation and the journal commit
/// resolves to "the swap never happened": recovery aborts the pending
/// journal entry, the incumbent keeps serving, and no request is dropped.
#[test]
fn engine_killed_mid_commit_recovers_to_the_incumbent() {
    let dir = tmp_dir("kill-commit");
    let server = Server::start(
        "127.0.0.1:0",
        fast_adapt_store(7),
        adapt_serve_options(Some(dir.clone())),
    )
    .unwrap();
    let mut client = connect(&server);
    let hash_before = get_str(&client.stats().unwrap(), "checkpoint_hash").to_string();

    // `regress_swap` bypasses the statistical shadow gate so the cycle
    // deterministically reaches the commit point, where `kill_commit`
    // panics the engine.
    for attempt in 0..10 {
        pump_requests(&mut client, 100 * (attempt + 1), 4);
        for kind in ["regress_swap", "kill_commit"] {
            let queued = client
                .roundtrip_line(&format!("{{\"cmd\":\"adapt_fault\",\"kind\":\"{kind}\"}}"))
                .unwrap();
            assert!(is_ok(&queued), "{queued:?}");
        }
        let rejected_before = get_u64(&client.stats().unwrap(), "adapt_rejected");
        let forced = client.roundtrip_line("{\"cmd\":\"force_adapt\"}").unwrap();
        assert!(is_ok(&forced), "{forced:?}");
        pump_requests(&mut client, 100 * (attempt + 1) + 10, 10);
        let stats = wait_for_stats(&mut client, Duration::from_secs(30), |s| {
            get_u64(s, "adapt_restarts") >= 1 || get_u64(s, "adapt_rejected") > rejected_before
        });
        if get_u64(&stats, "adapt_restarts") >= 1 {
            break;
        }
        assert!(attempt < 9, "retrain never reached the commit point");
    }

    let stats = client.stats().unwrap();
    assert_eq!(get_u64(&stats, "adapt_swaps"), 0, "{stats:?}");
    assert_eq!(
        get_str(&stats, "checkpoint_hash"),
        hash_before,
        "a swap killed mid-commit must resolve to the incumbent: {stats:?}"
    );
    pump_requests(&mut client, 500, 10);

    client.shutdown().unwrap();
    join_within(server, Duration::from_secs(60));

    // The journal on disk agrees: the pending swap was aborted by
    // recovery, and nothing was ever committed.
    let (journal, _) = SwapJournal::open(&dir).unwrap();
    assert!(
        journal.pending().is_empty(),
        "recovery must resolve pending swaps: {:?}",
        journal.records()
    );
    assert_eq!(
        journal.committed_hash(),
        None,
        "nothing was committed: {:?}",
        journal.records()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The happy path end to end: accumulate → retrain → shadow-validate →
/// two-phase commit → hot-swap, with the journal recording the committed
/// candidate.
#[test]
fn a_forced_cycle_commits_a_validated_swap() {
    let dir = tmp_dir("clean-swap");
    let server = Server::start(
        "127.0.0.1:0",
        fast_adapt_store(7),
        adapt_serve_options(Some(dir.clone())),
    )
    .unwrap();
    let mut client = connect(&server);
    let hash_before = get_str(&client.stats().unwrap(), "checkpoint_hash").to_string();

    let stats = force_until(&mut client, None, |s| get_u64(s, "adapt_swaps") >= 1);
    let hash_after = get_str(&stats, "checkpoint_hash").to_string();
    assert_ne!(hash_after, hash_before, "{stats:?}");
    assert!(get_u64(&stats, "epoch") >= 1, "{stats:?}");
    assert!(get_u64(&stats, "adapt_observations") >= 1, "{stats:?}");
    // The swapped-in checkpoint serves requests.
    pump_requests(&mut client, 600, 5);

    client.shutdown().unwrap();
    join_within(server, Duration::from_secs(60));

    let (journal, _) = SwapJournal::open(&dir).unwrap();
    assert!(journal.pending().is_empty(), "{:?}", journal.records());
    let committed = journal.committed_hash().expect("a swap was committed");
    assert_eq!(
        format!("{committed:016x}"),
        hash_after,
        "journal and serving hash must agree: {:?}",
        journal.records()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A swap that regresses live quality is rolled back automatically: the
/// `regress_swap` fault bypasses the shadow gate and inflates the live
/// SMAPE samples, so the watch window trips and restores the previous
/// checkpoint — journaled as a rollback.
#[test]
fn watchdog_rolls_back_a_regressing_swap() {
    let dir = tmp_dir("rollback");
    let server = Server::start(
        "127.0.0.1:0",
        fast_adapt_store(7),
        adapt_serve_options(Some(dir.clone())),
    )
    .unwrap();
    let mut client = connect(&server);
    let hash_before = get_str(&client.stats().unwrap(), "checkpoint_hash").to_string();

    let stats = force_until(&mut client, Some("regress_swap"), |s| {
        get_u64(s, "adapt_swaps") >= 1
    });
    assert_ne!(get_str(&stats, "checkpoint_hash"), hash_before, "{stats:?}");

    // Live traffic on the regressed checkpoint fills the watch window;
    // the watchdog must roll back to the incumbent.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut base = 700;
    let stats = loop {
        pump_requests(&mut client, base, 3);
        base += 3;
        let stats = client.stats().unwrap();
        if get_u64(&stats, "adapt_rollbacks") >= 1 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never rolled back: {stats:?}"
        );
        thread::sleep(Duration::from_millis(40));
    };
    assert_eq!(
        get_str(&stats, "checkpoint_hash"),
        hash_before,
        "rollback must restore the previous checkpoint: {stats:?}"
    );
    pump_requests(&mut client, 900, 5);

    client.shutdown().unwrap();
    join_within(server, Duration::from_secs(60));

    // The journal's last terminal record is the rollback, restoring the
    // original hash.
    let (journal, _) = SwapJournal::open(&dir).unwrap();
    assert!(journal.pending().is_empty(), "{:?}", journal.records());
    let committed = journal.committed_hash().expect("rollback recorded");
    assert_eq!(format!("{committed:016x}"), hash_before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A candidate whose bytes are corrupted before the store never goes live:
/// the cycle ends rejected, the incumbent keeps serving, and requests
/// pumped by a second client throughout the cycle are all answered. With a
/// registry dir the registry refuses the bytes before any journal record
/// exists; without one the in-memory load refuses them.
fn corrupt_candidate_is_rejected(dir: Option<PathBuf>) {
    let server = Server::start(
        "127.0.0.1:0",
        fast_adapt_store(7),
        adapt_serve_options(dir.clone()),
    )
    .unwrap();
    let mut client = connect(&server);
    let before = client.stats().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        let mut client = connect(&server);
        thread::spawn(move || {
            let mut base = 10_000;
            while !stop.load(Ordering::SeqCst) {
                pump_requests(&mut client, base, 2);
                base += 2;
            }
        })
    };
    // Stop at the first terminal outcome: with the corruption in place no
    // outcome of this cycle may be a swap.
    let stats = force_until(&mut client, Some("corrupt_candidate"), |s| {
        get_u64(s, "adapt_rejected") > get_u64(&before, "adapt_rejected")
            || get_u64(s, "adapt_swaps") > get_u64(&before, "adapt_swaps")
    });
    stop.store(true, Ordering::SeqCst);
    load.join()
        .expect("a request pumped during the cycle was dropped");

    assert_eq!(
        get_u64(&stats, "adapt_swaps"),
        get_u64(&before, "adapt_swaps"),
        "a corrupt candidate must never swap: {stats:?}"
    );
    assert_eq!(
        get_str(&stats, "checkpoint_hash"),
        get_str(&before, "checkpoint_hash"),
        "{stats:?}"
    );
    pump_requests(&mut client, 800, 5);

    client.shutdown().unwrap();
    join_within(server, Duration::from_secs(60));
    if let Some(dir) = dir {
        let (journal, _) = SwapJournal::open(&dir).unwrap();
        assert!(
            journal.records().is_empty(),
            "a corrupt candidate dies before the journal: {:?}",
            journal.records()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_corrupt_candidate_never_swaps_with_a_registry() {
    corrupt_candidate_is_rejected(Some(tmp_dir("corrupt")));
}

#[test]
fn a_corrupt_candidate_never_swaps_without_a_registry() {
    corrupt_candidate_is_rejected(None);
}

/// Feed mode: a candidate published into the registry by an external
/// ingester (the way `nrpm ingest` does) is hot-swapped in through the
/// two-phase journal — epoch bumps, the serving ref moves, requests keep
/// being answered, and the journal's last terminal record is the commit.
#[test]
fn a_fed_candidate_hot_swaps_through_the_journal() {
    let dir = tmp_dir("feed");
    let mut opts = adapt_serve_options(Some(dir.clone()));
    opts.adaptation.feed = true;
    let server = Server::start("127.0.0.1:0", fast_adapt_store(7), opts).unwrap();
    let mut client = connect(&server);
    let hash_before = get_str(&client.stats().unwrap(), "checkpoint_hash").to_string();

    // Publish a candidate under the ingest-candidate ref, exactly as the
    // ingester's re-modeling path does.
    let registry = CheckpointRegistry::open(&dir).unwrap();
    let fed_hash = registry.put(&test_network(99)).unwrap();
    registry.set_ref(INGEST_CANDIDATE_REF, fed_hash).unwrap();

    let stats = wait_for_stats(&mut client, Duration::from_secs(30), |s| {
        get_u64(s, "adapt_feed_swaps") >= 1
    });
    assert!(get_u64(&stats, "epoch") >= 1, "{stats:?}");
    assert_ne!(get_str(&stats, "checkpoint_hash"), hash_before, "{stats:?}");
    assert_eq!(
        get_str(&stats, "checkpoint_hash"),
        format!("{fed_hash:016x}"),
        "{stats:?}"
    );
    // The swapped-in candidate answers requests — zero drops.
    pump_requests(&mut client, 1100, 5);
    assert_eq!(registry.ref_hash(SERVING_REF).unwrap(), Some(fed_hash));

    client.shutdown().unwrap();
    join_within(server, Duration::from_secs(60));

    let (journal, _) = SwapJournal::open(&dir).unwrap();
    assert!(journal.pending().is_empty(), "{:?}", journal.records());
    assert_eq!(journal.committed_hash(), Some(fed_hash));
    let _ = std::fs::remove_dir_all(&dir);
}
