//! Overload-resilience tests: admission-queue shedding under burst load,
//! deadline propagation through the queue, supervisor respawn of crashed
//! workers, the connection cap, and slowloris/oversized-frame defenses.

use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_linalg::stats::quantile;
use nrpm_nn::{Network, NetworkConfig};
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::protocol::{Request, MAX_LINE_BYTES};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

fn test_store() -> ModelStore {
    let net = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), 7);
    ModelStore::from_network(net, AdaptiveOptions::default()).unwrap()
}

fn start_server(opts: ServeOptions) -> Server {
    Server::start("127.0.0.1:0", test_store(), opts).expect("bind ephemeral port")
}

fn clean_linear_set() -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    for &x in &[4.0, 8.0, 16.0, 32.0, 64.0] {
        set.add_repetitions(&[x], &[2.0 * x, 2.0 * x]);
    }
    set
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

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 `{key}` in {v:?}"))
}

fn kind_of(response: &Value) -> Option<&str> {
    response.get("kind").and_then(Value::as_str)
}

/// A burst far past capacity must shed with `overloaded` (counted exactly
/// in `stats`), while the bounded queue keeps accepted-request latency
/// close to unloaded: an admitted job never has more than `queue_depth`
/// jobs in front of it, so its wait is bounded by design, not by luck.
#[test]
fn burst_past_capacity_sheds_and_keeps_accepted_latency_bounded() {
    let work_delay = Duration::from_millis(25);
    let server = start_server(ServeOptions {
        workers: 2,
        queue_depth: 2,
        work_delay: Some(work_delay),
        // The burst is identical requests on purpose; caching them would
        // answer the whole burst from memory and leave nothing to shed.
        cache_capacity: 0,
        ..Default::default()
    });
    let addr = server.addr();

    // Unloaded baseline: sequential requests, one at a time.
    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let mut unloaded = Vec::new();
    for _ in 0..10 {
        let started = Instant::now();
        let response = client.model(clean_linear_set(), None, None).unwrap();
        unloaded.push(started.elapsed().as_secs_f64() * 1e3);
        assert!(is_ok(&response), "{response:?}");
    }
    let unloaded_p99 = quantile(&unloaded, 0.99);

    // Burst: 16 concurrent clients, 4 requests each, against a capacity of
    // 2 workers + 2 queue slots — well past 4x what the pool can absorb.
    let handles: Vec<_> = (0..16)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut accepted_latencies = Vec::new();
                for _ in 0..4 {
                    let started = Instant::now();
                    let response = client
                        .model(clean_linear_set(), None, Some(10_000))
                        .unwrap();
                    if is_ok(&response) {
                        ok += 1;
                        accepted_latencies.push(started.elapsed().as_secs_f64() * 1e3);
                    } else {
                        assert_eq!(
                            kind_of(&response),
                            Some("overloaded"),
                            "burst responses must be ok or overloaded: {response:?}"
                        );
                        shed += 1;
                    }
                }
                (ok, shed, accepted_latencies)
            })
        })
        .collect();
    let mut ok_total = 0u64;
    let mut shed_total = 0u64;
    let mut accepted = Vec::new();
    for handle in handles {
        let (ok, shed, latencies) = handle.join().expect("burst client");
        ok_total += ok;
        shed_total += shed;
        accepted.extend(latencies);
    }
    assert!(ok_total > 0, "some burst requests must be served");
    assert!(shed_total > 0, "a 8x burst against queue depth 2 must shed");

    // Accepted p99 within 2x of unloaded p99; the slack absorbs scheduler
    // noise on a loaded test machine, the bound itself comes from the
    // queue: at most queue_depth jobs wait ahead of an admitted one.
    let accepted_p99 = quantile(&accepted, 0.99);
    let limit = unloaded_p99 * 2.0 + 150.0;
    assert!(
        accepted_p99 <= limit,
        "accepted p99 {accepted_p99:.1} ms exceeds 2x unloaded {unloaded_p99:.1} ms (+slack)"
    );

    // The shed counter matches the overloaded responses exactly, and the
    // queue is empty again once the burst is done.
    let stats = client.stats().unwrap();
    assert_eq!(get_u64(&stats, "shed"), shed_total);
    assert_eq!(get_u64(&stats, "queue_depth"), 0);
    let hwm = get_u64(&stats, "queue_depth_hwm");
    assert!(
        (1..=4).contains(&hwm),
        "hwm {hwm} out of [1, depth+workers]"
    );
    assert_eq!(get_u64(&stats, "retries_observed"), 0);

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// A request whose deadline expired while it queued behind slow work comes
/// back `timeout` without the modeler ever running for it: the choice
/// counters see exactly the one request that was actually modeled.
#[test]
fn expired_deadline_behind_slow_work_never_reaches_the_modeler() {
    let server = start_server(ServeOptions {
        workers: 1,
        work_delay: Some(Duration::from_millis(150)),
        // Caching off: the expiring request must reach the *queue* (not be
        // deduplicated against the slow identical one in flight) for this
        // test to exercise deadline propagation into the worker.
        cache_capacity: 0,
        ..Default::default()
    });
    let addr = server.addr();

    // Occupy the single worker with a slow request.
    let slow = thread::spawn(move || {
        let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
        client
            .model(clean_linear_set(), None, Some(10_000))
            .unwrap()
    });
    thread::sleep(Duration::from_millis(40));

    // This one queues behind it and expires after 1ms — long before the
    // worker frees up.
    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    let response = client.model(clean_linear_set(), None, Some(1)).unwrap();
    assert_eq!(kind_of(&response), Some("timeout"), "{response:?}");

    let slow_response = slow.join().expect("slow client");
    assert!(is_ok(&slow_response), "{slow_response:?}");

    // Give the worker time to dequeue (and discard) the expired job, then
    // check it spent no modeling work on it.
    thread::sleep(Duration::from_millis(250));
    let stats = client.stats().unwrap();
    assert_eq!(get_u64(&stats, "kernels_modeled"), 1);
    let choices = get_u64(&stats, "choice_dnn")
        + get_u64(&stats, "choice_regression")
        + get_u64(&stats, "choice_constant_mean");
    assert_eq!(choices, 1, "the expired request must not reach a modeler");
    assert!(get_u64(&stats, "errors_timeout") >= 1);

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// Killing a worker mid-load restores pool capacity: the supervisor
/// respawns it from the warm store, `worker_restarts` shows it, and
/// subsequent requests succeed.
#[test]
fn crashed_worker_is_respawned_and_capacity_restored() {
    let server = start_server(ServeOptions {
        workers: 1, // one worker, so a crash removes ALL capacity
        debug_hooks: true,
        ..Default::default()
    });
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    let response = client.roundtrip_line(r#"{"cmd":"crash_worker"}"#).unwrap();
    assert!(is_ok(&response), "{response:?}");

    // The supervisor notices within a poll tick or two.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if get_u64(&stats, "worker_restarts") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never respawned the worker: {stats:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }

    // Full capacity is back: modeling succeeds on the respawned worker.
    let response = client.model(clean_linear_set(), None, None).unwrap();
    assert!(is_ok(&response), "{response:?}");

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// Without `debug_hooks` the crash hook is refused as a usage error.
#[test]
fn crash_hook_is_refused_without_debug_hooks() {
    let server = start_server(ServeOptions {
        workers: 1,
        ..Default::default()
    });
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    let response = client.roundtrip_line(r#"{"cmd":"crash_worker"}"#).unwrap();
    assert_eq!(kind_of(&response), Some("usage"), "{response:?}");
    let stats = client.stats().unwrap();
    assert_eq!(get_u64(&stats, "worker_restarts"), 0);

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// A modeling request carrying a retry ordinal (`attempt >= 1`) is counted
/// exactly once in `retries_observed`; first tries (`attempt` 0 or absent)
/// are not.
#[test]
fn retry_ordinals_are_counted_exactly() {
    let server = start_server(ServeOptions {
        workers: 1,
        ..Default::default()
    });
    let mut client = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();

    for (attempt, expected) in [(Some(0), 0u64), (Some(2), 1u64)] {
        let line = Request::Model {
            set: clean_linear_set(),
            at: None,
            timeout_ms: None,
            id: None,
            attempt,
            tenant: None,
        }
        .to_line();
        let response = client.roundtrip_line(&line).unwrap();
        assert!(is_ok(&response), "{response:?}");
        let stats = client.stats().unwrap();
        assert_eq!(get_u64(&stats, "retries_observed"), expected);
    }

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// A connection past `max_conns` gets exactly one `overloaded` line and is
/// closed — before it sends a single byte, so a connection-hoarding client
/// cannot pin reader threads.
#[test]
fn connections_past_the_cap_are_shed() {
    let server = start_server(ServeOptions {
        workers: 1,
        max_conns: 1,
        ..Default::default()
    });
    let addr = server.addr();

    // First connection occupies the only slot (the roundtrip guarantees it
    // is fully registered before we try the second).
    let mut first = Client::connect(addr, Duration::from_secs(30)).unwrap();
    assert!(is_ok(&first.health().unwrap()));

    // The second is refused without sending anything.
    let second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(second);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(kind_of(&response), Some("overloaded"), "{response:?}");
    // ... and closed: the next read sees EOF.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);

    let stats = first.stats().unwrap();
    assert!(get_u64(&stats, "shed") >= 1);

    assert!(is_ok(&first.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// A slowloris connection — bytes trickling in, never a newline — is cut
/// off after `io_timeout` with a structured timeout line, and the server
/// stays fully available.
#[test]
fn stalled_partial_requests_are_killed_by_the_io_timeout() {
    let server = start_server(ServeOptions {
        workers: 1,
        io_timeout: Duration::from_millis(300),
        poll_interval: Duration::from_millis(20),
        ..Default::default()
    });
    let addr = server.addr();

    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stalled.write_all(b"{\"cmd\":").unwrap(); // never completes the line
    let started = Instant::now();
    let mut reader = BufReader::new(stalled.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(kind_of(&response), Some("timeout"), "{response:?}");
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "killed too early: {:?}",
        started.elapsed()
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "must be closed");

    // The server shrugged it off.
    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    assert!(is_ok(&client.health().unwrap()));

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// A frame above `MAX_LINE_BYTES` is rejected with a usage error instead
/// of buffering without bound.
#[test]
fn oversized_frames_are_rejected() {
    let server = start_server(ServeOptions {
        workers: 1,
        ..Default::default()
    });
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let blob = vec![b'x'; MAX_LINE_BYTES + 64 * 1024];
    // The server may respond and close before the final bytes land; a
    // broken pipe at the tail is expected, not a failure.
    let _ = stream.write_all(&blob);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(kind_of(&response), Some("usage"), "{response:?}");

    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
    assert!(is_ok(&client.health().unwrap()));
    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}
