//! End-to-end tests of the serving subsystem: concurrent clients over a
//! real ephemeral-port TCP server, request mixes including malformed input
//! and fatal modeling errors, stats consistency, and a clean drain.

use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::{MeasurementSet, NUM_CLASSES};
use nrpm_nn::{Network, NetworkConfig, QuantGate};
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::Value;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// A correctly shaped (if untrained) network: the store only checks shape
/// and weight sanity, and on clean data the regression modeler wins the
/// cross-validation anyway, so serving answers stay deterministic.
fn test_store() -> ModelStore {
    let net = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), 7);
    ModelStore::from_network(net, AdaptiveOptions::default()).unwrap()
}

fn start_server(workers: usize) -> Server {
    Server::start(
        "127.0.0.1:0",
        test_store(),
        ServeOptions {
            workers,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr(), Duration::from_secs(30)).expect("connect")
}

/// y = 2x over five points — exactly linear, so the regression modeler
/// must find `2 * x1` with near-zero error.
fn clean_linear_set() -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    for &x in &[4.0, 8.0, 16.0, 32.0, 64.0] {
        set.add_repetitions(&[x], &[2.0 * x, 2.0 * x]);
    }
    set
}

/// A zero coordinate breaks the PMNF domain: fatal `NonPositiveParameter`.
fn fatal_set() -> MeasurementSet {
    let mut set = MeasurementSet::new(1);
    for &x in &[0.0, 8.0, 16.0, 32.0, 64.0] {
        set.add_repetitions(&[x], &[2.0 * x + 1.0]);
    }
    set
}

fn join_within(server: Server, limit: Duration) {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let result = server.join();
        let _ = tx.send(result);
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

#[test]
fn concurrent_clients_mixing_requests_get_correct_answers() {
    let server = start_server(4);
    let addr = server.addr();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();

                let health = client.health().unwrap();
                assert!(is_ok(&health), "{health:?}");

                // A clean model request finds the exact linear model.
                let response = client
                    .model(clean_linear_set(), Some(vec![1024.0]), None)
                    .unwrap();
                assert!(is_ok(&response), "{response:?}");
                let outcome = response.get("outcome").expect("outcome");
                assert_eq!(
                    outcome.get("choice").and_then(Value::as_str),
                    Some("regression"),
                    "{outcome:?}"
                );
                let prediction = outcome.get("prediction").and_then(Value::as_f64).unwrap();
                assert!(
                    (prediction - 2048.0).abs() < 1e-6,
                    "prediction {prediction}"
                );

                // Malformed input gets a parse error and the connection
                // stays usable.
                let garbage = client.roundtrip_line("this is not json").unwrap();
                assert_eq!(garbage.get("kind").and_then(Value::as_str), Some("parse"));
                assert!(is_ok(&client.health().unwrap()));

                // A batch of 8 kernels comes back fully modeled through
                // one coalesced forward pass.
                let response = client.batch(vec![clean_linear_set(); 8], None).unwrap();
                assert!(is_ok(&response), "{response:?}");
                assert_eq!(get_u64(&response, "kernels"), 8);
                assert_eq!(get_u64(&response, "kernels_ok"), 8);
                assert_eq!(get_u64(&response, "forward_passes"), 1);
                assert_eq!(get_u64(&response, "batched_lines"), 8);

                // A fatal modeling error is a structured response, not a
                // dead server.
                let response = client.model(fatal_set(), None, None).unwrap();
                assert_eq!(
                    response.get("kind").and_then(Value::as_str),
                    Some("fatal"),
                    "{response:?}"
                );
                assert!(is_ok(&client.health().unwrap()));
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // With every client done the counters must add up exactly.
    let mut client = connect(&server);
    let stats = client.stats().unwrap();
    assert_eq!(get_u64(&stats, "requests_model"), 8); // 4 clean + 4 fatal
    assert_eq!(get_u64(&stats, "requests_batch"), 4);
    assert_eq!(get_u64(&stats, "requests_health"), 12);
    assert_eq!(get_u64(&stats, "errors_parse"), 4);
    assert_eq!(get_u64(&stats, "errors_fatal"), 4);
    assert_eq!(get_u64(&stats, "batched_forward_calls"), 4);
    assert_eq!(get_u64(&stats, "batched_rows"), 32);
    // The 4 identical clean model requests collapse into exactly 1 modeler
    // run (result cache + single-flight); the other 3 are answered from the
    // cache or by sharing the in-flight computation. Batch kernels are not
    // cached: + 32.
    assert_eq!(get_u64(&stats, "kernels_modeled"), 33);
    assert_eq!(
        get_u64(&stats, "cache_hits") + get_u64(&stats, "singleflight_shared"),
        3,
        "every deduplicated clean request is visible in a counter"
    );
    assert_eq!(get_u64(&stats, "cache_inserts"), 1);
    // Every parsed request was answered: ok + modeling errors == requests
    // (the stats request itself is counted before the snapshot is taken).
    let requests = get_u64(&stats, "requests_model")
        + get_u64(&stats, "requests_batch")
        + get_u64(&stats, "requests_health")
        + get_u64(&stats, "requests_stats")
        + get_u64(&stats, "requests_shutdown");
    assert_eq!(
        get_u64(&stats, "responses_ok") + get_u64(&stats, "errors_fatal"),
        requests
    );
    // Latency was observed for every modeling request.
    assert_eq!(get_u64(&stats, "latency_count"), 12);

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

#[test]
fn a_batch_of_eight_kernels_issues_one_batched_forward_pass() {
    let server = start_server(1);
    let mut client = connect(&server);

    let response = client.batch(vec![clean_linear_set(); 8], None).unwrap();
    assert!(is_ok(&response), "{response:?}");
    assert_eq!(get_u64(&response, "forward_passes"), 1);
    assert_eq!(get_u64(&response, "batched_lines"), 8);

    let stats = client.stats().unwrap();
    assert_eq!(get_u64(&stats, "batched_forward_calls"), 1);
    assert_eq!(get_u64(&stats, "batched_rows"), 8);

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

/// `--quantize` serving takes the int8 path over the wire. The gate is
/// opened because a random network's argmax ties are not accuracy loss,
/// and a zero threshold pins every line to the DNN.
#[test]
fn a_quantized_store_serves_batches_on_the_int8_path() {
    let mut opts = AdaptiveOptions::default();
    opts.dnn.quantize = true;
    opts.dnn.quant_gate = QuantGate {
        max_prob_drift: 1.0,
        max_argmax_flips: usize::MAX,
    };
    opts.thresholds = Some(vec![0.0]);
    let net = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), 7);
    let store = ModelStore::from_network(net, opts).unwrap();
    let server = Server::start("127.0.0.1:0", store, ServeOptions::default()).unwrap();
    let mut client = connect(&server);

    let response = client.batch(vec![clean_linear_set(); 4], None).unwrap();
    assert!(is_ok(&response), "{response:?}");
    let stats = client.stats().unwrap();
    assert!(get_u64(&stats, "quantized_forward_calls") > 0, "{stats:?}");
    assert_eq!(get_u64(&stats, "quant_fallbacks"), 0, "{stats:?}");

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

#[test]
fn mixed_batches_answer_per_kernel() {
    let server = start_server(2);
    let mut client = connect(&server);

    let response = client
        .batch(
            vec![clean_linear_set(), fatal_set(), clean_linear_set()],
            None,
        )
        .unwrap();
    assert!(is_ok(&response), "{response:?}");
    assert_eq!(get_u64(&response, "kernels"), 3);
    assert_eq!(get_u64(&response, "kernels_ok"), 2);
    let results = response.get("results").and_then(Value::as_seq).unwrap();
    assert_eq!(results.len(), 3);
    assert!(is_ok(&results[0]));
    assert_eq!(
        results[1].get("kind").and_then(Value::as_str),
        Some("fatal")
    );
    assert!(is_ok(&results[2]));

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

#[test]
fn zero_timeout_requests_time_out_cleanly() {
    let server = start_server(1);
    let mut client = connect(&server);

    let response = client.model(clean_linear_set(), None, Some(0)).unwrap();
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("timeout"),
        "{response:?}"
    );
    // The server shrugged the timeout off.
    assert!(is_ok(&client.health().unwrap()));
    let stats = client.stats().unwrap();
    assert!(get_u64(&stats, "errors_timeout") >= 1);

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

#[test]
fn usage_errors_name_the_offense() {
    let server = start_server(1);
    let mut client = connect(&server);

    let response = client.roundtrip_line(r#"{"cmd":"frobnicate"}"#).unwrap();
    assert_eq!(response.get("kind").and_then(Value::as_str), Some("usage"));
    let message = response.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("frobnicate"), "{message}");

    let response = client
        .roundtrip_line(r#"{"cmd":"batch","sets":[]}"#)
        .unwrap();
    assert_eq!(response.get("kind").and_then(Value::as_str), Some("usage"));

    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));
}

#[test]
fn drain_refuses_new_work_and_releases_the_port() {
    let server = start_server(2);
    let addr = server.addr();
    let mut client = connect(&server);
    assert!(is_ok(&client.shutdown().unwrap()));
    join_within(server, Duration::from_secs(20));

    // The listener is gone: new connections are refused.
    let err = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2));
    assert!(err.is_err(), "connect after drain must fail");
}

#[test]
fn request_shutdown_drains_without_a_client() {
    let server = start_server(2);
    server.request_shutdown();
    assert!(server.draining());
    join_within(server, Duration::from_secs(20));
}

/// The acceptor blocks in `accept()` rather than sleeping between polls:
/// with a 5 s poll interval, a connection made while the server idles is
/// still answered at once.
#[test]
fn a_new_connection_does_not_wait_for_a_poll_tick() {
    let server = Server::start(
        "127.0.0.1:0",
        test_store(),
        ServeOptions {
            workers: 1,
            poll_interval: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let mut client = connect(&server);
    assert!(is_ok(&client.health().unwrap()));
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "health took {elapsed:?}");

    drop(client);
    server.request_shutdown();
    join_within(server, Duration::from_secs(20));
}
