//! The traced run (`--trace 1`): per-layer numbers, measured from the
//! benchmark's own files.
//!
//! 1. **Live.** One set-up, the accuracy set, then the closed loop for
//!    `--seconds`, with a client span per request. The server's `stats`
//!    counters give the queue, cache, single-flight and modeller-choice
//!    figures, and a probe on the warm server times the accept wait.
//! 2. **Cluster.** A 2-shard, replication-2 cluster is started and one
//!    cached request is sent through its router and straight to its
//!    owning shard: the router hop, fan-out and failover figures.
//! 3. **Replay.** The workload's inputs, same seed, go in process through
//!    each layer's public functions with a timer — a span — around every
//!    call. The replayed stages of a request (prepare, DNN model,
//!    regression) must add up to the replayed `AdaptiveModeler::model` /
//!    `model_batch` call within [`STAGE_SUM_TOLERANCE`]. Each request's
//!    serving-path calls (parse, fingerprints, reply encoding) are also
//!    replayed without spans, under one timer: the difference is the
//!    tracing overhead.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `perfbench/runs/<workload>-seed<N>-spans.jsonl` at the end.

use crate::drive::{self, median, Conn};
use crate::gen::{self, Workload};
use crate::serving::{self, Role, Served};
use crate::{counter, fixture, Metrics, Outcome};
use nrpm_core::adaptive::{AdaptiveModeler, AdaptiveOptions, AdaptiveOutcome};
use nrpm_core::dnn::{dataset_from_samples_with, DnnModeler};
use nrpm_core::fingerprint::ModelKey;
use nrpm_core::noise::NoiseEstimate;
use nrpm_core::preprocess::{encode_line_with, NUM_INPUTS};
use nrpm_core::sanitize::sanitize;
use nrpm_core::threshold::default_threshold;
use nrpm_extrap::MeasurementSet;
use nrpm_linalg::{gemm_i8, matmul, Matrix, QuantizedGemmB, ThreadBudget};
use nrpm_nn::{Network, QuantizedNetwork, TrainerOptions};
use nrpm_registry::ResultCache;
use nrpm_serve::protocol::{batch_entry, ok_line, outcome_value, Request as WireRequest};
use nrpm_synth::{generate_training_samples_seeded, TrainingSpec};
use serde::Value;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Largest accepted gap between the sum of the replayed stages and the
/// replayed whole call, as a share of the whole call.
pub const STAGE_SUM_TOLERANCE: f64 = 0.10;

/// The end-to-end metric and workload each per-layer metric of
/// `BENCHMARK.json` should move. (`BENCHMARK.json` gives a metric only a
/// name, unit and direction; a test checks that both list the same names.)
pub const MOVES: &[(&str, &str)] = &[
    ("serve.parse_us", "bulk latency_p50_ms"),
    ("serve.encode_us", "bulk latency_p50_ms"),
    ("serve.transport_ms", "query latency_p50_ms"),
    ("serve.queue_depth_hwm", "query latency_p99_ms"),
    ("serve.accept_wait_ms", "no timed workload: every client keeps its connection, while one `nrpm query` call pays it on every request"),
    ("cluster.router_hop_ms", "no timed workload: taken on the cluster the traced run starts (no timed workload is routed; see perfbench/README.md)"),
    ("cluster.replica_fanouts", "no timed workload: counted on the cluster the traced run starts"),
    ("cluster.failovers", "no timed workload: counted on the cluster the traced run starts"),
    ("registry.cache_hit_ratio", "none: every workload sends unique tasks, so it reads 0 by construction"),
    ("registry.singleflight_shared", "none: 0 by construction, as for cache_hit_ratio"),
    ("registry.cache_get_us", "query latency_p50_ms (every model request looks up)"),
    ("registry.cache_insert_us", "query latency_p50_ms (every answer is inserted)"),
    ("core.fingerprint_us", "query latency_p50_ms (cache key)"),
    ("core.prepare_us", "query latency_p50_ms"),
    ("core.classify_ms", "query latency_p50_ms (f64, 1-2 rows); bulk kernels_per_s (int8, 64 and 256 rows)"),
    ("core.classify_rows", "context for core.classify_ms"),
    ("core.classify_quantized", "context for core.classify_ms (1 = int8 path)"),
    ("core.dnn_fit_ms", "query and bulk kernels_per_s"),
    ("core.choice.regression", "query kernels_per_s and accuracy"),
    ("core.choice.dnn", "query kernels_per_s and accuracy"),
    ("core.choice.constant", "query kernels_per_s and accuracy"),
    ("core.adapt_s", "no timed workload: per-request adaptation was dropped (see perfbench/README.md); a stand-in input"),
    ("extrap.regression_ms.m1", "query latency_p99_ms and kernels_per_s; a stand-in input in bulk"),
    ("extrap.regression_ms.m2", "query latency_p99_ms and kernels_per_s; a stand-in input elsewhere"),
    ("nn.forward_f64_ms.rows1", "query latency_p50_ms"),
    ("nn.forward_f64_ms.rows2", "query latency_p50_ms"),
    ("nn.forward_f64_ms.rows64", "query kernels_per_s (f64 reference for bulk)"),
    ("nn.forward_f64_us.layer1", "query latency_p50_ms"),
    ("nn.forward_f64_us.layer2", "query latency_p50_ms"),
    ("nn.forward_f64_us.layer3", "query latency_p50_ms"),
    ("nn.forward_f64_us.layer4", "query latency_p50_ms"),
    ("nn.forward_f64_us.layer5", "query latency_p50_ms"),
    ("nn.forward_f64_us.layer6", "query latency_p50_ms"),
    ("nn.forward_int8_ms.rows64", "bulk kernels_per_s"),
    ("nn.train_epoch_s", "no timed workload, as for core.adapt_s"),
    ("synth.corpus_s", "no timed workload, as for core.adapt_s"),
    ("linalg.f64_gflops.1x1500x1500", "query latency_p50_ms"),
    ("linalg.f64_gflops.128x1500x1500", "no timed workload: the training batch shape, as for core.adapt_s"),
    ("linalg.int8_gops.64x1500x1500", "bulk kernels_per_s"),
    ("proc.cpu_s", "kernels_per_s on every workload"),
    ("trace.overhead_ms", "none: a request's replayed serving-path calls with spans minus the same without"),
    ("trace.stage_sum_error", "none: |stages - whole| / whole of the replay"),
];

/// One recorded span. Times are microseconds from the trace start.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: String,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its id; [`Tracer::close`] ends it.
    fn open(&mut self, name: &str, parent: Option<usize>, request: &str) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
            request: request.to_string(),
        });
        self.spans.len() - 1
    }

    /// Ends span `id` and returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        self.spans[id].end_us = end;
        (end - self.spans[id].start_us) / 1e6
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        let seconds = self.close(id);
        (out, seconds)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for s in &self.spans {
            let span = Value::Map(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("start_us".into(), Value::F64(s.start_us)),
                ("end_us".into(), Value::F64(s.end_us)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("request".into(), Value::Str(s.request.clone())),
            ]);
            text.push_str(&serde_json::to_string(&span).map_err(|e| e.to_string())?);
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Per-layer samples, reduced to medians at the end.
#[derive(Default)]
struct Samples(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
    fn median(&self, name: &str) -> f64 {
        self.0.get(name).and_then(|v| median(v)).unwrap_or(0.0)
    }
    fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }
}

/// Median seconds of `reps` calls of `f`.
fn bench(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("reps > 0")
}

/// Median milliseconds of `reps` round trips of `line`, each on a fresh
/// connection or all on one warm connection.
fn probe_ms(addr: SocketAddr, fresh: bool, line: &str, reps: usize) -> Result<f64, String> {
    let mut conn = Conn::open(addr)?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let reply = if fresh {
            drive::fresh_roundtrip(addr, line)?
        } else {
            conn.roundtrip(line)?
        };
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if !nrpm_serve::client::is_ok(&reply) {
            return Err(format!("probe reply not ok: {reply:?}"));
        }
    }
    Ok(median(&times).expect("reps > 0"))
}

/// A `model` request for the first accuracy-set kernel: cached on the
/// workload's server by the time the probes send it.
fn probe_line(workload: Workload, seed: u64) -> String {
    WireRequest::Model {
        set: gen::accuracy_set(workload, seed)[0].kernels[0].set.clone(),
        at: None,
        timeout_ms: None,
        id: Some("probe".into()),
        attempt: None,
        tenant: None,
    }
    .to_line()
}

/// The live part of the traced run: one measured window with a client span
/// per request, the server's counters, and the accept-wait probe.
fn live(
    workload: Workload,
    seed: u64,
    seconds: f64,
    fixture: &Path,
    tracer: &mut Tracer,
    out: &mut Metrics,
    record: &mut Vec<(String, Value)>,
) -> Result<(usize, usize, bool), String> {
    let m = crate::measure(workload, seed, seconds, 1, fixture)?;
    let served = &m.served;
    let w = &m.kept;
    // The window's client spans, offset to the tracer's clock.
    let offset = tracer.now_us() - w.window.seconds * 1e6;
    for s in &w.window.samples {
        tracer.spans.push(Span {
            name: "client.request".into(),
            start_us: offset + s.start.as_secs_f64() * 1e6,
            end_us: offset + s.end.as_secs_f64() * 1e6,
            parent: None,
            request: format!("{}-{}", workload.name(), s.request),
        });
    }
    out.put("proc.cpu_s", w.cpu_s);
    out.put("serve.queue_depth_hwm", w.after("queue_depth_hwm"));
    let lookups = (w.delta("cache_hits") + w.delta("cache_misses")).max(1.0);
    out.put("registry.cache_hit_ratio", w.delta("cache_hits") / lookups);
    out.put(
        "registry.singleflight_shared",
        w.delta("singleflight_shared"),
    );
    let choices = ["choice_regression", "choice_dnn", "choice_constant_mean"];
    let decided = choices.iter().map(|k| w.delta(k)).sum::<f64>().max(1.0);
    for (name, key) in [
        "core.choice.regression",
        "core.choice.dnn",
        "core.choice.constant",
    ]
    .into_iter()
    .zip(choices)
    {
        out.put(name, w.delta(key) / decided);
    }
    // `stats` keeps only a bucketed latency histogram, too coarse for a
    // p50 at these latencies: the transport share is taken on means.
    let latencies: Vec<f64> = w.window.samples.iter().map(|s| s.latency_ms()).collect();
    let client_mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let server_mean = w.delta("latency_total_us") / w.delta("latency_count").max(1.0) / 1e3;
    out.put("serve.transport_ms", client_mean - server_mean);

    // Accept wait: the same cached request on a fresh connection versus a
    // warm one. `bulk` batches bypass the cache; priming the line once
    // covers that case.
    let line = probe_line(workload, seed);
    probe_ms(served.addr, false, &line, 1)?;
    let warm = probe_ms(served.addr, false, &line, 20)?;
    let fresh = probe_ms(served.addr, true, &line, 20)?;
    out.put("serve.accept_wait_ms", fresh - warm);

    let int8_ok = workload != Workload::Bulk
        || (w.delta("quantized_forward_calls") > 0.0 && w.after("quant_fallbacks") == 0.0);
    record.push((
        "live".into(),
        Value::Map(vec![
            ("requests".into(), Value::U64(latencies.len() as u64)),
            (
                "accept_probe".into(),
                Value::Map(vec![
                    ("warm_ms".into(), Value::F64(warm)),
                    ("fresh_ms".into(), Value::F64(fresh)),
                    ("reps".into(), Value::U64(20)),
                ]),
            ),
            ("server_mean_ms".into(), Value::F64(server_mean)),
            ("client_mean_ms".into(), Value::F64(client_mean)),
        ]),
    ));
    let (attempted, failed) = (m.attempted, m.errors.len());
    m.served.stop()?;
    Ok((attempted, failed, int8_ok))
}

/// The router's figures, on a cluster of its own: a cached request through
/// the router against the same request straight to its owning shard, both
/// on warm connections, and the router's fan-out and failover counters
/// over those requests.
fn cluster_probe(line: &str, fixture: &Path, out: &mut Metrics) -> Result<(), String> {
    let (cluster, _) = Served::start(Role::Cluster, fixture)?;
    let before = Served::stats(cluster.addr)?;
    // Both replicas model and cache the line.
    let reply = Conn::open(cluster.addr)?.roundtrip(line)?;
    let shard = reply
        .get("shard")
        .and_then(Value::as_u64)
        .ok_or("routed reply names no shard")? as usize;
    let direct = *cluster.shards.get(shard).ok_or("unknown shard")?;
    let hop = probe_ms(cluster.addr, false, line, 40)? - probe_ms(direct, false, line, 40)?;
    let after = Served::stats(cluster.addr)?;
    out.put("cluster.router_hop_ms", hop);
    for (name, key) in [
        ("cluster.replica_fanouts", "replica_fanouts"),
        ("cluster.failovers", "failovers"),
    ] {
        out.put(name, counter(&after, key) - counter(&before, key));
    }
    cluster.stop()
}

/// Adaptation corpus size (samples per class) of the stand-in adaptation:
/// the floor `adapt_to_task` applies. The library default of 200 retrains
/// for ~14 s on a 2-core machine.
const ADAPT_SAMPLES_PER_CLASS: usize = 8;

/// The modeler the workload's server runs, built in process. (The server
/// adapts only when started with `adapt`, which no workload uses.)
fn modeler(workload: Workload, network: Network) -> AdaptiveModeler {
    let mut opts = AdaptiveOptions {
        dnn: fixture::dnn_options(),
        use_domain_adaptation: false,
        ..AdaptiveOptions::default()
    };
    opts.dnn.quantize = workload == Workload::Bulk;
    opts.dnn.adaptation_samples_per_class = ADAPT_SAMPLES_PER_CLASS;
    AdaptiveModeler::from_network(opts, network)
}

/// The preprocessing half of `AdaptiveModeler::model`, as the library
/// runs it: sanitize, then the mean-based noise estimate on clean input
/// and the robust one on repaired input.
fn prepare(opts: &AdaptiveOptions, set: &MeasurementSet) -> (MeasurementSet, NoiseEstimate) {
    let (clean, quality) = sanitize(set, &opts.sanitize);
    let noise = if quality.is_clean() {
        NoiseEstimate::of(&clean)
    } else {
        NoiseEstimate::robust_of(&clean)
    };
    (clean, noise)
}

fn lines_of(dnn: &DnnModeler, sets: &[&MeasurementSet]) -> Vec<Vec<(f64, f64)>> {
    sets.iter()
        .flat_map(|set| (0..set.num_params()).map(|l| set.line(l, dnn.options().aggregation)))
        .collect()
}

/// The modelling call a worker makes for a request: `model_batch` for a
/// `bulk` batch, else `model`.
fn whole_call(
    base: &mut AdaptiveModeler,
    batched: bool,
    sets: &[MeasurementSet],
) -> Result<Vec<AdaptiveOutcome>, String> {
    if batched {
        base.model_batch(sets)
            .outcomes
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|e| format!("replayed batch failed: {e}"))
    } else {
        Ok(vec![base
            .model(&sets[0])
            .map_err(|e| format!("replayed model failed: {e}"))?])
    }
}

/// Replays the workload's first requests through each layer.
fn replay(
    workload: Workload,
    seed: u64,
    fixture: &Path,
    tracer: &mut Tracer,
    samples: &mut Samples,
    record: &mut Vec<(String, Value)>,
) -> Result<f64, String> {
    let network = Network::load(fixture).map_err(|e| e.to_string())?;
    let mut base = modeler(workload, network.clone());
    let opts = base.options().clone();
    let checkpoint = nrpm_core::fingerprint::bytes_hash(network.to_json().as_bytes());
    let batched = workload == Workload::Bulk;
    let replayed = match workload {
        Workload::Query => 64,
        Workload::Bulk => 8,
    };
    let requests: Vec<gen::Request> = gen::accuracy_set(workload, seed)
        .into_iter()
        .take(replayed)
        .collect();
    let cache_dir = crate::runs_dir().join(format!("{}-seed{seed}-cache", workload.name()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache: ResultCache<AdaptiveOutcome> =
        ResultCache::persistent(1024, 8, &cache_dir).map_err(|e| e.to_string())?;

    // One untimed call first: page faults on the freshly loaded weights
    // and lazy set-up stay out of the spans.
    let warm_sets: Vec<MeasurementSet> =
        requests[0].kernels.iter().map(|k| k.set.clone()).collect();
    black_box(base.model_batch(&warm_sets));
    // Each request is replayed `reps` times and its whole call and stage
    // sum enter as the fastest of their repetitions: the work is the same
    // every time, so a slower repetition measures the host (a median of
    // three still let two calls slowed 2.5x decide one comparison).
    let reps = 5;
    let (mut whole, mut stages) = (0.0f64, 0.0f64);
    let mut overheads = Vec::with_capacity(requests.len());
    for request in &requests {
        let rid = request
            .line
            .split("\"id\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or("?")
            .to_string();
        let sets: Vec<MeasurementSet> = request.kernels.iter().map(|k| k.set.clone()).collect();
        let (mut wholes, mut sums, mut traced, mut bare) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let root = tracer.open("replay.request", None, &rid);
            let (parsed, t) = tracer.time("serve.parse", Some(root), &rid, || {
                WireRequest::parse(&request.line)
            });
            parsed.map_err(|(_, e)| format!("replayed request does not parse: {e}"))?;
            samples.push("serve.parse_us", t * 1e6);
            for set in &sets {
                let (_, t) = tracer.time("core.fingerprint", Some(root), &rid, || {
                    black_box(ModelKey::new(set, checkpoint, false).combined())
                });
                samples.push("core.fingerprint_us", t * 1e6);
            }
            let call = if batched { "core.model_batch" } else { "core.model" };
            let (outcomes, rep_whole) = tracer.time(call, Some(root), &rid, || {
                whole_call(&mut base, batched, &sets)
            });
            let outcomes = outcomes?;
            traced.push(tracer.close(root));

            // The same work, stage by stage.
            let mut rep_stages = 0.0f64;
            let stage_root = tracer.open("replay.stages", None, &rid);
            let mut prepared = Vec::with_capacity(sets.len());
            for set in &sets {
                let (p, t) = tracer.time("core.prepare", Some(stage_root), &rid, || {
                    prepare(&opts, set)
                });
                rep_stages += t;
                samples.push("core.prepare_us", t * 1e6);
                prepared.push(p);
            }
            let dnn = base.dnn();
            let clean: Vec<&MeasurementSet> = prepared.iter().map(|(s, _)| s).collect();
            let dnn_t = if batched {
                tracer
                    .time("core.dnn_model", Some(stage_root), &rid, || {
                        black_box(dnn.model_batch(&clean))
                    })
                    .1
            } else {
                tracer
                    .time("core.dnn_model", Some(stage_root), &rid, || {
                        black_box(dnn.model(clean[0]))
                    })
                    .1
            };
            rep_stages += dnn_t;
            for (set, noise) in &prepared {
                let m = set.num_params();
                // The benchmark's servers run the default switch thresholds.
                if noise.mean() < default_threshold(m) {
                    let name = if m == 1 {
                        "extrap.regression_ms.m1"
                    } else {
                        "extrap.regression_ms.m2"
                    };
                    let (_, t) = tracer.time("extrap.regression", Some(stage_root), &rid, || {
                        black_box(opts.regression.model(set))
                    });
                    rep_stages += t;
                    samples.push(name, t * 1e3);
                }
            }
            tracer.close(stage_root);

            // Classification on its own, to split the DNN stage into forward
            // pass and fit; then reply encoding and the result cache.
            let root = tracer.open("replay.layers", None, &rid);
            let lines = lines_of(dnn, &clean);
            let (batch, classify_t) = tracer.time("core.classify", Some(root), &rid, || {
                dnn.classify_lines_batch(&lines)
            });
            samples.push("core.classify_ms", classify_t * 1e3);
            samples.push("core.classify_rows", batch.rows as f64);
            samples.push(
                "core.classify_quantized",
                f64::from(u8::from(batch.quantized)),
            );
            samples.push("core.dnn_fit_ms", (dnn_t - classify_t) * 1e3);
            let encode = || {
                let fields = if batched {
                    vec![(
                        "results".to_string(),
                        Value::Seq(
                            outcomes
                                .iter()
                                .map(|o| batch_entry(&Ok(o.clone())))
                                .collect(),
                        ),
                    )]
                } else {
                    vec![("outcome".to_string(), outcome_value(&outcomes[0], None))]
                };
                black_box(ok_line(Some(&rid), fields))
            };
            let (_, t) = tracer.time("serve.encode", Some(root), &rid, encode);
            samples.push("serve.encode_us", t * 1e6);
            for (set, outcome) in sets.iter().zip(&outcomes) {
                let key = ModelKey::new(set, checkpoint, false).combined();
                let (r, t) = tracer.time("registry.cache_insert", Some(root), &rid, || {
                    cache.insert(key, outcome.clone())
                });
                r.map_err(|e| format!("cache insert: {e}"))?;
                samples.push("registry.cache_insert_us", t * 1e6);
                let (hit, t) =
                    tracer.time("registry.cache_get", Some(root), &rid, || cache.get(key));
                hit.ok_or("cache lost an entry")?;
                samples.push("registry.cache_get_us", t * 1e6);
            }
            tracer.close(root);

            // Tracing overhead: the request's serving-path calls (parse,
            // fingerprints, reply encoding) under one timer, then with a
            // span around each. The modelling call is left out: its one
            // span costs the same whatever it times, and its run-to-run
            // noise would bury the spans' microseconds.
            for _ in 0..5 {
                let t = Instant::now();
                black_box(WireRequest::parse(&request.line).is_ok());
                for set in &sets {
                    black_box(ModelKey::new(set, checkpoint, false).combined());
                }
                encode();
                bare.push(t.elapsed().as_secs_f64());
                let root = tracer.open("replay.overhead", None, &rid);
                tracer.time("serve.parse", Some(root), &rid, || {
                    black_box(WireRequest::parse(&request.line).is_ok())
                });
                for set in &sets {
                    tracer.time("core.fingerprint", Some(root), &rid, || {
                        black_box(ModelKey::new(set, checkpoint, false).combined())
                    });
                }
                tracer.time("serve.encode", Some(root), &rid, encode);
                traced.push(tracer.close(root));
            }
            wholes.push(rep_whole);
            sums.push(rep_stages);
        }
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        whole += fastest(&wholes);
        stages += fastest(&sums);
        overheads.push((fastest(&traced) - fastest(&bare)) * 1e3);
    }
    samples.0.insert("trace.overhead_ms", overheads);
    drop(cache);
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Input-independent layer figures on the paper network, at the
    // serving process's thread budget.
    let encoded: Vec<Vec<f64>> = requests
        .iter()
        .flat_map(|r| r.kernels.iter())
        .flat_map(|k| (0..k.set.num_params()).map(|l| k.set.line(l, opts.dnn.aggregation)))
        .filter_map(|line| {
            let (xs, ys): (Vec<f64>, Vec<f64>) = line.into_iter().unzip();
            encode_line_with(&xs, &ys, opts.dnn.encoding).ok()
        })
        .collect();
    let rows = |n: usize| -> Result<Matrix, String> {
        let picked: Vec<Vec<f64>> = encoded.iter().cycle().take(n).cloned().collect();
        Matrix::from_row_vecs(&picked, NUM_INPUTS).map_err(|e| e.to_string())
    };
    for (n, name, reps) in [
        (1, "nn.forward_f64_ms.rows1", 40),
        (2, "nn.forward_f64_ms.rows2", 40),
        (64, "nn.forward_f64_ms.rows64", 8),
    ] {
        let x = rows(n)?;
        let t = bench(reps, || {
            black_box(network.predict_proba(&x).expect("paper network input"));
        });
        samples.push(name, t * 1e3);
    }
    let mut x = rows(1)?;
    for (i, layer) in network.layers().iter().enumerate() {
        let name = [
            "nn.forward_f64_us.layer1",
            "nn.forward_f64_us.layer2",
            "nn.forward_f64_us.layer3",
            "nn.forward_f64_us.layer4",
            "nn.forward_f64_us.layer5",
            "nn.forward_f64_us.layer6",
        ]
        .get(i)
        .ok_or("network has more than six layers")?;
        samples.push(name, bench(40, || drop(black_box(layer.forward(&x)))) * 1e6);
        x = layer.forward(&x);
    }
    let quantized = QuantizedNetwork::quantize(&network).map_err(|e| e.to_string())?;
    let x64 = rows(64)?;
    samples.push(
        "nn.forward_int8_ms.rows64",
        bench(8, || drop(black_box(quantized.predict_proba(&x64)))) * 1e3,
    );

    let mut computed_bytes = Vec::new();
    for (m, name, reps) in [
        (1usize, "linalg.f64_gflops.1x1500x1500", 40),
        (128, "linalg.f64_gflops.128x1500x1500", 8),
    ] {
        let a = Matrix::from_vec(
            m,
            1500,
            (0..m * 1500).map(|i| (i % 7) as f64 * 0.1).collect(),
        );
        let b = Matrix::from_vec(
            1500,
            1500,
            (0..1500 * 1500).map(|i| (i % 5) as f64 * 0.1).collect(),
        );
        let t = bench(reps, || {
            drop(black_box(matmul(&a, &b).expect("shapes agree")))
        });
        samples.push(name, 2.0 * (m * 1500 * 1500) as f64 / t / 1e9);
        computed_bytes.push((name, ((m * 1500 + 1500 * 1500 + m * 1500) * 8) as u64));
    }
    let a: Vec<i8> = (0..64 * 1500).map(|i| (i % 255) as i8).collect();
    let b = QuantizedGemmB::pack(
        &(0..1500 * 1500)
            .map(|i| (i % 251) as i8)
            .collect::<Vec<_>>(),
        1500,
        1500,
    );
    let mut c = vec![0i32; 64 * 1500];
    let t = bench(10, || gemm_i8(black_box(&a), 64, 1500, &b, &mut c));
    samples.push(
        "linalg.int8_gops.64x1500x1500",
        2.0 * (64 * 1500 * 1500) as f64 / t / 1e9,
    );
    computed_bytes.push((
        "linalg.int8_gops.64x1500x1500",
        (64 * 1500 + 1500 * 1500 + 64 * 1500 * 4) as u64,
    ));

    // Layers the workload's requests do not reach are timed on a stand-in
    // input anyway, so that every per-layer figure is a measurement: the
    // regression search on the `query` stream's first m=1 and m=2
    // kernels, and the adaptation on the first replayed kernel (no
    // workload adapts). The run record lists these under `stand_in`.
    let mut stand_in = Vec::new();
    for (name, r) in [
        ("extrap.regression_ms.m1", 0),
        ("extrap.regression_ms.m2", 3),
    ] {
        if samples.count(name) == 0 {
            let set = &gen::request(Workload::Query, seed, r).kernels[0].set;
            let (_, t) = tracer.time("extrap.regression", None, "stand-in", || {
                black_box(opts.regression.model(set))
            });
            samples.push(name, t * 1e3);
            stand_in.push(name);
        }
    }
    {
        // One adaptation corpus and one training epoch on it, as
        // `adapt_to_task` builds them for the first replayed kernel.
        let (clean, noise) = prepare(&opts, &requests[0].kernels[0].set);
        let range = if noise.is_empty() {
            (0.0, 0.0)
        } else {
            noise.range()
        };
        let mut dnn = base.dnn().clone();
        let (r, t) = tracer.time("core.adapt", None, "stand-in", || {
            dnn.adapt_to_task(&clean, range)
        });
        r.map_err(|e| format!("stand-in adaptation failed: {e}"))?;
        samples.push("core.adapt_s", t);
        stand_in.push("core.adapt_s");
        let line = clean.line(0, opts.dnn.aggregation);
        let spec = TrainingSpec {
            samples_per_class: ADAPT_SAMPLES_PER_CLASS,
            sequence: Some(line.iter().map(|(x, _)| *x).collect()),
            noise_range: range,
            repetitions: 5,
            aggregation: opts.dnn.aggregation,
            ..TrainingSpec::default()
        };
        let (corpus, t) = tracer.time("synth.corpus", None, "adapt-epoch", || {
            generate_training_samples_seeded(&spec, seed, 0)
        });
        samples.push("synth.corpus_s", t);
        let data = dataset_from_samples_with(&corpus, opts.dnn.encoding);
        let mut net = network.clone();
        let train = TrainerOptions {
            epochs: 1,
            batch_size: opts.dnn.batch_size,
            optimizer: opts.dnn.optimizer,
            ..TrainerOptions::default()
        };
        let (r, t) = tracer.time("nn.train_epoch", None, "adapt-epoch", || {
            net.train(&data, &train)
        });
        r.map_err(|e| format!("training epoch: {e}"))?;
        samples.push("nn.train_epoch_s", t);
    }
    record.push((
        "stand_in".into(),
        Value::Seq(stand_in.iter().map(|n| Value::Str(n.to_string())).collect()),
    ));
    record.push((
        "computed_bytes_moved".into(),
        Value::Map(
            computed_bytes
                .into_iter()
                .map(|(k, v)| (k.to_string(), Value::U64(v)))
                .collect(),
        ),
    ));
    Ok((stages - whole).abs() / whole)
}

/// `--trace 1`: the live traced window plus the replay.
pub fn run(workload: Workload, seed: u64, seconds: f64, fixture: &Path) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let mut metrics = Metrics::default();
    let mut record = Vec::new();
    let (attempted, failed, int8_ok) = live(
        workload,
        seed,
        seconds,
        fixture,
        &mut tracer,
        &mut metrics,
        &mut record,
    )?;
    cluster_probe(&probe_line(workload, seed), fixture, &mut metrics)?;

    ThreadBudget::set(serving::thread_budget());
    let mut samples = Samples::default();
    let stage_error = replay(
        workload,
        seed,
        fixture,
        &mut tracer,
        &mut samples,
        &mut record,
    )?;
    metrics.put("trace.stage_sum_error", stage_error);

    let mut counts = Vec::new();
    for (name, _) in crate::declared("per_layer") {
        if !metrics.contains(name) {
            // A replayed layer: the median of its samples.
            metrics.put(name, samples.median(name));
        }
        counts.push((name.to_string(), Value::U64(samples.count(name) as u64)));
    }
    record.push(("replay_samples".into(), Value::Map(counts)));
    record.push((
        "stage_sum_tolerance".into(),
        Value::F64(STAGE_SUM_TOLERANCE),
    ));
    record.push((
        "moves".into(),
        Value::Map(
            MOVES
                .iter()
                .map(|(name, moves)| (name.to_string(), Value::Str(moves.to_string())))
                .collect(),
        ),
    ));
    let spans = crate::runs_dir().join(format!("{}-seed{seed}-spans.jsonl", workload.name()));
    tracer.write(&spans)?;
    record.push(("spans".into(), Value::Str(spans.display().to_string())));
    let stages_ok = stage_error <= STAGE_SUM_TOLERANCE;
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && int8_ok && stages_ok,
        metrics,
        record,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        let mut declared: Vec<&str> = crate::declared("per_layer").iter().map(|m| m.0).collect();
        let mut moves: Vec<&str> = super::MOVES.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        moves.sort_unstable();
        assert_eq!(declared, moves);
    }
}
