//! The closed-loop client: each client thread sends its next request only
//! after the previous reply arrived, as every caller of `nrpm serve` does
//! (analysis scripts, `nrpm query`, the cluster router, the ingest engine).

use crate::gen::{self, Request, Workload};
use nrpm_serve::client::{is_ok, Client};
use serde::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// What one reply said, after checking it against the request.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// The reply was `ok`, carried one `ok` outcome per kernel sent, and
    /// every outcome's growth string parsed.
    pub ok: bool,
    /// Lead-exponent distance from the truth, per kernel answered.
    pub distances: Vec<f64>,
    /// Modeller choice per kernel answered.
    pub choices: Vec<String>,
    /// Why the request failed, when it did.
    pub error: Option<String>,
}

fn outcome_entry(
    outcome: Option<&Value>,
    kernel: &gen::Kernel,
    out: &mut Checked,
) -> Result<(), String> {
    let outcome = outcome.ok_or("reply has no outcome")?;
    let growth = outcome
        .get("growth")
        .and_then(Value::as_str)
        .ok_or("outcome has no growth")?;
    let distance = gen::distance(growth, &kernel.truth)
        .ok_or_else(|| format!("unparseable growth {growth}"))?;
    out.distances.push(distance);
    out.choices.push(
        outcome
            .get("choice")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
    );
    Ok(())
}

/// Checks a reply: every reply must be `ok`, and a batch must return as
/// many `ok` kernels as it sent.
pub fn check(request: &Request, reply: &Value) -> Checked {
    let mut out = Checked::default();
    let result = (|| {
        if !is_ok(reply) {
            return Err(format!("reply not ok: {reply:?}"));
        }
        if request.kernels.len() == 1 && reply.get("results").is_none() {
            return outcome_entry(reply.get("outcome"), &request.kernels[0], &mut out);
        }
        let results = reply
            .get("results")
            .and_then(Value::as_seq)
            .ok_or("batch reply has no results")?;
        if results.len() != request.kernels.len() {
            return Err(format!(
                "batch sent {} kernels, got {} back",
                request.kernels.len(),
                results.len()
            ));
        }
        for (entry, kernel) in results.iter().zip(&request.kernels) {
            if !is_ok(entry) {
                return Err(format!("batch entry not ok: {entry:?}"));
            }
            outcome_entry(entry.get("outcome"), kernel, &mut out)?;
        }
        Ok(())
    })();
    match result {
        Ok(()) => out.ok = true,
        Err(e) => out.error = Some(e),
    }
    out
}

/// A client's persistent connection.
pub struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))
}

impl Conn {
    /// Connects and makes one `health` round trip, so the server has
    /// accepted the connection — and its accept poll is paid — before any
    /// timed request.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let mut client = connect(addr)?;
        let reply = client.health().map_err(|e| format!("health: {e}"))?;
        if !is_ok(&reply) {
            return Err(format!("health reply not ok: {reply:?}"));
        }
        Ok(Conn {
            addr,
            client: Some(client),
        })
    }

    /// Sends one line and returns the parsed reply; a transport error
    /// drops the connection so the next request reconnects.
    pub fn roundtrip(&mut self, line: &str) -> Result<Value, String> {
        let client = match &mut self.client {
            Some(client) => client,
            None => self.client.insert(connect(self.addr)?),
        };
        let reply = client.roundtrip_line(line);
        if reply.is_err() {
            self.client = None;
        }
        reply.map_err(|e| format!("transport: {e}"))
    }
}

/// One request on a connection of its own, as one `nrpm query` call makes.
pub fn fresh_roundtrip(addr: SocketAddr, line: &str) -> Result<Value, String> {
    connect(addr)?
        .roundtrip_line(line)
        .map_err(|e| format!("transport: {e}"))
}

/// One timed request of the window.
#[derive(Debug, Clone)]
pub struct Sample {
    pub request: usize,
    /// Offsets from the window start.
    pub start: Duration,
    pub end: Duration,
    pub kernels: usize,
    pub checked: Checked,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The measured window: every request sent, and its length up to the last
/// reply (a request in flight when time runs out is completed).
pub struct Window {
    pub samples: Vec<Sample>,
    pub seconds: f64,
}

/// Requests generated per client before a window. Client `c` cycles
/// through requests `first + c`, `first + c + clients`, … of its pool, so
/// `query` sends each kernel once while a client stays within its pool
/// (~6000 requests per client in an 18 s window on 2 vCPUs); `bulk`
/// batches bypass the result cache, so its smaller pool repeats without
/// changing the work.
fn pool_size(workload: Workload) -> usize {
    match workload {
        Workload::Query => 16_384,
        Workload::Bulk => 256,
    }
}

/// Runs the closed loop for `seconds`. Every request is generated before
/// the window, and every connection is open and accepted: during the
/// window the clients only send, receive and check, so request generation
/// does not compete with the server for the 2 vCPUs (in paired runs of
/// 64-kernel batches it cost `bulk` 1-22 % of its throughput).
pub fn closed_loop(
    workload: Workload,
    seed: u64,
    addr: SocketAddr,
    first: usize,
    seconds: f64,
) -> Result<Window, String> {
    let clients = crate::serving::CLIENTS;
    let pools: Vec<Vec<(usize, Request)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    (0..pool_size(workload))
                        .map(|k| {
                            let r = first + c + k * clients;
                            (r, gen::request(workload, seed, r))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let conns = (0..clients)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(seconds);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&pools)
            .map(|(mut conn, pool)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for (r, request) in pool.iter().cycle() {
                        if Instant::now() >= stop {
                            break;
                        }
                        let start = t0.elapsed();
                        let reply = conn.roundtrip(&request.line);
                        let end = t0.elapsed();
                        let checked = match reply {
                            Ok(reply) => check(request, &reply),
                            Err(e) => Checked {
                                error: Some(e),
                                ..Checked::default()
                            },
                        };
                        samples.push(Sample {
                            request: *r,
                            start,
                            end,
                            kernels: request.kernels.len(),
                            checked,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = samples
        .iter()
        .map(|s| s.end)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    Ok(Window { samples, seconds })
}

/// Sends a fixed list of requests (untimed) over the workload's clients
/// on persistent connections, returning each checked reply in list order.
pub fn send_all(addr: SocketAddr, requests: &[Request]) -> Vec<Checked> {
    let clients = crate::serving::CLIENTS;
    let mut results: Vec<Option<Checked>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn { addr, client: None };
                    (c..requests.len())
                        .step_by(clients)
                        .map(|i| {
                            let checked = match conn.roundtrip(&requests[i].line) {
                                Ok(reply) => check(&requests[i], &reply),
                                Err(e) => Checked {
                                    error: Some(e),
                                    ..Checked::default()
                                },
                            };
                            (i, checked)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, checked) in handle.join().expect("client thread panicked") {
                results[i] = Some(checked);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every request answered"))
        .collect()
}

/// Nearest-rank percentile of `values` (`q` in 0..=1), or `None` if empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Latency percentiles and throughput of a window.
#[derive(Debug, Clone)]
pub struct Figures {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub kernels_per_s: f64,
    /// Requests the percentiles rest on.
    pub requests: usize,
}

/// The figures of a run, over every request of the window: latency of
/// each request sent, and kernels answered `ok` per second of the window.
pub fn figures(window: &Window) -> Option<Figures> {
    let latencies: Vec<f64> = window.samples.iter().map(Sample::latency_ms).collect();
    let kernels: usize = window
        .samples
        .iter()
        .filter(|s| s.checked.ok)
        .map(|s| s.kernels)
        .sum();
    Some(Figures {
        p50_ms: median(&latencies)?,
        p99_ms: percentile(&latencies, 0.99)?,
        kernels_per_s: kernels as f64 / window.seconds,
        requests: latencies.len(),
    })
}
