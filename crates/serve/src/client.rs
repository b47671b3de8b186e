//! Blocking clients for the serving protocol.
//!
//! [`Client`] is the bare one-connection client used by the `nrpm query`
//! subcommand, the integration tests, and the throughput benchmark.
//! [`RetryingClient`] wraps it with the overload contract a production
//! caller needs: `overloaded`/`timeout` responses and transport failures
//! are retried with exponential backoff and decorrelated jitter, every
//! other structured response is terminal, and a [`CircuitBreaker`] stops
//! the client from hammering a server that is actively shedding.

use crate::protocol::Request;
use crate::util::{decorrelated_jitter, stream_rng};
use nrpm_extrap::MeasurementSet;
use rand::rngs::StdRng;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking connection to a running server.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn io_other(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Client {
    /// Connects to `addr`, applying `timeout` to the connect and to every
    /// subsequent read.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one raw line and reads one response line, parsed as JSON.
    pub fn roundtrip_line(&mut self, line: &str) -> std::io::Result<Value> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(response.trim())
            .map_err(|e| io_other(format!("unparseable response: {e}")))
    }

    /// Sends a typed request and returns the parsed response object.
    pub fn roundtrip(&mut self, request: &Request) -> std::io::Result<Value> {
        self.roundtrip_line(&request.to_line())
    }

    /// Probes liveness.
    pub fn health(&mut self) -> std::io::Result<Value> {
        self.roundtrip(&Request::Health)
    }

    /// Fetches the `stats` body (the `stats` field of the response).
    pub fn stats(&mut self) -> std::io::Result<Value> {
        let response = self.roundtrip(&Request::Stats)?;
        response
            .get("stats")
            .cloned()
            .ok_or_else(|| io_other("stats response lacks a `stats` field".into()))
    }

    /// Requests a graceful drain.
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.roundtrip(&Request::Shutdown)
    }

    /// Models one kernel.
    pub fn model(
        &mut self,
        set: MeasurementSet,
        at: Option<Vec<f64>>,
        timeout_ms: Option<u64>,
    ) -> std::io::Result<Value> {
        self.model_as(set, at, timeout_ms, None)
    }

    /// Models one kernel tagged with a tenant/workload key, which the
    /// server's adaptation engine uses for per-key noise accumulation.
    pub fn model_as(
        &mut self,
        set: MeasurementSet,
        at: Option<Vec<f64>>,
        timeout_ms: Option<u64>,
        tenant: Option<String>,
    ) -> std::io::Result<Value> {
        self.roundtrip(&Request::Model {
            set,
            at,
            timeout_ms,
            id: None,
            attempt: None,
            tenant,
        })
    }

    /// Models several kernels in one coalesced request.
    pub fn batch(
        &mut self,
        sets: Vec<MeasurementSet>,
        timeout_ms: Option<u64>,
    ) -> std::io::Result<Value> {
        self.roundtrip(&Request::Batch {
            sets,
            timeout_ms,
            id: None,
            attempt: None,
        })
    }
}

/// `true` when a parsed response has `"status":"ok"`.
pub fn is_ok(response: &Value) -> bool {
    response.get("status").and_then(Value::as_str) == Some("ok")
}

/// `true` when a structured response should be retried: the server shed the
/// request (`overloaded`) or it missed its deadline (`timeout`). Everything
/// else — including modeling errors — is an answer, not a failure.
pub fn is_retryable(response: &Value) -> bool {
    matches!(
        response.get("kind").and_then(Value::as_str),
        Some("overloaded") | Some("timeout")
    )
}

/// Retry/backoff/breaker tuning for [`RetryingClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total tries per request, first attempt included.
    pub max_attempts: u32,
    /// Floor of the backoff sleep (and the first sleep's upper bound).
    pub base_backoff: Duration,
    /// Ceiling of any single backoff sleep.
    pub max_backoff: Duration,
    /// Consecutive retryable failures that trip the breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses traffic before allowing one
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// Seed for the jitter RNG — runs are reproducible per seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(1),
            seed: 0x6e72_706d,
        }
    }
}

/// Why a [`RetryingClient`] call gave up.
#[derive(Debug)]
pub enum RetryError {
    /// The circuit breaker is open: the server was shedding or down on the
    /// last `breaker_threshold` tries, so no request was sent at all.
    CircuitOpen,
    /// Every attempt failed retryably; holds the last failure description.
    Exhausted(String),
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::CircuitOpen => write!(f, "circuit breaker open; request not sent"),
            RetryError::Exhausted(last) => write!(f, "retries exhausted; last failure: {last}"),
        }
    }
}

impl std::error::Error for RetryError {}

/// Observable breaker state (see [`CircuitBreaker::state_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; failures are counted.
    Closed,
    /// Traffic refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed; exactly the next request goes through as a probe.
    HalfOpen,
}

/// A consecutive-failure circuit breaker.
///
/// `threshold` retryable failures in a row trip it open; for `cooldown` it
/// refuses traffic, then goes half-open and lets one probe through. A
/// successful probe closes it, a failed probe re-opens it for another
/// cooldown. All transitions take the current time as an argument
/// (`*_at(now)`), so tests drive the clock deterministically.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures and
    /// cooling down for `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            consecutive_failures: 0,
            opened_at: None,
        }
    }

    /// The state as of `now`.
    pub fn state_at(&self, now: Instant) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(opened) if now.saturating_duration_since(opened) < self.cooldown => {
                BreakerState::Open
            }
            Some(_) => BreakerState::HalfOpen,
        }
    }

    /// Whether a request may be sent as of `now` (closed, or half-open
    /// probe).
    pub fn allow_at(&self, now: Instant) -> bool {
        self.state_at(now) != BreakerState::Open
    }

    /// Records a terminal (non-retryable) response: the server answered, so
    /// the breaker closes and the failure streak resets.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// Records a retryable failure at `now`. From half-open this re-opens
    /// immediately (the probe failed); from closed it opens once the streak
    /// reaches the threshold.
    pub fn record_failure_at(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.opened_at.is_some() || self.consecutive_failures >= self.threshold {
            self.opened_at = Some(now);
        }
    }
}

/// A client that survives an overloaded or flaky server: retryable failures
/// back off with decorrelated jitter and try again (reconnecting after
/// transport errors), terminal responses return immediately, and a
/// [`CircuitBreaker`] refuses traffic while the server is known bad.
pub struct RetryingClient {
    addr: SocketAddr,
    timeout: Duration,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    rng: StdRng,
    conn: Option<Client>,
    retries_used: u64,
    stale_reconnects: u64,
}

/// `true` for transport errors that mean the *pooled* connection died
/// while idle — the peer restarted or closed it between requests. The
/// request very likely never reached a server, so resending it on a fresh
/// connection is safe (requests are idempotent) and should not burn a
/// retry attempt or a backoff sleep. Timeouts are excluded deliberately:
/// a timed-out request may still be executing.
fn is_stale_conn_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    )
}

impl RetryingClient {
    /// A retrying client for `addr`; `timeout` bounds connects and reads,
    /// `policy` tunes retries and the breaker. No connection is made until
    /// the first request.
    pub fn new(addr: SocketAddr, timeout: Duration, policy: RetryPolicy) -> RetryingClient {
        let breaker = CircuitBreaker::new(policy.breaker_threshold, policy.breaker_cooldown);
        let rng = stream_rng(policy.seed, 0);
        RetryingClient {
            addr,
            timeout,
            policy,
            breaker,
            rng,
            conn: None,
            retries_used: 0,
            stale_reconnects: 0,
        }
    }

    /// Total retry attempts spent across all requests so far.
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    /// How often a pooled connection turned out dead (peer restarted) and
    /// was replaced in-place without burning a retry attempt.
    pub fn stale_reconnects(&self) -> u64 {
        self.stale_reconnects
    }

    /// Models one kernel, retrying sheds/timeouts per the policy.
    pub fn model(
        &mut self,
        set: MeasurementSet,
        at: Option<Vec<f64>>,
        timeout_ms: Option<u64>,
    ) -> Result<Value, RetryError> {
        self.call(&|attempt| Request::Model {
            set: set.clone(),
            at: at.clone(),
            timeout_ms,
            id: None,
            attempt: Some(attempt),
            tenant: None,
        })
    }

    /// Models several kernels in one request, retrying per the policy.
    pub fn batch(
        &mut self,
        sets: Vec<MeasurementSet>,
        timeout_ms: Option<u64>,
    ) -> Result<Value, RetryError> {
        self.call(&|attempt| Request::Batch {
            sets: sets.clone(),
            timeout_ms,
            id: None,
            attempt: Some(attempt),
        })
    }

    /// Sends one raw line with the full retry/breaker treatment (the
    /// `attempt` ordinal is not stamped into raw lines).
    pub fn roundtrip_line(&mut self, line: &str) -> Result<Value, RetryError> {
        let line = line.to_string();
        self.call_raw(&move |_attempt| line.clone())
    }

    fn call(&mut self, request_for: &dyn Fn(u64) -> Request) -> Result<Value, RetryError> {
        self.call_raw(&|attempt| request_for(attempt).to_line())
    }

    fn call_raw(&mut self, line_for: &dyn Fn(u64) -> String) -> Result<Value, RetryError> {
        let mut previous_sleep = self.policy.base_backoff;
        let mut last_failure = String::from("no attempt made");
        for attempt in 0..u64::from(self.policy.max_attempts.max(1)) {
            if attempt > 0 {
                let sleep = self.next_backoff(previous_sleep);
                previous_sleep = sleep;
                std::thread::sleep(sleep);
                self.retries_used += 1;
            }
            if !self.breaker.allow_at(Instant::now()) {
                return Err(RetryError::CircuitOpen);
            }
            match self.try_once(&line_for(attempt)) {
                Ok(response) => {
                    if !is_retryable(&response) {
                        // An answer — success or a terminal error — proves
                        // the server is functioning: close the breaker.
                        self.breaker.record_success();
                        return Ok(response);
                    }
                    last_failure = format!(
                        "server answered `{}`",
                        response
                            .get("kind")
                            .and_then(Value::as_str)
                            .unwrap_or("unknown")
                    );
                    self.breaker.record_failure_at(Instant::now());
                }
                Err(e) => {
                    last_failure = format!("transport failure: {e}");
                    // The connection is suspect (reset, garbage, EOF):
                    // drop it and reconnect on the next attempt.
                    self.conn = None;
                    self.breaker.record_failure_at(Instant::now());
                }
            }
        }
        Err(RetryError::Exhausted(last_failure))
    }

    fn try_once(&mut self, line: &str) -> std::io::Result<Value> {
        if let Some(conn) = self.conn.as_mut() {
            match conn.roundtrip_line(line) {
                Err(e) if is_stale_conn_error(&e) => {
                    // The pooled connection was dead (the shard restarted
                    // under us): evict it and resend once on a fresh
                    // connection instead of surfacing a retryable failure.
                    // Only the pooled attempt gets this grace — a failure
                    // on the fresh connection below is a real one.
                    self.conn = None;
                    self.stale_reconnects += 1;
                }
                other => return other,
            }
        }
        let mut fresh = Client::connect(self.addr, self.timeout)?;
        let response = fresh.roundtrip_line(line);
        if response.is_ok() {
            self.conn = Some(fresh);
        }
        response
    }

    /// Decorrelated-jitter backoff; see [`crate::util::decorrelated_jitter`].
    fn next_backoff(&mut self, previous: Duration) -> Duration {
        decorrelated_jitter(
            &mut self.rng,
            previous,
            self.policy.base_backoff,
            self.policy.max_backoff,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(500);

    #[test]
    fn breaker_walks_closed_open_halfopen_closed_deterministically() {
        let mut breaker = CircuitBreaker::new(3, COOLDOWN);
        let t0 = Instant::now();

        // Closed: failures below the threshold change nothing.
        assert_eq!(breaker.state_at(t0), BreakerState::Closed);
        breaker.record_failure_at(t0);
        breaker.record_failure_at(t0);
        assert_eq!(breaker.state_at(t0), BreakerState::Closed);
        assert!(breaker.allow_at(t0));

        // Third consecutive failure trips it open.
        breaker.record_failure_at(t0);
        assert_eq!(breaker.state_at(t0), BreakerState::Open);
        assert!(!breaker.allow_at(t0));
        assert!(!breaker.allow_at(t0 + COOLDOWN / 2));

        // Cooldown elapsed: half-open, one probe allowed.
        let probe_time = t0 + COOLDOWN;
        assert_eq!(breaker.state_at(probe_time), BreakerState::HalfOpen);
        assert!(breaker.allow_at(probe_time));

        // Successful probe closes it and resets the streak.
        breaker.record_success();
        assert_eq!(breaker.state_at(probe_time), BreakerState::Closed);
        breaker.record_failure_at(probe_time);
        assert_eq!(breaker.state_at(probe_time), BreakerState::Closed);
    }

    #[test]
    fn failed_halfopen_probe_reopens_for_a_full_cooldown() {
        let mut breaker = CircuitBreaker::new(1, COOLDOWN);
        let t0 = Instant::now();
        breaker.record_failure_at(t0);
        assert_eq!(breaker.state_at(t0), BreakerState::Open);

        // Probe at half-open fails: open again, clock restarted.
        let probe_time = t0 + COOLDOWN;
        assert_eq!(breaker.state_at(probe_time), BreakerState::HalfOpen);
        breaker.record_failure_at(probe_time);
        assert_eq!(breaker.state_at(probe_time), BreakerState::Open);
        assert!(!breaker.allow_at(probe_time + COOLDOWN / 2));
        assert_eq!(
            breaker.state_at(probe_time + COOLDOWN),
            BreakerState::HalfOpen
        );
    }

    #[test]
    fn success_resets_the_consecutive_failure_streak() {
        let mut breaker = CircuitBreaker::new(2, COOLDOWN);
        let t0 = Instant::now();
        breaker.record_failure_at(t0);
        breaker.record_success();
        breaker.record_failure_at(t0);
        // Two failures total but never two in a row: still closed.
        assert_eq!(breaker.state_at(t0), BreakerState::Closed);
    }

    #[test]
    fn decorrelated_jitter_stays_within_bounds_and_reproduces_per_seed() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            ..Default::default()
        };
        let mut a = RetryingClient::new(addr, Duration::from_secs(1), policy.clone());
        let mut b = RetryingClient::new(addr, Duration::from_secs(1), policy.clone());
        let mut previous = policy.base_backoff;
        for _ in 0..64 {
            let sleep_a = a.next_backoff(previous);
            let sleep_b = b.next_backoff(previous);
            assert_eq!(sleep_a, sleep_b, "same seed must reproduce");
            assert!(sleep_a >= policy.base_backoff, "below base: {sleep_a:?}");
            assert!(sleep_a <= policy.max_backoff, "above cap: {sleep_a:?}");
            previous = sleep_a;
        }
    }

    #[test]
    fn stale_pooled_connection_reconnects_without_burning_an_attempt() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;

        // A single-connection server that answers one line, then closes
        // everything — simulating a shard that restarts between requests.
        fn serve_one(listener: TcpListener) -> std::thread::JoinHandle<()> {
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                writer.write_all(b"{\"status\":\"ok\"}\n").unwrap();
                // Dropping both ends closes the connection AND the
                // listening socket: the "old" server is gone.
            })
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let first = serve_one(listener);

        // max_attempts = 1: there is NO retry budget, so the second
        // request below can only succeed through the stale-reconnect path.
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let mut client = RetryingClient::new(addr, Duration::from_secs(5), policy);
        let response = client.roundtrip_line("{\"cmd\":\"health\"}").unwrap();
        assert!(is_ok(&response));
        first.join().unwrap();

        // Restart the server on the SAME address — the pooled connection
        // is now a dead socket.
        let listener = TcpListener::bind(addr).expect("rebind the same port");
        let second = serve_one(listener);
        let response = client.roundtrip_line("{\"cmd\":\"health\"}").unwrap();
        assert!(is_ok(&response));
        assert_eq!(client.stale_reconnects(), 1);
        assert_eq!(
            client.retries_used(),
            0,
            "the reconnect must not consume the retry budget"
        );
        second.join().unwrap();
    }

    #[test]
    fn retryability_follows_the_error_kind() {
        let overloaded: Value =
            serde_json::from_str(r#"{"status":"error","kind":"overloaded"}"#).unwrap();
        let timeout: Value =
            serde_json::from_str(r#"{"status":"error","kind":"timeout"}"#).unwrap();
        let fatal: Value = serde_json::from_str(r#"{"status":"error","kind":"fatal"}"#).unwrap();
        let ok: Value = serde_json::from_str(r#"{"status":"ok"}"#).unwrap();
        assert!(is_retryable(&overloaded));
        assert!(is_retryable(&timeout));
        assert!(!is_retryable(&fatal));
        assert!(!is_retryable(&ok));
    }
}
