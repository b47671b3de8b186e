//! A network chaos proxy for overload and fault-injection testing.
//!
//! [`ChaosProxy`] sits between a client and a server on a local TCP port
//! and forwards bytes in both directions, injecting socket-level faults —
//! added latency, fragmented (partial) writes, truncated frames followed
//! by a close, garbage bytes spliced into the stream, and abrupt
//! connection drops. It mirrors `nrpm-synth`'s `FaultInjector` philosophy
//! one layer down: where the synthesizer corrupts *measurements* to test
//! the modeler, the proxy corrupts *the wire* to test the serving stack.
//!
//! Faults can be toggled at runtime ([`ChaosProxy::set_faults_enabled`]),
//! which is how the soak tests verify that a retrying client converges
//! back to clean successes once the network heals. Injected faults are
//! counted per kind ([`ChaosProxy::fault_counts`]).
//!
//! Garbage is injected **without** a trailing newline, so it fuses with
//! the next real line instead of adding a frame: the victim sees one
//! corrupted request (or one unparseable response) and the line-per-reply
//! protocol stays in sync — a corrupted stream must degrade requests, not
//! silently misattribute answers.

use crate::line;
use crate::util::stream_rng;
use rand::{rngs::StdRng, Rng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Fault mix injected by the proxy. Probabilities are evaluated per
/// forwarded chunk, independently per direction; the first fault drawn
/// (in the order reset, truncate, garbage, partial) applies, with latency
/// drawn separately on top.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Added one-way delay when the latency fault fires.
    pub latency: Duration,
    /// Probability of delaying a chunk by [`latency`](Self::latency).
    pub latency_prob: f64,
    /// Probability of fragmenting a chunk into two delayed writes.
    pub partial_write_prob: f64,
    /// Probability of forwarding only a prefix of a chunk and closing the
    /// connection (a truncated frame).
    pub truncate_prob: f64,
    /// Probability of splicing garbage bytes in front of a chunk.
    pub garbage_prob: f64,
    /// Probability of dropping the connection outright.
    pub reset_prob: f64,
    /// Extra one-way delay applied **only** to the server→client
    /// direction when the asymmetric fault fires — a link whose return
    /// path is congested while requests flow freely, the split-brain
    /// precursor replication tests need.
    pub asymmetric_delay: Duration,
    /// Probability of delaying a server→client chunk by
    /// [`asymmetric_delay`](Self::asymmetric_delay).
    pub asymmetric_delay_prob: f64,
    /// Seed for the per-connection fault RNGs.
    pub seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            latency: Duration::from_millis(5),
            latency_prob: 0.2,
            partial_write_prob: 0.2,
            truncate_prob: 0.1,
            garbage_prob: 0.15,
            reset_prob: 0.1,
            asymmetric_delay: Duration::from_millis(20),
            asymmetric_delay_prob: 0.0,
            seed: 0xc4a05,
        }
    }
}

/// How often blocked proxy reads wake up to check the stop flag.
const POLL: Duration = Duration::from_millis(20);

/// Counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Chunks delayed by the latency fault.
    pub delayed: u64,
    /// Chunks fragmented into partial writes.
    pub partial_writes: u64,
    /// Frames truncated (prefix forwarded, then closed).
    pub truncated: u64,
    /// Garbage splices.
    pub garbage: u64,
    /// Connections dropped abruptly.
    pub resets: u64,
    /// Chunks swallowed while the proxy was partitioned.
    pub blackholed: u64,
    /// Server→client chunks delayed by the asymmetric fault.
    pub asym_delayed: u64,
}

impl FaultCounts {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.delayed
            + self.partial_writes
            + self.truncated
            + self.garbage
            + self.resets
            + self.blackholed
            + self.asym_delayed
    }
}

struct ProxyState {
    opts: ChaosOptions,
    upstream: SocketAddr,
    stop: AtomicBool,
    faults_enabled: AtomicBool,
    partitioned: AtomicBool,
    sessions: AtomicU64,
    delayed: AtomicU64,
    partial_writes: AtomicU64,
    truncated: AtomicU64,
    garbage: AtomicU64,
    resets: AtomicU64,
    blackholed: AtomicU64,
    asym_delayed: AtomicU64,
}

impl ProxyState {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn faults_on(&self) -> bool {
        self.faults_enabled.load(Ordering::SeqCst)
    }

    fn partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }
}

/// A running chaos proxy; see the [module docs](self). Stops (and joins
/// its threads) on [`stop`](Self::stop) or drop.
pub struct ChaosProxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and proxies every connection to
    /// `upstream` with `opts`'s fault mix (enabled from the start).
    pub fn start(upstream: SocketAddr, opts: ChaosOptions) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            opts,
            upstream,
            stop: AtomicBool::new(false),
            faults_enabled: AtomicBool::new(true),
            partitioned: AtomicBool::new(false),
            sessions: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            partial_writes: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            garbage: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            blackholed: AtomicU64::new(0),
            asym_delayed: AtomicU64::new(0),
        });
        let acceptor = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("nrpm-chaos-acceptor".into())
                .spawn(move || {
                    let session_state = Arc::clone(&state);
                    line::run_acceptor(
                        listener,
                        "nrpm-chaos-session",
                        usize::MAX,
                        || state.stopping(),
                        || {},
                        move |client| run_session(client, &session_state),
                    );
                })
                .expect("spawn chaos acceptor")
        };
        Ok(ChaosProxy {
            addr,
            state,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listening address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Turns fault injection on/off at runtime; with faults off the proxy
    /// forwards bytes untouched.
    pub fn set_faults_enabled(&self, enabled: bool) {
        self.state.faults_enabled.store(enabled, Ordering::SeqCst);
    }

    /// Partitions (or heals) the link at runtime. While partitioned the
    /// proxy blackholes **both** directions: bytes are read and silently
    /// dropped, connections stay established, nothing is forwarded and no
    /// reset is sent — exactly what a network split looks like to an
    /// endpoint (requests vanish, reads stall into timeouts), unlike the
    /// probabilistic reset/truncate faults which at least close the
    /// socket. Independent of [`set_faults_enabled`](Self::set_faults_enabled).
    pub fn set_partitioned(&self, on: bool) {
        self.state.partitioned.store(on, Ordering::SeqCst);
    }

    /// Snapshot of the per-kind fault counters.
    pub fn fault_counts(&self) -> FaultCounts {
        FaultCounts {
            delayed: self.state.delayed.load(Ordering::Relaxed),
            partial_writes: self.state.partial_writes.load(Ordering::Relaxed),
            truncated: self.state.truncated.load(Ordering::Relaxed),
            garbage: self.state.garbage.load(Ordering::Relaxed),
            resets: self.state.resets.load(Ordering::Relaxed),
            blackholed: self.state.blackholed.load(Ordering::Relaxed),
            asym_delayed: self.state.asym_delayed.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, tears down live sessions, and joins every proxy
    /// thread. Idempotent.
    pub fn stop(&mut self) {
        line::stop(&self.state.stop, self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One proxied connection: a forward pump (client → server) run inline and
/// a reverse pump (server → client) on a helper thread, joined before the
/// session ends.
fn run_session(client: TcpStream, state: &Arc<ProxyState>) {
    let session = state.sessions.fetch_add(1, Ordering::Relaxed);
    let Ok(upstream) = TcpStream::connect_timeout(&state.upstream, Duration::from_secs(5)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let (Ok(client_rev), Ok(upstream_rev)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let reverse = {
        let state = Arc::clone(state);
        thread::Builder::new()
            .name("nrpm-chaos-pump".into())
            .spawn(move || pump(upstream_rev, client_rev, &state, session * 2 + 1))
            .expect("spawn chaos pump")
    };
    pump(client, upstream, state, session * 2);
    let _ = reverse.join();
}

/// Forwards bytes `from` → `to`, injecting faults per chunk. Exits on EOF,
/// socket error, proxy stop, or a terminal fault (truncate/reset) — and
/// closes both sockets so the sibling pump exits too.
fn pump(mut from: TcpStream, mut to: TcpStream, state: &Arc<ProxyState>, stream_id: u64) {
    let mut rng = stream_rng(state.opts.seed, stream_id);
    from.set_read_timeout(Some(POLL)).ok();
    let mut chunk = [0u8; 4096];
    loop {
        if state.stopping() {
            break;
        }
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if state.partitioned() {
                    // Blackhole: the bytes vanish, the connection stays
                    // up, no error reaches either side — the peer only
                    // notices through its own read timeout.
                    state.blackholed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if !forward_chunk(&chunk[..n], &mut to, state, &mut rng, stream_id & 1 == 1) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Applies the fault mix to one chunk (`reverse` marks the server→client
/// direction). Returns `false` when the connection must close
/// (reset/truncate fault or a write failure).
fn forward_chunk(
    chunk: &[u8],
    to: &mut TcpStream,
    state: &Arc<ProxyState>,
    rng: &mut StdRng,
    reverse: bool,
) -> bool {
    let opts = &state.opts;
    if !state.faults_on() {
        return to.write_all(chunk).is_ok();
    }
    if opts.latency_prob > 0.0 && rng.gen_bool(opts.latency_prob) {
        state.delayed.fetch_add(1, Ordering::Relaxed);
        thread::sleep(opts.latency);
    }
    if reverse && opts.asymmetric_delay_prob > 0.0 && rng.gen_bool(opts.asymmetric_delay_prob) {
        state.asym_delayed.fetch_add(1, Ordering::Relaxed);
        thread::sleep(opts.asymmetric_delay);
    }
    if opts.reset_prob > 0.0 && rng.gen_bool(opts.reset_prob) {
        state.resets.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    if opts.truncate_prob > 0.0 && rng.gen_bool(opts.truncate_prob) {
        state.truncated.fetch_add(1, Ordering::Relaxed);
        let _ = to.write_all(&chunk[..chunk.len() / 2]);
        return false;
    }
    if opts.garbage_prob > 0.0 && rng.gen_bool(opts.garbage_prob) {
        state.garbage.fetch_add(1, Ordering::Relaxed);
        // No newline in the splice: the garbage fuses with this chunk's
        // first line instead of injecting an extra (misattributable) frame.
        let len = rng.gen_range(4usize..=24);
        let junk: Vec<u8> = (0..len)
            .map(|_| loop {
                let b = rng.gen_range(1u8..=255);
                if b != b'\n' && b != b'\r' {
                    break b;
                }
            })
            .collect();
        if to.write_all(&junk).is_err() {
            return false;
        }
        return to.write_all(chunk).is_ok();
    }
    if chunk.len() >= 2 && opts.partial_write_prob > 0.0 && rng.gen_bool(opts.partial_write_prob) {
        state.partial_writes.fetch_add(1, Ordering::Relaxed);
        let split = rng.gen_range(1..chunk.len());
        if to.write_all(&chunk[..split]).is_err() {
            return false;
        }
        let _ = to.flush();
        thread::sleep(Duration::from_millis(2));
        return to.write_all(&chunk[split..]).is_ok();
    }
    to.write_all(chunk).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial line-echo server for proxy tests (no modeling stack).
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            // One connection is all the tests need.
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                while let Ok(n) = reader.read_line(&mut line) {
                    if n == 0 {
                        break;
                    }
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                    line.clear();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn clean_passthrough_with_faults_disabled() {
        let (addr, server) = echo_server();
        let mut proxy = ChaosProxy::start(addr, ChaosOptions::default()).unwrap();
        proxy.set_faults_enabled(false);

        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..50 {
            let line = format!("ping {i}\n");
            stream.write_all(line.as_bytes()).unwrap();
            let mut echoed = String::new();
            reader.read_line(&mut echoed).unwrap();
            assert_eq!(echoed, line);
        }
        assert_eq!(proxy.fault_counts(), FaultCounts::default());

        drop(reader);
        drop(stream);
        proxy.stop();
        let _ = server.join();
    }

    #[test]
    fn partition_blackholes_both_directions_then_heals() {
        let (addr, server) = echo_server();
        let mut proxy = ChaosProxy::start(addr, ChaosOptions::default()).unwrap();
        proxy.set_faults_enabled(false);

        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        stream.write_all(b"before\n").unwrap();
        let mut echoed = String::new();
        reader.read_line(&mut echoed).unwrap();
        assert_eq!(echoed, "before\n");

        // Partitioned: the write succeeds locally, the reply never comes,
        // and the connection is NOT closed — the read times out instead.
        proxy.set_partitioned(true);
        stream.write_all(b"lost\n").unwrap();
        echoed.clear();
        let err = reader.read_line(&mut echoed).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a read timeout, got {err:?}"
        );
        assert!(proxy.fault_counts().blackholed > 0);

        // Healed: the blackholed line is gone for good (a partition loses
        // in-flight bytes), but new traffic flows again on the same
        // connection.
        proxy.set_partitioned(false);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"after\n").unwrap();
        echoed.clear();
        reader.read_line(&mut echoed).unwrap();
        assert_eq!(echoed, "after\n");

        drop(reader);
        drop(stream);
        proxy.stop();
        let _ = server.join();
    }

    #[test]
    fn asymmetric_delay_hits_only_the_reverse_direction() {
        let (addr, server) = echo_server();
        let mut proxy = ChaosProxy::start(
            addr,
            ChaosOptions {
                latency_prob: 0.0,
                partial_write_prob: 0.0,
                truncate_prob: 0.0,
                garbage_prob: 0.0,
                reset_prob: 0.0,
                asymmetric_delay: Duration::from_millis(5),
                asymmetric_delay_prob: 1.0,
                seed: 11,
                ..ChaosOptions::default()
            },
        )
        .unwrap();

        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..20 {
            let line = format!("ping {i}\n");
            stream.write_all(line.as_bytes()).unwrap();
            let mut echoed = String::new();
            reader.read_line(&mut echoed).unwrap();
            assert_eq!(echoed, line, "asymmetric delay must not corrupt data");
        }
        let counts = proxy.fault_counts();
        assert!(counts.asym_delayed >= 10, "{counts:?}");
        assert_eq!(counts.delayed, 0, "forward direction must be untouched");

        drop(reader);
        drop(stream);
        proxy.stop();
        let _ = server.join();
    }

    #[test]
    fn faults_fire_and_are_counted() {
        let (addr, server) = echo_server();
        let mut proxy = ChaosProxy::start(
            addr,
            ChaosOptions {
                latency: Duration::from_millis(1),
                latency_prob: 0.5,
                partial_write_prob: 0.5,
                truncate_prob: 0.0, // keep the single echo connection alive
                garbage_prob: 0.0,  // garbage would corrupt the echo check
                reset_prob: 0.0,
                seed: 7,
                ..ChaosOptions::default()
            },
        )
        .unwrap();

        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..50 {
            let line = format!("payload payload payload {i}\n");
            stream.write_all(line.as_bytes()).unwrap();
            let mut echoed = String::new();
            reader.read_line(&mut echoed).unwrap();
            assert_eq!(echoed, line, "benign faults must not corrupt data");
        }
        let counts = proxy.fault_counts();
        assert!(counts.delayed > 0, "{counts:?}");
        assert!(counts.partial_writes > 0, "{counts:?}");
        assert_eq!(counts.truncated + counts.garbage + counts.resets, 0);

        drop(reader);
        drop(stream);
        proxy.stop();
        let _ = server.join();
    }
}
