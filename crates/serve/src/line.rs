//! The one TCP front end of the newline-delimited protocols: the serving
//! protocol of [`crate::server`], the cluster router, the ingest push
//! source, and (acceptor only) the [`crate::chaos`] proxy.
//!
//! - [`run_acceptor`] blocks in `accept()` — no poll sleep, so a new
//!   connection is served the moment it arrives — runs each connection on
//!   its own thread, reaps finished threads on every accept, and sheds
//!   connections past a cap with one `overloaded` line. [`stop`] sets the
//!   owner's stop flag and wakes the blocked `accept()` with a loopback
//!   connect; the acceptor then drops its listener and joins its
//!   connection threads.
//! - [`serve_lines`] frames one connection into lines for a
//!   [`LineHandler`]: an exact frame cap (`usage` line, then close), a
//!   slowloris guard (`timeout` line, then close), a read tick to notice
//!   stop, and a bounded write per response.

use crate::protocol::{error_line, ErrorKind};
use crate::server::ServeOptions;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Write bound on the `overloaded` line sent to a shed connection, so a
/// peer that never reads cannot stall the acceptor.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Pause after a failed `accept()` (e.g. out of file descriptors), so the
/// error cannot turn the acceptor into a busy loop.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Limits of one line-protocol connection.
#[derive(Debug, Clone, Copy)]
pub struct LineLimits {
    /// Live connections past which a new one receives one `overloaded`
    /// line and is closed.
    pub max_conns: usize,
    /// Longest accepted line, newline excluded; one byte more is answered
    /// with a `usage` line and a close.
    pub max_line: usize,
    /// Read tick: how often a connection blocked on a read checks whether
    /// its owner is stopping.
    pub poll_interval: Duration,
    /// How long a line may stay incomplete before a `timeout` line and a
    /// close; also the bound on each response write.
    pub io_timeout: Duration,
}

impl LineLimits {
    /// The connection limits of `opts`, with `max_line` as the frame cap.
    pub fn new(opts: &ServeOptions, max_line: usize) -> LineLimits {
        LineLimits {
            max_conns: opts.max_conns.max(1),
            max_line,
            poll_interval: opts.poll_interval,
            io_timeout: opts.io_timeout,
        }
    }
}

/// What a [`LineHandler`] wants done with its answer to one line.
pub enum Disposition {
    /// Write the response line and keep reading.
    Respond(String),
    /// Write the response line, then close the connection.
    RespondAndClose(String),
}

/// The per-connection side of [`serve_lines`]; a value of it lives as long
/// as its connection, so it can carry per-connection state.
pub trait LineHandler {
    /// Answers one complete line (trimmed, never empty).
    fn handle(&mut self, line: &str) -> Disposition;

    /// Notes that framing refused the connection: `Usage` for a line over
    /// the cap, `Timeout` for a stalled one. The error line follows.
    fn rejected(&mut self, _kind: ErrorKind) {}

    /// `true` once the owner is stopping; checked on every idle read tick.
    fn stopped(&self) -> bool;
}

/// Sets `flag` and wakes the acceptor listening on `addr` with a loopback
/// connect. Only the call that flips the flag connects.
pub fn stop(flag: &AtomicBool, addr: SocketAddr) {
    if !flag.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }
}

/// Accepts connections on `listener` until `stopped()` holds when a
/// connection (normally the wake of [`stop`]) arrives, running
/// `connection` for each on its own thread named `name`. Past `max_conns`
/// live connections, a new one calls `on_shed` and receives one
/// `overloaded` line before it is closed. On stop the listener is dropped
/// first, then every connection thread is joined, then `connection`.
pub fn run_acceptor(
    listener: TcpListener,
    name: &str,
    max_conns: usize,
    stopped: impl Fn() -> bool,
    on_shed: impl Fn(),
    connection: impl Fn(TcpStream) + Send + Sync + 'static,
) {
    let connection = Arc::new(connection);
    let mut live: Vec<JoinHandle<()>> = Vec::new();
    // Checked before each accept as well as after: a stop set before the
    // listener was bound had no listener to wake.
    while !stopped() {
        let accepted = listener.accept();
        if stopped() {
            break;
        }
        let Ok((stream, _)) = accepted else {
            thread::sleep(ACCEPT_RETRY);
            continue;
        };
        live.retain(|h| !h.is_finished());
        if live.len() >= max_conns.max(1) {
            on_shed();
            shed(stream, max_conns);
            continue;
        }
        let connection = Arc::clone(&connection);
        live.push(
            thread::Builder::new()
                .name(name.into())
                .spawn(move || connection(stream))
                .expect("spawn connection thread"),
        );
    }
    drop(listener);
    for handle in live {
        let _ = handle.join();
    }
}

/// Refuses a connection over the cap: one `overloaded` line, then close.
fn shed(mut stream: TcpStream, max_conns: usize) {
    stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT)).ok();
    let mut line = error_line(
        None,
        ErrorKind::Overloaded,
        &format!("connection table full ({max_conns} connections); retry with backoff"),
    );
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// Reads newline-delimited lines off `stream` and answers each through
/// `handler`, until EOF, a socket error, a framing reject, a
/// [`Disposition::RespondAndClose`], or an idle read tick that finds the
/// handler [stopped](LineHandler::stopped).
pub fn serve_lines(stream: TcpStream, limits: &LineLimits, handler: &mut impl LineHandler) {
    let _ = frame(stream, limits, handler);
}

fn frame(
    mut stream: TcpStream,
    limits: &LineLimits,
    handler: &mut impl LineHandler,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(limits.poll_interval))?;
    stream.set_write_timeout(Some(limits.io_timeout))?;
    let too_large = format!("request exceeds {} bytes", limits.max_line);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    // When the first byte of the pending line arrived (slowloris guard);
    // cleared each time a complete line is consumed.
    let mut partial_since: Option<Instant> = None;
    // Prefix of `buf` already searched for a newline — only fresh bytes are
    // scanned, keeping a large frame linear instead of quadratic.
    let mut scanned = 0usize;
    loop {
        while let Some(rel) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let pos = scanned + rel;
            if pos > limits.max_line {
                // The line completed, but past the cap. Checking here (not
                // only between reads below) makes the boundary exact: a
                // frame of `max_line` bytes is served, one byte more is
                // refused, however the bytes fell into read chunks.
                reject(&mut stream, handler, ErrorKind::Usage, &too_large);
                return Ok(());
            }
            let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
            scanned = 0;
            partial_since = None;
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (mut response, close) = match handler.handle(line) {
                Disposition::Respond(response) => (response, false),
                Disposition::RespondAndClose(response) => (response, true),
            };
            response.push('\n');
            stream.write_all(response.as_bytes())?;
            if close {
                return Ok(());
            }
        }
        scanned = buf.len();
        if buf.len() > limits.max_line {
            reject(&mut stream, handler, ErrorKind::Usage, &too_large);
            return Ok(());
        }
        if buf.is_empty() {
            partial_since = None;
        } else if let Some(since) = partial_since {
            if since.elapsed() >= limits.io_timeout {
                let message = format!(
                    "request incomplete after {:?}; closing stalled connection",
                    limits.io_timeout
                );
                reject(&mut stream, handler, ErrorKind::Timeout, &message);
                return Ok(());
            }
        } else {
            partial_since = Some(Instant::now());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle read tick: a partial line stays buffered, but a
                // stopping owner ends the connection (its sender could no
                // longer get an answer anyway).
                if handler.stopped() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Tells `handler` of a framing reject, then sends the error line.
fn reject(stream: &mut TcpStream, handler: &mut impl LineHandler, kind: ErrorKind, message: &str) {
    handler.rejected(kind);
    let mut line = error_line(None, kind, message);
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    struct Echo(Arc<AtomicBool>);

    impl LineHandler for Echo {
        fn handle(&mut self, line: &str) -> Disposition {
            match line {
                "bye" => Disposition::RespondAndClose("bye".into()),
                _ => Disposition::Respond(line.to_uppercase()),
            }
        }

        fn stopped(&self) -> bool {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn lines_are_answered_and_stop_wakes_the_blocked_acceptor() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let flag = Arc::new(AtomicBool::new(false));
        let limits = LineLimits {
            max_conns: 4,
            max_line: 64,
            poll_interval: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
        };
        let acceptor = {
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                let conn_flag = Arc::clone(&flag);
                run_acceptor(
                    listener,
                    "line-test",
                    limits.max_conns,
                    || flag.load(Ordering::SeqCst),
                    || {},
                    move |stream| serve_lines(stream, &limits, &mut Echo(Arc::clone(&conn_flag))),
                );
            })
        };

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Two lines in one write, the second split across a later write.
        stream.write_all(b"one\n\ntw").unwrap();
        thread::sleep(Duration::from_millis(50));
        stream.write_all(b"o\nbye\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = String::new();
        reader.read_to_string(&mut replies).unwrap();
        assert_eq!(replies, "ONE\nTWO\nbye\n");

        // The read tick is 30 s, so a prompt exit proves the wake, not a poll.
        let started = Instant::now();
        stop(&flag, addr);
        acceptor.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener dropped on stop"
        );
    }
}
