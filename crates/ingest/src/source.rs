//! Measurement sources: file-follow with rotation detection, and the
//! newline-JSON TCP push protocol.
//!
//! # File follow
//!
//! [`FollowSource`] tails a measurement log in the PARAMS/POINT text format
//! of `nrpm-extrap`, extended with three ingest directives:
//!
//! ```text
//! KERNEL matmul TENANT acme   # switch the (kernel, tenant) key
//! PARAMS 2 p n                # as in the batch format
//! TIME 1200                   # advance event time (optional)
//! POINT 16 32 DATA 1.25 1.31  # one record for the current key
//! ```
//!
//! Each poll stats the file first: a shrunken length or a changed inode
//! means the log was **rotated** — the source reopens at offset zero and
//! reports the rotation so the engine can re-anchor its journal. Partial
//! trailing lines are *held*, never parsed ([`TailPolicy::HoldForMore`]
//! semantics via the engine's `LineFramer`): a record is only ever seen
//! complete.
//!
//! # TCP push
//!
//! [`PushSource`] binds a listener speaking one JSON record per line:
//!
//! ```text
//! → {"kernel":"matmul","tenant":"acme","point":[16,32],"values":[1.25,1.31],"t":1200}
//! ← {"status":"ok"}
//! ```
//!
//! The listener runs on the serving stack's shared front end
//! ([`nrpm_serve::line`]): a line split across reads is reassembled, a line
//! over `MAX_PUSH_LINE` (1 MiB) is answered with one `usage` error and a
//! close, and connections past the cap are shed with `overloaded`.
//!
//! Push records carry no replayable byte offset; they are counted and
//! windowed like file records but excluded from crash-safe resume (the
//! network cannot be re-read). The queue between connection threads and the
//! engine is bounded; the oldest queued record is dropped under pressure —
//! the listener never blocks its clients on the engine.
//!
//! [`TailPolicy::HoldForMore`]: nrpm_extrap::TailPolicy

use nrpm_serve::line::{self, serve_lines, Disposition, LineHandler, LineLimits};
use nrpm_serve::server::ServeOptions;
use serde::Value;
use std::collections::VecDeque;
use std::io::{Read, Seek, SeekFrom};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bound on records queued between push connections and the engine.
const PUSH_BUFFER: usize = 1024;
/// Hard cap on one push request line.
const MAX_PUSH_LINE: usize = 1024 * 1024;

/// One chunk of new bytes from a followed file.
#[derive(Debug, Clone, Default)]
pub struct FollowChunk {
    /// The new bytes (possibly ending mid-line).
    pub data: String,
    /// Byte offset of `data`'s first byte in the file.
    pub base_offset: u64,
    /// Whether a rotation was detected before this chunk was read; the
    /// chunk then starts at offset zero of the *new* file.
    pub rotated: bool,
}

/// Tails one measurement log file.
#[derive(Debug)]
pub struct FollowSource {
    path: PathBuf,
    offset: u64,
    signature: Option<(u64, u64)>,
    rotations: u64,
}

impl FollowSource {
    /// Creates a follower starting at the beginning of `path` (which need
    /// not exist yet — polls return empty chunks until it does).
    pub fn open(path: &Path) -> FollowSource {
        FollowSource {
            path: path.to_path_buf(),
            offset: 0,
            signature: None,
            rotations: 0,
        }
    }

    /// The path being followed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The next read position.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Rotations detected so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Repositions the follower (journal resume).
    pub fn seek_to(&mut self, offset: u64) {
        self.offset = offset;
    }

    /// Reads every byte appended since the last poll. An empty chunk means
    /// no news. Rotation (shrunken file or changed identity) resets the
    /// read position to zero and is flagged on the returned chunk.
    pub fn poll(&mut self) -> std::io::Result<FollowChunk> {
        let metadata = match std::fs::metadata(&self.path) {
            Ok(m) => m,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(FollowChunk::default());
            }
            Err(e) => return Err(e),
        };
        let signature = file_signature(&metadata);
        let rotated = metadata.len() < self.offset
            || (self.signature.is_some() && signature.is_some() && self.signature != signature);
        if rotated {
            self.offset = 0;
            self.rotations += 1;
        }
        self.signature = signature;
        if metadata.len() == self.offset {
            return Ok(FollowChunk {
                data: String::new(),
                base_offset: self.offset,
                rotated,
            });
        }

        let mut file = std::fs::File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.offset))?;
        let mut data = String::new();
        file.read_to_string(&mut data)?;
        let chunk = FollowChunk {
            base_offset: self.offset,
            rotated,
            data,
        };
        self.offset += chunk.data.len() as u64;
        Ok(chunk)
    }
}

#[cfg(unix)]
fn file_signature(metadata: &std::fs::Metadata) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    Some((metadata.dev(), metadata.ino()))
}

#[cfg(not(unix))]
fn file_signature(_metadata: &std::fs::Metadata) -> Option<(u64, u64)> {
    None
}

/// One record pushed over the TCP protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct PushRecord {
    /// Kernel the measurement belongs to.
    pub kernel: String,
    /// Tenant tag (`"default"` when absent).
    pub tenant: Option<String>,
    /// Measurement point coordinates.
    pub point: Vec<f64>,
    /// Repetition values.
    pub values: Vec<f64>,
    /// Event time, fed to the watermark.
    pub t: Option<f64>,
}

/// The TCP push source: a listener accepting newline-JSON records into a
/// bounded queue the engine drains.
#[derive(Debug)]
pub struct PushSource {
    addr: SocketAddr,
    state: Arc<PushState>,
}

/// State shared by the push connections and the [`PushSource`] handle.
#[derive(Debug, Default)]
struct PushState {
    queue: Mutex<VecDeque<PushRecord>>,
    dropped: AtomicU64,
    received: AtomicU64,
    stop: AtomicBool,
}

impl PushSource {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the accept loop in a
    /// background thread.
    pub fn bind(addr: &str) -> std::io::Result<PushSource> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(PushState::default());
        let limits = LineLimits::new(&ServeOptions::default(), MAX_PUSH_LINE);
        {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let conn_state = Arc::clone(&state);
                line::run_acceptor(
                    listener,
                    "nrpm-ingest-push",
                    limits.max_conns,
                    || state.stop.load(Ordering::SeqCst),
                    || {},
                    move |stream| serve_lines(stream, &limits, &mut &*conn_state),
                );
            });
        }
        Ok(PushSource { addr, state })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains every queued record.
    pub fn drain(&self) -> Vec<PushRecord> {
        let mut queue = self.state.queue.lock().unwrap_or_else(|p| p.into_inner());
        queue.drain(..).collect()
    }

    /// Records accepted over the wire so far.
    pub fn received(&self) -> u64 {
        self.state.received.load(Ordering::Relaxed)
    }

    /// Records dropped because the engine fell behind the queue bound.
    pub fn dropped(&self) -> u64 {
        self.state.dropped.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and releases the listener; open connections
    /// close at their next read tick.
    pub fn shutdown(&self) {
        line::stop(&self.state.stop, self.addr);
    }
}

impl Drop for PushSource {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl LineHandler for &PushState {
    fn handle(&mut self, line: &str) -> Disposition {
        let record = match parse_push_record(line) {
            Ok(record) => record,
            Err(msg) => {
                return Disposition::Respond(format!(
                    "{{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":{}}}",
                    serde_json::to_string(&msg).unwrap_or_else(|_| "\"\"".into())
                ))
            }
        };
        self.received.fetch_add(1, Ordering::Relaxed);
        let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        if queue.len() >= PUSH_BUFFER {
            queue.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(record);
        Disposition::Respond(r#"{"status":"ok"}"#.into())
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

fn numbers(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    let seq = v
        .get(key)
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("`{key}` must be an array of numbers"))?;
    seq.iter()
        .map(|e| {
            e.as_f64()
                .filter(|f| f.is_finite())
                .ok_or_else(|| format!("`{key}` must hold finite numbers"))
        })
        .collect()
}

/// Parses and validates one push line.
pub fn parse_push_record(line: &str) -> Result<PushRecord, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed push record: {e}"))?;
    if value.as_map().is_none() {
        return Err("push record must be a JSON object".into());
    }
    let kernel = value
        .get("kernel")
        .and_then(Value::as_str)
        .filter(|k| !k.is_empty())
        .ok_or("push record needs a non-empty `kernel`")?
        .to_string();
    let tenant = match value.get("tenant") {
        None | Some(Value::Null) => None,
        Some(t) => Some(t.as_str().ok_or("`tenant` must be a string")?.to_string()),
    };
    let point = numbers(&value, "point")?;
    let values = numbers(&value, "values")?;
    let t = match value.get("t") {
        None | Some(Value::Null) => None,
        Some(x) => Some(
            x.as_f64()
                .filter(|f| f.is_finite())
                .ok_or("`t` must be a finite number")?,
        ),
    };
    if point.is_empty() {
        return Err("push record needs at least one point coordinate".into());
    }
    if values.is_empty() {
        return Err("push record needs at least one value".into());
    }
    Ok(PushRecord {
        kernel,
        tenant,
        point,
        values,
        t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "nrpm-ingest-follow-{tag}-{}.log",
            std::process::id()
        ))
    }

    #[test]
    fn follow_reads_appends_incrementally() {
        let path = tmpfile("appends");
        let _ = std::fs::remove_file(&path);
        let mut source = FollowSource::open(&path);
        assert_eq!(source.poll().unwrap().data, "", "missing file is quiet");
        std::fs::write(&path, "PARAMS 1\n").unwrap();
        let chunk = source.poll().unwrap();
        assert_eq!(chunk.data, "PARAMS 1\n");
        assert_eq!(chunk.base_offset, 0);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"POINT 4 DATA 1.0\n").unwrap();
        drop(f);
        let chunk = source.poll().unwrap();
        assert_eq!(chunk.data, "POINT 4 DATA 1.0\n");
        assert_eq!(chunk.base_offset, 9);
        assert!(source.poll().unwrap().data.is_empty(), "no news");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_is_detected_as_rotation() {
        let path = tmpfile("rotate");
        std::fs::write(&path, "PARAMS 1\nPOINT 4 DATA 1.0\n").unwrap();
        let mut source = FollowSource::open(&path);
        assert!(!source.poll().unwrap().rotated);
        // Rotate: replace with a shorter file.
        std::fs::write(&path, "PARAMS 1\n").unwrap();
        let chunk = source.poll().unwrap();
        assert!(chunk.rotated);
        assert_eq!(chunk.base_offset, 0);
        assert_eq!(chunk.data, "PARAMS 1\n");
        assert_eq!(source.rotations(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn push_records_parse_and_validate() {
        let record = parse_push_record(
            r#"{"kernel":"mm","tenant":"acme","point":[16,32],"values":[1.25,1.31],"t":12}"#,
        )
        .unwrap();
        assert_eq!(record.kernel, "mm");
        assert_eq!(record.tenant.as_deref(), Some("acme"));
        assert_eq!(record.point, vec![16.0, 32.0]);
        assert_eq!(record.t, Some(12.0));
        let minimal = parse_push_record(r#"{"kernel":"mm","point":[4],"values":[1.0]}"#).unwrap();
        assert_eq!(minimal.tenant, None);
        assert_eq!(minimal.t, None);
        assert!(parse_push_record(r#"{"kernel":"","point":[4],"values":[1.0]}"#).is_err());
        assert!(parse_push_record(r#"{"kernel":"mm","point":[],"values":[1.0]}"#).is_err());
        assert!(parse_push_record(r#"{"kernel":"mm","point":[4],"values":[]}"#).is_err());
        assert!(parse_push_record("not json").is_err());
    }

    #[test]
    fn push_source_queues_records_over_tcp() {
        let source = PushSource::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(source.local_addr()).unwrap();
        stream
            .write_all(b"{\"kernel\":\"mm\",\"point\":[4],\"values\":[1.0]}\n{\"kernel\":\"mm\",\"point\":[8],\"values\":[2.0]}\nnot json\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut replies = Vec::new();
        for _ in 0..3 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            replies.push(reply);
        }
        assert!(replies[0].contains("\"ok\""));
        assert!(replies[1].contains("\"ok\""));
        assert!(replies[2].contains("bad_request"));
        let drained = source.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].point, vec![4.0]);
        assert_eq!(source.received(), 2);
        assert_eq!(source.dropped(), 0);
        source.shutdown();
    }

    #[test]
    fn push_lines_survive_read_ticks_and_over_cap_lines_are_refused() {
        let source = PushSource::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(source.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();

        // Half a record, then a pause spanning several read ticks: the
        // first half must still be there when the rest arrives.
        writer.write_all(b"{\"kernel\":\"mm\",\"poi").unwrap();
        std::thread::sleep(Duration::from_millis(400));
        writer.write_all(b"nt\":[4],\"values\":[1.0]}\n").unwrap();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim(), r#"{"status":"ok"}"#);
        assert_eq!(source.drain().len(), 1);

        // A line with no newline is refused at the cap, not buffered on:
        // one error line, then the connection closes.
        writer.write_all(&vec![b'x'; MAX_PUSH_LINE + 1]).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        let refused: Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(refused.get("kind").and_then(Value::as_str), Some("usage"));
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "closed");
        assert!(source.drain().is_empty());
        source.shutdown();
    }
}
