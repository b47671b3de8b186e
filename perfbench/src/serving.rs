//! The serving process: one child process per set-up, running either the
//! standalone `nrpm-serve` server a workload drives or the `nrpm-cluster`
//! fleet the traced run probes. Keeping the server in its own process makes its CPU
//! time and peak RSS (`/proc/<pid>`) the server's alone, and every set-up
//! starts cold.

use crate::fixture;
use crate::gen::Workload;
use nrpm_cluster::{Cluster, ClusterOptions};
use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_linalg::ThreadBudget;
use nrpm_nn::Network;
use nrpm_serve::client::{is_ok, Client};
use nrpm_serve::server::{ServeOptions, Server};
use nrpm_serve::store::ModelStore;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of every server, and client threads of every workload.
/// Two single-threaded streams, one per vCPU of a 2-vCPU machine: a
/// request that needs both vCPUs at once (one worker with a thread budget
/// of 2, or a batch fanned out to two replicas) waits for the slower one,
/// so a slowdown of either vCPU sets its time.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;

/// What one serving process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The standalone server a workload's clients drive.
    Server(Workload),
    /// A cluster of 2 shards × 1 worker with replication 2, probed by the
    /// traced run for the router's figures.
    Cluster,
}

impl Role {
    fn arg(self) -> &'static str {
        match self {
            Role::Server(workload) => workload.name(),
            Role::Cluster => "cluster",
        }
    }

    fn parse(arg: &str) -> Option<Role> {
        match arg {
            "cluster" => Some(Role::Cluster),
            name => Workload::parse(name).map(Role::Server),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads each worker may use: the machine split among the workers, as
/// `nrpm serve` splits it.
pub fn thread_budget() -> usize {
    (nproc() / WORKERS).max(1)
}

/// Entry point of the child process (`perfbench serve <role> <fixture>`):
/// starts the server or cluster, prints `ADDR <front> [<shard>...]` on
/// stdout and serves until a `shutdown` request drains it.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let (role, fixture) = match args {
        [role, fixture] => (
            Role::parse(role).ok_or_else(|| format!("unknown role {role}"))?,
            Path::new(fixture),
        ),
        _ => return Err("usage: perfbench serve <workload|cluster> <fixture>".into()),
    };
    ThreadBudget::set(thread_budget());
    let announce = |addrs: &[SocketAddr]| {
        let list: Vec<String> = addrs.iter().map(ToString::to_string).collect();
        let mut out = std::io::stdout().lock();
        writeln!(out, "ADDR {}", list.join(" ")).and_then(|()| out.flush())
    };
    let workload = match role {
        Role::Server(workload) => workload,
        Role::Cluster => {
            let network = Network::load(fixture).map_err(|e| e.to_string())?;
            let cluster = Cluster::launch(
                network,
                ClusterOptions {
                    shards: 2,
                    workers_per_shard: 1,
                    replication: 2,
                    ..ClusterOptions::default()
                },
            )
            .map_err(|e| format!("cluster launch: {e}"))?;
            let shards: Vec<SocketAddr> =
                (0..2).filter_map(|id| cluster.shard_addr(id)).collect();
            announce(&[&[cluster.router_addr()], shards.as_slice()].concat())
                .map_err(|e| e.to_string())?;
            return cluster.join().map_err(|_| "cluster panicked".to_string());
        }
    };
    let mut opts = AdaptiveOptions {
        dnn: fixture::dnn_options(),
        ..AdaptiveOptions::default()
    };
    opts.dnn.quantize = workload == Workload::Bulk;
    let store = ModelStore::open(fixture, opts).map_err(|e| e.to_string())?;
    let server = Server::start(
        "127.0.0.1:0",
        store,
        ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    announce(&[server.addr()]).map_err(|e| e.to_string())?;
    server.join().map_err(|_| "server panicked".to_string())
}

/// A running serving process, seen from the benchmark.
pub struct Served {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// Where clients connect: the server, or the cluster's router.
    pub addr: SocketAddr,
    /// The cluster's shard servers (empty for a standalone server).
    pub shards: Vec<SocketAddr>,
}

impl Served {
    /// Spawns the serving process and waits until its front end answers
    /// `health`. Returns the process and the set-up time in seconds.
    pub fn start(role: Role, fixture: &Path) -> Result<(Served, f64), String> {
        let started = Instant::now();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(role.arg())
            .arg(fixture)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn serving process: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no child stdout")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut served = Served {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            shards: Vec::new(),
        };
        read.map_err(|e| format!("read serving address: {e}"))?;
        let addrs: Vec<SocketAddr> = line
            .strip_prefix("ADDR ")
            .ok_or_else(|| format!("serving process did not start: {line:?}"))?
            .split_whitespace()
            .map(|a| a.parse().map_err(|e| format!("bad address {a}: {e}")))
            .collect::<Result<_, _>>()?;
        served.addr = *addrs.first().ok_or("no front-end address")?;
        served.shards = addrs[1..].to_vec();
        loop {
            let healthy = Client::connect(served.addr, Duration::from_secs(5))
                .and_then(|mut c| c.health())
                .is_ok_and(|reply| is_ok(&reply));
            if healthy {
                return Ok((served, started.elapsed().as_secs_f64()));
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err("serving process never answered health".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The `stats` object of the server at `addr`.
    pub fn stats(addr: SocketAddr) -> Result<Value, String> {
        Client::connect(addr, Duration::from_secs(10))
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats {addr}: {e}"))
    }

    /// `stats` counters summed over the process's backends (the shards of
    /// a cluster, else the server); high-water marks (`*_hwm`) take the
    /// largest instead.
    pub fn backend_counters(&self, keys: &[&str]) -> Result<Vec<f64>, String> {
        let backends = if self.shards.is_empty() {
            std::slice::from_ref(&self.addr)
        } else {
            self.shards.as_slice()
        };
        let mut sums = vec![0.0f64; keys.len()];
        for &addr in backends {
            let stats = Served::stats(addr)?;
            for (sum, key) in sums.iter_mut().zip(keys) {
                let value = crate::counter(&stats, key);
                *sum = if key.ends_with("_hwm") {
                    sum.max(value)
                } else {
                    *sum + value
                };
            }
        }
        Ok(sums)
    }

    /// User plus system CPU seconds the serving process has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15, in USER_HZ = 100
        // ticks per second on Linux.
        let rest = text.rsplit_once(')').ok_or("malformed stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("stat field {i} missing"))
        };
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Peak resident set size (VmHWM) of the serving process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in status")?;
        Ok(kb / 1024.0)
    }

    /// Drains the server (or the whole fleet) and waits for the process
    /// to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let reply =
            Client::connect(self.addr, Duration::from_secs(10)).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serving process exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => {
                    return Err(format!(
                        "serving process did not drain (shutdown reply: {reply:?})"
                    ))
                }
                Err(e) => return Err(format!("wait for serving process: {e}")),
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // Reached with the process still running only on an error path:
        // never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
