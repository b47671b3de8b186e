//! `nrpm-serve` — the concurrent model-serving subsystem.
//!
//! Turns the adaptive modeler into a long-lived service: a pretrained
//! network is loaded and validated **once** into a warm [`store::ModelStore`],
//! a pool of workers answers modeling requests over a newline-delimited
//! JSON TCP protocol ([`protocol`]), and `batch` requests coalesce the DNN
//! forward passes of many kernels into a single batched matrix
//! multiplication through `nrpm-linalg`
//! ([`nrpm_core::adaptive::AdaptiveModeler::model_batch`]).
//!
//! The service is built to stay correct and bounded-latency under
//! overload and hostile networks: a bounded admission queue sheds excess
//! work with `overloaded` responses, deadlines propagate into the queue,
//! a supervisor respawns crashed workers ([`server`]), clients retry with
//! backoff + jitter behind a circuit breaker ([`client`]), and a
//! socket-level fault injector ([`chaos`]) proves it all in tests. Every
//! TCP listener in the workspace — this server, the cluster router, the
//! ingest push source, the chaos proxy — runs on one front end ([`line`]):
//! a blocking acceptor with a connection cap and one newline framer.
//!
//! Repeated work is elided before it reaches the modeler: answers are
//! memoized in an `nrpm-registry` result cache keyed by the canonical
//! measurement-set fingerprint plus the checkpoint's content hash, and
//! concurrent identical requests are deduplicated with single-flight so
//! a thundering herd models exactly once ([`server`]).
//!
//! When enabled, a supervised background **adaptation engine** ([`adapt`])
//! accumulates per-tenant noise profiles from live traffic, retrains the
//! network behind a validation gate, shadow-validates candidates against
//! mirrored requests, and hot-swaps them into the [`store::ModelStore`]
//! through a crash-safe two-phase journal — with an automatic rollback if
//! live quality regresses after the swap.
//!
//! ```no_run
//! use nrpm_core::adaptive::AdaptiveOptions;
//! use nrpm_serve::client::Client;
//! use nrpm_serve::server::{ServeOptions, Server};
//! use nrpm_serve::store::ModelStore;
//! use std::time::Duration;
//!
//! let store = ModelStore::open("net.json".as_ref(), AdaptiveOptions::default()).unwrap();
//! let server = Server::start("127.0.0.1:0", store, ServeOptions::default()).unwrap();
//! let mut client = Client::connect(server.addr(), Duration::from_secs(5)).unwrap();
//! println!("{:?}", client.health().unwrap());
//! client.shutdown().unwrap();
//! server.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod adapt;
pub mod chaos;
pub mod client;
pub mod counters;
pub mod line;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;
pub mod util;
