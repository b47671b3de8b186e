//! Crash-safe resume: kill the ingester mid-window, restart it from the
//! journaled offset, and prove no record was duplicated or dropped.
//!
//! The first test runs with firing disabled so every accepted record stays
//! held — the windows after recovery must contain *exactly* the input
//! records, each once. The second runs the full pipeline (fires,
//! re-modeling, registry publishing) across a kill and asserts the
//! exactly-once record accounting still holds and a model update landed in
//! the registry.

use nrpm_core::adaptive::AdaptiveOptions;
use nrpm_core::preprocess::NUM_INPUTS;
use nrpm_extrap::NUM_CLASSES;
use nrpm_ingest::{FollowSource, IngestEngine, IngestOptions, WindowOptions, INGEST_CANDIDATE_REF};
use nrpm_nn::{Network, NetworkConfig};
use nrpm_registry::CheckpointRegistry;
use std::io::Write;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nrpm-ingest-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A log of `n` records with globally unique values, interleaving two
/// kernels, a mid-stream tenant switch, and TIME directives.
fn build_log(n: usize) -> String {
    let mut log = String::from("KERNEL mm TENANT acme\nPARAMS 1\n");
    for i in 0..n {
        if i == n / 3 {
            log.push_str("KERNEL fft\nPARAMS 1\n");
        }
        if i == n / 2 {
            log.push_str("KERNEL mm TENANT acme\nPARAMS 1\n");
        }
        if i % 10 == 0 {
            log.push_str(&format!("TIME {}\n", i));
        }
        let x = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0][i % 7];
        log.push_str(&format!("POINT {x} DATA {}\n", 1000.0 + i as f64));
    }
    log
}

/// Every value held across every window, sorted.
fn held_values(engine: &IngestEngine) -> Vec<f64> {
    let mut values: Vec<f64> = engine
        .windows()
        .iter()
        .flat_map(|(_, w)| w.records())
        .flat_map(|r| r.values.iter().copied())
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values
}

#[test]
fn kill_mid_window_then_restart_neither_duplicates_nor_drops() {
    const N: usize = 200;
    let dir = tmpdir("exact");
    let log_path = dir.join("measurements.log");
    let state_dir = dir.join("state");
    let log = build_log(N);
    // Split the log into: an initial visible slice (checkpointed), a slice
    // processed but NOT checkpointed (simulating work lost to the crash),
    // and the remainder appended only after the restart. The cut points
    // deliberately land mid-line.
    let cut1 = log.len() * 2 / 5;
    let cut2 = log.len() * 3 / 5;
    let opts = || IngestOptions {
        windows: WindowOptions {
            capacity: 4096,
            max_total_records: 1 << 20,
            min_points: usize::MAX, // never fire: every record stays held
            allowed_lateness: f64::INFINITY, // never late
            ..WindowOptions::default()
        },
        state_dir: Some(state_dir.clone()),
        ..IngestOptions::default()
    };

    // --- First incarnation ---
    std::fs::write(&log_path, &log[..cut1]).unwrap();
    let (mut a, recovery) = IngestEngine::open(opts(), None).unwrap();
    assert!(recovery.resume.is_none(), "fresh start");
    let mut source_a = FollowSource::open(&log_path);
    a.poll_source(&mut source_a).unwrap(); // processes + checkpoints
    let checkpointed_records = a.counters().records;
    assert!(checkpointed_records > 0, "first slice produced records");

    // More data arrives; the engine processes it but is killed before the
    // checkpoint — this work must be recounted exactly once after restart.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&log_path)
            .unwrap();
        f.write_all(&log.as_bytes()[cut1..cut2]).unwrap();
    }
    let chunk = source_a.poll().unwrap();
    a.process_chunk(&chunk);
    assert!(
        a.counters().records > checkpointed_records,
        "uncheckpointed records were processed before the crash"
    );
    drop(a); // the kill: no further checkpoint, windows lost

    // --- Second incarnation ---
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&log_path)
            .unwrap();
        f.write_all(&log.as_bytes()[cut2..]).unwrap();
    }
    let (mut b, recovery) = IngestEngine::open(opts(), None).unwrap();
    let resumed = recovery.resume.expect("journal had a checkpoint");
    assert_eq!(resumed.counters.records, checkpointed_records);
    let mut source_b = FollowSource::open(&log_path);
    source_b.seek_to(b.resume_offset());
    while b.poll_source(&mut source_b).unwrap() > 0 {}
    b.flush_tail();
    b.checkpoint().unwrap();

    // Exactly-once: the counters and the held records both say N.
    assert_eq!(b.counters().records, N as u64, "each record counted once");
    assert_eq!(b.counters().late_dropped, 0);
    assert_eq!(b.counters().parse_errors, 0);
    assert_eq!(b.counters().records_dropped, 0);
    let values = held_values(&b);
    let expected: Vec<f64> = (0..N).map(|i| 1000.0 + i as f64).collect();
    assert_eq!(values, expected, "every record held exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_firing_keeps_exact_counts_and_publishes_models() {
    const N: usize = 60;
    let dir = tmpdir("firing");
    let log_path = dir.join("measurements.log");
    let state_dir = dir.join("state");
    let registry_dir = dir.join("registry");
    let log = build_log(N);
    let cut = log.len() / 2;

    let mut adaptive = AdaptiveOptions::default();
    adaptive.dnn.adaptation_samples_per_class = 8;
    adaptive.dnn.adaptation_epochs = 2;
    adaptive.dnn.train_threads = 1;
    let network = Network::new(&NetworkConfig::new(&[NUM_INPUTS, 16, NUM_CLASSES]), 42);
    let opts = || IngestOptions {
        windows: WindowOptions {
            min_points: 5,
            fire_interval: 8,
            allowed_lateness: f64::INFINITY,
            ..WindowOptions::default()
        },
        state_dir: Some(state_dir.clone()),
        registry_dir: Some(registry_dir.clone()),
        adaptive: adaptive.clone(),
    };

    std::fs::write(&log_path, &log[..cut]).unwrap();
    let (mut a, _) = IngestEngine::open(opts(), Some(network.clone())).unwrap();
    let mut source_a = FollowSource::open(&log_path);
    while a.poll_source(&mut source_a).unwrap() > 0 {}
    assert!(a.counters().windows_fired > 0, "windows fired before crash");
    drop(a); // killed between checkpoints

    std::fs::write(&log_path, &log).unwrap(); // the rest arrives
    let (mut b, recovery) = IngestEngine::open(opts(), Some(network)).unwrap();
    assert!(recovery.resume.is_some());
    let mut source_b = FollowSource::open(&log_path);
    source_b.seek_to(b.resume_offset());
    while b.poll_source(&mut source_b).unwrap() > 0 {}
    b.flush_tail();
    b.checkpoint().unwrap();

    assert_eq!(
        b.counters().records,
        N as u64,
        "firing and re-modeling do not disturb exactly-once accounting"
    );
    assert!(b.counters().windows_fired > 0);
    assert!(
        b.counters().models_published > 0,
        "at least one candidate was published"
    );
    // The published candidate is loadable from the registry under the
    // ingest-candidate ref.
    let registry = CheckpointRegistry::open(&registry_dir).unwrap();
    let hash = registry
        .ref_hash(INGEST_CANDIDATE_REF)
        .unwrap()
        .expect("ingest-candidate ref exists");
    registry.get(hash).expect("published network loads");
    assert_eq!(b.last_published(), Some(hash));
    let _ = std::fs::remove_dir_all(&dir);
}
