//! The served checkpoint: the paper network (11→1500→1500→750→250→250→43),
//! trained by the benchmark itself from a fixed seed.
//!
//! Training is bitwise deterministic at any thread count, so one build
//! always serves the same weights. It runs once per build — the file is
//! keyed by a hash of the benchmark executable and kept beside it — and
//! never inside a timed window or `setup_s`.

use nrpm_core::dnn::{DnnModeler, DnnOptions};
use nrpm_core::fingerprint::bytes_hash;
use nrpm_nn::NetworkConfig;
use nrpm_synth::TrainingSpec;
use std::path::PathBuf;

/// Training samples per class. 60 × 2 epochs is the smallest budget seen
/// to pass the default int8 gate with zero argmax flips; 20 × 1 was
/// rejected with 2 flips.
const SAMPLES_PER_CLASS: usize = 60;
const EPOCHS: usize = 2;
const SEED: u64 = 0x000B_E7C4_2021;

/// Modeler options of every server the benchmark starts: the paper
/// architecture and the library defaults otherwise — in particular the
/// default quantisation gate.
pub fn dnn_options() -> DnnOptions {
    DnnOptions {
        network: NetworkConfig::paper(),
        pretrain_spec: TrainingSpec {
            samples_per_class: SAMPLES_PER_CLASS,
            ..TrainingSpec::default()
        },
        pretrain_epochs: EPOCHS,
        seed: SEED,
        ..DnnOptions::default()
    }
}

/// Returns the fixture path, training and writing the network first when
/// this build has none yet. Fails if the trained network does not pass
/// the default int8 gate: the `bulk` workload must run on the int8 path.
pub fn ensure() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let path = dir.join(format!(
        "perfbench-fixture-{:016x}.json",
        bytes_hash(&bytes)
    ));
    if path.exists() {
        return Ok(path);
    }
    // Fixtures of earlier builds (77 MB each) are never read again.
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let old = entry.map_err(|e| e.to_string())?.path();
        let name = old.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("perfbench-fixture-") {
            let _ = std::fs::remove_file(&old);
        }
    }
    let started = std::time::Instant::now();
    let modeler = DnnModeler::pretrained(DnnOptions {
        quantize: true,
        ..dnn_options()
    });
    if let Some(report) = modeler.quant_rejection() {
        return Err(format!(
            "fixture fails the default int8 gate: {} argmax flips, drift {:.4}",
            report.argmax_flips, report.max_prob_drift
        ));
    }
    let tmp = path.with_extension("json.tmp");
    modeler
        .network()
        .save(&tmp)
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("publish fixture: {e}"))?;
    eprintln!(
        "perfbench: trained the paper-network fixture in {:.1} s -> {}",
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(path)
}
