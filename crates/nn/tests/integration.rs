//! Integration tests of the neural-network substrate: multi-class
//! training end to end, validation splits, persistence mid-training.

use nrpm_linalg::Matrix;
use nrpm_nn::{Dataset, Network, NetworkConfig, TrainerOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `k` Gaussian blobs arranged on a circle in 2D.
fn ring_blobs(k: usize, per_class: usize, spread: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for class in 0..k {
        let angle = class as f64 / k as f64 * std::f64::consts::TAU;
        let (cx, cy) = (2.0 * angle.cos(), 2.0 * angle.sin());
        for _ in 0..per_class {
            rows.push(vec![
                cx + rng.gen_range(-spread..spread),
                cy + rng.gen_range(-spread..spread),
            ]);
            labels.push(class);
        }
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Dataset::new(Matrix::from_rows(&refs), labels, k).unwrap()
}

#[test]
fn five_class_ring_is_learnable() {
    let data = ring_blobs(5, 60, 0.4, 1);
    let mut net = Network::new(&NetworkConfig::new(&[2, 32, 16, 5]), 3);
    let report = net
        .train(
            &data,
            &TrainerOptions {
                epochs: 60,
                batch_size: 32,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(report.final_loss() < report.epoch_losses[0] / 3.0);
    assert!(
        net.accuracy(&data).unwrap() > 0.97,
        "accuracy {}",
        net.accuracy(&data).unwrap()
    );
}

#[test]
fn validation_split_generalizes() {
    let data = ring_blobs(4, 100, 0.4, 7);
    let mut rng = StdRng::seed_from_u64(11);
    let (train, val) = data.split(0.2, &mut rng);
    let mut net = Network::new(&NetworkConfig::new(&[2, 24, 4]), 5);
    net.train(
        &train,
        &TrainerOptions {
            epochs: 40,
            batch_size: 32,
            ..Default::default()
        },
    )
    .unwrap();
    let val_acc = net.accuracy(&val).unwrap();
    assert!(val_acc > 0.9, "validation accuracy {val_acc}");
}

#[test]
fn training_can_be_resumed_after_persistence() {
    // Pretrain briefly, save, load, continue — the domain-adaptation flow.
    let data = ring_blobs(3, 60, 0.5, 13);
    let mut net = Network::new(&NetworkConfig::new(&[2, 16, 3]), 9);
    net.train(
        &data,
        &TrainerOptions {
            epochs: 5,
            batch_size: 32,
            ..Default::default()
        },
    )
    .unwrap();
    let mid_loss = net.cross_entropy(&data).unwrap();

    let json = net.to_json();
    let mut restored = Network::from_json(&json).unwrap();
    assert_eq!(restored.cross_entropy(&data).unwrap(), mid_loss);

    restored
        .train(
            &data,
            &TrainerOptions {
                epochs: 30,
                batch_size: 32,
                ..Default::default()
            },
        )
        .unwrap();
    let final_loss = restored.cross_entropy(&data).unwrap();
    assert!(
        final_loss < mid_loss,
        "continuation did not improve: {final_loss} vs {mid_loss}"
    );
}

#[test]
fn top_k_accuracy_saturates_with_k() {
    let data = ring_blobs(6, 30, 1.2, 17); // heavy overlap on purpose
    let mut net = Network::new(&NetworkConfig::new(&[2, 16, 6]), 21);
    net.train(
        &data,
        &TrainerOptions {
            epochs: 20,
            batch_size: 32,
            ..Default::default()
        },
    )
    .unwrap();
    let a1 = net.top_k_accuracy(&data, 1).unwrap();
    let a3 = net.top_k_accuracy(&data, 3).unwrap();
    let a6 = net.top_k_accuracy(&data, 6).unwrap();
    assert!(a1 <= a3 && a3 <= a6);
    assert_eq!(a6, 1.0);
}

#[test]
fn threaded_and_sequential_training_reach_similar_quality() {
    let data = ring_blobs(4, 80, 0.4, 23);
    let base = TrainerOptions {
        epochs: 25,
        batch_size: 64,
        ..Default::default()
    };
    let mut seq = Network::new(&NetworkConfig::new(&[2, 24, 4]), 31);
    let mut par = seq.clone();
    seq.train(&data, &base.clone()).unwrap();
    par.train(&data, &TrainerOptions { threads: 4, ..base })
        .unwrap();
    let a_seq = seq.accuracy(&data).unwrap();
    let a_par = par.accuracy(&data).unwrap();
    assert!((a_seq - a_par).abs() < 0.05, "{a_seq} vs {a_par}");
    assert!(a_seq > 0.9 && a_par > 0.9);
}
