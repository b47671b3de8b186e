//! A from-scratch feed-forward deep neural network.
//!
//! This crate provides everything the DNN performance modeler of
//! *Ritter et al., IPDPS 2021* needs, without any external ML framework:
//!
//! * dense (fully connected) layers with tanh hidden activations and
//!   Xavier initialization,
//! * a softmax + cross-entropy classification head,
//! * one training loop, [`Network::train`]: mini-batch **AdaMax** (the
//!   paper's optimizer) under a watchdog that clips gradients and rolls
//!   back numerical faults, with a validation-gated variant
//!   ([`Network::train_validated`]) for retraining a deployed network,
//! * a chunk-parallel gradient engine whose result is bitwise identical at
//!   any thread count,
//! * serde-based model persistence so the pretrained network can be shipped
//!   and later retrained (domain adaptation).
//!
//! # Example: learn XOR
//!
//! ```
//! use nrpm_nn::{Dataset, Network, NetworkConfig, TrainerOptions};
//! use nrpm_linalg::Matrix;
//!
//! let inputs = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let labels = vec![0, 1, 1, 0];
//! let data = Dataset::new(inputs, labels, 2).unwrap();
//!
//! let config = NetworkConfig::new(&[2, 16, 2]);
//! let mut net = Network::new(&config, 7);
//! let opts = TrainerOptions { epochs: 400, batch_size: 4, ..Default::default() };
//! net.train(&data, &opts).unwrap();
//! assert!(net.accuracy(&data).unwrap() > 0.99);
//! ```

#![warn(missing_docs)]

mod activation;
mod arena;
mod dataset;
mod layer;
mod metrics;
mod network;
mod optimizer;
mod packed;
mod quant;
mod trainer;
mod validate;
mod watchdog;

pub use activation::Activation;
pub use dataset::Dataset;
pub use layer::DenseLayer;
pub use metrics::{accuracy, confusion_matrix, top_k_accuracy, top_k_classes};
pub use network::{Network, NetworkConfig, NetworkError};
pub use optimizer::OptimizerKind;
pub use packed::PackedNetwork;
pub use quant::{QuantError, QuantGate, QuantReport, QuantizedNetwork};
pub use trainer::{TrainerOptions, TrainingReport};
pub use validate::ValidatedReport;
pub use watchdog::{FaultDetected, FaultEvent};
