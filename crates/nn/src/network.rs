//! The feed-forward network: configuration, inference, persistence.

use crate::activation::{softmax_rows, Activation};
use crate::dataset::Dataset;
use crate::layer::DenseLayer;
use crate::metrics;
use nrpm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Architecture description of a classifier network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Layer widths, from the input dimension to the number of classes,
    /// e.g. `[11, 1500, 1500, 750, 250, 250, 43]`.
    pub layer_sizes: Vec<usize>,
    /// Activation of the hidden layers (output is always softmax, fused
    /// with the cross-entropy loss).
    pub hidden_activation: Activation,
}

impl NetworkConfig {
    /// A config from explicit layer sizes with tanh hidden activations.
    pub fn new(layer_sizes: &[usize]) -> Self {
        assert!(
            layer_sizes.len() >= 2,
            "need at least input and output layers"
        );
        NetworkConfig {
            layer_sizes: layer_sizes.to_vec(),
            hidden_activation: Activation::Tanh,
        }
    }

    /// The paper's architecture (Sec. IV-D): input layer with 11 neurons,
    /// five dense hidden layers (2×1500, 750, 2×250) with tanh, and a
    /// 43-class softmax output.
    pub fn paper() -> Self {
        NetworkConfig::new(&[11, 1500, 1500, 750, 250, 250, 43])
    }

    /// A reduced architecture with the same input/output contract, used as
    /// the default for large benchmark sweeps (see DESIGN.md: retraining a
    /// 3.7 M-parameter network inside every sweep iteration would dominate
    /// wall-clock time without changing who wins).
    pub fn compact() -> Self {
        NetworkConfig::new(&[11, 256, 128, 64, 43])
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layer_sizes[0]
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        *self.layer_sizes.last().expect("at least two layers")
    }
}

/// Errors produced by network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The input dimension does not match the network's input layer.
    InputDimension {
        /// Dimension supplied.
        got: usize,
        /// Dimension expected.
        expected: usize,
    },
    /// The dataset's class count does not match the output layer.
    ClassCount {
        /// Classes in the dataset.
        got: usize,
        /// Classes of the network.
        expected: usize,
    },
    /// The dataset is empty.
    EmptyDataset,
    /// Persistence failed.
    Io(String),
    /// A loaded checkpoint is structurally broken: non-finite weights,
    /// inconsistent layer dimensions, or malformed weight storage.
    InvalidCheckpoint(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::InputDimension { got, expected } => {
                write!(f, "input has {got} features, network expects {expected}")
            }
            NetworkError::ClassCount { got, expected } => {
                write!(f, "dataset has {got} classes, network predicts {expected}")
            }
            NetworkError::EmptyDataset => write!(f, "dataset is empty"),
            NetworkError::Io(e) => write!(f, "persistence error: {e}"),
            NetworkError::InvalidCheckpoint(e) => write!(f, "invalid checkpoint: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A feed-forward classifier: dense hidden layers plus a softmax head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<DenseLayer>,
}

impl Network {
    /// Builds a freshly initialized network from `config`, seeded for
    /// reproducibility.
    pub fn new(config: &NetworkConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = config.layer_sizes.len();
        let mut layers = Vec::with_capacity(n - 1);
        for w in 0..n - 1 {
            let activation = if w == n - 2 {
                Activation::Identity // logits; softmax is fused with the loss
            } else {
                config.hidden_activation
            };
            layers.push(DenseLayer::new(
                config.layer_sizes[w],
                config.layer_sizes[w + 1],
                activation,
                &mut rng,
            ));
        }
        Network { layers }
    }

    /// The layers (immutable).
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// The layers (mutable — used by the trainer).
    pub(crate) fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(DenseLayer::num_parameters).sum()
    }

    /// Forward pass returning every layer's activation (index 0 is the
    /// input batch itself); the last entry holds the raw logits.
    pub(crate) fn forward_all(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("non-empty"));
            acts.push(next);
        }
        acts
    }

    /// Raw logits for a batch.
    pub fn logits(&self, x: &Matrix) -> Result<Matrix, NetworkError> {
        if x.cols() != self.input_dim() {
            return Err(NetworkError::InputDimension {
                got: x.cols(),
                expected: self.input_dim(),
            });
        }
        let mut a = x.clone();
        for layer in &self.layers {
            a = layer.forward(&a);
        }
        Ok(a)
    }

    /// Class-probability rows (softmax over the logits) for a batch.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Matrix, NetworkError> {
        let mut logits = self.logits(x)?;
        let classes = self.num_classes();
        softmax_rows(logits.as_mut_slice(), classes);
        Ok(logits)
    }

    /// Probability vector for a single input.
    pub fn predict_proba_one(&self, input: &[f64]) -> Result<Vec<f64>, NetworkError> {
        let x = Matrix::from_vec(1, input.len(), input.to_vec());
        Ok(self.predict_proba(&x)?.as_slice().to_vec())
    }

    /// Mean cross-entropy loss over a dataset.
    pub fn cross_entropy(&self, data: &Dataset) -> Result<f64, NetworkError> {
        self.check_dataset(data)?;
        let probs = self.predict_proba(data.inputs())?;
        let classes = self.num_classes();
        let mut loss = 0.0;
        for (i, &label) in data.labels().iter().enumerate() {
            let p = probs.as_slice()[i * classes + label].max(1e-300);
            loss -= p.ln();
        }
        Ok(loss / data.len() as f64)
    }

    /// Top-1 accuracy over a dataset.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64, NetworkError> {
        self.check_dataset(data)?;
        let probs = self.predict_proba(data.inputs())?;
        let rows: Vec<&[f64]> = (0..data.len()).map(|r| probs.row(r)).collect();
        Ok(metrics::accuracy(&rows, data.labels()))
    }

    /// Top-k accuracy over a dataset.
    pub fn top_k_accuracy(&self, data: &Dataset, k: usize) -> Result<f64, NetworkError> {
        self.check_dataset(data)?;
        let probs = self.predict_proba(data.inputs())?;
        let rows: Vec<&[f64]> = (0..data.len()).map(|r| probs.row(r)).collect();
        Ok(metrics::top_k_accuracy(&rows, data.labels(), k))
    }

    pub(crate) fn check_dataset(&self, data: &Dataset) -> Result<(), NetworkError> {
        if data.is_empty() {
            return Err(NetworkError::EmptyDataset);
        }
        if data.num_features() != self.input_dim() {
            return Err(NetworkError::InputDimension {
                got: data.num_features(),
                expected: self.input_dim(),
            });
        }
        if data.num_classes() != self.num_classes() {
            return Err(NetworkError::ClassCount {
                got: data.num_classes(),
                expected: self.num_classes(),
            });
        }
        Ok(())
    }

    /// Checks the structural invariants a trustworthy checkpoint must hold:
    /// at least one layer, positive and chain-consistent layer dimensions,
    /// weight storage that matches its declared shape, bias vectors of the
    /// output width, and exclusively finite parameters.
    ///
    /// Deserialization ([`Network::from_json`], [`Network::load`]) runs this
    /// automatically so a corrupt checkpoint is rejected with a descriptive
    /// [`NetworkError::InvalidCheckpoint`] at load time instead of
    /// surfacing later as a panic or silently broken inference.
    pub fn validate(&self) -> Result<(), NetworkError> {
        let invalid = |msg: String| Err(NetworkError::InvalidCheckpoint(msg));
        if self.layers.is_empty() {
            return invalid("network has no layers".to_string());
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let (rows, cols) = layer.weights.shape();
            if rows == 0 || cols == 0 {
                return invalid(format!("layer {i} has zero dimension ({rows}x{cols})"));
            }
            if layer.weights.as_slice().len() != rows * cols {
                return invalid(format!(
                    "layer {i} weight storage holds {} values for declared shape {rows}x{cols}",
                    layer.weights.as_slice().len()
                ));
            }
            if layer.biases.len() != cols {
                return invalid(format!(
                    "layer {i} has {} biases for {cols} output neurons",
                    layer.biases.len()
                ));
            }
            if i > 0 {
                let prev_out = self.layers[i - 1].out_dim();
                if prev_out != rows {
                    return invalid(format!(
                        "layer {} outputs {prev_out} values but layer {i} expects {rows} inputs",
                        i - 1
                    ));
                }
            }
            if !layer.weights.all_finite() {
                return invalid(format!("layer {i} contains non-finite weights"));
            }
            if layer.biases.iter().any(|b| !b.is_finite()) {
                return invalid(format!("layer {i} contains non-finite biases"));
            }
        }
        Ok(())
    }

    /// Serializes the network (architecture + weights) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Network serializes")
    }

    /// Deserializes a network from JSON, rejecting structurally broken
    /// checkpoints (see [`Network::validate`]).
    pub fn from_json(json: &str) -> Result<Self, NetworkError> {
        let net: Network =
            serde_json::from_str(json).map_err(|e| NetworkError::Io(e.to_string()))?;
        net.validate()?;
        Ok(net)
    }

    /// Writes the network to a file.
    pub fn save(&self, path: &Path) -> Result<(), NetworkError> {
        std::fs::write(path, self.to_json()).map_err(|e| NetworkError::Io(e.to_string()))
    }

    /// Reads a network from a file, rejecting structurally broken
    /// checkpoints (see [`Network::validate`]).
    pub fn load(path: &Path) -> Result<Self, NetworkError> {
        let json = std::fs::read_to_string(path).map_err(|e| NetworkError::Io(e.to_string()))?;
        Network::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_architecture_matches_section_iv_d() {
        let config = NetworkConfig::paper();
        assert_eq!(config.layer_sizes, vec![11, 1500, 1500, 750, 250, 250, 43]);
        assert_eq!(config.input_dim(), 11);
        assert_eq!(config.num_classes(), 43);
        let net = Network::new(&config, 1);
        // 11*1500+1500 + 1500*1500+1500 + 1500*750+750 + 750*250+250
        // + 250*250+250 + 250*43+43
        let expected = 11 * 1500
            + 1500
            + 1500 * 1500
            + 1500
            + 1500 * 750
            + 750
            + 750 * 250
            + 250
            + 250 * 250
            + 250
            + 250 * 43
            + 43;
        assert_eq!(net.num_parameters(), expected);
        // Hidden layers tanh, logits identity.
        assert_eq!(net.layers()[0].activation, Activation::Tanh);
        assert_eq!(
            net.layers().last().unwrap().activation,
            Activation::Identity
        );
    }

    #[test]
    fn predictions_are_probability_distributions() {
        let net = Network::new(&NetworkConfig::new(&[3, 8, 4]), 5);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3], &[1.0, -1.0, 0.5]]);
        let p = net.predict_proba(&x).unwrap();
        for r in 0..2 {
            let sum: f64 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let config = NetworkConfig::compact();
        let a = Network::new(&config, 42);
        let b = Network::new(&config, 42);
        let c = Network::new(&config, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn input_dimension_is_checked() {
        let net = Network::new(&NetworkConfig::new(&[3, 4, 2]), 1);
        let bad = Matrix::zeros(1, 5);
        assert!(matches!(
            net.predict_proba(&bad),
            Err(NetworkError::InputDimension {
                got: 5,
                expected: 3
            })
        ));
    }

    #[test]
    fn dataset_compatibility_is_checked() {
        let net = Network::new(&NetworkConfig::new(&[3, 4, 2]), 1);
        let empty = Dataset::new(Matrix::zeros(0, 3), vec![], 2).unwrap();
        assert_eq!(net.accuracy(&empty), Err(NetworkError::EmptyDataset));
        let wrong_classes = Dataset::new(Matrix::zeros(2, 3), vec![0, 1], 5).unwrap();
        assert!(matches!(
            net.accuracy(&wrong_classes),
            Err(NetworkError::ClassCount {
                got: 5,
                expected: 2
            })
        ));
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let net = Network::new(&NetworkConfig::new(&[4, 10, 3]), 11);
        let back = Network::from_json(&net.to_json()).unwrap();
        let x = [0.25, -0.5, 0.75, 1.0];
        assert_eq!(
            net.predict_proba_one(&x).unwrap(),
            back.predict_proba_one(&x).unwrap()
        );
    }

    #[test]
    fn non_finite_weights_are_rejected_at_load() {
        let mut net = Network::new(&NetworkConfig::new(&[2, 4, 2]), 9);
        net.layers_mut()[0].weights.as_mut_slice()[0] = f64::NAN;
        assert!(
            matches!(net.validate(), Err(NetworkError::InvalidCheckpoint(ref m)) if m.contains("non-finite"))
        );
        // NaN serializes as JSON null and deserializes back to NaN; the
        // load path must refuse the checkpoint rather than hand out a
        // network that poisons every forward pass.
        let err = Network::from_json(&net.to_json()).unwrap_err();
        assert!(matches!(err, NetworkError::InvalidCheckpoint(ref m) if m.contains("layer 0")));
    }

    #[test]
    fn non_finite_biases_are_rejected() {
        let mut net = Network::new(&NetworkConfig::new(&[2, 4, 2]), 9);
        net.layers_mut()[1].biases[1] = f64::INFINITY;
        assert!(matches!(
            net.validate(),
            Err(NetworkError::InvalidCheckpoint(ref m)) if m.contains("biases")
        ));
    }

    #[test]
    fn inconsistent_layer_chain_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        // 2->4 followed by 3->2: the 4-wide output feeds a 3-wide input.
        let net = Network {
            layers: vec![
                DenseLayer::new(2, 4, Activation::Tanh, &mut rng),
                DenseLayer::new(3, 2, Activation::Identity, &mut rng),
            ],
        };
        let err = net.validate().unwrap_err();
        assert!(
            matches!(err, NetworkError::InvalidCheckpoint(ref m) if m.contains("outputs 4") && m.contains("expects 3")),
            "{err}"
        );
        assert!(Network::from_json(&net.to_json()).is_err());
    }

    #[test]
    fn tampered_weight_shape_is_rejected() {
        let net = Network::new(&NetworkConfig::new(&[2, 3]), 5);
        // Declare one more weight row than the storage actually holds.
        let tampered = net.to_json().replacen("\"rows\":2", "\"rows\":3", 1);
        let err = Network::from_json(&tampered).unwrap_err();
        assert!(
            matches!(err, NetworkError::InvalidCheckpoint(ref m) if m.contains("weight storage")),
            "{err}"
        );
    }

    #[test]
    fn empty_network_is_rejected() {
        let net = Network { layers: vec![] };
        assert!(matches!(
            net.validate(),
            Err(NetworkError::InvalidCheckpoint(ref m)) if m.contains("no layers")
        ));
    }

    #[test]
    fn truncated_checkpoint_is_an_error_not_a_panic() {
        let json = Network::new(&NetworkConfig::new(&[2, 3]), 5).to_json();
        for cut in [0, 1, json.len() / 2, json.len() - 1] {
            assert!(
                matches!(Network::from_json(&json[..cut]), Err(NetworkError::Io(_))),
                "truncation at {cut} must fail cleanly"
            );
        }
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("nrpm_nn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        let net = Network::new(&NetworkConfig::new(&[2, 5, 2]), 3);
        net.save(&path).unwrap();
        let back = Network::load(&path).unwrap();
        assert_eq!(net, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cross_entropy_of_uniform_predictor_is_log_num_classes() {
        // A network with zero weights outputs uniform probabilities.
        let mut net = Network::new(&NetworkConfig::new(&[2, 4]), 1);
        net.layers_mut()[0].weights.fill_zero();
        let data = Dataset::new(Matrix::zeros(3, 2), vec![0, 1, 3], 4).unwrap();
        let ce = net.cross_entropy(&data).unwrap();
        assert!((ce - 4.0f64.ln()).abs() < 1e-12);
    }
}
