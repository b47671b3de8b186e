//! An f64 inference snapshot of a [`Network`] whose weights are packed
//! once into the GEMM panel layout.
//!
//! [`Network::predict_proba`] hands each layer's row-major weights to
//! [`nrpm_linalg::matmul`]. At serving batch sizes (one or two rows) that
//! product takes the direct path, which reads the weights as 16-column
//! strips one weight row apart. A [`PackedNetwork`] packs every layer
//! into [`PackedGemmB`] panels at build time, so a forward pass streams
//! each weight once, in order, and packs nothing per call. The arithmetic
//! is unchanged: the same accumulation order, bias epilogue and softmax,
//! so the probabilities are bitwise equal to the reference.
//!
//! The two activation buffers a pass alternates between are kept per
//! thread, as the int8 pass keeps its own: at 64 rows they are 0.77 MB,
//! and allocating them per call made a 64- or 256-row pass 6–8 % slower.
//! A larger batch runs in chunks of [`CHUNK_ROWS`] rows (rows accumulate
//! independently, so the result is the same bits), which bounds what a
//! thread keeps.

use crate::activation::{softmax_rows, Activation};
use crate::layer::bias_and_activate;
use crate::network::{Network, NetworkError};
use crate::quant::CHUNK_ROWS;
use nrpm_linalg::{matmul_prepacked_into, MatmulOptions, Matrix, PackedGemmB};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Each thread's activation buffers, kept from one pass to the next.
    static ACTIVATIONS: RefCell<[Matrix; 2]> =
        RefCell::new([Matrix::zeros(0, 0), Matrix::zeros(0, 0)]);
}

struct PackedLayer {
    weights: PackedGemmB,
    biases: Vec<f64>,
    activation: Activation,
}

/// An f64, inference-only snapshot of a [`Network`] with pre-packed
/// weights. Its [`predict_proba`](Self::predict_proba) is bitwise equal to
/// [`Network::predict_proba`] on the network it was built from; it does
/// not follow later changes to that network.
pub struct PackedNetwork {
    layers: Vec<PackedLayer>,
    input_dim: usize,
    classes: usize,
}

impl PackedNetwork {
    /// Packs every layer of `net`.
    pub fn new(net: &Network) -> PackedNetwork {
        let layers = net
            .layers()
            .iter()
            .map(|layer| {
                let (k, n) = layer.weights.shape();
                PackedLayer {
                    weights: PackedGemmB::pack(layer.weights.as_slice(), k, n),
                    biases: layer.biases.clone(),
                    activation: layer.activation,
                }
            })
            .collect();
        PackedNetwork {
            layers,
            input_dim: net.input_dim(),
            classes: net.num_classes(),
        }
    }

    /// Class-probability rows for a batch. Mirrors
    /// [`Network::predict_proba`] bit for bit.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Matrix, NetworkError> {
        if x.cols() != self.input_dim {
            return Err(NetworkError::InputDimension {
                got: x.cols(),
                expected: self.input_dim,
            });
        }
        let mut logits = Vec::with_capacity(x.rows() * self.classes);
        ACTIVATIONS.with(|buffers| {
            let [cur, next] = &mut *buffers.borrow_mut();
            for rows in x.as_slice().chunks(CHUNK_ROWS * self.input_dim) {
                cur.resize(rows.len() / self.input_dim, self.input_dim);
                cur.as_mut_slice().copy_from_slice(rows);
                for layer in &self.layers {
                    next.resize(cur.rows(), layer.weights.n());
                    matmul_prepacked_into(cur, &layer.weights, next, MatmulOptions::default())
                        .expect("layer shapes are validated at construction");
                    bias_and_activate(next, &layer.biases, layer.activation);
                    std::mem::swap(cur, next);
                }
                logits.extend_from_slice(cur.as_slice());
            }
        });
        let mut probs = Matrix::from_vec(x.rows(), self.classes, logits);
        softmax_rows(probs.as_mut_slice(), self.classes);
        Ok(probs)
    }

    /// Bytes held by the packed weight panels across all layers.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weights.bytes()).sum()
    }
}

impl fmt::Debug for PackedNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedNetwork")
            .field("layers", &self.layers.len())
            .field("input_dim", &self.input_dim)
            .field("classes", &self.classes)
            .field("weight_bytes", &self.weight_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn paper_network_probabilities_are_bitwise_equal_to_the_reference() {
        let net = Network::new(&NetworkConfig::paper(), 17);
        let packed = PackedNetwork::new(&net);
        let mut rng = StdRng::seed_from_u64(21);
        for rows in [1, 2, 3, 8, 16, 17, 64] {
            let data: Vec<f64> = (0..rows * 11).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let x = Matrix::from_vec(rows, 11, data);
            let want = net.predict_proba(&x).unwrap();
            let got = packed.predict_proba(&x).unwrap();
            assert_eq!(got.shape(), want.shape());
            assert_eq!(bits(&got), bits(&want), "rows {rows}");
        }
    }

    #[test]
    fn every_activation_matches_the_reference() {
        // Tanh hidden layers and the identity logits layer, with non-zero
        // biases so the fused epilogue is exercised.
        let mut net = Network::new(&NetworkConfig::new(&[5, 40, 33, 7]), 3);
        for layer in net.layers_mut() {
            for (i, b) in layer.biases.iter_mut().enumerate() {
                *b = (i as f64 * 0.37).sin();
            }
        }
        let packed = PackedNetwork::new(&net);
        let x = Matrix::from_fn(5, 5, |r, c| (r as f64 - c as f64 * 0.5) * 0.3);
        assert_eq!(
            bits(&packed.predict_proba(&x).unwrap()),
            bits(&net.predict_proba(&x).unwrap())
        );
    }

    #[test]
    fn a_batch_past_the_chunk_size_matches_the_reference() {
        let net = Network::new(&NetworkConfig::new(&[4, 40, 30, 3]), 5);
        let packed = PackedNetwork::new(&net);
        let rows = 2 * CHUNK_ROWS + 7;
        let x = Matrix::from_fn(rows, 4, |r, c| ((r * 4 + c) as f64 * 0.173).sin() * 2.0);
        assert_eq!(
            bits(&packed.predict_proba(&x).unwrap()),
            bits(&net.predict_proba(&x).unwrap())
        );
        // A warm thread's next, smaller pass reuses the buffers as is.
        let one = Matrix::from_fn(1, 4, |_, c| c as f64);
        assert_eq!(
            bits(&packed.predict_proba(&one).unwrap()),
            bits(&net.predict_proba(&one).unwrap())
        );
    }

    #[test]
    fn size_and_input_width_are_checked() {
        let net = Network::new(&NetworkConfig::new(&[3, 20, 4]), 1);
        let packed = PackedNetwork::new(&net);
        // Both layers pad their columns to whole 16-wide panels.
        assert_eq!(packed.weight_bytes(), (3 * 32 + 20 * 16) * 8);
        assert!(matches!(
            packed.predict_proba(&Matrix::zeros(1, 5)),
            Err(NetworkError::InputDimension {
                got: 5,
                expected: 3
            })
        ));
    }
}
