//! Per-layer symmetric int8 quantization of a validated [`Network`], with
//! an accuracy gate against the f64 reference.
//!
//! # Scheme
//!
//! * **Weights** — per-output-channel symmetric scales: column `j` of a
//!   layer's weight matrix is divided by `sw[j] = max|W[:,j]| / 127` and
//!   rounded to `i8`, then packed once into the ISA-specific panel layout
//!   of [`nrpm_linalg::QuantizedGemmB`].
//! * **Activations** — per-row dynamic scales: each batch row is divided by
//!   `sa[r] = max|x[r,:]| / 127` at forward time. Accumulation is exact
//!   `i32`; the product is dequantized as `acc * sa[r] * sw[j] + bias[j]`
//!   in `f32` and the layer activation applied in `f32`. The final logits
//!   are widened to `f64` and softmaxed with the same
//!   [`softmax_rows`](crate::activation::softmax_rows) the reference uses.
//!
//! # Accuracy gate
//!
//! [`QuantizedNetwork::validated`] runs both the f64 network and the int8
//! network over a calibration batch and rejects the quantization unless the
//! max class-probability drift stays within [`QuantGate::max_prob_drift`]
//! **and** the argmax class agrees on at least `calib_rows -
//! max_argmax_flips` rows (default: every row). Callers fall back to the
//! f64 path on rejection, so quantization can never silently change a
//! served class — the same tolerance argument the memristive/CIM
//! experiments make for 8-bit DACs on this classifier shape.

use crate::activation::{softmax_rows, Activation};
use crate::network::{Network, NetworkError};
use nrpm_linalg::qgemm::{self, testing::Int8Layout};
use nrpm_linalg::{gemm_i8, kernel_isa, KernelIsa, Matrix, QuantizedGemmB};
use std::cell::RefCell;
use std::fmt;

/// Acceptance thresholds for [`QuantizedNetwork::validated`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantGate {
    /// Maximum allowed absolute drift of any class probability on the
    /// calibration set.
    pub max_prob_drift: f64,
    /// Maximum calibration rows whose argmax class may differ (default 0:
    /// the quantized path must never change a predicted class).
    pub max_argmax_flips: usize,
}

impl Default for QuantGate {
    fn default() -> Self {
        QuantGate {
            max_prob_drift: 0.05,
            max_argmax_flips: 0,
        }
    }
}

/// What the accuracy gate measured on the calibration set.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct QuantReport {
    /// Rows in the calibration batch.
    pub calib_rows: usize,
    /// Largest absolute class-probability difference vs the f64 reference.
    pub max_prob_drift: f64,
    /// Calibration rows whose argmax class changed.
    pub argmax_flips: usize,
    /// Bytes held by the packed int8 weights.
    pub weight_bytes: usize,
}

/// Why quantization was not used.
#[derive(Debug, Clone)]
pub enum QuantError {
    /// The network failed structural validation or the calibration set is
    /// unusable.
    Unsupported(String),
    /// The accuracy gate rejected the quantized model; the report says by
    /// how much. Callers should serve the f64 reference instead.
    GateRejected(QuantReport),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::Unsupported(msg) => write!(f, "quantization unsupported: {msg}"),
            QuantError::GateRejected(r) => write!(
                f,
                "quantization gate rejected: {} argmax flips, max prob drift {:.4} over {} rows",
                r.argmax_flips, r.max_prob_drift, r.calib_rows
            ),
        }
    }
}

impl std::error::Error for QuantError {}

#[derive(Clone)]
struct QuantLayer {
    weights: QuantizedGemmB,
    /// Per-output-channel weight scales.
    w_scales: Vec<f32>,
    biases: Vec<f32>,
    activation: Activation,
}

/// An int8-quantized, inference-only snapshot of a [`Network`].
#[derive(Clone)]
pub struct QuantizedNetwork {
    layers: Vec<QuantLayer>,
    input_dim: usize,
    classes: usize,
}

/// The activation buffers of one int8 forward pass.
#[derive(Default)]
struct Scratch {
    cur: Vec<f32>,
    next: Vec<f32>,
    qa: Vec<i8>,
    scales: Vec<f32>,
    acc: Vec<i32>,
}

/// Rows per forward pass, here and in [`crate::PackedNetwork`]. A larger
/// batch runs in chunks of this many (each row is quantized and
/// multiplied on its own, so the result is the same bits), which bounds
/// what [`SCRATCH`] keeps per thread at what a 256-row batch needs: about
/// 5 MB on the paper network.
pub(crate) const CHUNK_ROWS: usize = 256;

thread_local! {
    /// Each thread's forward-pass buffers, kept from one batch to the
    /// next. A batch's buffers run to megabytes (256 rows × 1500 i32
    /// accumulators alone is 1.5 MB): allocated per batch, the allocator
    /// maps them fresh and unmaps them after, so every batch faulted them
    /// in again and every unmap interrupted the other worker's core.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Branchless fast `tanh`: the [7/6] Padé approximant on a clamped
/// argument. Max absolute error vs. the true tanh is < 1e-4 over all of
/// ℝ — two orders of magnitude below typical int8 quantization drift, so
/// it cannot meaningfully move the accuracy gate. Being call-free and
/// branch-free it autovectorizes (4 lanes on the SSE2 baseline, 16 in
/// the AVX-512 build of [`QuantizedNetwork::forward`]), unlike the libm
/// `tanhf` the f64 reference path uses; element-independent IEEE ops
/// keep the result bitwise deterministic at any vector width.
#[inline]
fn tanh_fast(v: f32) -> f32 {
    let x = v.clamp(-4.97, 4.97);
    let x2 = x * x;
    let p = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
    let q = 135135.0 + x2 * (62370.0 + x2 * (3150.0 + 28.0 * x2));
    p / q
}

/// `v` clamped to [-127, 127] and rounded half away from zero: the
/// truncation of `y + copysign(0.5, y)`, with NaN mapped to 0 as the
/// saturating cast maps it.
///
/// The conversion is what keeps the quantization loop vectorized. On the
/// baseline x86-64 target `f32::trunc` is a libm call, and the saturating
/// `as i32` cast expands to a scalar fix-up per element; either runs the
/// loop one element at a time. After the clamp and the NaN select the value
/// is in range, so the unchecked conversion is one `cvttps2dq` lane op.
#[inline]
fn round_away(v: f32) -> i8 {
    let y = v.clamp(-127.0, 127.0);
    let t = y + 0.5f32.copysign(y);
    let t = if t.is_nan() { 0.0 } else { t };
    // SAFETY: `t` is finite and within [-127.5, 127.5], so its truncation
    // is representable in `i32`.
    unsafe { t.to_int_unchecked::<i32>() as i8 }
}

/// Whether [`QuantizedNetwork::predict_proba`] runs the AVX-512 build of
/// the forward pass: the kernels run AVX-512 (see [`kernel_isa`]) and the
/// CPU has the VL extension the build is compiled with.
fn wide_epilogue() -> bool {
    #[cfg(target_arch = "x86_64")]
    let vl = is_x86_feature_detected!("avx512vl");
    #[cfg(not(target_arch = "x86_64"))]
    let vl = false;
    kernel_isa() == KernelIsa::Avx512 && vl
}

fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

impl QuantizedNetwork {
    /// Quantizes every layer of a structurally valid network. Does **not**
    /// check accuracy — use [`QuantizedNetwork::validated`] for the gated
    /// construction serving relies on.
    pub fn quantize(net: &Network) -> Result<QuantizedNetwork, QuantError> {
        Self::quantize_with(net, QuantizedGemmB::pack)
    }

    /// Test hook: [`QuantizedNetwork::quantize`] with every layer packed in
    /// `layout` instead of the CPU's native one.
    #[doc(hidden)]
    pub fn quantize_forced(
        net: &Network,
        layout: Int8Layout,
    ) -> Result<QuantizedNetwork, QuantError> {
        Self::quantize_with(net, |q, k, n| qgemm::testing::pack_forced(q, k, n, layout))
    }

    fn quantize_with(
        net: &Network,
        pack: impl Fn(&[i8], usize, usize) -> QuantizedGemmB,
    ) -> Result<QuantizedNetwork, QuantError> {
        net.validate()
            .map_err(|e| QuantError::Unsupported(e.to_string()))?;
        let layers = net
            .layers()
            .iter()
            .map(|layer| {
                let (k, n) = layer.weights.shape();
                let w = layer.weights.as_slice();
                let mut w_scales = vec![0.0f64; n];
                for row in w.chunks(n) {
                    for (s, &v) in w_scales.iter_mut().zip(row) {
                        *s = s.max(v.abs());
                    }
                }
                let w_scales: Vec<f64> = w_scales
                    .into_iter()
                    .map(|m| if m > 0.0 { m / 127.0 } else { 1.0 })
                    .collect();
                let mut q = vec![0i8; k * n];
                for (qrow, row) in q.chunks_mut(n).zip(w.chunks(n)) {
                    for ((qv, &v), s) in qrow.iter_mut().zip(row).zip(&w_scales) {
                        *qv = (v / s).round().clamp(-127.0, 127.0) as i8;
                    }
                }
                QuantLayer {
                    weights: pack(&q, k, n),
                    w_scales: w_scales.into_iter().map(|s| s as f32).collect(),
                    biases: layer.biases.iter().map(|&b| b as f32).collect(),
                    activation: layer.activation,
                }
            })
            .collect();
        Ok(QuantizedNetwork {
            layers,
            input_dim: net.input_dim(),
            classes: net.num_classes(),
        })
    }

    /// Quantizes `net` and accepts the result only if it tracks the f64
    /// reference on `calib` within `gate`. Returns the quantized network
    /// and the gate measurements, or [`QuantError::GateRejected`] carrying
    /// the same measurements so the caller can report why it fell back.
    pub fn validated(
        net: &Network,
        calib: &Matrix,
        gate: &QuantGate,
    ) -> Result<(QuantizedNetwork, QuantReport), QuantError> {
        if calib.rows() == 0 {
            return Err(QuantError::Unsupported("empty calibration set".to_string()));
        }
        let q = Self::quantize(net)?;
        let reference = net
            .predict_proba(calib)
            .map_err(|e| QuantError::Unsupported(e.to_string()))?;
        let quantized = q
            .predict_proba(calib)
            .map_err(|e| QuantError::Unsupported(e.to_string()))?;
        let classes = q.classes;
        let mut max_drift = 0.0f64;
        let mut flips = 0usize;
        for r in 0..calib.rows() {
            let ref_row = &reference.as_slice()[r * classes..(r + 1) * classes];
            let q_row = &quantized.as_slice()[r * classes..(r + 1) * classes];
            for (a, b) in ref_row.iter().zip(q_row) {
                max_drift = max_drift.max((a - b).abs());
            }
            if argmax(ref_row) != argmax(q_row) {
                flips += 1;
            }
        }
        let report = QuantReport {
            calib_rows: calib.rows(),
            max_prob_drift: max_drift,
            argmax_flips: flips,
            weight_bytes: q.weight_bytes(),
        };
        if flips > gate.max_argmax_flips || max_drift > gate.max_prob_drift {
            return Err(QuantError::GateRejected(report));
        }
        Ok((q, report))
    }

    /// Class-probability rows for a batch, computed on the int8 path.
    /// Mirrors [`Network::predict_proba`].
    pub fn predict_proba(&self, x: &Matrix) -> Result<Matrix, NetworkError> {
        self.predict_with(x, wide_epilogue())
    }

    /// Test hook: [`QuantizedNetwork::predict_proba`] with the forward
    /// pass compiled for baseline x86-64, whatever the CPU supports.
    #[doc(hidden)]
    pub fn predict_proba_baseline(&self, x: &Matrix) -> Result<Matrix, NetworkError> {
        self.predict_with(x, false)
    }

    /// [`QuantizedNetwork::predict_proba`], running the AVX-512 build of
    /// the forward pass when `wide` is set.
    fn predict_with(&self, x: &Matrix, wide: bool) -> Result<Matrix, NetworkError> {
        if x.cols() != self.input_dim {
            return Err(NetworkError::InputDimension {
                got: x.cols(),
                expected: self.input_dim,
            });
        }
        let mut probs = Vec::with_capacity(x.rows() * self.classes);
        SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            for rows in x.as_slice().chunks(CHUNK_ROWS * self.input_dim) {
                #[cfg(target_arch = "x86_64")]
                if wide {
                    // SAFETY: `wide` is only set where `wide_epilogue()`
                    // found AVX-512F, BW and VL.
                    unsafe { self.forward_avx512(rows, scratch, &mut probs) };
                    continue;
                }
                self.forward(rows, scratch, &mut probs);
            }
        });
        let mut probs = Matrix::from_vec(x.rows(), self.classes, probs);
        softmax_rows(probs.as_mut_slice(), self.classes);
        Ok(probs)
    }

    /// [`QuantizedNetwork::forward`] compiled for AVX-512: the same IEEE
    /// operations in the same order (Rust does not contract them into
    /// FMAs), so the same bits, on 16 lanes instead of SSE2's 4.
    ///
    /// # Safety
    /// The CPU supports AVX-512F, AVX-512BW and AVX-512VL.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    unsafe fn forward_avx512(&self, x: &[f64], scratch: &mut Scratch, logits: &mut Vec<f64>) {
        self.forward(x, scratch, logits);
    }

    /// Runs the rows of `x` (row-major, `input_dim` wide) through the
    /// layers and appends their logits to `logits`. Inlined into
    /// [`QuantizedNetwork::predict_with`] and
    /// [`QuantizedNetwork::forward_avx512`], so its loops are compiled
    /// for the baseline target and for AVX-512 from this one source.
    #[inline(always)]
    fn forward(&self, x: &[f64], scratch: &mut Scratch, logits: &mut Vec<f64>) {
        let Scratch {
            cur,
            next,
            qa,
            scales,
            acc,
        } = scratch;
        let m = x.len() / self.input_dim;
        cur.clear();
        cur.extend(x.iter().map(|&v| v as f32));
        let mut width = self.input_dim;
        for layer in &self.layers {
            let out = layer.weights.n();
            // Per-row dynamic activation quantization.
            qa.resize(m * width, 0);
            scales.clear();
            for (row, qrow) in cur.chunks(width).zip(qa.chunks_mut(width)) {
                let maxabs = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                let scale = if maxabs > 0.0 { maxabs / 127.0 } else { 1.0 };
                let inv = 1.0 / scale;
                for (q, &v) in qrow.iter_mut().zip(row) {
                    *q = round_away(v * inv);
                }
                scales.push(scale);
            }
            acc.resize(m * out, 0);
            gemm_i8(
                &qa[..m * width],
                m,
                width,
                &layer.weights,
                &mut acc[..m * out],
            );
            // Dequantize + bias + activation in f32. Zipped iteration and
            // the hoisted activation dispatch keep the loop body call- and
            // bounds-check-free so it vectorizes.
            next.resize(m * out, 0.0);
            for r in 0..m {
                let sa = scales[r];
                let arow = &acc[r * out..(r + 1) * out];
                let nrow = &mut next[r * out..(r + 1) * out];
                let dequant = nrow
                    .iter_mut()
                    .zip(arow)
                    .zip(layer.w_scales.iter().zip(&layer.biases));
                match layer.activation {
                    Activation::Tanh => {
                        for ((nv, &av), (&sw, &bias)) in dequant {
                            *nv = tanh_fast(av as f32 * (sa * sw) + bias);
                        }
                    }
                    Activation::Identity => {
                        for ((nv, &av), (&sw, &bias)) in dequant {
                            *nv = av as f32 * (sa * sw) + bias;
                        }
                    }
                }
            }
            std::mem::swap(cur, next);
            width = out;
        }
        logits.extend(cur.iter().map(|&v| v as f64));
    }

    /// Input dimension the network expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Bytes held by the packed int8 weights across all layers.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weights.bytes()).sum()
    }
}

impl fmt::Debug for QuantizedNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantizedNetwork")
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
    use crate::dataset::Dataset;
    use crate::network::NetworkConfig;
    use crate::trainer::TrainerOptions;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small trained network with confident outputs (three well-separated
    /// Gaussian blobs), plus a held-out calibration batch.
    fn trained_net() -> (Network, Matrix) {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 240;
        let centers = [
            [-1.5f64, -1.5, 0.0, 0.5],
            [1.5, 1.5, 0.5, -0.5],
            [0.0, -0.5, -1.5, 1.5],
        ];
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 3;
            let row: Vec<f64> = centers[c]
                .iter()
                .map(|&m| m + rng.gen_range(-0.3..0.3))
                .collect();
            rows.push(row);
            labels.push(c);
        }
        let x = Matrix::from_row_vecs(&rows, 4).unwrap();
        let data = Dataset::new(x.clone(), labels, 3).unwrap();
        let mut net = Network::new(&NetworkConfig::new(&[4, 16, 3]), 7);
        let opts = TrainerOptions {
            epochs: 60,
            batch_size: 32,
            ..Default::default()
        };
        net.train(&data, &opts).unwrap();
        (net, x)
    }

    #[test]
    fn gate_passes_on_a_confident_network() {
        let (net, calib) = trained_net();
        let (q, report) = QuantizedNetwork::validated(&net, &calib, &QuantGate::default())
            .expect("gate should accept a confident classifier");
        assert_eq!(report.argmax_flips, 0);
        assert!(
            report.max_prob_drift < 0.05,
            "drift {}",
            report.max_prob_drift
        );
        assert_eq!(report.calib_rows, calib.rows());
        assert!(q.weight_bytes() > 0);
        assert_eq!(q.input_dim(), 4);
        assert_eq!(q.num_classes(), 3);
    }

    #[test]
    fn quantized_probabilities_track_reference() {
        let (net, calib) = trained_net();
        let q = QuantizedNetwork::quantize(&net).unwrap();
        let reference = net.predict_proba(&calib).unwrap();
        let quantized = q.predict_proba(&calib).unwrap();
        assert_eq!(quantized.shape(), reference.shape());
        for (a, b) in reference.as_slice().iter().zip(quantized.as_slice()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        // Rows still sum to one (softmax on the dequantized logits).
        for r in 0..quantized.rows() {
            let s: f64 = quantized.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn impossible_gate_rejects_with_report() {
        let (net, calib) = trained_net();
        let gate = QuantGate {
            max_prob_drift: 0.0,
            max_argmax_flips: 0,
        };
        match QuantizedNetwork::validated(&net, &calib, &gate) {
            Err(QuantError::GateRejected(report)) => {
                assert!(report.max_prob_drift > 0.0);
                assert_eq!(report.calib_rows, calib.rows());
            }
            other => panic!("expected gate rejection, got {other:?}"),
        }
    }

    #[test]
    fn empty_calibration_is_unsupported() {
        let (net, _) = trained_net();
        let calib = Matrix::zeros(0, 4);
        assert!(matches!(
            QuantizedNetwork::validated(&net, &calib, &QuantGate::default()),
            Err(QuantError::Unsupported(_))
        ));
    }

    #[test]
    fn round_away_matches_truncating_the_half_offset_sum() {
        // The quantizer's previous rounding, kept here as the oracle.
        let trunc = |v: f32| {
            let y = v.clamp(-127.0, 127.0);
            (y + 0.5f32.copysign(y)).trunc() as i8
        };
        let step = 1.0f32 / 4096.0;
        let grid = (-(127.5 / step) as i32..=(127.5 / step) as i32).map(|i| i as f32 * step);
        let edges = (-128..=128).flat_map(|i: i32| {
            let half = i as f32 + 0.5;
            [half, half.next_down(), half.next_up()]
        });
        let specials = [
            0.0,
            -0.0,
            0.49999997,
            -0.49999997,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
        ];
        for v in grid.chain(edges).chain(specials) {
            assert_eq!(round_away(v), trunc(v), "at {v:?}");
        }
        assert_eq!(round_away(f32::NAN), 0);
        assert_eq!(round_away(0.5), 1);
        assert_eq!(round_away(-0.5), -1);
        assert_eq!(round_away(127.5), 127);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `rows` inputs, 11 wide, drawn from `[-1, 1)`, except row 1 (all
    /// zero), row 2 (±1e6) and, when `specials` is given, every third row
    /// from row 3 on, which cycles through `specials`.
    fn paper_inputs(rows: usize, specials: &[f64], seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, 11, |r, c| match r {
            1 => 0.0,
            2 => [1e6, -1e6][c % 2],
            3.. if !specials.is_empty() && r % 3 == 0 => specials[(r + c) % specials.len()],
            _ => rng.gen_range(-1.0..1.0),
        })
    }

    /// Batch sizes on both sides of the kernels' 8- and 16-row blocks and
    /// the served 64.
    const PAPER_ROWS: [usize; 6] = [1, 9, 16, 17, 33, 64];

    /// The paper network at [`PAPER_ROWS`], and one row past a 256-row
    /// chunk on a network of the paper's input and output widths whose
    /// hidden layers are narrow enough for an unoptimized build.
    fn networks_and_batches(seed: u64) -> [(Network, Vec<usize>); 2] {
        [
            (
                Network::new(&NetworkConfig::paper(), seed),
                PAPER_ROWS.to_vec(),
            ),
            (
                Network::new(&NetworkConfig::new(&[11, 40, 70, 43]), seed),
                vec![CHUNK_ROWS + 1],
            ),
        ]
    }

    #[test]
    fn every_int8_layout_gives_bit_equal_paper_network_outputs() {
        for (net, batches) in networks_and_batches(3) {
            // Rows are quantized and multiplied independently, so `Raw` on
            // the largest batch is the reference for each smaller batch, a
            // prefix of the same rows.
            let rows = *batches.iter().max().unwrap();
            let x = paper_inputs(rows, &[], 5);
            let raw = QuantizedNetwork::quantize_forced(&net, Int8Layout::Raw).unwrap();
            let want = bits(&raw.predict_proba(&x).unwrap());
            // `Raw` is the reference; every other supported layout, and the
            // native one, must reproduce it.
            let native = QuantizedNetwork::quantize(&net).unwrap();
            let layouts = qgemm::testing::supported_layouts();
            let candidates = std::iter::once((None, native)).chain(
                layouts
                    .into_iter()
                    .filter(|&l| l != Int8Layout::Raw)
                    .map(|l| (Some(l), QuantizedNetwork::quantize_forced(&net, l).unwrap())),
            );
            for (layout, q) in candidates {
                for &r in &batches {
                    let prefix = Matrix::from_vec(r, 11, x.as_slice()[..r * 11].to_vec());
                    assert_eq!(
                        bits(&q.predict_proba(&prefix).unwrap()),
                        want[..r * 43],
                        "{layout:?} (None: native) at {r} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn the_avx512_forward_pass_equals_the_baseline_build() {
        if !wide_epilogue() {
            return;
        }
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e-300,
        ];
        for seed in [3, 4] {
            for (net, batches) in networks_and_batches(seed) {
                let q = QuantizedNetwork::quantize(&net).unwrap();
                for rows in batches {
                    let x = paper_inputs(rows, &specials, seed + rows as u64);
                    assert_eq!(
                        bits(&q.predict_proba(&x).unwrap()),
                        bits(&q.predict_proba_baseline(&x).unwrap()),
                        "network {seed} at {rows} rows"
                    );
                }
            }
        }
    }

    #[test]
    fn a_large_batch_runs_in_chunks_and_leaves_bounded_buffers() {
        let net = Network::new(&NetworkConfig::new(&[4, 40, 30, 3]), 7);
        let q = QuantizedNetwork::quantize(&net).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let rows = 3 * CHUNK_ROWS + 5;
        let data: Vec<f64> = (0..rows * 4).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = Matrix::from_vec(rows, 4, data);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let batch = bits(&q.predict_proba(&x).unwrap());
        // Rows are independent, so chunking changes no bit.
        let one_by_one: Vec<u64> = (0..rows)
            .flat_map(|r| {
                let row = Matrix::from_vec(1, 4, x.row(r).to_vec());
                bits(&q.predict_proba(&row).unwrap())
            })
            .collect();
        assert_eq!(batch, one_by_one);
        // What the thread keeps is what one chunk needs (allowing for the
        // vectors' doubling growth), not what the batch needed.
        let _ = q.predict_proba(&x).unwrap();
        let widest = CHUNK_ROWS * 40;
        SCRATCH.with(|scratch| {
            let s = scratch.borrow();
            for (name, capacity) in [
                ("cur", s.cur.capacity()),
                ("next", s.next.capacity()),
                ("qa", s.qa.capacity()),
                ("acc", s.acc.capacity()),
                ("scales", s.scales.capacity() * 40),
            ] {
                assert!(capacity <= 2 * widest, "{name}: {capacity}");
            }
        });
    }

    #[test]
    fn input_dimension_is_validated() {
        let (net, _) = trained_net();
        let q = QuantizedNetwork::quantize(&net).unwrap();
        let bad = Matrix::zeros(2, 7);
        assert!(q.predict_proba(&bad).is_err());
    }
}
