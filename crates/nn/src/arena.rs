//! Preallocated training arenas and the chunk-parallel gradient pass.
//!
//! The mini-batch gradient is both the hottest loop in the workspace and an
//! allocation storm in its naive form: every step used to clone the logits
//! for the softmax, materialize a transpose of each weight matrix, and
//! allocate fresh activation and gradient matrices per layer. This module
//! replaces all of that with buffers that are allocated once per training
//! run and reused for every batch:
//!
//! * each worker owns a [`WorkerArena`] holding activation, target, and
//!   ping-pong gradient buffers sized for one chunk,
//! * transposed weight panels are cached in [`TrainScratch`] and refreshed
//!   once per optimizer step (when the weights actually change) instead of
//!   re-materialized inside every backward pass,
//! * the batch is cut into **fixed-size** row chunks — [`CHUNK_ROWS`] never
//!   depends on the worker count — whose sum-gradients land in per-chunk
//!   slots and are reduced in canonical chunk order on the calling thread.
//!
//! The fixed chunking plus ordered reduction make the result *bitwise
//! identical at any thread count*: training with one worker and with eight
//! produces the same weights for the same seed, which is what lets the
//! thread count be a pure deployment knob.

use crate::activation::{softmax_rows, Activation};
use crate::layer::LayerGradients;
use crate::network::Network;
use nrpm_linalg::{matmul_at_into, matmul_into, MatmulOptions, Matrix};

/// Rows per gradient chunk. Fixed — never derived from the thread count —
/// so the chunk boundaries, and with them every floating-point summation
/// order, are identical no matter how many workers run.
pub(crate) const CHUNK_ROWS: usize = 16;

/// Matmul options for kernels inside the chunked pass: the outer chunk
/// parallelism owns the cores, so inner products stay single-threaded to
/// avoid nested oversubscription.
fn inner_opts() -> MatmulOptions {
    MatmulOptions {
        threads: 1,
        ..Default::default()
    }
}

/// Approximate FLOPs of one forward + backward pass over a full chunk:
/// every weight matrix participates in three GEMMs (forward, `dW`, `dX`)
/// of `2 * rows * in * out` flops each.
fn chunk_flops(net: &Network) -> usize {
    let params: usize = net.layers().iter().map(|l| l.in_dim() * l.out_dim()).sum();
    6 * CHUNK_ROWS * params
}

/// Caps the worker fan-out by the available work: spawning a scoped thread
/// costs tens of microseconds, so a worker is only justified once it has at
/// least [`nrpm_linalg::MIN_FLOPS_PER_THREAD`] of gradient work. This is
/// the chunk-level analogue of the matmul thread floor, and what stops
/// small networks from *losing* throughput at 4–8 threads.
///
/// Pure in its inputs so the policy is unit-testable; never changes chunk
/// boundaries, so worker count stays a bitwise-neutral deployment knob.
pub(crate) fn plan_workers(threads: usize, chunks: usize, flops_per_chunk: usize) -> usize {
    let total = flops_per_chunk.saturating_mul(chunks);
    let by_work = (total / nrpm_linalg::MIN_FLOPS_PER_THREAD.max(1)).max(1);
    threads.clamp(1, chunks.max(1)).min(by_work)
}

fn zero_gradients(net: &Network) -> Vec<LayerGradients> {
    net.layers()
        .iter()
        .map(|l| LayerGradients {
            weights: Matrix::zeros(l.in_dim(), l.out_dim()),
            biases: vec![0.0; l.out_dim()],
        })
        .collect()
}

/// Per-worker scratch: every buffer one forward + backward pass over a
/// chunk needs, allocated once and reused for every chunk of every batch.
pub(crate) struct WorkerArena {
    /// `activations[0]` is the input-chunk copy; `activations[l + 1]` holds
    /// layer `l`'s activated output.
    activations: Vec<Matrix>,
    /// One-hot targets of the current chunk.
    targets: Matrix,
    /// Current gradient (`dZ` of the layer being processed); doubles as the
    /// softmax-probability buffer, which is what kills the `probs.clone()`
    /// of the old path.
    grad: Matrix,
    /// Ping-pong partner of [`Self::grad`] receiving `dX` for the layer
    /// below.
    grad_prev: Matrix,
}

impl WorkerArena {
    fn new(net: &Network) -> Self {
        let mut activations = Vec::with_capacity(net.layers().len() + 1);
        activations.push(Matrix::zeros(CHUNK_ROWS, net.input_dim()));
        for layer in net.layers() {
            activations.push(Matrix::zeros(CHUNK_ROWS, layer.out_dim()));
        }
        let max_width = net
            .layers()
            .iter()
            .map(|l| l.out_dim().max(l.in_dim()))
            .max()
            .expect("networks have at least one layer");
        WorkerArena {
            activations,
            targets: Matrix::zeros(CHUNK_ROWS, net.num_classes()),
            grad: Matrix::zeros(CHUNK_ROWS, max_width),
            grad_prev: Matrix::zeros(CHUNK_ROWS, max_width),
        }
    }

    /// Forward + backward over rows `row0 .. row0 + rows` of `(x, y)`.
    ///
    /// Writes the **sum** (not mean) gradients of the chunk into `out` and
    /// returns the summed cross-entropy; the caller reduces chunks in
    /// canonical order and scales by `1 / batch` once.
    #[allow(clippy::too_many_arguments)]
    fn chunk_gradients(
        &mut self,
        net: &Network,
        weights_t: &[Matrix],
        x: &Matrix,
        y: &Matrix,
        row0: usize,
        rows: usize,
        out: &mut [LayerGradients],
    ) -> f64 {
        let features = x.cols();
        let classes = y.cols();

        // The chunk rows are contiguous in both row-major inputs, so the
        // copies into the arena are two plain memcpys.
        self.activations[0].resize(rows, features);
        self.activations[0]
            .as_mut_slice()
            .copy_from_slice(&x.as_slice()[row0 * features..(row0 + rows) * features]);
        self.targets.resize(rows, classes);
        self.targets
            .as_mut_slice()
            .copy_from_slice(&y.as_slice()[row0 * classes..(row0 + rows) * classes]);

        // Forward, each layer writing into its preallocated activation.
        let num_layers = net.layers().len();
        for (l, layer) in net.layers().iter().enumerate() {
            let (head, tail) = self.activations.split_at_mut(l + 1);
            layer.forward_into(&head[l], &mut tail[0], inner_opts());
        }

        // Fused softmax + cross-entropy on the logits, reusing the gradient
        // buffer as the probability buffer.
        let logits = &self.activations[num_layers];
        self.grad.resize(rows, classes);
        self.grad.as_mut_slice().copy_from_slice(logits.as_slice());
        softmax_rows(self.grad.as_mut_slice(), classes);
        let mut loss = 0.0;
        for (p, t) in self.grad.as_slice().iter().zip(self.targets.as_slice()) {
            if *t > 0.0 {
                loss -= t * p.max(1e-300).ln();
            }
        }
        // dL/dZ_logits summed over the chunk: P - Y (unscaled; the caller
        // divides the reduced batch gradient by n exactly once).
        self.grad.sub_assign(&self.targets).expect("shapes agree");

        for l in (0..num_layers).rev() {
            let layer = &net.layers()[l];
            // dZ = dA ⊙ act'(A), in place (identity for the logits layer).
            if layer.activation != Activation::Identity {
                let output = &self.activations[l + 1];
                for (g, &a) in self.grad.as_mut_slice().iter_mut().zip(output.as_slice()) {
                    *g *= layer.activation.derivative_from_output(a);
                }
            }
            // dW = Xᵀ · dZ without materializing the transpose.
            matmul_at_into(
                &self.activations[l],
                &self.grad,
                &mut out[l].weights,
                inner_opts(),
            )
            .expect("gradient shapes agree");
            // db = column sums of dZ.
            let width = layer.out_dim();
            out[l].biases.fill(0.0);
            for row in self.grad.as_slice().chunks(width) {
                for (b, v) in out[l].biases.iter_mut().zip(row) {
                    *b += v;
                }
            }
            // dX = dZ · Wᵀ via the cached transposed panel.
            if l > 0 {
                self.grad_prev.resize(rows, layer.in_dim());
                matmul_into(&self.grad, &weights_t[l], &mut self.grad_prev, inner_opts())
                    .expect("gradient shapes agree");
                std::mem::swap(&mut self.grad, &mut self.grad_prev);
            }
        }
        loss
    }
}

/// All reusable state of one training run: per-worker arenas, per-chunk
/// gradient slots, the reduced batch gradient, cached transposed weights,
/// and the gather/one-hot batch buffers.
pub(crate) struct TrainScratch {
    workers: usize,
    arenas: Vec<WorkerArena>,
    /// One sum-gradient slot per chunk of the largest batch; slot `c`
    /// always holds chunk `c` regardless of which worker computed it.
    chunk_grads: Vec<Vec<LayerGradients>>,
    chunk_losses: Vec<f64>,
    /// The batch-mean gradient, reduced in canonical chunk order.
    pub(crate) total: Vec<LayerGradients>,
    /// Cached `Wᵀ` per layer for the backward pass; refresh via
    /// [`TrainScratch::refresh_weights_t`] whenever the weights change.
    weights_t: Vec<Matrix>,
    /// Reusable gather/one-hot buffers for the current batch.
    pub(crate) x: Matrix,
    pub(crate) y: Matrix,
}

impl TrainScratch {
    /// Allocates scratch for batches of at most `batch_size` rows, run by
    /// `threads` workers (already resolved; at least 1). The actual worker
    /// count is additionally floored by [`plan_workers`] so tiny models
    /// never fan out across the whole thread budget.
    pub(crate) fn new(net: &Network, batch_size: usize, threads: usize) -> Self {
        let max_chunks = batch_size.max(1).div_ceil(CHUNK_ROWS);
        let workers = plan_workers(threads, max_chunks, chunk_flops(net));
        Self::with_workers(net, batch_size, workers)
    }

    /// Like [`TrainScratch::new`] but with an exact worker count, bypassing
    /// the work floor. Used by tests that must exercise the parallel
    /// reduction on deliberately tiny models.
    pub(crate) fn with_workers(net: &Network, batch_size: usize, workers: usize) -> Self {
        let max_chunks = batch_size.max(1).div_ceil(CHUNK_ROWS);
        let workers = workers.clamp(1, max_chunks);
        TrainScratch {
            workers,
            arenas: (0..workers).map(|_| WorkerArena::new(net)).collect(),
            chunk_grads: (0..max_chunks).map(|_| zero_gradients(net)).collect(),
            chunk_losses: vec![0.0; max_chunks],
            total: zero_gradients(net),
            weights_t: net.layers().iter().map(|l| l.weights.transpose()).collect(),
            x: Matrix::zeros(0, net.input_dim()),
            y: Matrix::zeros(0, net.num_classes()),
        }
    }

    /// Refreshes the cached transposed weight panels from the network's
    /// current weights. Call after every weight mutation (optimizer step,
    /// weight decay, watchdog rollback).
    pub(crate) fn refresh_weights_t(&mut self, net: &Network) {
        for (wt, layer) in self.weights_t.iter_mut().zip(net.layers()) {
            layer
                .weights
                .transpose_into(wt)
                .expect("weight shapes are fixed for a run");
        }
    }

    /// Multiplies the accumulated batch gradient in place — the watchdog's
    /// norm clip.
    pub(crate) fn scale_total(&mut self, factor: f64) {
        for g in &mut self.total {
            g.weights.scale_inplace(factor);
            for b in &mut g.biases {
                *b *= factor;
            }
        }
    }
}

impl Network {
    /// Computes the mean cross-entropy and mean parameter gradients of the
    /// batch held in `scratch.x` / `scratch.y`, leaving the gradients in
    /// `scratch.total`. Returns the loss.
    ///
    /// The batch is processed as fixed-size row chunks fanned out over the
    /// scratch's workers; per-chunk sum-gradients are reduced in canonical
    /// chunk order, so the result is bitwise identical at any worker count.
    pub(crate) fn accumulate_gradients(&self, scratch: &mut TrainScratch) -> f64 {
        let n = scratch.x.rows();
        assert!(n > 0, "gradient of an empty batch");
        let num_chunks = n.div_ceil(CHUNK_ROWS);
        while scratch.chunk_grads.len() < num_chunks {
            scratch.chunk_grads.push(zero_gradients(self));
            scratch.chunk_losses.push(0.0);
        }

        let workers = scratch.workers.min(num_chunks);
        let TrainScratch {
            arenas,
            chunk_grads,
            chunk_losses,
            total,
            weights_t,
            x,
            y,
            ..
        } = scratch;
        let chunk_grads = &mut chunk_grads[..num_chunks];
        let chunk_losses = &mut chunk_losses[..num_chunks];
        let weights_t: &[Matrix] = weights_t;
        let (x, y): (&Matrix, &Matrix) = (x, y);

        if workers <= 1 {
            let arena = &mut arenas[0];
            for (c, (out, loss)) in chunk_grads
                .iter_mut()
                .zip(chunk_losses.iter_mut())
                .enumerate()
            {
                let row0 = c * CHUNK_ROWS;
                let rows = CHUNK_ROWS.min(n - row0);
                *loss = arena.chunk_gradients(self, weights_t, x, y, row0, rows, out);
            }
        } else {
            // Contiguous chunk ranges per worker; results land in the
            // per-chunk slots, so the assignment does not affect the
            // reduction below.
            let per_worker = num_chunks.div_ceil(workers);
            std::thread::scope(|scope| {
                for (w, (arena, (grad_slots, loss_slots))) in arenas
                    .iter_mut()
                    .zip(
                        chunk_grads
                            .chunks_mut(per_worker)
                            .zip(chunk_losses.chunks_mut(per_worker)),
                    )
                    .enumerate()
                {
                    scope.spawn(move || {
                        for (i, (out, loss)) in
                            grad_slots.iter_mut().zip(loss_slots.iter_mut()).enumerate()
                        {
                            let c = w * per_worker + i;
                            let row0 = c * CHUNK_ROWS;
                            let rows = CHUNK_ROWS.min(n - row0);
                            *loss = arena.chunk_gradients(self, weights_t, x, y, row0, rows, out);
                        }
                    });
                }
            });
        }

        // Canonical-order reduction: chunk 0, 1, 2, … regardless of which
        // worker produced which chunk, then a single scale by 1/n.
        let mut loss_sum = 0.0;
        for g in total.iter_mut() {
            g.weights.fill_zero();
            g.biases.fill(0.0);
        }
        for (out, loss) in chunk_grads.iter().zip(chunk_losses.iter()) {
            loss_sum += loss;
            for (t, g) in total.iter_mut().zip(out.iter()) {
                t.weights.add_assign(&g.weights).expect("shapes agree");
                for (tb, gb) in t.biases.iter_mut().zip(g.biases.iter()) {
                    *tb += gb;
                }
            }
        }
        let inv = 1.0 / n as f64;
        for t in total.iter_mut() {
            t.weights.scale_inplace(inv);
            for b in &mut t.biases {
                *b *= inv;
            }
        }
        loss_sum * inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_batch(n: usize, features: usize, classes: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, features, |_, _| rng.gen_range(-1.0..1.0));
        let mut y = Matrix::zeros(n, classes);
        for r in 0..n {
            let label = rng.gen_range(0..classes);
            y[(r, label)] = 1.0;
        }
        (x, y)
    }

    #[test]
    fn pooled_gradients_match_the_reference_implementation() {
        let net = Network::new(&NetworkConfig::new(&[4, 12, 7, 3]), 31);
        // 50 rows: several full chunks plus a ragged tail.
        let (x, y) = toy_batch(50, 4, 3, 5);
        let (ref_loss, ref_grads) = net.compute_gradients(&x, &y);

        let mut scratch = TrainScratch::new(&net, 64, 3);
        scratch.x = x;
        scratch.y = y;
        let loss = net.accumulate_gradients(&mut scratch);

        assert!((loss - ref_loss).abs() < 1e-12, "{loss} vs {ref_loss}");
        for (t, r) in scratch.total.iter().zip(ref_grads.iter()) {
            for (tv, rv) in t.weights.as_slice().iter().zip(r.weights.as_slice()) {
                assert!((tv - rv).abs() < 1e-12, "{tv} vs {rv}");
            }
            for (tb, rb) in t.biases.iter().zip(r.biases.iter()) {
                assert!((tb - rb).abs() < 1e-12, "{tb} vs {rb}");
            }
        }
    }

    #[test]
    fn pooled_gradients_are_bitwise_worker_count_invariant() {
        let net = Network::new(&NetworkConfig::new(&[5, 16, 4]), 77);
        let (x, y) = toy_batch(70, 5, 4, 11);

        let mut reference: Option<(f64, Vec<LayerGradients>)> = None;
        for workers in [1usize, 2, 3, 4, 8] {
            let mut scratch = TrainScratch::new(&net, 70, workers);
            scratch.x = x.clone();
            scratch.y = y.clone();
            let loss = net.accumulate_gradients(&mut scratch);
            match &reference {
                None => reference = Some((loss, scratch.total.clone())),
                Some((ref_loss, ref_grads)) => {
                    assert_eq!(loss.to_bits(), ref_loss.to_bits(), "workers = {workers}");
                    for (t, r) in scratch.total.iter().zip(ref_grads.iter()) {
                        assert_eq!(t.weights, r.weights, "workers = {workers}");
                        assert_eq!(t.biases, r.biases, "workers = {workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_buffers_survive_changing_batch_sizes() {
        let net = Network::new(&NetworkConfig::new(&[3, 8, 2]), 9);
        let mut scratch = TrainScratch::new(&net, 32, 2);
        // A batch larger than the scratch was sized for must still work
        // (the last batch of an epoch is usually *smaller*, but the scratch
        // grows on demand either way).
        for n in [32, 7, 48, 1] {
            let (x, y) = toy_batch(n, 3, 2, n as u64);
            let (ref_loss, _) = net.compute_gradients(&x, &y);
            scratch.x = x;
            scratch.y = y;
            let loss = net.accumulate_gradients(&mut scratch);
            assert!((loss - ref_loss).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn forced_parallel_workers_stay_bitwise_invariant() {
        // The work floor would serialize this tiny model, so force the
        // worker count to keep the parallel reduction under test.
        let net = Network::new(&NetworkConfig::new(&[5, 16, 4]), 77);
        let (x, y) = toy_batch(70, 5, 4, 11);
        let mut reference: Option<(f64, Vec<LayerGradients>)> = None;
        for workers in [1usize, 2, 3, 4, 8] {
            let mut scratch = TrainScratch::with_workers(&net, 70, workers);
            assert_eq!(scratch.workers, workers.min(70usize.div_ceil(CHUNK_ROWS)));
            scratch.x = x.clone();
            scratch.y = y.clone();
            let loss = net.accumulate_gradients(&mut scratch);
            match &reference {
                None => reference = Some((loss, scratch.total.clone())),
                Some((ref_loss, ref_grads)) => {
                    assert_eq!(loss.to_bits(), ref_loss.to_bits(), "workers = {workers}");
                    for (t, r) in scratch.total.iter().zip(ref_grads.iter()) {
                        assert_eq!(t.weights, r.weights, "workers = {workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn worker_planning_floors_small_work() {
        // One chunk of a toy net is far below the floor: stay sequential.
        assert_eq!(plan_workers(8, 4, 14_000), 1);
        // Plenty of work: use everything requested (capped by chunks).
        assert_eq!(plan_workers(8, 64, 10_000_000), 8);
        assert_eq!(plan_workers(8, 3, 10_000_000), 3);
        // Intermediate work gets a partial fan-out.
        let w = plan_workers(8, 16, 1_000_000);
        assert!((2..8).contains(&w), "got {w}");
        // Degenerate inputs stay sane.
        assert_eq!(plan_workers(0, 0, 0), 1);
        assert_eq!(plan_workers(1, 100, usize::MAX), 1);
    }

    #[test]
    fn scratch_applies_work_floor_to_tiny_models() {
        let net = Network::new(&NetworkConfig::new(&[5, 16, 4]), 77);
        // ~14K flops per chunk, 5 chunks: the floor serializes this.
        let scratch = TrainScratch::new(&net, 70, 8);
        assert_eq!(scratch.workers, 1);
        // A paper-scale layer stack justifies the fan-out.
        let big = Network::new(&NetworkConfig::new(&[11, 1500, 250, 43]), 1);
        let scratch = TrainScratch::new(&big, 512, 8);
        assert_eq!(scratch.workers, 8);
    }

    #[test]
    fn refresh_tracks_weight_changes() {
        let data_net = Network::new(&NetworkConfig::new(&[2, 6, 2]), 3);
        let mut net = data_net.clone();
        let mut scratch = TrainScratch::new(&net, 16, 1);
        // Mutate the weights, refresh, and verify the cache matches.
        net.layers_mut()[0].weights.scale_inplace(0.5);
        scratch.refresh_weights_t(&net);
        for (wt, layer) in scratch.weights_t.iter().zip(net.layers()) {
            assert_eq!(*wt, layer.weights.transpose());
        }
    }
}
