//! Labelled training-sample generation for the DNN classifier.
//!
//! Corpus generation is embarrassingly parallel and sits on the hot path of
//! both pretraining and domain adaptation, so [`generate_training_samples`]
//! fans out over scoped worker threads. Determinism is preserved by design:
//! the work is cut into fixed-size (class, sample-chunk) tasks whose RNG
//! seeds are derived from a single master seed with a splitmix-style mixer,
//! independent of how tasks land on threads. The corpus is therefore bitwise
//! identical at any thread count, including the fully sequential path.

use crate::function::random_single_parameter_function_of_class;
use crate::regime::NoiseFamily;
use crate::sequences::{random_sequence, SequenceKind};
use nrpm_extrap::{Aggregation, NUM_CLASSES};
use nrpm_linalg::ThreadBudget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled training sample: a noisy single-parameter measurement line
/// plus the class (exponent-pair id) of the function that produced it.
///
/// The conversion to the network's 11-neuron input vector happens in the
/// preprocessing module of `nrpm-core`; keeping raw `(x, y)` lines here
/// keeps the generator reusable for the regression modeler's evaluation too.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSample {
    /// Parameter values, strictly increasing.
    pub xs: Vec<f64>,
    /// Aggregated (median of repetitions) noisy measured values.
    pub ys: Vec<f64>,
    /// Ground-truth class id in `0..NUM_CLASSES`.
    pub class: usize,
    /// The noise level this sample was generated with.
    pub noise_level: f64,
}

/// Controls synthetic training-set generation.
///
/// For **pretraining** use the defaults: random sequences, the full noise
/// range `[0, 100 %]`, five repetitions. For **domain adaptation** set
/// `sequence` to the real measurement positions and `noise_range` to the
/// range estimated from the real measurements (Sec. IV-E/VI-A: for Kripke,
/// `[3.66, 53.67] %`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSpec {
    /// Samples generated per class (paper's domain adaptation: 2000).
    pub samples_per_class: usize,
    /// Range of measurement-point counts per sample, inclusive; the paper
    /// bounds the network input to `[5, 11]` points.
    pub points_range: (usize, usize),
    /// Fixed measurement positions (domain adaptation) or `None` for random
    /// sequences (pretraining).
    pub sequence: Option<Vec<f64>>,
    /// Noise levels are drawn uniformly from this range (fractions).
    pub noise_range: (f64, f64),
    /// Repetitions simulated per measurement point (paper: up to five).
    pub repetitions: usize,
    /// Aggregation of the repetitions.
    pub aggregation: Aggregation,
    /// Shape of the injected noise. The default [`NoiseFamily::Uniform`]
    /// reproduces the paper's regime with bitwise-identical draws.
    pub family: NoiseFamily,
}

impl Default for TrainingSpec {
    fn default() -> Self {
        TrainingSpec {
            samples_per_class: 200,
            points_range: (5, 11),
            sequence: None,
            noise_range: (0.0, 1.0),
            repetitions: 5,
            aggregation: Aggregation::Median,
            family: NoiseFamily::Uniform,
        }
    }
}

impl TrainingSpec {
    /// A spec for domain adaptation: fixed positions and a measured noise
    /// range (both taken from the modeling task at hand).
    pub fn adaptation(sequence: Vec<f64>, noise_range: (f64, f64), repetitions: usize) -> Self {
        TrainingSpec {
            sequence: Some(sequence),
            noise_range,
            repetitions: repetitions.max(1),
            ..Default::default()
        }
    }
}

/// Samples per generation task. Fixed — never derived from the thread
/// count — so the task list, and with it every task's derived RNG seed and
/// output position, is identical no matter how many workers run.
const SAMPLES_PER_TASK: usize = 64;

/// Generates `samples_per_class` samples for every one of the 43 classes.
///
/// The returned vector is class-ordered (all samples of class 0, then class
/// 1, …); shuffle happens inside the trainer.
///
/// The caller's RNG contributes exactly one `next_u64` draw — the master
/// seed for this corpus — so successive calls on the same RNG yield
/// distinct corpora while each corpus itself is generated by worker threads
/// from per-task derived seeds. The worker count comes from the process
/// [`ThreadBudget`]; use [`generate_training_samples_seeded`] to pin it.
pub fn generate_training_samples(spec: &TrainingSpec, rng: &mut impl Rng) -> Vec<TrainingSample> {
    generate_training_samples_seeded(spec, rng.next_u64(), 0)
}

/// Deterministic entry point: generates the corpus for `master_seed` using
/// `threads` workers (`0` means "use the [`ThreadBudget`]").
///
/// The output is bitwise identical for a given `(spec, master_seed)` pair at
/// any thread count: generation is cut into fixed-size (class, chunk) tasks
/// seeded independently of the thread layout, and every task writes to a
/// fixed offset of the class-ordered output.
pub fn generate_training_samples_seeded(
    spec: &TrainingSpec,
    master_seed: u64,
    threads: usize,
) -> Vec<TrainingSample> {
    assert!(
        spec.points_range.0 >= 2,
        "need at least two points per sample"
    );
    assert!(
        spec.points_range.0 <= spec.points_range.1,
        "points_range must be ordered"
    );
    assert!(
        spec.noise_range.0 <= spec.noise_range.1 && spec.noise_range.0 >= 0.0,
        "noise_range must be ordered and non-negative"
    );

    let total = NUM_CLASSES * spec.samples_per_class;
    if total == 0 {
        return Vec::new();
    }

    // Canonical task list: class-major, each class cut into fixed-size
    // sample chunks. Task seeds depend only on (master_seed, task index).
    let chunks_per_class = spec.samples_per_class.div_ceil(SAMPLES_PER_TASK);
    let mut tasks = Vec::with_capacity(NUM_CLASSES * chunks_per_class);
    for class in 0..NUM_CLASSES {
        for chunk in 0..chunks_per_class {
            let start = chunk * SAMPLES_PER_TASK;
            let len = (spec.samples_per_class - start).min(SAMPLES_PER_TASK);
            let seed = derive_task_seed(master_seed, tasks.len() as u64);
            tasks.push((class, len, seed));
        }
    }

    // One output slot per sample, cut into one disjoint slice per task in
    // canonical order, so a task's results land at the same offsets no
    // matter which worker runs it.
    let mut out: Vec<Option<TrainingSample>> = vec![None; total];
    let mut task_slots: Vec<&mut [Option<TrainingSample>]> = Vec::with_capacity(tasks.len());
    let mut rest = out.as_mut_slice();
    for &(_, len, _) in &tasks {
        let (slot, tail) = rest.split_at_mut(len);
        task_slots.push(slot);
        rest = tail;
    }

    let threads = ThreadBudget::resolve(threads).min(tasks.len()).max(1);
    if threads == 1 {
        for (&(class, _, seed), slot) in tasks.iter().zip(task_slots) {
            run_task(spec, class, seed, slot);
        }
    } else {
        let tasks_per_worker = tasks.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (task_chunk, slot_chunk) in tasks
                .chunks(tasks_per_worker)
                .zip(task_slots.chunks_mut(tasks_per_worker))
            {
                scope.spawn(move || {
                    for (&(class, _, seed), slot) in task_chunk.iter().zip(slot_chunk.iter_mut()) {
                        run_task(spec, class, seed, slot);
                    }
                });
            }
        });
    }

    out.into_iter()
        .map(|slot| slot.expect("every task fills its slots"))
        .collect()
}

/// Generates one task's samples into its output slots with a task-local RNG.
fn run_task(spec: &TrainingSpec, class: usize, seed: u64, slots: &mut [Option<TrainingSample>]) {
    let mut rng = StdRng::seed_from_u64(seed);
    for slot in slots {
        *slot = Some(generate_one(spec, class, &mut rng));
    }
}

/// splitmix64-style finalizer mixing the master seed with the task index.
/// Distinct tasks get decorrelated streams even for adjacent indices or a
/// low-entropy master seed.
fn derive_task_seed(master_seed: u64, task_index: u64) -> u64 {
    let mut z = master_seed ^ task_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate_one(spec: &TrainingSpec, class: usize, rng: &mut impl Rng) -> TrainingSample {
    let f = random_single_parameter_function_of_class(class, rng);
    let xs: Vec<f64> = match &spec.sequence {
        Some(seq) => seq.clone(),
        None => {
            let len = rng.gen_range(spec.points_range.0..=spec.points_range.1);
            random_sequence(SequenceKind::random(rng), len, rng)
        }
    };
    let noise_level = if spec.noise_range.1 > spec.noise_range.0 {
        rng.gen_range(spec.noise_range.0..=spec.noise_range.1)
    } else {
        spec.noise_range.0
    };
    let n = xs.len();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let truth = f.evaluate(&[x]);
            let pos = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.0
            };
            let reps = spec
                .family
                .repetitions(truth, noise_level, pos, spec.repetitions, rng);
            spec.aggregation.apply(&reps)
        })
        .collect();
    TrainingSample {
        xs,
        ys,
        class,
        noise_level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(321)
    }

    #[test]
    fn generates_balanced_classes() {
        let spec = TrainingSpec {
            samples_per_class: 3,
            ..Default::default()
        };
        let samples = generate_training_samples(&spec, &mut rng());
        assert_eq!(samples.len(), 3 * NUM_CLASSES);
        let mut counts = vec![0usize; NUM_CLASSES];
        for s in &samples {
            counts[s.class] += 1;
        }
        assert!(counts.iter().all(|&c| c == 3));
    }

    #[test]
    fn sample_shapes_are_consistent() {
        let spec = TrainingSpec {
            samples_per_class: 2,
            ..Default::default()
        };
        for s in generate_training_samples(&spec, &mut rng()) {
            assert_eq!(s.xs.len(), s.ys.len());
            assert!((5..=11).contains(&s.xs.len()));
            assert!(s.xs.windows(2).all(|w| w[1] > w[0]));
            assert!(s.ys.iter().all(|v| v.is_finite()));
            assert!((0.0..=1.0).contains(&s.noise_level));
        }
    }

    #[test]
    fn fixed_sequence_is_respected() {
        let seq = vec![8.0, 64.0, 512.0, 4096.0, 32768.0];
        let spec = TrainingSpec {
            samples_per_class: 1,
            sequence: Some(seq.clone()),
            ..Default::default()
        };
        for s in generate_training_samples(&spec, &mut rng()) {
            assert_eq!(s.xs, seq);
        }
    }

    #[test]
    fn noise_range_bounds_the_sampled_levels() {
        let spec = TrainingSpec {
            samples_per_class: 5,
            noise_range: (0.0366, 0.5367), // Kripke's measured range
            ..Default::default()
        };
        for s in generate_training_samples(&spec, &mut rng()) {
            assert!((0.0366..=0.5367).contains(&s.noise_level));
        }
    }

    #[test]
    fn zero_noise_yields_exact_function_values() {
        let spec = TrainingSpec {
            samples_per_class: 2,
            noise_range: (0.0, 0.0),
            repetitions: 3,
            ..Default::default()
        };
        for s in generate_training_samples(&spec, &mut rng()) {
            // With zero noise every repetition equals the truth, so the
            // median is exact; the values must be strictly positive and
            // non-decreasing (PMNF with positive coefficients).
            for w in s.ys.windows(2) {
                assert!(w[1] >= w[0] * 0.999, "class {}: {:?}", s.class, s.ys);
            }
        }
    }

    #[test]
    fn adaptation_spec_uses_task_properties() {
        let spec = TrainingSpec::adaptation(vec![1.0, 2.0, 4.0], (0.1, 0.3), 5);
        assert_eq!(spec.sequence.as_deref(), Some(&[1.0, 2.0, 4.0][..]));
        assert_eq!(spec.noise_range, (0.1, 0.3));
        assert_eq!(spec.repetitions, 5);
    }

    #[test]
    fn corpus_is_bitwise_identical_at_every_thread_count() {
        // 100 samples/class spans multiple fixed-size tasks per class, so
        // task boundaries and thread boundaries genuinely interleave.
        let spec = TrainingSpec {
            samples_per_class: 100,
            ..Default::default()
        };
        let canonical = generate_training_samples_seeded(&spec, 0xC0FFEE, 1);
        assert_eq!(canonical.len(), 100 * NUM_CLASSES);
        for threads in [2, 3, 4, 7, 8] {
            let parallel = generate_training_samples_seeded(&spec, 0xC0FFEE, threads);
            assert_eq!(canonical, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn corpus_depends_only_on_the_master_seed() {
        let spec = TrainingSpec {
            samples_per_class: 10,
            ..Default::default()
        };
        let a = generate_training_samples_seeded(&spec, 7, 4);
        let b = generate_training_samples_seeded(&spec, 7, 2);
        let c = generate_training_samples_seeded(&spec, 8, 4);
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct master seeds must give distinct corpora");
    }

    #[test]
    fn rng_entry_point_is_reproducible_and_advances_the_stream() {
        let spec = TrainingSpec {
            samples_per_class: 4,
            ..Default::default()
        };
        let first = generate_training_samples(&spec, &mut rng());
        let again = generate_training_samples(&spec, &mut rng());
        assert_eq!(first, again, "same caller seed, same corpus");

        // Two calls on one RNG draw different master seeds.
        let mut shared = rng();
        let call1 = generate_training_samples(&spec, &mut shared);
        let call2 = generate_training_samples(&spec, &mut shared);
        assert_ne!(call1, call2, "successive corpora must differ");
    }

    #[test]
    fn derived_task_seeds_are_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for master in [0u64, 1, 0xDEAD_BEEF] {
            for task in 0..1000u64 {
                assert!(seen.insert(derive_task_seed(master, task)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn inverted_noise_range_panics() {
        let spec = TrainingSpec {
            noise_range: (0.5, 0.1),
            ..Default::default()
        };
        let _ = generate_training_samples(&spec, &mut rng());
    }
}
