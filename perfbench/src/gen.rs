//! Seeded request generation and answer scoring.
//!
//! Every workload draws its requests from the paper's synthetic task
//! generator (`nrpm_synth::generate_eval_task`), so each kernel carries its
//! ground truth. The server only ever sees the generated request lines;
//! the truth stays on the client side and grades the replies with the
//! paper's Sec. V accuracy bucket (lead-exponent distance ≤ 1/4).
//!
//! Request `r` of a workload is a pure function of `(workload, seed, r)`:
//! the same seed gives byte-identical request lines, whatever order or
//! thread they are generated on.

use nrpm_core::fingerprint::mix64;
use nrpm_core::metrics::AccuracyBuckets;
use nrpm_extrap::{lead_order_distance, ExponentPair, Fraction, MeasurementSet};
use nrpm_serve::protocol::Request as WireRequest;
use nrpm_synth::{generate_eval_task, EvalTaskSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// The benchmark's workloads. Each one puts most of its work on one layer
/// and little on another (see [`Workload::why`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-kernel `model` requests, f64 forward pass, unique tasks.
    Query,
    /// `batch` requests of 64 or 256 kernels on the int8 path.
    Bulk,
}

/// Kernels in `bulk` request `r`: 64, and 256 in every eighth request.
/// With 64 in every request, p99 fell among the requests that stalls of
/// the whole virtual machine (20-40 ms, both vCPUs at once) happened to
/// hit, and their share moved with the host: p99's spread over ten runs
/// read 0.39 and 0.70 in two of three sets. The larger batches make the
/// slowest 12.5 % of requests a class of the workload's own, so p99 falls
/// inside it, as `query`'s falls among its m=2 regression searches.
pub fn bulk_kernels(r: usize) -> usize {
    if r % 8 == 7 {
        256
    } else {
        64
    }
}
/// Fractional part of the golden ratio: consecutive multiples cover
/// [0, 1) evenly (a low-discrepancy sequence).
const GOLDEN: f64 = 0.618_033_988_749_894_9;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Query, Workload::Bulk];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Query => "query",
            Workload::Bulk => "bulk",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, as `BENCHMARK.json` gives it.
    pub fn why(self) -> &'static str {
        crate::spec()
            .get("workloads")
            .and_then(Value::as_seq)
            .into_iter()
            .flatten()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(self.name()))
            .and_then(|w| w.get("why"))
            .and_then(Value::as_str)
            .expect("BENCHMARK.json gives every workload a why")
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Query => 0x5175_6572,
            Workload::Bulk => 0x4275_6c6b,
        }
    }
}

/// One generated kernel: the measurement set the server models and the
/// ground-truth exponent pair of each of its parameters.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The noisy measured grid.
    pub set: MeasurementSet,
    /// Ground-truth exponent pair per parameter.
    pub truth: Vec<ExponentPair>,
}

/// One generated request: its wire line and the kernels it carries.
#[derive(Debug, Clone)]
pub struct Request {
    /// The newline-free protocol line sent to the server.
    pub line: String,
    /// The kernels in the request, in wire order.
    pub kernels: Vec<Kernel>,
}

fn rng_for(workload: Workload, seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(
        mix64(seed ^ workload.salt()) ^ mix64(stream.wrapping_add(1)) ^ index,
    ))
}

fn kernel(num_params: usize, noise: f64, rng: &mut StdRng) -> Kernel {
    let task = generate_eval_task(&EvalTaskSpec::paper(num_params, noise), rng);
    Kernel {
        set: task.set,
        truth: task.truth.pairs,
    }
}

/// Noise level of kernel `index`: a golden-ratio sequence over
/// `[lo, hi)` from a seeded offset. Stratified rather than drawn, so every
/// run sees the same spread of noise levels and the share of kernels
/// below the switch threshold hardly moves from seed to seed.
fn stratified_noise(workload: Workload, seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    let offset = rng_for(workload, seed, 2, 0).gen_range(0.0..1.0);
    lo + (hi - lo) * (offset + index as f64 * GOLDEN).fract()
}

/// Kernel `index` of a workload's task stream.
fn task(workload: Workload, seed: u64, index: u64) -> Kernel {
    let mut rng = rng_for(workload, seed, 0, index);
    match workload {
        // m = 3 is left out: its regression search costs ~100x an m <= 2
        // request and would set the tail on its own. Every fourth request
        // has m = 2; latency is bimodal in m and in the regression switch,
        // so a drawn mix would move the median between modes from seed to
        // seed.
        Workload::Query => {
            let m = if index % 4 == 3 { 2 } else { 1 };
            kernel(
                m,
                stratified_noise(workload, seed, index, 0.0, 1.0),
                &mut rng,
            )
        }
        // Injected noise of at least 70 % keeps the noise estimate above
        // the m = 1 switch threshold (all but ~1 in 30 000 kernels), so
        // the regression search stays out: the modeller's cost is the
        // forward pass and the fit, the same for every kernel.
        Workload::Bulk => kernel(
            1,
            stratified_noise(workload, seed, index, 0.7, 1.0),
            &mut rng,
        ),
    }
}

fn model_request(kernel: Kernel, id: String) -> Request {
    let line = WireRequest::Model {
        set: kernel.set.clone(),
        at: None,
        timeout_ms: None,
        id: Some(id),
        attempt: None,
        tenant: None,
    }
    .to_line();
    Request {
        line,
        kernels: vec![kernel],
    }
}

/// Request `r` of `workload` under `seed`.
pub fn request(workload: Workload, seed: u64, r: usize) -> Request {
    let id = format!("{}-{r}", workload.name());
    match workload {
        Workload::Bulk => {
            let kernels: Vec<Kernel> = (0..bulk_kernels(r))
                .map(|k| task(workload, seed, (r * 256 + k) as u64))
                .collect();
            let line = WireRequest::Batch {
                sets: kernels.iter().map(|k| k.set.clone()).collect(),
                timeout_ms: None,
                id: Some(id),
                attempt: None,
            }
            .to_line();
            Request { line, kernels }
        }
        Workload::Query => model_request(task(workload, seed, r as u64), id),
    }
}

/// The requests whose answers `accuracy` is scored on. They are sent
/// before the timed window, so the score depends on the seed and the
/// build only, never on how many requests a run happened to complete.
pub fn accuracy_set(workload: Workload, seed: u64) -> Vec<Request> {
    let count = match workload {
        Workload::Query => 1024,
        Workload::Bulk => 32,
    };
    (0..count).map(|r| request(workload, seed, r)).collect()
}

/// Parses a reply's `growth` string (`O(x1^(1/3) * log(x1) * x2)`, as
/// `Model::asymptotic_string` prints it) back into the lead exponent pair
/// of each of `num_params` parameters. Absent parameters are constant.
pub fn parse_growth(growth: &str, num_params: usize) -> Option<Vec<ExponentPair>> {
    let mut polys = vec![(0i32, 1i32); num_params];
    let mut logs = vec![0u8; num_params];
    let body = growth.strip_prefix("O(")?.strip_suffix(')')?;
    if body == "1" {
        return Some(vec![ExponentPair::CONSTANT; num_params]);
    }
    for factor in body.split(" * ") {
        if let Some(rest) = factor.strip_prefix("log") {
            let (power, param) = match rest.strip_prefix('^') {
                Some(r) => {
                    let (k, p) = r.split_once('(')?;
                    (k.parse::<u8>().ok()?, p)
                }
                None => (1, rest.strip_prefix('(')?),
            };
            let l = param_index(param.strip_suffix(')')?, num_params)?;
            logs[l] = power;
        } else {
            let (param, exponent) = match factor.split_once("^(") {
                Some((p, e)) => (p, e.strip_suffix(')')?),
                None => (factor, "1"),
            };
            let l = param_index(param, num_params)?;
            polys[l] = match exponent.split_once('/') {
                Some((n, d)) => (n.parse().ok()?, d.parse().ok()?),
                None => (exponent.parse().ok()?, 1),
            };
        }
    }
    Some(
        (0..num_params)
            .map(|l| ExponentPair::new(Fraction::new(polys[l].0, polys[l].1), logs[l]))
            .collect(),
    )
}

fn param_index(token: &str, num_params: usize) -> Option<usize> {
    let l: usize = token.strip_prefix('x')?.parse().ok()?;
    (1..=num_params).contains(&l).then_some(l - 1)
}

/// Lead-exponent distance of a reply's growth string from the truth, or
/// `None` when the string does not parse.
pub fn distance(growth: &str, truth: &[ExponentPair]) -> Option<f64> {
    let lead = parse_growth(growth, truth.len())?;
    Some(
        lead.iter()
            .zip(truth)
            .map(|(got, want)| lead_order_distance(got, want))
            .fold(0.0, f64::max),
    )
}

/// The paper's Sec. V accuracy: share of distances within 1/4.
pub fn accuracy(distances: &[f64]) -> f64 {
    AccuracyBuckets::tally(distances).within_quarter
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrpm_extrap::{Model, Term, TermFactor};

    fn lines(workload: Workload, seed: u64, order: &[usize]) -> Vec<String> {
        order
            .iter()
            .map(|&r| request(workload, seed, r).line)
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_requests() {
        for workload in Workload::ALL {
            let forward: Vec<usize> = (0..40).collect();
            let backward: Vec<usize> = (0..40).rev().collect();
            let a = lines(workload, 11, &forward);
            let mut b = std::thread::spawn(move || lines(workload, 11, &backward))
                .join()
                .unwrap();
            b.reverse();
            assert_eq!(a, b, "{}", workload.name());
            let acc: Vec<String> = accuracy_set(workload, 11)
                .into_iter()
                .map(|r| r.line)
                .collect();
            let again: Vec<String> = accuracy_set(workload, 11)
                .into_iter()
                .map(|r| r.line)
                .collect();
            assert_eq!(acc, again, "{}", workload.name());
            assert_ne!(a, lines(workload, 12, &forward), "{}", workload.name());
        }
    }

    #[test]
    fn workloads_draw_the_kernels_they_promise() {
        for r in 0..8 {
            let query = request(Workload::Query, 3, r);
            assert_eq!(query.kernels[0].truth.len(), if r % 4 == 3 { 2 } else { 1 });
            let bulk = request(Workload::Bulk, 3, r).kernels.len();
            assert_eq!(bulk, if r == 7 { 256 } else { 64 });
        }
    }

    #[test]
    fn growth_strings_round_trip_through_the_parser() {
        let pair = ExponentPair::from_parts;
        let model = Model::new(
            3,
            1.0,
            vec![
                Term::new(2.0, vec![TermFactor::new(0, pair(1, 3, 1))]),
                Term::new(
                    1.0,
                    vec![
                        TermFactor::new(1, pair(1, 1, 0)),
                        TermFactor::new(2, pair(0, 1, 2)),
                    ],
                ),
            ],
        );
        let parsed = parse_growth(&model.asymptotic_string(), 3).unwrap();
        assert_eq!(parsed, vec![pair(1, 3, 1), pair(1, 1, 0), pair(0, 1, 2)]);
        assert_eq!(
            parse_growth(&Model::constant_model(2, 5.0).asymptotic_string(), 2).unwrap(),
            vec![ExponentPair::CONSTANT; 2]
        );
        assert!(parse_growth("O(x3)", 2).is_none());
    }
}
