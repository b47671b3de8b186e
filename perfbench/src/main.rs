//! Closed-loop end-to-end benchmark of nrpm serving on the paper network.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query|bulk --seed N --seconds S --trace 0|1
//! ```
//!
//! One run: train the paper-network fixture if this build has none (once,
//! untimed), start the serving process [`SETUPS`] times to time set-up,
//! send the workload's accuracy set (untimed; also the warm-up), then run
//! the closed loop for `--seconds`. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` prints the per-layer metrics of a traced run (see
//! [`trace`]). The last stdout line is the JSON result; a run record with
//! the machine, the configuration and the sample counts goes to
//! `perfbench/runs/`.

mod drive;
mod fixture;
mod gen;
mod serving;
mod trace;

use drive::{median, Window};
use gen::Workload;
use serde::Value;
use serving::{Role, Served};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// `BENCHMARK.json`, the benchmark's declaration: workloads and their
/// reasons, and every metric's name and unit.
pub fn spec() -> &'static Value {
    static SPEC: OnceLock<Value> = OnceLock::new();
    SPEC.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    })
}

/// The metrics `BENCHMARK.json` declares in `section` (`end_to_end` or
/// `per_layer`), as (name, unit).
pub fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    spec()
        .get(section)
        .and_then(Value::as_seq)
        .expect("BENCHMARK.json has the metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name"), field("unit"))
        })
        .collect()
}

/// Metrics for the result line: name → (value, unit).
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name`, with the unit `BENCHMARK.json` gives it.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = ["end_to_end", "per_layer"]
            .into_iter()
            .flat_map(declared)
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not declared in BENCHMARK.json"))
            .1;
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn contains(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// Everything one run produced, before printing.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub metrics: Metrics,
    pub record: Vec<(String, Value)>,
}

/// Counter `key` of a `stats` object (0 when absent).
pub fn counter(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or(0) as f64
}

/// Number of samples at or beyond the nearest-rank p99.
fn beyond_p99(n: usize) -> usize {
    n - (0.99 * n as f64).ceil() as usize + 1
}

/// `stats` counters read around every window, summed over the serving
/// process's backends (high-water marks take the largest).
pub const WINDOW_KEYS: [&str; 11] = [
    "cache_hits",
    "cache_misses",
    "singleflight_shared",
    "choice_regression",
    "choice_dnn",
    "choice_constant_mean",
    "latency_total_us",
    "latency_count",
    "queue_depth_hwm",
    "quantized_forward_calls",
    "quant_fallbacks",
];

/// One measured window with the serving process's counters around it.
pub struct Counted {
    pub window: Window,
    pub cpu_s: f64,
    pub before: Vec<f64>,
    pub after: Vec<f64>,
}

fn window_key(key: &str) -> usize {
    WINDOW_KEYS
        .iter()
        .position(|k| *k == key)
        .expect("a window key")
}

impl Counted {
    /// Change of a [`WINDOW_KEYS`] counter over the window.
    pub fn delta(&self, key: &str) -> f64 {
        let i = window_key(key);
        self.after[i] - self.before[i]
    }

    /// Value of a [`WINDOW_KEYS`] counter after the window.
    pub fn after(&self, key: &str) -> f64 {
        self.after[window_key(key)]
    }
}

/// Runs the closed loop for `seconds` from stream position `first`,
/// reading the counters and CPU time around it.
pub fn counted_window(
    served: &Served,
    workload: Workload,
    seed: u64,
    first: usize,
    seconds: f64,
) -> Result<Counted, String> {
    let before = served.backend_counters(&WINDOW_KEYS)?;
    let cpu_before = served.cpu_s()?;
    let window = drive::closed_loop(workload, seed, served.addr, first, seconds)?;
    let cpu_s = served.cpu_s()? - cpu_before;
    let after = served.backend_counters(&WINDOW_KEYS)?;
    Ok(Counted {
        window,
        cpu_s,
        before,
        after,
    })
}

/// Set-up, accuracy set, and one measured window on a running server.
pub struct Measured {
    pub served: Served,
    pub setups: Vec<f64>,
    pub kept: Counted,
    pub accuracy: f64,
    pub accuracy_kernels: usize,
    pub attempted: usize,
    pub errors: Vec<String>,
}

/// Starts the serving process `setups` times (keeping the last one), sends
/// the accuracy set, and runs the closed loop for `seconds`.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    fixture: &std::path::Path,
) -> Result<Measured, String> {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for i in 0..setups {
        let (served, seconds) = Served::start(Role::Server(workload), fixture)?;
        times.push(seconds);
        if i + 1 == setups {
            kept = Some(served);
        } else {
            served.stop()?;
        }
    }
    let served = kept.ok_or("no set-up ran")?;

    let acc_requests = gen::accuracy_set(workload, seed);
    let acc = drive::send_all(served.addr, &acc_requests);
    let mut errors: Vec<String> = acc.iter().filter_map(|c| c.error.clone()).collect();
    let distances: Vec<f64> = acc.iter().flat_map(|c| c.distances.clone()).collect();
    let mut attempted = acc.len();

    // The window continues the stream after the accuracy set, so no
    // kernel is ever sent twice.
    let kept = counted_window(&served, workload, seed, acc_requests.len(), seconds)?;
    attempted += kept.window.samples.len();
    errors.extend(
        kept.window
            .samples
            .iter()
            .filter_map(|s| s.checked.error.clone()),
    );
    Ok(Measured {
        served,
        setups: times,
        kept,
        accuracy: gen::accuracy(&distances),
        accuracy_kernels: distances.len(),
        attempted,
        errors,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let fixture = fixture::ensure()?;
    if args.trace {
        return trace::run(args.workload, args.seed, args.seconds, &fixture);
    }
    let workload = args.workload;
    let m = measure(workload, args.seed, args.seconds, SETUPS, &fixture)?;
    let peak_rss_mb = m.served.peak_rss_mb()?;
    let w = &m.kept;
    let figures = drive::figures(&w.window).ok_or("no request completed")?;
    let int8_ok = workload != Workload::Bulk
        || (w.delta("quantized_forward_calls") > 0.0 && w.after("quant_fallbacks") == 0.0);
    let failed = m.errors.len();

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&m.setups).ok_or("no set-up")?);
    metrics.put("latency_p50_ms", figures.p50_ms);
    metrics.put("latency_p99_ms", figures.p99_ms);
    metrics.put("kernels_per_s", figures.kernels_per_s);
    metrics.put("accuracy", m.accuracy);
    metrics.put("success_fraction", 1.0 - failed as f64 / m.attempted as f64);
    metrics.put("peak_rss_mb", peak_rss_mb);

    let choices = ["choice_regression", "choice_dnn", "choice_constant_mean"];
    let decided = choices.iter().map(|k| w.delta(k)).sum::<f64>().max(1.0);
    let lookups = (w.delta("cache_hits") + w.delta("cache_misses")).max(1.0);
    let seq = |values: &[f64]| Value::Seq(values.iter().map(|&v| Value::F64(v)).collect());
    let record = vec![
        (
            "window".to_string(),
            Value::Map(vec![
                ("seconds".into(), Value::F64(w.window.seconds)),
                ("requests".into(), Value::U64(figures.requests as u64)),
                (
                    "samples_beyond_p99".into(),
                    Value::U64(beyond_p99(figures.requests) as u64),
                ),
                ("serving_cpu_s".into(), Value::F64(w.cpu_s)),
                (
                    "cache_hit_share".into(),
                    Value::F64(w.delta("cache_hits") / lookups),
                ),
                (
                    "choice_shares".into(),
                    Value::Map(
                        choices
                            .iter()
                            .map(|k| (k.to_string(), Value::F64(w.delta(k) / decided)))
                            .collect(),
                    ),
                ),
                (
                    "quantized_forward_calls".into(),
                    Value::F64(w.delta("quantized_forward_calls")),
                ),
            ]),
        ),
        ("setup_s".to_string(), seq(&m.setups)),
        (
            "accuracy_kernels".to_string(),
            Value::U64(m.accuracy_kernels as u64),
        ),
        (
            "errors".to_string(),
            Value::Seq(
                m.errors
                    .iter()
                    .take(5)
                    .map(|e| Value::Str(e.clone()))
                    .collect(),
            ),
        ),
    ];
    m.served.stop()?;
    Ok(Outcome {
        attempted: m.attempted,
        failed,
        correct: failed == 0 && int8_ok,
        metrics,
        record,
    })
}

/// Where run records and span files go: `perfbench/runs/` of the checkout
/// the benchmark was built in.
pub fn runs_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/runs"))
}

fn write_record(args: &Args, outcome: &Outcome) -> Result<(), String> {
    let mut fields = vec![
        (
            "workload".to_string(),
            Value::Str(args.workload.name().into()),
        ),
        ("why".into(), Value::Str(args.workload.why().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::U64(serving::nproc() as u64)),
        (
            "isa".into(),
            Value::Str(format!("{:?}", nrpm_linalg::kernel_isa())),
        ),
        (
            "server_thread_budget".into(),
            Value::U64(serving::thread_budget() as u64),
        ),
        ("workers".into(), Value::U64(serving::WORKERS as u64)),
        ("clients".into(), Value::U64(serving::CLIENTS as u64)),
        ("closed_loop".into(), Value::Bool(true)),
        ("setups".into(), Value::U64(SETUPS as u64)),
    ];
    fields.extend(outcome.record.iter().cloned());
    let dir = runs_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(&Value::Map(fields)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: run record -> {}", path.display());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(e) = serving::child_main(&args[1..]) {
            eprintln!("perfbench serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload query|bulk \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = write_record(&args, &outcome) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let metrics = outcome
        .metrics
        .0
        .iter()
        .map(|(name, (value, unit))| {
            (
                name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::F64(*value)),
                    ("unit".into(), Value::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::U64(outcome.attempted as u64)),
        ("failed".into(), Value::U64(outcome.failed as u64)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialization is infallible")
    );
}
