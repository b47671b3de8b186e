//! Evaluates the range-of-relative-deviation noise estimator (Sec. IV-B):
//! injects known uniform noise levels into synthetic measurement sets and
//! reports the estimator's average prediction error. The paper reports an
//! average error of 4.93 %.
//!
//! ```text
//! cargo run -p nrpm-bench --release --bin noise_estimator_eval -- \
//!     [--sets N] [--points P] [--reps R] [--seed S] [--noise L1,L2,...]
//! ```

use nrpm_bench::cli::Args;
use nrpm_bench::estimator::{self, EstimatorSpec};
use nrpm_bench::report::{pct, Table};

fn main() {
    let args = Args::parse();
    let defaults = EstimatorSpec::default();
    let spec = EstimatorSpec {
        sets: args.get("sets", defaults.sets),
        points: args.get("points", defaults.points),
        reps: args.get("reps", defaults.reps),
        seed: args.get("seed", defaults.seed),
        levels: args.get_f64_list("noise", &defaults.levels),
    };

    println!("== Noise-estimator evaluation (pooled rrd heuristic) ==\n");
    println!(
        "{} synthetic sets per level, {} points, {} repetitions\n",
        spec.sets, spec.points, spec.reps
    );

    let levels = estimator::evaluate(&spec);
    let mut table = Table::new(&["injected", "mean estimate", "abs error", "rel error"]);
    for l in &levels {
        table.row(vec![
            pct(l.injected),
            pct(l.mean_estimate),
            pct(l.abs_error),
            pct(l.rel_error),
        ]);
    }
    table.print();
    println!(
        "\naverage relative prediction error: {} (paper: 4.93%)",
        pct(estimator::average_rel_error(&levels))
    );
}
