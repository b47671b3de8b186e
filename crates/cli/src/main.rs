//! `nrpm` — a command-line performance modeler and model server.
//!
//! ```text
//! nrpm fit <file> [--adaptive] [--network net.json] [--at x1,x2,...]
//! nrpm noise <file>
//! nrpm pretrain --out net.json [--samples N] [--epochs E] [--paper-net]
//! nrpm serve --model net.json [--addr HOST:PORT] [--workers N]
//! nrpm query health|stats|shutdown|model|batch [...]
//! nrpm registry stats|verify|gc|warm --dir DIR [...]
//! nrpm cluster launch|status|drain|kill|rollout [...]
//! nrpm fig3_accuracy|fig3_power|fig4_case_studies|fig5_noise|fig6_overhead [...]
//! nrpm noise_estimator_eval|threshold_calibration|chaos_eval|dump_campaigns [...]
//! ```
//!
//! Measurement files use the `PARAMS`/`POINT … DATA …` text format (see
//! `nrpm-extrap`) or, with a `.json` extension, the serde representation of
//! a `MeasurementSet`.
//!
//! Exit codes classify failures so scripts can react: `0` success, `2`
//! usage, `3` unreadable or malformed input, `4` recoverable modeling
//! failure (e.g. corrupt data under `--strict`), `5` fatal modeling
//! failure.

use nrpm_cli::{run, Invocation};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Invocation::parse(&args) {
        Ok(invocation) => match run(&invocation) {
            Ok(output) => {
                print!("{output}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(e.code)
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", nrpm_cli::USAGE);
            ExitCode::from(2)
        }
    }
}
