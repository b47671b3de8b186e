//! A short run of every workload, untraced and traced, through the real
//! binary: each must pass its output checks and print exactly the metrics
//! `BENCHMARK.json` declares for it, with their units.

use serde::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = spec
        .get(section)
        .and_then(Value::as_seq)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

#[test]
fn every_workload_passes_its_output_checks() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["query", "bulk"]);
    for workload in &workloads {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {result:?}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let mut printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Value::as_map)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).expect("value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            printed.sort();
            assert_eq!(
                printed,
                declared(&spec, section),
                "{workload} trace={trace}"
            );
        }
    }
}
