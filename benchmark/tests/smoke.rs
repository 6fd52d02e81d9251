//! Smoke test: every workload at toy scale through the real binary,
//! untraced and traced, with the output held to the benchmark contract;
//! and `BENCHMARK.json` held to what the binary says about itself.

use graphmine_benchmark::{cli, spec};
use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

/// Run one workload as the driver would and return the parsed last line.
fn run(workload: &str, traced: bool) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "42", "--seconds", "0.4"])
        .args(["--trace", if traced { "1" } else { "0" }, "--scale", "toy"])
        .output()
        .expect("spawn the benchmark binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} exited {}: {stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

fn check_result(workload: &str, traced: bool) {
    let result = run(workload, traced);
    let keys: BTreeSet<&str> = result
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"])
    );
    assert_eq!(
        result["correct"], true,
        "{workload} traced={traced}: {result}"
    );
    assert_eq!(result["failed"], 0u64);
    assert!(result["attempted"].as_u64().unwrap() >= 1);

    let metrics = result["metrics"].as_object().unwrap();
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| (name.as_str(), m["unit"].as_str().expect("unit")))
        .collect();
    let mut want: Vec<(&str, &str)> = if traced {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    want.sort_unstable();
    assert_eq!(
        got, want,
        "{workload} traced={traced} emits other metrics than the spec lists"
    );
    for (name, m) in metrics {
        assert!(spec::valid_name(name), "metric name {name:?}");
        let value = m["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("{name} has no numeric value"));
        assert!(value.is_finite(), "{name} = {value}");
        if !traced {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}, must never be 0"
            );
        }
    }
}

#[test]
fn offline_plain_runs_clean() {
    check_result("offline-plain", false);
    check_result("offline-plain", true);
}

#[test]
fn offline_stored_compressed_runs_clean() {
    check_result("offline-stored-compressed", false);
    check_result("offline-stored-compressed", true);
}

#[test]
fn service_hot_runs_clean() {
    check_result("service-hot", false);
    check_result("service-hot", true);
}

#[test]
fn service_open_mixed_runs_clean() {
    check_result("service-open-mixed", false);
    check_result("service-open-mixed", true);
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        doc,
        cli::benchmark_json(),
        "regenerate with `benchmark spec > BENCHMARK.json`"
    );

    // The contract's limits, on the file itself.
    let command = doc["command"].as_array().unwrap();
    assert!(command.len() <= 32 && command.iter().all(|c| c.as_str().unwrap().len() <= 200));
    let paths = doc["paths"].as_array().unwrap();
    assert!((1..=16).contains(&paths.len()));
    assert!((1..=60).contains(&doc["run_seconds"].as_u64().unwrap()));
    let workloads = doc["workloads"].as_array().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let end_to_end = doc["end_to_end"].as_array().unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&doc["per_layer"].as_array().unwrap().len()));
    assert!(end_to_end
        .iter()
        .all(|m| m["bound"].as_f64().unwrap() <= 0.25));
    assert!(end_to_end
        .iter()
        .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));
    let mut names = BTreeSet::new();
    for group in ["workloads", "end_to_end", "per_layer"] {
        for item in doc[group].as_array().unwrap() {
            let name = item["name"].as_str().unwrap();
            assert!(
                spec::valid_name(name) && names.insert(name.to_string()),
                "{name}"
            );
        }
    }
    // Every layer metric predicts an existing metric on an existing workload.
    for m in spec::PER_LAYER {
        assert!(
            spec::end_to_end(m.moves).is_some() && spec::is_workload(m.on),
            "{}",
            m.name
        );
    }
}
