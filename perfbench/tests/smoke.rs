//! Smoke test at the tiny size: every workload runs untraced and traced,
//! every metric `BENCHMARK.json` lists is printed with its unit, and a
//! tampered digest fails the run.

use std::process::Command;

use serde_json::Value;

/// Runs the benchmark; returns its exit status and its standard output.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    (out.status.success(), stdout)
}

/// The JSON result lines of a run's output.
fn results(stdout: &str) -> Vec<Value> {
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("a result line is JSON"))
        .collect()
}

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn listed<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
}

fn name(v: &Value) -> &str {
    v.get("name").and_then(Value::as_str).expect("a name")
}

/// Checks that `result` is a correct run printing exactly the metrics of
/// `spec[key]`, each with its listed unit.
fn check_result(spec: &Value, key: &str, result: &Value, what: &str) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Object(printed)) = result.get("metrics") else {
        panic!("{what} prints no metrics object");
    };
    let listed = listed(spec, key);
    assert_eq!(printed.len(), listed.len(), "{what}");
    for metric in listed {
        let unit = metric.get("unit").and_then(Value::as_str).unwrap();
        let value = printed
            .iter()
            .find(|(k, _)| k == name(metric))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{what} does not print {}", name(metric)));
        assert_eq!(value.get("unit").and_then(Value::as_str), Some(unit));
        assert!(value.get("value").and_then(Value::as_f64).is_some());
    }
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    let spec = spec();
    let args = [
        "--workload",
        "all",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--tiny",
    ];
    let (ok, stdout) = run(&args);
    assert!(ok, "the run fails:\n{stdout}");
    for workload in listed(&spec, "workloads") {
        let header = format!("perfbench workload={} ", name(workload));
        assert!(stdout.contains(&header), "{} does not run", name(workload));
    }
    // One untraced and one traced result per workload, then the summary.
    let results = results(&stdout);
    let (summary, runs) = results.split_last().expect("a summary line");
    assert_eq!(summary.get("correct"), Some(&Value::Bool(true)));
    assert!(runs.len() >= 2 * listed(&spec, "workloads").len());
    for (i, pair) in runs.chunks(2).enumerate() {
        check_result(&spec, "end_to_end", &pair[0], &format!("untraced run {i}"));
        check_result(&spec, "per_layer", &pair[1], &format!("traced run {i}"));
    }
}

#[test]
fn a_tampered_digest_fails_the_run() {
    let args = [
        "--workload",
        "capacity_seq",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--tiny",
        "--tamper-digest",
    ];
    let (ok, stdout) = run(&args);
    assert!(!ok, "the run must exit non-zero");
    let result = results(&stdout).pop().expect("a result line");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::as_f64).unwrap() >= 1.0);
}
