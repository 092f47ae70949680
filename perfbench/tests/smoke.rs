//! Smoke mode: a tiny size of each workload must run every correctness
//! check and print every metric `BENCHMARK.json` names, with its unit.

use omni_json::Json;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    omni_json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in one of the metric lists.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (omni_json::parse(last).expect("result line is JSON"), stderr)
}

fn check(workload: &str) {
    let bench = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (result, stderr) = run(workload, trace);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = result.get("metrics").expect("metrics object");
        let want = declared(&bench, list);
        assert_eq!(metrics.as_object().map(<[_]>::len), Some(want.len()), "{workload}: {list}");
        for (name, unit) in want {
            let m = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
        }
        // The run reports how many correctness checks it made.
        let checks: u64 = stderr
            .lines()
            .find_map(|l| l.strip_suffix(" checks")?.rsplit(", ").next()?.parse().ok())
            .expect("check count on stderr");
        assert!(checks > 0, "{workload}: no correctness check ran");
    }
}

#[test]
fn alert_storm_smoke() {
    check("alert_storm");
}

#[test]
fn dashboards_live_smoke() {
    check("dashboards_live");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
