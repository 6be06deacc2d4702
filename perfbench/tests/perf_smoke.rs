//! Runs `perf --smoke` on every workload, in both modes, and checks its
//! output against the contract in `BENCHMARK.json`: every declared metric
//! and workload appears exactly once with its unit and a finite value,
//! names are well-formed, the counts stay inside the benchmark format's
//! limits, nothing fails, and `wire_bytes_per_msg` is exact for a seed.
//!
//! Not part of the root workspace's `cargo test`: run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs `perf --smoke` and returns the JSON object on its last line.
fn smoke(workload: &str, trace: u32, seed: u64) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--smoke", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "perf --smoke --workload {workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry has a string {k}"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_result(result: &Value, expected: &[(String, String)], what: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("the result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed"),
        Some(&Value::Int(0)),
        "{what}: failed_share is 0"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{what}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let unique: BTreeSet<&str> = got.iter().copied().collect();
    assert_eq!(unique.len(), got.len(), "{what}: a metric appears twice");
    let want: BTreeSet<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(unique, want, "{what}: metrics differ from BENCHMARK.json");
    for (name, unit) in expected {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .expect("present");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} is not a finite number: {value:?}"
        );
    }
}

#[test]
fn smoke_output_matches_benchmark_json() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");

    // The benchmark format's own limits.
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut names = BTreeSet::new();
    for name in workloads
        .iter()
        .chain(end_to_end.iter().map(|(n, _)| n))
        .chain(per_layer.iter().map(|(n, _)| n))
    {
        assert!(well_formed(name), "{name:?} is not a well-formed name");
        assert!(names.insert(name.clone()), "{name} is used twice");
    }
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    for w in &workloads {
        check_result(&smoke(w, 0, 1), &end_to_end, &format!("{w} --trace 0"));
        check_result(&smoke(w, 1, 1), &per_layer, &format!("{w} --trace 1"));
    }
}

#[test]
fn wire_bytes_per_msg_is_exact_for_a_seed() {
    let wire = |result: &Value| {
        result
            .get("metrics")
            .and_then(|m| m.get("wire_bytes_per_msg"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("wire_bytes_per_msg")
    };
    // The mesh is the workload whose event order is seeded-random.
    let first = wire(&smoke("flat_mesh", 0, 5));
    assert_eq!(
        first,
        wire(&smoke("flat_mesh", 0, 5)),
        "same seed, same bytes"
    );
    assert_ne!(
        first,
        wire(&smoke("flat_mesh", 0, 6)),
        "another seed, other inputs"
    );
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    for args in [&["--bogus"][..], &["--workload", "nope"], &["--seed", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .output()
            .expect("perf runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no result on a usage error"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: perf"));
    }
}
