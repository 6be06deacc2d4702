//! `perf compare A.jsonl [B.jsonl]`: one row per (workload, end-to-end
//! metric) with both medians, both spreads, the bound from
//! `BENCHMARK.json` and a verdict.
//!
//! The inputs are files written with `--out`: one line per run. A
//! metric's spread is the distance between its first and third quartile
//! over the runs, as a share of their median — the same rule (Python's
//! `statistics.quantiles(values, n=4)`) the acceptance check uses.
//!
//! Verdicts: `worse` when B's median is worse than A's by more than the
//! bound; `unresolved` when either spread is wider than the bound, unless
//! every run of B reads better than every run of A; `better` when B's
//! median is better by more than the bound; `same` otherwise. With one
//! file, only the spreads are judged (`steady` / `unsteady` against a
//! third of the bound, which is what the benchmark must stay under).

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stat::quartiles;
use crate::Res;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end declarations of a `BENCHMARK.json` document.
pub fn declared(bench: &Value) -> Res<Vec<Declared>> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k:?}"));
            Ok(Declared {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_owned(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?
                    .as_f64()
                    .ok_or("metric bound is not a number")?,
            })
        })
        .collect()
}

/// `(workload, metric) -> values`, one per untraced run in the file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Parses a `--out` file: one JSON object per line with `workload`,
/// `trace` and `result`.
pub fn parse_runs(text: &str) -> Res<Runs> {
    let mut runs = Runs::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue; // per-layer runs carry no end-to-end metric
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no result.metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Median and spread (IQR as a share of the median) of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
    pub min: f64,
    pub max: f64,
    pub runs: usize,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        let (q1, q2, q3) = quartiles(values)?;
        Some(Side {
            median: q2,
            spread: (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            runs: values.len(),
        })
    }
}

/// The verdict on one (workload, metric) row.
pub fn verdict(a: Side, b: Side, d: &Declared) -> &'static str {
    // Positive when B is worse than A, as a share of A's median.
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if d.higher_is_better {
        (a.median - b.median) / base
    } else {
        (b.median - a.median) / base
    };
    let b_always_better = if d.higher_is_better {
        b.min > a.max
    } else {
        b.max < a.min
    };
    if a.spread > d.bound || b.spread > d.bound {
        if b_always_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > d.bound {
        "worse"
    } else if worse_by < -d.bound {
        "better"
    } else {
        "same"
    }
}

/// Renders the comparison table; returns it with whether any row is
/// `worse` (two files) or `unsteady` (one file).
pub fn compare(bench: &Value, a: &Runs, b: Option<&Runs>) -> Res<(String, bool)> {
    let metrics = declared(bench)?;
    let mut out = String::new();
    let mut bad = false;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    out.push_str(&format!(
        "{:<15} {:<20} {:>14} {:>8} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median A", "spread A", "median B", "spread B", "bound"
    ));
    for w in workloads {
        for d in &metrics {
            let key = (w.clone(), d.name.clone());
            let Some(sa) = a.get(&key).and_then(|v| Side::of(v)) else {
                continue;
            };
            let sb = b.and_then(|b| b.get(&key)).and_then(|v| Side::of(v));
            let verdict = match sb {
                Some(sb) => verdict(sa, sb, d),
                // setup_s is exempt from the spread rule: only its median
                // must hold between two sets of runs.
                None if d.name == "setup_s" || sa.spread <= d.bound / 3.0 => "steady",
                None => "unsteady",
            };
            bad |= matches!(verdict, "worse" | "unsteady");
            let (mb, spb) = sb.map_or((String::from("-"), String::from("-")), |s| {
                (format!("{:.6}", s.median), format!("{:.4}", s.spread))
            });
            out.push_str(&format!(
                "{:<15} {:<20} {:>14.6} {:>8.4} {:>14} {:>8} {:>6.3}  {verdict}\n",
                w, d.name, sa.median, sa.spread, mb, spb, d.bound
            ));
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(higher: bool, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    fn side(values: &[f64]) -> Side {
        Side::of(values).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let a = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let near = side(&[102.0, 103.0, 101.0, 102.5, 101.5]);
        let far_up = side(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let noisy = side(&[60.0, 140.0, 100.0, 80.0, 120.0]);
        // Lower is better, 10 % bound.
        assert_eq!(verdict(a, near, &d(false, 0.10)), "same");
        assert_eq!(verdict(a, far_up, &d(false, 0.10)), "worse");
        assert_eq!(verdict(far_up, a, &d(false, 0.10)), "better");
        // Higher is better flips the direction.
        assert_eq!(verdict(a, far_up, &d(true, 0.10)), "better");
        assert_eq!(verdict(far_up, a, &d(true, 0.10)), "worse");
        // A spread wider than the bound resolves nothing...
        assert_eq!(verdict(a, noisy, &d(false, 0.10)), "unresolved");
        // ...unless every run of B beats every run of A.
        let noisy_low = side(&[10.0, 50.0, 30.0, 20.0, 40.0]);
        assert_eq!(verdict(a, noisy_low, &d(false, 0.10)), "better");
    }

    #[test]
    fn compare_reads_out_files_and_flags_worse_rows() {
        let bench = Value::parse(
            r#"{"end_to_end": [
                {"name": "rtt_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let line = |w: &str, trace: u32, rtt: f64, setup: f64| {
            format!(
                r#"{{"workload": "{w}", "seed": 1, "trace": {trace}, "result": {{"correct": true, "attempted": 1, "failed": 0, "metrics": {{"rtt_us": {{"value": {rtt}, "unit": "us"}}, "setup_s": {{"value": {setup}, "unit": "s"}}}}}}}}"#
            )
        };
        let file = |rtts: &[f64]| {
            let mut text: Vec<String> = rtts
                .iter()
                .map(|&r| line("bus_ring", 0, r, 0.5 * r))
                .collect();
            text.push(line("bus_ring", 1, 999.0, 999.0)); // ignored
            text.join("\n")
        };
        let a = parse_runs(&file(&[10.0, 10.1, 9.9, 10.05])).unwrap();
        let b = parse_runs(&file(&[12.0, 12.1, 11.9, 12.05])).unwrap();
        assert_eq!(a[&("bus_ring".into(), "rtt_us".into())].len(), 4);

        let (table, bad) = compare(&bench, &a, Some(&b)).unwrap();
        assert!(bad, "{table}");
        assert!(table.contains("worse"), "{table}");
        let (table, bad) = compare(&bench, &a, Some(&a)).unwrap();
        assert!(!bad && table.contains("same"), "{table}");
        let (table, bad) = compare(&bench, &a, None).unwrap();
        assert!(!bad && table.contains("steady"), "{table}");
        assert!(parse_runs("{not json").is_err());
        assert_eq!(declared(&bench).unwrap().len(), 2);
    }
}
