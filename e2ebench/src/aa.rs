//! A/A study: the same code measured as two (or more) interleaved sets of
//! whole-benchmark runs. Whatever separates the sets' medians is noise, and a
//! regression bound below it cannot be enforced.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

use crate::run::{END_TO_END, POWER_SUM_TOLERANCE};
use crate::schedule::WORKLOADS;
use crate::stats::quartiles;

/// One child run's report.
struct Report {
    metrics: BTreeMap<String, f64>,
    /// The exact counts, as printed.
    counts: String,
    power_digest: String,
    power_sum_watts: f64,
    ok: bool,
}

fn same_power(a: &Report, b: &Report) -> bool {
    (a.power_sum_watts - b.power_sum_watts).abs() <= POWER_SUM_TOLERANCE * a.power_sum_watts.abs()
}

fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let json_line = |prefix: &str| -> Result<Value, String> {
        stdout
            .lines()
            .rev()
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| format!("{workload}: no line starting {prefix:?}"))
            .and_then(|l| serde_json::from_str::<Value>(l).map_err(|e| e.to_string()))
    };
    let result = json_line("{\"correct\"")?;
    let counts = json_line("{\"counts\"")?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let mut counts = counts.get("counts").cloned().unwrap_or(Value::Null);
    // The one count that repeats to a tolerance only; compared on its own.
    let power_sum_watts = match &mut counts {
        Value::Object(map) => map.remove("power_sum_watts").and_then(|v| v.as_f64()),
        _ => None,
    }
    .ok_or("counts line has no power_sum_watts")?;
    Ok(Report {
        metrics,
        power_sum_watts,
        power_digest: counts
            .get("power_digest")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        counts: counts.to_string(),
        ok: result.get("correct").and_then(Value::as_bool) == Some(true)
            && result.get("failed").and_then(Value::as_u64) == Some(0),
    })
}

/// Regression bounds by metric name, from `BENCHMARK.json` in the current
/// directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    Ok(v.get("end_to_end")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Runs `sets` × `runs` whole benchmarks, interleaved, and prints for every
/// metric × workload pair each set's median and quartiles and the worst gap
/// between set medians. `Ok(false)` when a gap exceeds its bound, an exact
/// count differs between runs, a run reports failures, or push and pull
/// ingest disagree on the attributed power.
pub fn run(sets: usize, runs: usize, seed: u64, seconds: u64) -> Result<bool, String> {
    if sets < 2 || runs < 2 {
        return Err("--aa needs at least two sets of two runs".into());
    }
    let bounds = bounds()?;
    // reports[workload][set] = that set's runs, in order.
    let mut reports: BTreeMap<&str, Vec<Vec<Report>>> = WORKLOADS
        .iter()
        .map(|w| (w.name, (0..sets).map(|_| Vec::new()).collect()))
        .collect();
    for run in 0..runs {
        for set in 0..sets {
            for w in WORKLOADS {
                eprintln!("aa: run {}/{runs} set {} {}", run + 1, set + 1, w.name);
                let report = run_child(w.name, seed, seconds)?;
                reports.get_mut(w.name).expect("every workload has a slot")[set].push(report);
            }
        }
    }

    let mut ok = true;
    println!("| workload | metric | set medians | set IQR/median | worst gap | bound |");
    println!("|---|---|---|---|---|---|");
    for w in WORKLOADS {
        let by_set = &reports[w.name];
        for (metric, _) in END_TO_END {
            let stats: Vec<(f64, f64)> = by_set
                .iter()
                .map(|set| {
                    let values: Vec<f64> = set.iter().map(|r| r.metrics[metric]).collect();
                    let (q1, med, q3) = quartiles(&values);
                    (med, (q3 - q1) / med)
                })
                .collect();
            let gap = stats
                .iter()
                .flat_map(|(a, _)| stats.iter().map(move |(b, _)| (a - b).abs() / a))
                .fold(0.0, f64::max);
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let within = gap <= bound;
            ok &= within;
            let list = |f: &dyn Fn(&(f64, f64)) -> String| {
                stats.iter().map(f).collect::<Vec<_>>().join(" / ")
            };
            println!(
                "| {} | {metric} | {} | {} | {:.2} % | {:.0} %{} |",
                w.name,
                list(&|s| format!("{:.4}", s.0)),
                list(&|s| format!("{:.2} %", s.1 * 100.0)),
                gap * 100.0,
                bound * 100.0,
                if within { "" } else { " EXCEEDED" },
            );
        }
        let all: Vec<&Report> = by_set.iter().flatten().collect();
        if all
            .iter()
            .any(|r| r.counts != all[0].counts || !same_power(r, all[0]))
        {
            println!("{}: exact counts differ between runs of one seed", w.name);
            ok = false;
        }
        if all.iter().any(|r| !r.ok) {
            println!("{}: a run reported failed operations or checks", w.name);
            ok = false;
        }
    }
    let first = |name: &str| &reports[name][0][0];
    let (pull, push) = (first("ingest_pull"), first("ingest_push"));
    if pull.power_digest != push.power_digest || !same_power(pull, push) {
        println!("ingest_pull and ingest_push disagree on uuid:ceems_power:watts");
        ok = false;
    }
    Ok(ok)
}
