//! The whole benchmark at smoke size: every workload untraced, one traced,
//! all correctness checks on, no number gated.

use std::path::PathBuf;
use std::time::Instant;

use ceems_e2ebench::run::{run_untraced, Outcome, RunArgs, END_TO_END};
use ceems_e2ebench::schedule::{workload, WORKLOADS};
use ceems_e2ebench::traced::{run_traced, OVERHEAD, PER_LAYER};

fn args(name: &str, trace: bool) -> RunArgs {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    RunArgs {
        spec: workload(name).expect("known workload"),
        seed: 42,
        seconds: 10,
        smoke: true,
        work_dir: tmp.join(format!("smoke-{name}-{}", u8::from(trace))),
        trace_dir: tmp,
    }
}

fn assert_clean(name: &str, o: &Outcome) {
    assert!(o.correct, "{name}: {:?}", o.notes);
    assert_eq!(o.failed, 0, "{name}: {:?}", o.notes);
    assert!(o.attempted >= 1);
}

#[test]
fn smoke_reports_every_metric_for_every_workload_and_passes_every_check() {
    let mut outcomes = Vec::new();
    for w in WORKLOADS {
        let started = Instant::now();
        let o = run_untraced(&args(w.name, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            started.elapsed().as_secs() < 10,
            "{} smoke took {:?}",
            w.name,
            started.elapsed()
        );
        assert_clean(w.name, &o);
        // Every (metric, workload) pair, by name, with units, each a
        // number the driver can read.
        let reported: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(reported, END_TO_END, "{}", w.name);
        let json: serde_json::Value =
            serde_json::from_str(&o.result_json().expect("finite metrics")).expect("valid JSON");
        for (metric, unit) in END_TO_END {
            let m = &json["metrics"][metric];
            assert!(
                m["value"].as_f64().is_some_and(|v| v > 0.0),
                "{} {metric}",
                w.name
            );
            assert_eq!(m["unit"], unit);
        }
        outcomes.push(o);
    }
    // Same fleet, seed and samples pushed instead of pulled: the attributed
    // power must come out the same, sample for sample.
    let (pull, push) = (&outcomes[0].counts, &outcomes[1].counts);
    assert_eq!(pull.power_digest, push.power_digest);
    assert_eq!(pull.rule_series_written, push.rule_series_written);
    assert!((pull.power_sum_watts - push.power_sum_watts).abs() <= 1e-9 * pull.power_sum_watts);
    // Same seed ⇒ same counts, run to run.
    let again = run_untraced(&args("ingest_pull", false)).expect("second run");
    assert!(again.counts.matches(&outcomes[0].counts));
    assert_eq!(again.attempted, outcomes[0].attempted);
}

#[test]
fn traced_smoke_matches_the_untraced_stack_and_reports_every_layer() {
    for name in ["ingest_pull", "ingest_push"] {
        let a = args(name, true);
        let o = run_traced(&a).unwrap_or_else(|e| panic!("{name}: {e}"));
        // `correct` here means the traced driver landed the same samples,
        // series and rule outputs as `CeemsStack::advance`.
        assert_clean(name, &o);
        let reported: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let expected: Vec<(&str, &str)> = PER_LAYER.iter().copied().chain([OVERHEAD]).collect();
        assert_eq!(reported, expected);
        let trace = std::fs::read_to_string(a.trace_dir.join(format!("e2e-trace-{name}.jsonl")))
            .expect("trace file written");
        let first: serde_json::Value =
            serde_json::from_str(trace.lines().next().expect("spans")).expect("span is JSON");
        assert_eq!(first["name"], "core.advance");
        assert_eq!(first["cycle"], 1);
    }
}

#[test]
fn benchmark_json_names_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        v[key]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap_or("").to_string(),
                )
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().copied().chain([OVERHEAD]).collect();
    assert_eq!(names("per_layer"), own(&per_layer));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let own_workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, own_workloads);
}
