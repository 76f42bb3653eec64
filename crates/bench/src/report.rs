//! Machine-readable bench artifacts.
//!
//! Benches that feed CI or the paper tables write one `BENCH_<name>.json`
//! next to the workspace root (override the directory with
//! `CEEMS_BENCH_DIR`), so runs can be diffed and plotted without scraping
//! criterion's human output. Each run also appends itself as one line to
//! `BENCH_<name>.history.jsonl` beside it, and both carry where the run came
//! from: the commit, the host's thread count and the command line.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Directory bench JSON lands in: `$CEEMS_BENCH_DIR` or the workspace root.
pub fn bench_dir() -> PathBuf {
    match std::env::var("CEEMS_BENCH_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

/// The commit checked out at the workspace root, `unknown` outside a git
/// checkout (or without `git`).
pub fn git_sha() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|sha| sha.trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a run came from: `git_sha`, `available_parallelism` and the
/// `command` line it was started with.
pub fn provenance() -> serde_json::Value {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // The program by its file name: where the build tree is says nothing.
    let mut command: Vec<String> = std::env::args().collect();
    if let Some(program) = command.first_mut() {
        if let Some(name) = std::path::Path::new(program).file_name() {
            *program = name.to_string_lossy().into_owned();
        }
    }
    serde_json::json!({
        "git_sha": git_sha(),
        "available_parallelism": cores,
        "command": command.join(" "),
    })
}

/// Writes `BENCH_<name>.json` (pretty-printed) with the run's
/// [`provenance`] added under `"provenance"`, appends the same object as
/// one line to `BENCH_<name>.history.jsonl`, and returns the snapshot's
/// path. `value` is an object; anything else is kept under `"result"`.
pub fn write_bench_json(name: &str, value: &serde_json::Value) -> PathBuf {
    let mut run = match value {
        serde_json::Value::Object(map) => map.clone(),
        other => serde_json::Map::from([("result".to_string(), other.clone())]),
    };
    let provenance = provenance();
    eprintln!(
        "bench {name}: git {} on {} cores",
        provenance["git_sha"].as_str().unwrap_or("unknown"),
        provenance["available_parallelism"]
    );
    run.insert("provenance".to_string(), provenance);
    let run = serde_json::Value::Object(run);

    let path = bench_dir().join(format!("BENCH_{name}.json"));
    let text = serde_json::to_string_pretty(&run).expect("bench json serializes");
    std::fs::write(&path, text + "\n").expect("bench json writes");
    let history = bench_dir().join(format!("BENCH_{name}.history.jsonl"));
    let row = serde_json::to_string(&run).expect("bench json serializes");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut file| file.write_all((row + "\n").as_bytes()))
        .expect("bench history appends");
    eprintln!(
        "wrote {} and a row of {}",
        path.display(),
        history.display()
    );
    path
}

/// Latency distribution summary over recorded samples, in microseconds.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// 50th percentile (µs).
    pub p50_us: f64,
    /// The highest tail percentile the sample count supports, as
    /// `(percentile, µs)`: a tail is reported only when at least ten samples
    /// lie beyond it, so the max of 8 samples is never called a "p99".
    pub tail: Option<(f64, f64)>,
    /// Arithmetic mean (µs).
    pub mean_us: f64,
    /// Maximum (µs).
    pub max_us: f64,
}

/// Tail percentiles a summary may report, ascending, in per mille so "ten
/// samples beyond" is integer arithmetic.
const TAILS_PER_MILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest percentile of `n` samples that still has at least ten samples
/// beyond it; `None` below 40 samples, where even p75 has fewer.
fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rfind(|t| n * (1000 - **t) / 1000 >= 10)
        .map(|t| *t as f64 / 10.0)
}

impl LatencySummary {
    /// Summarizes a set of latency samples (order irrelevant).
    pub fn from_samples(samples: &mut [Duration]) -> LatencySummary {
        assert!(!samples.is_empty(), "no latency samples recorded");
        samples.sort_unstable();
        let pct = |p: f64| -> f64 {
            let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
            samples[idx].as_secs_f64() * 1e6
        };
        let mean =
            samples.iter().map(Duration::as_secs_f64).sum::<f64>() / samples.len() as f64 * 1e6;
        LatencySummary {
            count: samples.len(),
            p50_us: pct(0.50),
            tail: highest_supported_tail(samples.len()).map(|p| (p, pct(p / 100.0))),
            mean_us: mean,
            max_us: samples.last().unwrap().as_secs_f64() * 1e6,
        }
    }

    /// This summary as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        let mut v = serde_json::json!({
            "count": self.count,
            "p50_us": self.p50_us,
            "mean_us": self.mean_us,
            "max_us": self.max_us,
        });
        if let (Some((p, us)), serde_json::Value::Object(map)) = (self.tail, &mut v) {
            map.insert(format!("p{p}_us"), us.into());
        }
        v
    }
}

/// Times `iters` runs of `f` and returns per-iteration latencies — a tiny
/// measurement loop for emitting JSON alongside criterion's own output.
pub fn time_iters(iters: usize, mut f: impl FnMut()) -> Vec<Duration> {
    let mut out = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        out.push(t.elapsed());
    }
    out
}

/// Thread count of the current process per `/proc/self/status`.
pub fn process_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:").map(|v| v.trim().to_string()))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Each timed row's half gap by row name: the p50s of the first and second
/// half of its runs, in timing order, apart by this percentage of the row's
/// p50. What a loop reads when nothing differs.
#[derive(Default)]
pub struct Noise(pub BTreeMap<String, f64>);

impl Noise {
    /// Records the half gap of `samples`, timed in this order, as `row`'s.
    pub fn record(&mut self, row: impl Into<String>, samples: &[Duration]) {
        let p50 = |lat: &[Duration]| LatencySummary::from_samples(&mut lat.to_vec()).p50_us;
        let (first, second) = samples.split_at(samples.len() / 2);
        let gap = (p50(first) - p50(second)).abs() / p50(samples) * 100.0;
        self.0.insert(row.into(), gap);
    }

    /// The largest half gap of any row.
    pub fn pct(&self) -> f64 {
        self.0.values().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let mut samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.count, 100);
        assert!((s.p50_us - 50.0).abs() <= 1.0, "p50 {}", s.p50_us);
        assert_eq!(s.max_us, 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let summary = |n: u64| {
            let mut samples: Vec<Duration> = (1..=n).map(Duration::from_micros).collect();
            LatencySummary::from_samples(&mut samples)
        };
        // The old summary called the max of 8 samples "p99".
        let s = summary(8);
        assert_eq!(s.tail, None);
        assert_eq!(s.max_us, 8.0);
        assert!(s.to_json().get("p99_us").is_none());

        let (p, us) = summary(200).tail.unwrap();
        assert_eq!(p, 95.0);
        assert!((us - 190.0).abs() <= 1.0, "p95 {us}");
        assert!(summary(200).to_json().get("p95_us").is_some());

        let (p, us) = summary(1000).tail.unwrap();
        assert_eq!(p, 99.0);
        assert!((us - 990.0).abs() <= 1.0, "p99 {us}");
        assert_eq!(summary(1000).to_json()["p99_us"], us);
    }

    #[test]
    fn thread_count_reads_procfs() {
        assert!(process_thread_count() >= 1);
    }

    #[test]
    fn bench_json_roundtrip() {
        let dir = crate::tmpdir("report");
        std::env::set_var("CEEMS_BENCH_DIR", &dir);
        let path = write_bench_json("selftest", &serde_json::json!({"ok": true}));
        write_bench_json("selftest", &serde_json::json!({"ok": false}));
        std::env::remove_var("CEEMS_BENCH_DIR");
        // The snapshot is the latest run, with where it came from.
        let latest: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(latest["ok"], false);
        let sha = latest["provenance"]["git_sha"].as_str().unwrap();
        assert!(sha == "unknown" || sha.len() == 40, "{sha}");
        assert!(
            latest["provenance"]["available_parallelism"]
                .as_u64()
                .unwrap()
                >= 1
        );
        assert!(!latest["provenance"]["command"].as_str().unwrap().is_empty());
        // The history keeps both runs, oldest first.
        let history = std::fs::read_to_string(dir.join("BENCH_selftest.history.jsonl")).unwrap();
        let rows: Vec<serde_json::Value> = history
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (&rows[0]["ok"], &rows[1]),
            (&serde_json::json!(true), &latest)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
