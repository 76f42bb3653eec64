//! The measured window: a fixed schedule of ingest cycles, reads and
//! freshness probes, driven the same way for the untraced and traced runs.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ceems_http::client::StreamingResponse;
use ceems_http::Client;

use crate::fixture::{resolve, Chain, Depth, Job, JobMix, RangeQuery, ADMIN, FRESHNESS_QUERY};
use crate::pipeline::Pipeline;
use crate::schedule::{Schedule, WorkloadSpec, CYCLES_PER_MINUTE};
use crate::sys::{process_cpu_s, Calibration};

/// Calibration slices spread over one window (≈ 0.5 s of work), whatever its
/// cycle count.
const CALIBRATION_SLICES: usize = 64;

/// Simulated seconds per ingest cycle (the scrape interval).
pub const CYCLE_S: f64 = 15.0;

/// Submits exactly `n` jobs from the mix (redrawing the few requests no node
/// could ever satisfy), then runs one ingest cycle.
pub fn submit_and_advance<P: Pipeline>(p: &mut P, mix: &mut JobMix, n: usize) {
    let mut accepted = 0;
    for _ in 0..n * 20 {
        if accepted == n {
            break;
        }
        accepted += usize::from(p.submit(mix.next_job()));
    }
    p.advance(CYCLE_S);
}

/// Everything around a warmed-up stack that the window drives: the read
/// chain, the jobs dashboards are drawn from, the job source and, on the live
/// workloads, the `query_live` subscription.
pub struct Rig {
    /// The read chain.
    pub chain: Chain,
    /// Jobs a Zipf rank maps onto, fixed for the window.
    pub jobs: Vec<Job>,
    /// Source of the submissions made before every cycle.
    pub mix: JobMix,
    /// How many of them.
    pub jobs_per_cycle: usize,
    /// The freshness subscriber, where one is attached.
    pub live: Option<LiveSub>,
}

/// One open `query_live` subscription, read event by event.
pub struct LiveSub {
    stream: StreamingResponse,
    buf: String,
}

impl LiveSub {
    /// Subscribes to [`FRESHNESS_QUERY`] at the frontend and consumes the
    /// initial full render.
    pub fn open(qfe_url: &str) -> Result<LiveSub, String> {
        let url = format!(
            "{qfe_url}/api/v1/query_live?query={}&step={CYCLE_S}&since=60",
            ceems_http::url::encode_component(FRESHNESS_QUERY)
        );
        let stream = Client::new()
            .with_header("X-Grafana-User", ADMIN)
            .get_stream(&url)
            .map_err(|e| e.to_string())?;
        if stream.status.0 != 200 {
            return Err(format!("query_live subscribe returned {}", stream.status.0));
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut sub = LiveSub {
            stream,
            buf: String::new(),
        };
        match sub.next_event()? {
            (event, _) if event == "full" => Ok(sub),
            (event, _) => Err(format!("expected the full render first, got {event:?}")),
        }
    }

    /// Blocks until one complete SSE event is buffered; returns `(event, data)`.
    pub fn next_event(&mut self) -> Result<(String, String), String> {
        loop {
            if let Some(end) = self.buf.find("\n\n") {
                let block: String = self.buf.drain(..end + 2).collect();
                let field = |name: &str| {
                    block
                        .lines()
                        .find_map(|l| l.strip_prefix(name))
                        .unwrap_or("")
                        .to_string()
                };
                return Ok((field("event: "), field("data: ")));
            }
            match self.stream.next_chunk().map_err(|e| e.to_string())? {
                Some(chunk) => self.buf.push_str(&String::from_utf8_lossy(&chunk)),
                None => return Err("query_live stream closed".into()),
            }
        }
    }
}

/// Whether a `query_range`-shaped body carries a positive value stamped
/// `now_s` — the freshness query's "the rule output of `now` is readable".
pub fn has_point_at(body: &str, now_s: i64) -> bool {
    let Ok(v) = serde_json::from_str::<serde_json::Value>(body) else {
        return false;
    };
    let series = v
        .get("data")
        .and_then(|d| d.get("result"))
        .and_then(|r| r.as_array());
    series.into_iter().flatten().any(|s| {
        s.get("values")
            .and_then(|v| v.as_array())
            .into_iter()
            .flatten()
            .any(|p| {
                let t = p.get(0).and_then(|t| t.as_f64());
                let val = p
                    .get(1)
                    .and_then(|x| x.as_str())
                    .and_then(|x| x.parse::<f64>().ok());
                t == Some(now_s as f64) && val.is_some_and(|x| x >= 1.0)
            })
    })
}

/// Polls the freshness query through the whole chain, up to three times, for
/// the point stamped `now_s`.
fn poll_point(chain: &Chain, now_s: i64) -> Result<bool, String> {
    let q = RangeQuery {
        expr: FRESHNESS_QUERY.to_string(),
        start_s: now_s,
        end_s: now_s,
    };
    for _ in 0..3 {
        let body = chain.send(&q, ADMIN, Depth::Http)?;
        if has_point_at(&String::from_utf8_lossy(&body), now_s) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Latencies and outcomes of the reads one thread issued.
#[derive(Clone, Debug, Default)]
pub struct ReadStats {
    /// `(simulated minute, wall ms)` of each dashboard render, in issue order.
    pub dashboard_ms: Vec<(usize, f64)>,
    /// `(simulated minute, wall ms)` of each fleet query, in issue order.
    pub fleet_ms: Vec<(usize, f64)>,
    /// Reads that did not come back 200.
    pub failed: u64,
    /// First failure, for the report.
    pub first_error: Option<String>,
}

impl ReadStats {
    /// Issues the reads of `cycle`.
    fn run(&mut self, chain: &Chain, schedule: &Schedule, cycle: usize, jobs: &[Job], now_s: i64) {
        for op in schedule.reads_after_cycle(cycle) {
            let read = resolve(*op, jobs, now_s);
            match chain.read(&read, Depth::Http) {
                Ok((wall, _)) => {
                    let ms = wall.as_secs_f64() * 1e3;
                    let reading = (cycle / CYCLES_PER_MINUTE, ms);
                    if read.dashboard {
                        self.dashboard_ms.push(reading);
                    } else {
                        self.fleet_ms.push(reading);
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    self.first_error.get_or_insert(e);
                }
            }
        }
    }
}

/// Everything the window measured.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Wall seconds of each `advance`.
    pub cycle_wall_s: Vec<f64>,
    /// Samples each `advance` ingested.
    pub cycle_samples: Vec<u64>,
    /// `(cycle index, ms)` from just before a rule-firing cycle until its
    /// output was visible to a client.
    pub probes: Vec<(usize, f64)>,
    /// Read latencies.
    pub reads: ReadStats,
    /// Probes that never saw their point.
    pub probe_failures: u64,
    /// Host-speed calibration slices taken after each cycle's reads.
    pub calibration: Vec<Calibration>,
    /// Process CPU seconds over the whole window.
    pub cpu_s: f64,
}

impl WindowStats {
    /// Operations attempted: cycles, reads and probes.
    pub fn attempted(&self, schedule: &Schedule) -> u64 {
        (schedule.cycles + schedule.reads.len()) as u64
            + self.probes.len() as u64
            + self.probe_failures
    }

    /// The calibration slices of the whole window.
    pub fn whole_calibration(&self) -> Calibration {
        Calibration::merged(&self.calibration)
    }

    /// The calibration slices of each simulated minute: a reading is scaled
    /// by the host speed of its own minute, so a burst of interference
    /// stretches reading and calibration alike.
    pub fn calibration_by_minute(&self) -> Vec<Calibration> {
        self.calibration
            .chunks(CYCLES_PER_MINUTE)
            .map(Calibration::merged)
            .collect()
    }

    /// Per simulated minute: samples ingested ÷ wall of its cycles.
    pub fn samples_per_s_by_minute(&self) -> Vec<f64> {
        self.cycle_wall_s
            .chunks(CYCLES_PER_MINUTE)
            .zip(self.cycle_samples.chunks(CYCLES_PER_MINUTE))
            .map(|(w, s)| s.iter().sum::<u64>() as f64 / w.iter().sum::<f64>())
            .collect()
    }

    /// `(minute, mean of its freshness probes)`. A minute holds one rule tick
    /// that coincides with the updater poll and one that does not, so single
    /// probes are bimodal and their median would flip between modes.
    pub fn freshness_ms_by_minute(&self) -> Vec<(usize, f64)> {
        let minutes = self.cycle_wall_s.len().div_ceil(CYCLES_PER_MINUTE);
        (0..minutes)
            .filter_map(|m| {
                let in_minute: Vec<f64> = self
                    .probes
                    .iter()
                    .filter(|(c, _)| c / CYCLES_PER_MINUTE == m)
                    .map(|(_, ms)| *ms)
                    .collect();
                (!in_minute.is_empty())
                    .then(|| (m, in_minute.iter().sum::<f64>() / in_minute.len() as f64))
            })
            .collect()
    }
}

/// Runs the schedule: per cycle, the job submissions and one `advance`
/// (+ `push_live`), a freshness probe when the cycle fired the recording
/// rules, then that cycle's share of the reads — on this thread, or on a
/// reader thread running alongside the cycle when the workload is concurrent.
/// `after_cycle` sees the stack after each cycle's ingest, before its reads.
pub fn run_window<P: Pipeline>(
    p: &mut P,
    rig: &mut Rig,
    spec: &WorkloadSpec,
    schedule: &Schedule,
    after_cycle: &mut dyn FnMut(usize, &P),
) -> WindowStats {
    let Rig {
        chain,
        jobs,
        mix,
        jobs_per_cycle,
        live,
    } = rig;
    let (chain, jobs, jobs_per_cycle) = (&*chain, jobs.as_slice(), *jobs_per_cycle);
    let mut w = WindowStats::default();
    let cpu_started = process_cpu_s();

    std::thread::scope(|scope| {
        let (go_tx, go_rx) = mpsc::channel::<(usize, i64)>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = spec.concurrent.then(|| {
            scope.spawn(move || {
                let mut stats = ReadStats::default();
                for (i, now_s) in go_rx {
                    stats.run(chain, schedule, i, jobs, now_s);
                    if done_tx.send(()).is_err() {
                        break;
                    }
                }
                stats
            })
        });

        for i in 0..schedule.cycles {
            p.set_cycle(i as u32 + 1);
            let head_s = p.clock().now_ms() / 1000;
            if reader.is_some() {
                go_tx
                    .send((i, head_s))
                    .expect("reader thread runs until the channel closes");
            }
            let samples_before = p.tsdb().samples_appended();
            let rules_before = p.rule_series_written();

            let t0 = Instant::now();
            submit_and_advance(p, mix, jobs_per_cycle);
            w.cycle_wall_s.push(t0.elapsed().as_secs_f64());
            let now_ms = p.clock().now_ms();
            chain.fe.push_live(now_ms);
            w.cycle_samples
                .push(p.tsdb().samples_appended() - samples_before);

            let rules_fired = p.rule_series_written() != rules_before;
            let now_s = now_ms / 1000;
            let seen = match live.as_mut() {
                // Every cycle completes one step, so one delta arrives per
                // cycle; it must be consumed whether or not it is timed.
                Some(sub) => sub
                    .next_event()
                    .map(|(event, data)| event == "delta" && has_point_at(&data, now_s)),
                None if rules_fired => poll_point(chain, now_s),
                None => Ok(false),
            };
            if rules_fired {
                match seen {
                    Ok(true) => w.probes.push((i, t0.elapsed().as_secs_f64() * 1e3)),
                    Ok(false) => w.probe_failures += 1,
                    Err(e) => {
                        w.probe_failures += 1;
                        w.reads.first_error.get_or_insert(e);
                    }
                }
            }
            after_cycle(i, p);

            if reader.is_some() {
                done_rx
                    .recv()
                    .expect("reader thread reports each finished slice");
            } else {
                w.reads.run(chain, schedule, i, jobs, now_s);
            }
            // Alone on the machine: after the reads, before the next cycle.
            let mut cal = Calibration::default();
            cal.sample(CALIBRATION_SLICES.div_ceil(schedule.cycles));
            w.calibration.push(cal);
        }
        drop(go_tx);
        if let Some(handle) = reader {
            let stats = handle.join().expect("reader thread does not panic");
            w.reads.dashboard_ms = stats.dashboard_ms;
            w.reads.fleet_ms = stats.fleet_ms;
            w.reads.failed += stats.failed;
            if w.reads.first_error.is_none() {
                w.reads.first_error = stats.first_error;
            }
        }
    });

    // The calibration's own CPU is not the pipeline's.
    w.cpu_s = process_cpu_s() - cpu_started - w.whole_calibration().cpu_spent_s();
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_detection_needs_the_exact_stamp_and_a_count() {
        let body = r#"{"status":"success","data":{"resultType":"matrix","result":[{"metric":{},"values":[[885,"212"],[900,"215"]]}]}}"#;
        assert!(has_point_at(body, 900));
        assert!(!has_point_at(body, 915));
        let empty = r#"{"status":"success","data":{"resultType":"matrix","result":[]}}"#;
        assert!(!has_point_at(empty, 900));
        assert!(!has_point_at("not json", 900));
    }

    #[test]
    fn minutes_aggregate_cycles_and_probes() {
        let w = WindowStats {
            cycle_wall_s: vec![0.1; 8],
            cycle_samples: vec![100; 8],
            probes: vec![(0, 10.0), (2, 30.0), (4, 50.0), (6, 70.0)],
            ..Default::default()
        };
        let per_min = w.samples_per_s_by_minute();
        assert_eq!(per_min.len(), 2);
        assert!((per_min[0] - 1000.0).abs() < 1e-6);
        assert_eq!(w.freshness_ms_by_minute(), vec![(0, 20.0), (1, 60.0)]);
    }
}
