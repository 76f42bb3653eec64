//! S23 — streaming ingest bus vs pull-mode scraping.
//!
//! `fleet_push/{1,2}` is one push pass of a 16-exporter fleet through one
//! bus from one and from two workers, as `CeemsStack::push_pass` publishes:
//! the bus ingests different publishers' frames concurrently, so the second
//! should take less wall time. `fleet_scrape/{1,2}` is one scrape pass over
//! a mixed fleet in the order `CeemsStack::build` lists it, eight CPU nodes
//! and then eight line-heavier GPU nodes: the workers take the targets one
//! at a time, so the two of them should finish together rather than one
//! waiting on the GPU half. The two pairs are the push-versus-pull
//! comparison; both ingest through `SeriesCache::ingest`, one cache per
//! source, as the stack does. `scrape_pull` is one scrape of one exporter
//! over its HTTP `/metrics`. `sample_to_live_delta` publishes one sample on
//! the bus in process and waits until a live `query_live` subscriber has
//! read its rendered delta: the freshness a pushed sample reaches a
//! dashboard with.
//! Unit rows look under a pass. `warm_ingest/*` is one ingest of sixteen
//! pre-rendered bodies, each through its own warm `SeriesCache`: no render
//! and no HTTP, in ns a line. `fleet` sends the same bodies every pass, as
//! the exporters here do; `shuffled` and `all_new` are the payloads a
//! cache that follows the line order gains nothing on. `head_append/
//! tsdb_append_refs` appends one sample to each of 10 000 series through
//! `Tsdb::append_refs` by id, in ns a sample.
//! Emits `BENCH_stream.json` with these rows. Its `noise_pct` is the
//! largest gap between the p50s of the first and second half of one row's
//! timed passes, over that row's p50 (`half_gap_pct` holds each row's):
//! what a loop reads when nothing differs. Each worker pair is held to its
//! own floor instead, the larger half gap of its two rows (`floor_pct`):
//! `workers_resolved` is true when `/2`'s p50 differs from `/1`'s
//! (`two_vs_one_pct`) by more than that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceems_bench::busy_node;
use ceems_bench::report::{write_bench_json, LatencySummary, Noise};
use ceems_exporter::{CeemsExporter, ExporterConfig};
use ceems_http::Client;
use ceems_metrics::labels::LabelSetBuilder;
use ceems_metrics::parse::sample_lines;
use ceems_qfe::{QfeConfig, QueryFrontend, RouterDownstream};
use ceems_simnode::SimClock;
use ceems_stream::{PublishOutcome, SampleFrame, SinkReceipt, StreamBus, StreamBusConfig};
use ceems_tsdb::httpapi::api_router;
use ceems_tsdb::scrape::{
    exposition_to_batch, ScrapeManager, ScrapeTarget, SeriesCache, Stamp, TargetSource,
};
use ceems_tsdb::SeriesRef;
use ceems_tsdb::{fan_out, Tsdb};
use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const JOBS: usize = 8;
const STEP_MS: i64 = 15_000;
const INGEST_ITERS: usize = 200;
const LATENCY_ITERS: usize = 150;
/// Exporters in one `fleet_push` or `fleet_scrape` pass.
const FLEET: usize = 16;
const FLEET_ITERS: usize = 60;
/// Series in a `head_append` pass.
const HEAD_SERIES: usize = 10_000;
/// Passes of each unit row timed for the JSON artifact, the rows in turn.
const UNIT_ITERS: usize = 60;

/// A node's exporter: a CPU node with [`JOBS`] jobs, or with `gpus_per_job`
/// a GPU node whose jobs hold that many GPUs each.
fn exporter_of(gpus_per_job: usize) -> Arc<CeemsExporter> {
    Arc::new(CeemsExporter::new(
        busy_node(JOBS, gpus_per_job),
        SimClock::starting_at(60_000),
        ExporterConfig::default(),
    ))
}

fn exporter() -> Arc<CeemsExporter> {
    exporter_of(0)
}

fn bench_labels() -> Vec<(String, String)> {
    vec![("nodegroup".to_string(), "bench".to_string())]
}

/// A bus over the stack's sink: one `SeriesCache::ingest` per publisher,
/// the map lock held only to find the publisher's cache.
fn ingesting_bus(db: Arc<Tsdb>) -> Arc<StreamBus> {
    let caches: Mutex<HashMap<String, Arc<Mutex<SeriesCache>>>> = Mutex::default();
    Arc::new(StreamBus::new(
        StreamBusConfig::default(),
        Arc::new(move |f: &SampleFrame| {
            let cache = Arc::clone(caches.lock().entry(f.publisher.clone()).or_default());
            let stamp = Stamp {
                instance: &f.instance,
                job: &f.job,
                extra_labels: &f.extra_labels,
            };
            let got = cache.lock().ingest(&db, None, &f.body, stamp, f.produced_ms, &[])?;
            Ok(SinkReceipt {
                samples: got.samples,
                names: got.names.into_iter().map(str::to_string).collect(),
            })
        }),
    ))
}

/// One pull-mode ingest pass: GET `/metrics`, then the target's
/// `SeriesCache::ingest` with its `up`, as `ScrapeManager` does.
fn scrape_once(client: &Client, url: &str, db: &Tsdb, cache: &mut SeriesCache, t: i64) -> u64 {
    let resp = client.get(url).expect("scrape GET");
    let body = std::str::from_utf8(&resp.body).expect("utf8 exposition");
    let stamp = Stamp {
        instance: "n0:9100",
        job: "ceems",
        extra_labels: &bench_labels(),
    };
    cache
        .ingest(db, None, body, stamp, t, &[("up", 1.0)])
        .expect("exposition parses")
        .samples
}

fn samples_per_sec(samples_per_iter: u64, s: &LatencySummary) -> f64 {
    samples_per_iter as f64 / (s.p50_us / 1e6)
}

fn p50_us(samples: &[Duration]) -> f64 {
    LatencySummary::from_samples(&mut samples.to_vec()).p50_us
}

/// One ingest pass over a fleet from a number of workers.
trait FleetPass {
    /// The row's name: the worker count.
    fn label(&self) -> String;
    /// One pass, one scrape interval after the last. Returns the samples
    /// ingested.
    fn pass(&mut self) -> u64;
}

/// A fleet pushing through one bus over one database from `threads`
/// workers, as `CeemsStack::push_pass` does.
struct Fleet<'a> {
    exporters: &'a [(String, Arc<CeemsExporter>)],
    threads: usize,
    bus: Arc<StreamBus>,
    seq: u64,
}

impl FleetPass for Fleet<'_> {
    fn label(&self) -> String {
        self.threads.to_string()
    }

    /// Each worker renders and publishes the exporters it takes.
    fn pass(&mut self) -> u64 {
        self.seq += 1;
        let (bus, seq, t) = (&self.bus, self.seq, self.seq as i64 * STEP_MS);
        let publish = |samples: &mut u64, (name, exp): &(String, Arc<CeemsExporter>)| {
            let frame = SampleFrame {
                topic: "node-metrics".into(),
                publisher: name.clone(),
                seq,
                instance: format!("{name}:9100"),
                job: "ceems".into(),
                extra_labels: bench_labels(),
                body: exp.render_for_push(),
                produced_ms: t,
            };
            match bus.publish("anonymous", frame, t).expect("push succeeds") {
                PublishOutcome::Ingested { receipt, .. } => *samples += receipt.samples,
                dup => panic!("{name} seq {seq}: {dup:?}"),
            }
        };
        let per_worker = fan_out(self.exporters, self.threads, || 0, publish);
        per_worker.into_iter().sum()
    }
}

/// A fleet scraped into one database by one manager from `threads`
/// workers, as `CeemsStack::advance` does in pull mode.
struct ScrapeFleet {
    manager: ScrapeManager,
    db: Tsdb,
    threads: usize,
    t: i64,
}

impl FleetPass for ScrapeFleet {
    fn label(&self) -> String {
        self.threads.to_string()
    }

    fn pass(&mut self) -> u64 {
        self.t += STEP_MS;
        let stats = self.manager.scrape_once(&self.db, self.t, self.threads);
        assert_eq!(stats.failed, 0);
        stats.samples
    }
}

/// Criterion's `stream_ingest/{row}/{label}` rows over `fleets`, then their
/// passes interleaved for the JSON artifact, as the ingest paths are.
fn fleet_rows<const N: usize>(
    c: &mut Criterion,
    noise: &mut Noise,
    row: &str,
    mut fleets: [impl FleetPass; N],
) -> serde_json::Value {
    for fleet in &mut fleets {
        c.bench_function(format!("stream_ingest/{row}/{}", fleet.label()), |b| {
            b.iter(|| fleet.pass())
        });
    }
    let mut lat: [Vec<Duration>; N] = [(); N].map(|()| Vec::new());
    let mut samples = [0; N];
    for _ in 0..FLEET_ITERS {
        for (i, fleet) in fleets.iter_mut().enumerate() {
            let started = Instant::now();
            samples[i] = fleet.pass();
            lat[i].push(started.elapsed());
        }
    }
    let mut rows = serde_json::Map::new();
    let (mut floor_pct, mut p50s) = (0.0, Vec::new());
    for (i, fleet) in fleets.iter().enumerate() {
        let name = format!("{row}/{}", fleet.label());
        noise.record(name.clone(), &lat[i]);
        floor_pct = f64::max(floor_pct, noise.0[&name]);
        let sum = LatencySummary::from_samples(&mut lat[i]);
        p50s.push(sum.p50_us);
        rows.insert(
            fleet.label(),
            serde_json::json!({
                "latency": sum.to_json(),
                "samples_per_pass": samples[i],
                "samples_per_sec": samples_per_sec(samples[i], &sum),
            }),
        );
    }
    // The pair's own floor: its noisier row's half gap.
    let last_vs_first_pct = (p50s[p50s.len() - 1] / p50s[0] - 1.0) * 100.0;
    serde_json::json!({
        "exporters": FLEET,
        "iters": FLEET_ITERS,
        "available_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "workers": serde_json::Value::Object(rows),
        "floor_pct": floor_pct,
        "two_vs_one_pct": last_vs_first_pct,
        "workers_resolved": last_vs_first_pct.abs() > floor_pct,
    })
}

/// `stream_ingest/fleet_push/{1,2}`: a pass of [`FLEET`] exporters, each
/// publishing as its own node.
fn bench_fleet_push(c: &mut Criterion, noise: &mut Noise) -> serde_json::Value {
    let exporters: Vec<(String, Arc<CeemsExporter>)> =
        (0..FLEET).map(|i| (format!("n{i}"), exporter())).collect();
    let fleets = [1, 2].map(|threads| Fleet {
        exporters: &exporters,
        threads,
        bus: ingesting_bus(Arc::new(Tsdb::default())),
        seq: 0,
    });
    fleet_rows(c, noise, "fleet_push", fleets)
}

/// `stream_ingest/fleet_scrape/{1,2}`: a pass over [`FLEET`]
/// targets, the CPU half first and the GPU half after it, each with its
/// node group's label.
fn bench_fleet_scrape(c: &mut Criterion, noise: &mut Noise) -> serde_json::Value {
    let targets: Vec<ScrapeTarget> = (0..FLEET)
        .map(|i| {
            let (group, gpus_per_job) = if i < FLEET / 2 {
                ("intel-dram", 0)
            } else {
                ("gpu-typeb", 1)
            };
            ScrapeTarget {
                instance: format!("n{i}:9100"),
                job: "ceems".into(),
                extra_labels: vec![("nodegroup".into(), group.into())],
                source: TargetSource::InProcess(exporter_of(gpus_per_job).render_fn()),
            }
        })
        .collect();
    let fleets = [1, 2].map(|threads| ScrapeFleet {
        manager: ScrapeManager::new(targets.clone()),
        db: Tsdb::default(),
        threads,
        t: 0,
    });
    let mut rows = fleet_rows(c, noise, "fleet_scrape", fleets);
    if let serde_json::Value::Object(m) = &mut rows {
        m.insert("cpu_nodes".into(), serde_json::json!(FLEET / 2));
        m.insert("gpu_nodes".into(), serde_json::json!(FLEET - FLEET / 2));
    }
    rows
}

/// Criterion's `stream_ingest/{row}/{name}` rows, then [`UNIT_ITERS`]
/// passes of each, the rows in turn, for the JSON artifact: each row's p50
/// in ns per item of the `items` one pass handles.
fn unit_rows(
    c: &mut Criterion,
    noise: &mut Noise,
    row: &str,
    items: usize,
    passes: &mut [(&str, &mut dyn FnMut())],
) -> serde_json::Value {
    for (name, pass) in passes.iter_mut() {
        c.bench_function(format!("stream_ingest/{row}/{name}"), |b| {
            b.iter(&mut **pass)
        });
    }
    let mut lat: Vec<Vec<Duration>> = passes.iter().map(|_| Vec::new()).collect();
    for _ in 0..UNIT_ITERS {
        for ((_, pass), lat) in passes.iter_mut().zip(&mut lat) {
            let started = Instant::now();
            pass();
            lat.push(started.elapsed());
        }
    }
    let ns = passes.iter().zip(&lat).map(|((name, _), lat)| {
        noise.record(format!("{row}/{name}"), lat);
        (
            name.to_string(),
            serde_json::json!(p50_us(lat) * 1e3 / items as f64),
        )
    });
    serde_json::Value::Object(ns.collect())
}

/// `stream_ingest/warm_ingest/*`: [`FLEET`] pre-rendered bodies, CPU and GPU
/// nodes in turn, each through its own warm cache. `fleet` sends each body
/// as rendered every pass. `shuffled` sends its lines in one of two random
/// orders, the other one each pass: the cache knows every line, never where.
/// `all_new` sends one of three copies under disjoint label sets, the next
/// one each pass: the cache has evicted the copy by then, so every line is
/// parsed and resolved by label set, as on a cold cache.
fn bench_warm_ingest(c: &mut Criterion, noise: &mut Noise) -> serde_json::Value {
    let bodies: Vec<String> = (0..FLEET).map(|i| exporter_of(i % 2).render()).collect();
    let lines: usize = bodies.iter().map(|b| sample_lines(b).count()).sum();
    let mut rng = StdRng::seed_from_u64(7);
    let fleet: Vec<Vec<String>> = bodies.iter().map(|b| vec![b.clone()]).collect();
    let shuffled: Vec<Vec<String>> = bodies
        .iter()
        .map(|b| (0..2).map(|_| shuffle_lines(b, &mut rng)).collect())
        .collect();
    let all_new: Vec<Vec<String>> = bodies
        .iter()
        .map(|b| (0..3).map(|copy| relabel(b, copy)).collect())
        .collect();
    let (mut fleet, mut shuffled, mut all_new) =
        (warm_pass(fleet), warm_pass(shuffled), warm_pass(all_new));
    let ns_per_line = unit_rows(
        c,
        noise,
        "warm_ingest",
        lines,
        &mut [
            ("fleet", &mut fleet),
            ("shuffled", &mut shuffled),
            ("all_new", &mut all_new),
        ],
    );
    serde_json::json!({ "bodies": FLEET, "lines": lines, "ns_per_line": ns_per_line })
}

/// One ingest pass over sources, source `i` sending the next of its
/// `bodies[i]` each pass through its own cache into one database; returned
/// after one pass over every body.
fn warm_pass(bodies: Vec<Vec<String>>) -> impl FnMut() {
    let (db, extra) = (Tsdb::default(), bench_labels());
    let instances: Vec<String> = (0..bodies.len()).map(|i| format!("n{i}:9100")).collect();
    let mut caches: Vec<SeriesCache> = bodies.iter().map(|_| SeriesCache::default()).collect();
    let (mut t, mut passes) = (0, 0);
    let mut pass = move || {
        t += STEP_MS;
        passes += 1;
        for ((variants, instance), cache) in bodies.iter().zip(&instances).zip(&mut caches) {
            let stamp = Stamp {
                instance,
                job: "ceems",
                extra_labels: &extra,
            };
            let body = &variants[passes % variants.len()];
            cache
                .ingest(&db, None, body, stamp, t, &[("up", 1.0)])
                .expect("a render parses");
        }
    };
    for _ in 0..3 {
        pass();
    }
    pass
}

/// `body`'s lines in a random order.
fn shuffle_lines(body: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<&str> = body.lines().collect();
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.gen_range(0..=i));
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// `body` with `copy="{copy}"` added to every sample line's labels.
fn relabel(body: &str, copy: usize) -> String {
    let mut out = String::with_capacity(body.len() * 2);
    for line in body.lines() {
        match line.find(['{', ' ']) {
            Some(at) if !line.starts_with('#') => {
                let (name, rest) = line.split_at(at);
                match rest.strip_prefix('{') {
                    Some(labels) => out.push_str(&format!("{name}{{copy=\"{copy}\",{labels}")),
                    None => out.push_str(&format!("{name}{{copy=\"{copy}\"}}{rest}")),
                }
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// `stream_ingest/head_append/tsdb_append_refs`: one sample for each of
/// [`HEAD_SERIES`] series through `Tsdb::append_refs` by id.
fn bench_head_append(c: &mut Criterion, noise: &mut Noise) -> serde_json::Value {
    let db = Tsdb::default();
    let token = db.ref_token();
    let labelled: Vec<(SeriesRef, i64, f64)> = (0..HEAD_SERIES)
        .map(|i| {
            let labels = LabelSetBuilder::new()
                .label("__name__", "bench_metric")
                .label("instance", format!("node-{}", i / 100))
                .label("uuid", format!("slurm-{i}"))
                .build();
            (SeriesRef::Labels(labels), 0, 0.0)
        })
        .collect();
    let ids = db
        .append_refs(token, None, &labelled)
        .expect("a current token");
    let (mut refs, mut t) = (Vec::with_capacity(HEAD_SERIES), 0);
    let mut by_id = || {
        t += STEP_MS;
        let v = (t / STEP_MS * 150) as f64;
        refs.clear();
        refs.extend(ids.iter().map(|&id| (SeriesRef::Id(id), t, v + id as f64)));
        db.append_refs(token, None, &refs)
            .expect("ids under their token");
    };
    let ns_per_sample = unit_rows(
        c,
        noise,
        "head_append",
        HEAD_SERIES,
        &mut [("tsdb_append_refs", &mut by_id)],
    );
    serde_json::json!({ "series": HEAD_SERIES, "ns_per_sample": ns_per_sample })
}

fn bench_ingest_paths(c: &mut Criterion) {
    let exp = exporter();
    let mut noise = Noise::default();

    // Pull mode: the exporter serves /metrics, we scrape-parse-append.
    let scrape_db = Tsdb::default();
    let mut scrape_cache = SeriesCache::default();
    let exp_srv = Arc::clone(&exp).serve().unwrap();
    let metrics_url = format!("{}/metrics", exp_srv.base_url());
    let scrape_client = Client::new();

    let probe = exposition_to_batch(&exp.render_for_push(), "n0:9100", "ceems", &[], 0)
        .expect("probe parses");
    let samples_per_iter = probe.len() as u64;
    eprintln!(
        "[S23] {JOBS}-job node render: {} samples per batch",
        samples_per_iter
    );

    let mut t = 0i64;
    c.bench_function("stream_ingest/scrape_pull", |b| {
        b.iter(|| {
            t += STEP_MS;
            scrape_once(&scrape_client, &metrics_url, &scrape_db, &mut scrape_cache, t)
        })
    });
    let mut scrape_lat: Vec<Duration> = (0..INGEST_ITERS)
        .map(|_| {
            t += STEP_MS;
            let started = Instant::now();
            scrape_once(&scrape_client, &metrics_url, &scrape_db, &mut scrape_cache, t);
            started.elapsed()
        })
        .collect();
    noise.record("scrape_pull", &scrape_lat);
    let scrape_sum = LatencySummary::from_samples(&mut scrape_lat);

    // End-to-end freshness: one sample published on the bus in process
    // until its rendered delta is fully received by a live SSE subscriber.
    let live_db = Arc::new(Tsdb::default());
    let live_now = Arc::new(AtomicI64::new(0));
    let live_bus = ingesting_bus(Arc::clone(&live_db));
    let mut live_seq = 0;
    let mut live_publish = |body: String, lt: i64| {
        live_seq += 1;
        let frame = SampleFrame {
            topic: "bench".into(),
            publisher: "n0".into(),
            seq: live_seq,
            instance: "n0:9100".into(),
            job: "ceems".into(),
            extra_labels: vec![],
            body,
            produced_ms: lt,
        };
        match live_bus.publish("anonymous", frame, lt).expect("live push") {
            PublishOutcome::Ingested { .. } => {}
            dup => panic!("seq {live_seq}: {dup:?}"),
        }
    };

    let qnow = Arc::clone(&live_now);
    let rnow = Arc::clone(&live_now);
    let fe = QueryFrontend::new(
        Arc::new(RouterDownstream::new(api_router(
            Arc::clone(&live_db),
            Arc::new(move || rnow.load(Ordering::SeqCst)),
        ))),
        QfeConfig {
            now: Arc::new(move || qnow.load(Ordering::SeqCst)),
            ..Default::default()
        },
    );
    let fe_srv = fe.serve().unwrap();

    let mut lt = 0i64;
    for k in 1..=4 {
        lt = k * STEP_MS;
        live_now.store(lt, Ordering::SeqCst);
        live_publish(format!("stream_bench_watts {}\n", 200 + k), lt);
    }
    let sub_client = Client::new();
    let mut sub = sub_client
        .get_stream(&format!(
            "{}/api/v1/query_live?query={}&step=15&since=60",
            fe_srv.base_url(),
            ceems_http::url::encode_component("sum(stream_bench_watts)")
        ))
        .expect("live subscribe");
    assert_eq!(sub.status.0, 200);

    let mut buf = String::new();
    let read_event = |buf: &mut String, sub: &mut ceems_http::StreamingResponse| {
        loop {
            if let Some(end) = buf.find("\n\n") {
                buf.drain(..end + 2);
                return;
            }
            let chunk = sub
                .next_chunk()
                .expect("live stream read")
                .expect("live stream stays open");
            buf.push_str(std::str::from_utf8(&chunk).expect("utf8 sse"));
        }
    };
    read_event(&mut buf, &mut sub); // the full render

    let mut delta_lat: Vec<Duration> = Vec::with_capacity(LATENCY_ITERS);
    for i in 0..LATENCY_ITERS {
        lt += STEP_MS;
        let body = format!("stream_bench_watts {}\n", 200 + (i as i64 % 17));
        let started = Instant::now();
        live_now.store(lt, Ordering::SeqCst);
        live_publish(body, lt);
        fe.push_live(lt + 500);
        read_event(&mut buf, &mut sub);
        delta_lat.push(started.elapsed());
    }
    noise.record("sample_to_live_delta", &delta_lat);
    let delta_sum = LatencySummary::from_samples(&mut delta_lat);
    let fleet_push = bench_fleet_push(c, &mut noise);
    let fleet_scrape = bench_fleet_scrape(c, &mut noise);
    let warm_ingest = bench_warm_ingest(c, &mut noise);
    let head_append = bench_head_append(c, &mut noise);

    write_bench_json(
        "stream",
        &serde_json::json!({
            "bench": "stream_ingest",
            "jobs": JOBS,
            "samples_per_batch": samples_per_iter,
            "ingest_iters": INGEST_ITERS,
            "scrape_pull": {
                "latency": scrape_sum.to_json(),
                "samples_per_sec": samples_per_sec(samples_per_iter, &scrape_sum),
            },
            "noise_pct": noise.pct(),
            "half_gap_pct": noise.0,
            "fleet_push": fleet_push,
            "fleet_scrape": fleet_scrape,
            "warm_ingest": warm_ingest,
            "head_append": head_append,
            "live_delta_iters": LATENCY_ITERS,
            "sample_to_live_delta": delta_sum.to_json(),
            "bus_frames_published": live_bus.stats().published,
        }),
    );

    fe_srv.shutdown();
    exp_srv.shutdown();
}

criterion_group!(benches, bench_ingest_paths);
criterion_main!(benches);
