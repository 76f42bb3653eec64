//! E4 — §II.B.a exporter-overhead claims.
//!
//! Paper: "the exporter consumes 15-20 MB of memory and each scrape request
//! takes less than 1 microsecond of CPU time" and is "very lightweight".
//! This bench measures the `/metrics` render hot path at varying numbers of
//! running jobs (cgroups) and with/without the GPU collectors, the text
//! writer alone (typed reference encoder against the text sink, same
//! families), each collector alone, and prints the payload size per
//! configuration.

use std::sync::Arc;

use ceems_bench::busy_node;
use ceems_exporter::{CeemsExporter, ExporterConfig};
use ceems_metrics::encode::encode_families;
use ceems_metrics::{Sink, TextSink};
use ceems_simnode::SimClock;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn exporter_for(jobs: usize, gpus: usize) -> Arc<CeemsExporter> {
    Arc::new(CeemsExporter::new(
        busy_node(jobs, gpus),
        SimClock::starting_at(60_000),
        ExporterConfig {
            emission_providers: vec![Arc::new(ceems_emissions::owid::OwidStatic)],
            ..Default::default()
        },
    ))
}

fn bench_render(c: &mut Criterion) {
    let mut group = c.benchmark_group("exporter_render");
    for jobs in [1usize, 8, 32] {
        let exporter = exporter_for(jobs, 0);
        let payload = exporter.render();
        eprintln!(
            "[E4] cpu node, {jobs} jobs: payload {} bytes, {} lines",
            payload.len(),
            payload.lines().count()
        );
        group.bench_with_input(BenchmarkId::new("cpu_node_jobs", jobs), &jobs, |b, _| {
            b.iter(|| exporter.render())
        });
    }
    let exporter = exporter_for(4, 2);
    let payload = exporter.render();
    eprintln!(
        "[E4] gpu node, 4 jobs x 2 GPUs: payload {} bytes",
        payload.len()
    );
    group.bench_function("gpu_node_4jobs", |b| b.iter(|| exporter.render()));
    group.finish();
}

fn bench_encode_only(c: &mut Criterion) {
    // The pure text-format write, separated from collection: the typed
    // reference encoder against the text sink, over the same families.
    let exporter = exporter_for(8, 0);
    let families = exporter.registry().gather();
    let mut group = c.benchmark_group("exporter_encode_only");
    group.bench_function("encode_families", |b| {
        b.iter(|| encode_families(&families))
    });
    let mut sink = TextSink::default();
    let mut out = String::new();
    group.bench_function("text_sink", |b| {
        b.iter(|| {
            sink.clear();
            sink.families(&families);
            out.clear();
            sink.write_sorted(&mut out);
            out.len()
        })
    });
    group.finish();
    assert_eq!(out, encode_families(&families));
}

fn bench_collect_only(c: &mut Criterion) {
    // Each collector alone, written through the registry's text sink.
    let mut group = c.benchmark_group("exporter_collect_only");
    for jobs in [1usize, 8, 32] {
        let exporter = exporter_for(jobs, 0);
        exporter.render();
        let registry = exporter.registry();
        let names: Vec<String> = registry.collector_names().into_iter().map(|(n, _)| n).collect();
        let mut out = String::new();
        for name in &names {
            for other in &names {
                registry.set_enabled(other, other == name);
            }
            out.clear();
            let samples = registry.render_into(&mut out);
            eprintln!(
                "[E4] {jobs} jobs, {name} alone: {samples} samples, {} bytes",
                out.len()
            );
            group.bench_with_input(BenchmarkId::new(name.as_str(), jobs), &jobs, |b, _| {
                b.iter(|| {
                    out.clear();
                    registry.render_into(&mut out)
                })
            });
        }
    }
    group.finish();
}

fn bench_collector_toggle(c: &mut Criterion) {
    // The CLI lets operators disable collectors; measure the saving.
    let full = exporter_for(8, 0);
    let slim = Arc::new(CeemsExporter::new(
        busy_node(8, 0),
        SimClock::starting_at(60_000),
        ExporterConfig {
            disabled_collectors: vec![
                "gpu".into(),
                "gpu_map".into(),
                "emissions".into(),
                "node".into(),
                "perf".into(),
                "ebpf_net".into(),
            ],
            ..Default::default()
        },
    ));
    let mut group = c.benchmark_group("exporter_collector_sets");
    group.bench_function("all_collectors", |b| b.iter(|| full.render()));
    group.bench_function("cgroup_rapl_ipmi_only", |b| b.iter(|| slim.render()));
    group.finish();

    // The paper's memory claim: report our structural footprint proxy.
    let payload = full.render();
    eprintln!(
        "[E4] exporter state is O(collectors)+O(jobs); payload buffer {} KiB, mean render {} ns",
        payload.len() / 1024,
        full.stats().mean_render_ns() as u64
    );
}

criterion_group!(
    benches,
    bench_render,
    bench_encode_only,
    bench_collect_only,
    bench_collector_toggle
);
criterion_main!(benches);
