//! Shared fixtures for the benchmark harness.
//!
//! Every table/figure/claim in the paper has a bench target (see
//! `DESIGN.md` §3 and `EXPERIMENTS.md`); these helpers build the populated
//! stacks and TSDBs those benches measure.

use std::path::PathBuf;
use std::sync::Arc;

pub mod report;

use ceems_core::config::CeemsConfig;
use ceems_core::CeemsStack;
use ceems_metrics::labels::LabelSetBuilder;
use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
use ceems_simnode::WorkloadProfile;
use ceems_slurm::JobRequest;
use ceems_tsdb::Tsdb;

/// A unique temp directory for a bench run.
pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-bench-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A node with `jobs` running tasks, stepped for one minute so every
/// counter is hot.
pub fn busy_node(jobs: usize, gpus_per_job: usize) -> Arc<parking_lot::Mutex<SimNode>> {
    let profile = if gpus_per_job > 0 {
        HardwareProfile::Gpu {
            model: ceems_simnode::power::GpuModel::A100,
            count: 8,
            coverage: ceems_simnode::power::IpmiCoverage::ExcludesGpus,
        }
    } else {
        HardwareProfile::IntelCpu
    };
    let mut node = SimNode::new(
        NodeSpec {
            hostname: "bench-node".into(),
            profile,
        },
        7,
    );
    let cores = (node.total_cores() / jobs.max(1)).max(1);
    for i in 0..jobs {
        node.add_task(
            TaskSpec {
                id: i as u64 + 1,
                cores,
                memory_bytes: 4 << 30,
                gpus: gpus_per_job,
                workload: WorkloadProfile::CpuBound { intensity: 0.8 },
            },
            0,
        )
        .expect("bench task fits");
    }
    for i in 1..=4 {
        node.step(i * 15_000, 15.0);
    }
    Arc::new(parking_lot::Mutex::new(node))
}

/// A small monitored stack with one running job, advanced for 10 minutes.
pub fn small_stack_with_job() -> CeemsStack {
    let mut stack = CeemsStack::build(CeemsConfig::default(), &tmpdir("stack")).unwrap();
    stack
        .submit(JobRequest {
            user: "bench".into(),
            account: "proj".into(),
            partition: "cpu-intel".into(),
            nodes: 1,
            cores_per_node: 16,
            memory_per_node: 32 << 30,
            gpus_per_node: 0,
            walltime_s: 7200,
            workload: WorkloadProfile::CpuBound { intensity: 0.9 },
        })
        .unwrap();
    stack.run_for(600.0, 15.0);
    stack
}

/// A TSDB pre-loaded with `series` gauge series × `samples_per_series`
/// samples at a 15 s cadence.
pub fn loaded_tsdb(series: usize, samples_per_series: usize) -> Arc<Tsdb> {
    let db = Arc::new(Tsdb::default());
    for s in 0..series {
        let labels = LabelSetBuilder::new()
            .label("__name__", "bench_metric")
            .label("instance", format!("node-{s}"))
            .label("uuid", format!("slurm-{s}"))
            .build();
        for i in 0..samples_per_series {
            db.append(&labels, i as i64 * 15_000, 100.0 + (i % 7) as f64);
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let n = busy_node(4, 0);
        assert_eq!(n.lock().task_ids().len(), 4);
        let db = loaded_tsdb(10, 20);
        assert_eq!(db.series_count(), 10);
        assert_eq!(db.samples_appended(), 200);
    }
}
