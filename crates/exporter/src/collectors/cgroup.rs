//! Per-workload cgroup collector.
//!
//! Walks the SLURM cgroup tree the way the real exporter walks
//! `/sys/fs/cgroup` (§II.A.a): every `job_<id>` directory becomes one
//! compute unit labelled with its CEEMS uuid, and the kernel accounting
//! files are parsed as text — the simulation renders byte-identical
//! layouts, so this code would work against a real cgroup v2 tree.

use ceems_metrics::model::MetricType;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_simnode::cgroup::{parse_job_dir, SLURM_CGROUP_ROOT};
use ceems_simnode::cluster::NodeHandle;
use ceems_slurm::types::job_uuid;
use ceems_simnode::pseudofs::PseudoFs;

use super::{file_path, write_unit_families, FamilyDesc};

const FAMILIES: [FamilyDesc; 6] = [
    (
        "ceems_compute_unit_cpu_user_seconds_total",
        "User-mode CPU time of the compute unit on this node",
        MetricType::Counter,
    ),
    (
        "ceems_compute_unit_cpu_system_seconds_total",
        "Kernel-mode CPU time of the compute unit on this node",
        MetricType::Counter,
    ),
    (
        "ceems_compute_unit_memory_used_bytes",
        "Current memory usage of the compute unit",
        MetricType::Gauge,
    ),
    (
        "ceems_compute_unit_memory_peak_bytes",
        "Peak memory usage of the compute unit",
        MetricType::Gauge,
    ),
    (
        "ceems_compute_unit_read_bytes_total",
        "Bytes read by the compute unit",
        MetricType::Counter,
    ),
    (
        "ceems_compute_unit_write_bytes_total",
        "Bytes written by the compute unit",
        MetricType::Counter,
    ),
];

/// The cgroup collector.
pub struct CgroupCollector {
    node: NodeHandle,
}

impl CgroupCollector {
    /// Creates a collector over a node.
    pub fn new(node: NodeHandle) -> CgroupCollector {
        CgroupCollector { node }
    }
}

fn parse_cpu_stat(text: &str) -> (f64, f64) {
    let mut user = 0.0;
    let mut system = 0.0;
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("user_usec"), Some(v)) => user = v.parse().unwrap_or(0.0),
            (Some("system_usec"), Some(v)) => system = v.parse().unwrap_or(0.0),
            _ => {}
        }
    }
    (user / 1e6, system / 1e6)
}

fn parse_io_stat(text: &str) -> (f64, f64) {
    let mut rbytes = 0.0;
    let mut wbytes = 0.0;
    for token in text.split_whitespace() {
        if let Some(v) = token.strip_prefix("rbytes=") {
            rbytes += v.parse().unwrap_or(0.0);
        } else if let Some(v) = token.strip_prefix("wbytes=") {
            wbytes += v.parse().unwrap_or(0.0);
        }
    }
    (rbytes, wbytes)
}

impl Collector for CgroupCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let node = self.node.lock();
        let mut units = Vec::new();
        let mut path = String::new();
        for dir in node.list_dir(SLURM_CGROUP_ROOT).unwrap_or_default() {
            let Some(job_id) = parse_job_dir(&dir) else {
                continue;
            };
            let cpu = node
                .read_file(file_path(&mut path, SLURM_CGROUP_ROOT, &dir, "cpu.stat"))
                .map(|t| parse_cpu_stat(&t));
            let mem = node.read_u64(file_path(&mut path, SLURM_CGROUP_ROOT, &dir, "memory.current"));
            let peak = node.read_u64(file_path(&mut path, SLURM_CGROUP_ROOT, &dir, "memory.peak"));
            let io = node
                .read_file(file_path(&mut path, SLURM_CGROUP_ROOT, &dir, "io.stat"))
                .map(|t| parse_io_stat(&t));
            units.push((
                job_uuid(job_id),
                [
                    cpu.map(|c| c.0),
                    cpu.map(|c| c.1),
                    mem.map(|v| v as f64),
                    peak.map(|v| v as f64),
                    io.map(|i| i.0),
                    io.map(|i| i.1),
                ],
            ));
        }
        drop(node);
        write_unit_families(out, &FAMILIES, &units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
    use ceems_simnode::workload::WorkloadProfile;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn node_with_jobs() -> NodeHandle {
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "n1".into(),
                profile: HardwareProfile::IntelCpu,
            },
            1,
        );
        for id in [101u64, 202] {
            n.add_task(
                TaskSpec {
                    id,
                    cores: 4,
                    memory_bytes: 8 << 30,
                    gpus: 0,
                    workload: WorkloadProfile::CpuBound { intensity: 0.9 },
                },
                0,
            )
            .unwrap();
        }
        for i in 1..=10 {
            n.step(i * 1000, 1.0);
        }
        Arc::new(Mutex::new(n))
    }

    #[test]
    fn collects_one_unit_per_job() {
        let c = CgroupCollector::new(node_with_jobs());
        let fams = c.families();
        assert_eq!(fams.len(), 6);
        let cpu = &fams[0];
        assert_eq!(cpu.name, "ceems_compute_unit_cpu_user_seconds_total");
        assert_eq!(cpu.metrics.len(), 2);
        let uuids: Vec<_> = cpu
            .metrics
            .iter()
            .map(|m| m.labels.get("uuid").unwrap().to_string())
            .collect();
        assert!(uuids.contains(&"slurm-101".to_string()));
        // ~3.6 CPU-seconds/s for 10 s at 92% user split.
        assert!(cpu.metrics[0].sample.value > 20.0);
        let mem = &fams[2];
        assert!(mem.metrics[0].sample.value > 1e9);
    }

    #[test]
    fn empty_node_yields_empty_families() {
        let n = SimNode::new(
            NodeSpec {
                hostname: "idle".into(),
                profile: HardwareProfile::AmdCpu,
            },
            2,
        );
        let c = CgroupCollector::new(Arc::new(Mutex::new(n)));
        let fams = c.families();
        assert!(fams.iter().all(|f| f.metrics.is_empty()));
    }

    #[test]
    fn parsers() {
        assert_eq!(
            parse_cpu_stat("usage_usec 3000000\nuser_usec 2000000\nsystem_usec 1000000\n"),
            (2.0, 1.0)
        );
        assert_eq!(
            parse_io_stat("8:0 rbytes=100 wbytes=200 rios=1\n8:16 rbytes=50 wbytes=25\n"),
            (150.0, 225.0)
        );
        assert_eq!(parse_cpu_stat("garbage"), (0.0, 0.0));
    }
}
