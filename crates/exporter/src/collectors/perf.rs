//! Perf and eBPF-style collectors — §IV's future-work list, implemented.
//!
//! "Some of the important features in the pipeline are adding network and
//! IO stats to CEEMS exporter using extended Berkley Packet Filtering
//! (eBPF) framework and adding performance metrics like FLOPS, caching,
//! and memory IO bandwidth ... from Linux's perf framework."
//!
//! [`PerfCollector`] exposes per-unit instruction/cycle/FLOP/cache/DRAM
//! counters; [`NetCollector`] exposes per-unit TX/RX byte counters.

use ceems_metrics::model::MetricType::Counter;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_simnode::cluster::NodeHandle;
use ceems_slurm::types::job_uuid;

use super::{write_unit_families, FamilyDesc};

const PERF_FAMILIES: [FamilyDesc; 6] = [
    (
        "ceems_compute_unit_perf_instructions_total",
        "Retired instructions",
        Counter,
    ),
    ("ceems_compute_unit_perf_cycles_total", "CPU cycles", Counter),
    (
        "ceems_compute_unit_perf_flops_total",
        "Double-precision FLOPs",
        Counter,
    ),
    (
        "ceems_compute_unit_perf_cache_references_total",
        "Last-level cache references",
        Counter,
    ),
    (
        "ceems_compute_unit_perf_cache_misses_total",
        "Last-level cache misses",
        Counter,
    ),
    (
        "ceems_compute_unit_perf_dram_bytes_total",
        "Bytes moved to/from DRAM",
        Counter,
    ),
];

const NET_FAMILIES: [FamilyDesc; 2] = [
    (
        "ceems_compute_unit_net_tx_bytes_total",
        "Bytes transmitted by the compute unit",
        Counter,
    ),
    (
        "ceems_compute_unit_net_rx_bytes_total",
        "Bytes received by the compute unit",
        Counter,
    ),
];

/// The perf-framework collector.
pub struct PerfCollector {
    node: NodeHandle,
}

impl PerfCollector {
    /// Creates a collector over a node.
    pub fn new(node: NodeHandle) -> PerfCollector {
        PerfCollector { node }
    }
}

impl Collector for PerfCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let node = self.node.lock();
        let units: Vec<_> = node
            .task_ids()
            .into_iter()
            .filter_map(|id| {
                let perf = node.task_perf(id)?;
                let values = [
                    perf.instructions,
                    perf.cycles,
                    perf.flops,
                    perf.cache_references,
                    perf.cache_misses,
                    perf.dram_bytes,
                ];
                Some((job_uuid(id), values.map(|v| Some(v as f64))))
            })
            .collect();
        drop(node);
        write_unit_families(out, &PERF_FAMILIES, &units);
    }
}

/// The eBPF-style network collector.
pub struct NetCollector {
    node: NodeHandle,
}

impl NetCollector {
    /// Creates a collector over a node.
    pub fn new(node: NodeHandle) -> NetCollector {
        NetCollector { node }
    }
}

impl Collector for NetCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let node = self.node.lock();
        let units: Vec<_> = node
            .task_ids()
            .into_iter()
            .filter_map(|id| {
                let (tx, rx) = node.task_network(id)?;
                Some((job_uuid(id), [Some(tx as f64), Some(rx as f64)]))
            })
            .collect();
        drop(node);
        write_unit_families(out, &NET_FAMILIES, &units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
    use ceems_simnode::workload::WorkloadProfile;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn node_running(workload: WorkloadProfile) -> NodeHandle {
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "n".into(),
                profile: HardwareProfile::IntelCpu,
            },
            9,
        );
        n.add_task(
            TaskSpec {
                id: 1,
                cores: 8,
                memory_bytes: 16 << 30,
                gpus: 0,
                workload,
            },
            0,
        )
        .unwrap();
        for i in 1..=10 {
            n.step(i * 1000, 1.0);
        }
        Arc::new(Mutex::new(n))
    }

    #[test]
    fn perf_families_per_unit() {
        let c = PerfCollector::new(node_running(WorkloadProfile::CpuBound { intensity: 0.9 }));
        let fams = c.families();
        assert_eq!(fams.len(), 6);
        for f in &fams {
            assert_eq!(f.metrics.len(), 1);
            assert_eq!(f.metrics[0].labels.get("uuid"), Some("slurm-1"));
            assert!(f.metrics[0].sample.value > 0.0, "{} empty", f.name);
        }
        // Instruction count dwarfs cache misses for CPU-bound code.
        let insns = fams[0].metrics[0].sample.value;
        let misses = fams[4].metrics[0].sample.value;
        assert!(insns > 100.0 * misses);
    }

    #[test]
    fn memory_bound_shows_high_dram_traffic() {
        let cpu = PerfCollector::new(node_running(WorkloadProfile::CpuBound { intensity: 0.9 }));
        let mem = PerfCollector::new(node_running(WorkloadProfile::MemoryBound { resident: 0.9 }));
        let dram_cpu = cpu.families()[5].metrics[0].sample.value;
        let dram_mem = mem.families()[5].metrics[0].sample.value;
        assert!(dram_mem > 2.0 * dram_cpu, "mem={dram_mem} cpu={dram_cpu}");
    }

    #[test]
    fn network_counters_accumulate() {
        let c = NetCollector::new(node_running(WorkloadProfile::CpuBound { intensity: 0.9 }));
        let fams = c.families();
        assert_eq!(fams.len(), 2);
        // 2e7 B/s × 10 s ≈ 2e8 B on each direction for MPI-ish code.
        assert!(fams[0].metrics[0].sample.value > 1e8);
        assert!(fams[1].metrics[0].sample.value > 1e8);
    }
}
