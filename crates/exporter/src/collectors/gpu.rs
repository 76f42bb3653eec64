//! GPU collectors.
//!
//! [`DcgmCollector`] plays the role of NVIDIA's DCGM exporter (deployed
//! alongside CEEMS on GPU clusters, §II.B.a); [`GpuMapCollector`] is the
//! CEEMS-side piece: the job→GPU-ordinal map that must be recorded while
//! the job is alive because ordinals are unavailable post-mortem (§II.A.d).

use ceems_metrics::model::MetricType;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_simnode::cluster::NodeHandle;
use ceems_slurm::types::job_uuid;

use super::FamilyDesc;

const DCGM_FAMILIES: [FamilyDesc; 4] = [
    (
        "DCGM_FI_DEV_GPU_UTIL",
        "GPU SM utilisation (percent)",
        MetricType::Gauge,
    ),
    (
        "DCGM_FI_DEV_POWER_USAGE",
        "GPU board power draw (watts)",
        MetricType::Gauge,
    ),
    (
        "DCGM_FI_DEV_FB_USED",
        "GPU framebuffer memory used (MiB)",
        MetricType::Gauge,
    ),
    (
        "DCGM_FI_DEV_TOTAL_ENERGY_CONSUMPTION",
        "GPU cumulative energy (millijoules)",
        MetricType::Counter,
    ),
];

/// DCGM-style per-GPU metrics.
pub struct DcgmCollector {
    node: NodeHandle,
}

impl DcgmCollector {
    /// Creates a collector over a node.
    pub fn new(node: NodeHandle) -> DcgmCollector {
        DcgmCollector { node }
    }
}

impl Collector for DcgmCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let node = self.node.lock();
        let gpus: Vec<_> = node
            .gpus()
            .iter()
            .map(|g| {
                let values = [
                    g.util * 100.0,
                    g.power_w,
                    g.memory_used as f64 / (1 << 20) as f64,
                    g.energy_j * 1000.0,
                ];
                (g.ordinal.to_string(), g.uuid(), g.model.name(), values)
            })
            .collect();
        drop(node);
        for (i, &(name, help, metric_type)) in DCGM_FAMILIES.iter().enumerate() {
            out.family(name, help, metric_type);
            for (ordinal, uuid, model, values) in &gpus {
                out.sample(
                    "",
                    &[("gpu", ordinal), ("UUID", uuid), ("modelName", model)],
                    values[i],
                );
            }
        }
    }
}

/// The job→GPU-ordinal map: `ceems_compute_unit_gpu_index_flag{uuid,index}=1`.
pub struct GpuMapCollector {
    node: NodeHandle,
}

impl GpuMapCollector {
    /// Creates a collector over a node.
    pub fn new(node: NodeHandle) -> GpuMapCollector {
        GpuMapCollector { node }
    }
}

impl Collector for GpuMapCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let node = self.node.lock();
        let mut bound = Vec::new();
        for task_id in node.task_ids() {
            if let Some(ordinals) = node.task_gpu_ordinals(task_id) {
                let uuid = job_uuid(task_id);
                bound.extend(ordinals.iter().map(|o| (uuid.clone(), o.to_string())));
            }
        }
        drop(node);
        out.family(
            "ceems_compute_unit_gpu_index_flag",
            "Maps compute units to the GPU ordinals bound to them",
            MetricType::Gauge,
        );
        for (uuid, ord) in &bound {
            // `index` matches the real CEEMS metric; `gpu` duplicates it
            // under DCGM's label name so recording rules can join the
            // map against DCGM power/util series on (gpu, instance).
            out.sample("", &[("uuid", uuid), ("index", ord), ("gpu", ord)], 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
    use ceems_simnode::power::{GpuModel, IpmiCoverage};
    use ceems_simnode::workload::WorkloadProfile;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn gpu_node() -> NodeHandle {
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "g".into(),
                profile: HardwareProfile::Gpu {
                    model: GpuModel::A100,
                    count: 4,
                    coverage: IpmiCoverage::IncludesGpus,
                },
            },
            6,
        );
        n.add_task(
            TaskSpec {
                id: 777,
                cores: 8,
                memory_bytes: 64 << 30,
                gpus: 2,
                workload: WorkloadProfile::GpuTraining {
                    intensity: 0.9,
                    period_s: 600.0,
                },
            },
            0,
        )
        .unwrap();
        for i in 1..=5 {
            n.step(i * 1000, 1.0);
        }
        Arc::new(Mutex::new(n))
    }

    #[test]
    fn dcgm_metrics_per_gpu() {
        let fams = DcgmCollector::new(gpu_node()).families();
        assert_eq!(fams.len(), 4);
        assert_eq!(fams[0].metrics.len(), 4); // 4 GPUs
        // Bound GPUs run hot; unbound idle.
        let utils: Vec<f64> = fams[0].metrics.iter().map(|m| m.sample.value).collect();
        assert!(utils[0] > 50.0 && utils[1] > 50.0);
        assert_eq!(utils[2], 0.0);
        // Energy counter (mJ) accumulates.
        assert!(fams[3].metrics[0].sample.value > 1e6);
        assert_eq!(
            fams[1].metrics[0].labels.get("modelName"),
            Some("NVIDIA A100-SXM4-80GB")
        );
    }

    #[test]
    fn gpu_map_flags() {
        let fams = GpuMapCollector::new(gpu_node()).families();
        assert_eq!(fams[0].metrics.len(), 2); // job bound to GPUs 0 and 1
        for m in &fams[0].metrics {
            assert_eq!(m.labels.get("uuid"), Some("slurm-777"));
            assert_eq!(m.sample.value, 1.0);
        }
        let indices: Vec<_> = fams[0]
            .metrics
            .iter()
            .map(|m| m.labels.get("index").unwrap().to_string())
            .collect();
        assert!(indices.contains(&"0".to_string()) && indices.contains(&"1".to_string()));
    }
}
