//! Node-level collector: `/proc/stat` CPU jiffies and `/proc/meminfo`.

use ceems_metrics::model::MetricType;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_simnode::cluster::NodeHandle;
use ceems_simnode::pseudofs::PseudoFs;

/// The node collector.
pub struct NodeCollector {
    node: NodeHandle,
}

impl NodeCollector {
    /// Creates a collector over a node.
    pub fn new(node: NodeHandle) -> NodeCollector {
        NodeCollector { node }
    }
}

const USER_HZ: f64 = 100.0;

fn parse_proc_stat(text: &str) -> Option<(f64, f64, f64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle ...
    Some((
        *fields.first()? / USER_HZ,
        *fields.get(2)? / USER_HZ,
        *fields.get(3)? / USER_HZ,
    ))
}

fn meminfo_kb(text: &str, key: &str) -> Option<f64> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start_matches(':').trim();
            let kb: f64 = rest.split_whitespace().next()?.parse().ok()?;
            return Some(kb * 1024.0);
        }
    }
    None
}

impl Collector for NodeCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let node = self.node.lock();
        let cpu = node.read_file("/proc/stat").as_deref().and_then(parse_proc_stat);
        let mem = node.read_file("/proc/meminfo").and_then(|text| {
            Some((meminfo_kb(&text, "MemTotal")?, meminfo_kb(&text, "MemAvailable")?))
        });
        drop(node);

        out.family("ceems_cpu_seconds_total", "Node CPU time by mode", MetricType::Counter);
        if let Some((user, system, idle)) = cpu {
            for (mode, v) in [("user", user), ("system", system), ("idle", idle)] {
                out.sample("", &[("mode", mode)], v);
            }
        }
        out.family("ceems_memory_total_bytes", "Installed memory", MetricType::Gauge);
        if let Some((total, _)) = mem {
            out.sample("", &[], total);
        }
        out.family(
            "ceems_memory_used_bytes",
            "Memory in use (total minus available)",
            MetricType::Gauge,
        );
        if let Some((total, avail)) = mem {
            out.sample("", &[], total - avail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
    use ceems_simnode::workload::WorkloadProfile;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn parses_proc_files() {
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "n".into(),
                profile: HardwareProfile::IntelCpu,
            },
            5,
        );
        n.add_task(
            TaskSpec {
                id: 1,
                cores: 20,
                memory_bytes: 64 << 30,
                gpus: 0,
                workload: WorkloadProfile::CpuBound { intensity: 0.95 },
            },
            0,
        )
        .unwrap();
        for i in 1..=10 {
            n.step(i * 1000, 1.0);
        }
        let c = NodeCollector::new(Arc::new(Mutex::new(n)));
        let fams = c.families();
        let cpu = &fams[0];
        assert_eq!(cpu.metrics.len(), 3);
        let user = cpu
            .metrics
            .iter()
            .find(|m| m.labels.get("mode") == Some("user"))
            .unwrap()
            .sample
            .value;
        // ~19 busy cores for 10s at 92% user: >150 CPU-seconds.
        assert!(user > 100.0, "user={user}");
        let total = fams[1].metrics[0].sample.value;
        let used = fams[2].metrics[0].sample.value;
        assert_eq!(total, (192u64 << 30) as f64);
        assert!(used > 1e9 && used < total);
    }

    #[test]
    fn parser_helpers() {
        let (u, s, i) = parse_proc_stat("cpu  100 0 50 850 0 0 0 0 0 0\n").unwrap();
        assert_eq!((u, s, i), (1.0, 0.5, 8.5));
        assert!(parse_proc_stat("nothing").is_none());
        assert_eq!(
            meminfo_kb("MemTotal:       1024 kB\n", "MemTotal"),
            Some(1024.0 * 1024.0)
        );
        assert!(meminfo_kb("MemTotal: 1 kB", "MemFree").is_none());
    }
}
