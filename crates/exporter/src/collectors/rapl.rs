//! RAPL collector: reads the powercap tree.

use ceems_metrics::model::MetricType;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_simnode::cluster::NodeHandle;
use ceems_simnode::pseudofs::PseudoFs;

use super::file_path;

const POWERCAP: &str = "/sys/class/powercap";

/// The RAPL collector.
pub struct RaplCollector {
    node: NodeHandle,
}

impl RaplCollector {
    /// Creates a collector over a node.
    pub fn new(node: NodeHandle) -> RaplCollector {
        RaplCollector { node }
    }
}

impl Collector for RaplCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let node = self.node.lock();
        let mut zones = Vec::new();
        let mut path = String::new();
        for zone in node.list_dir(POWERCAP).unwrap_or_default() {
            let Some(name) = node.read_file(file_path(&mut path, POWERCAP, &zone, "name")) else {
                continue;
            };
            let Some(uj) = node.read_u64(file_path(&mut path, POWERCAP, &zone, "energy_uj")) else {
                continue;
            };
            let is_package = match name.trim() {
                n if n.starts_with("package") => true,
                "dram" => false,
                _ => continue,
            };
            zones.push((zone, is_package, uj as f64 / 1e6));
        }
        drop(node);

        for (packages, name, help) in [
            (
                true,
                "ceems_rapl_package_joules_total",
                "RAPL package domain cumulative energy",
            ),
            (
                false,
                "ceems_rapl_dram_joules_total",
                "RAPL DRAM domain cumulative energy",
            ),
        ] {
            out.family(name, help, MetricType::Counter);
            for (zone, _, joules) in zones.iter().filter(|z| z.1 == packages) {
                out.sample("", &[("path", zone)], *joules);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn stepped(profile: HardwareProfile) -> NodeHandle {
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "n".into(),
                profile,
            },
            3,
        );
        for i in 1..=5 {
            n.step(i * 1000, 1.0);
        }
        Arc::new(Mutex::new(n))
    }

    #[test]
    fn intel_has_package_and_dram() {
        let c = RaplCollector::new(stepped(HardwareProfile::IntelCpu));
        let fams = c.families();
        assert_eq!(fams[0].metrics.len(), 2); // 2 sockets
        assert_eq!(fams[1].metrics.len(), 2); // 2 dram domains
        assert!(fams[0].metrics[0].sample.value > 100.0); // ≥45W*5s
        assert_eq!(fams[0].metrics[0].labels.get("path"), Some("intel-rapl:0"));
    }

    #[test]
    fn amd_has_no_dram_domain() {
        let c = RaplCollector::new(stepped(HardwareProfile::AmdCpu));
        let fams = c.families();
        assert_eq!(fams[0].metrics.len(), 2);
        assert!(fams[1].metrics.is_empty());
    }
}
