//! IPMI-DCMI collector.
//!
//! Wraps the node's simulated `ipmitool dcmi power reading`. The BMC caches
//! internally (§II.A.b: DCMI is not suitable at high frequency), so calling
//! this on every scrape is safe — most scrapes see the cached value.

use ceems_metrics::model::MetricType;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_simnode::clock::SimClock;
use ceems_simnode::cluster::NodeHandle;

/// The IPMI collector.
///
/// Supports failure injection: real BMCs time out under load, and the rest
/// of the stack must degrade gracefully (the family is simply absent from
/// that scrape; recording rules skip the node for that round).
pub struct IpmiCollector {
    node: NodeHandle,
    clock: SimClock,
    failure_rate: f64,
    attempts: std::sync::atomic::AtomicU64,
    failures: std::sync::atomic::AtomicU64,
}

impl IpmiCollector {
    /// Creates a collector over a node and the simulation clock.
    pub fn new(node: NodeHandle, clock: SimClock) -> IpmiCollector {
        Self::with_failure_rate(node, clock, 0.0)
    }

    /// Creates a collector whose BMC times out on roughly `failure_rate` of
    /// invocations (deterministic per attempt counter, so tests are stable).
    pub fn with_failure_rate(node: NodeHandle, clock: SimClock, failure_rate: f64) -> IpmiCollector {
        IpmiCollector {
            node,
            clock,
            failure_rate: failure_rate.clamp(0.0, 1.0),
            attempts: std::sync::atomic::AtomicU64::new(0),
            failures: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// BMC invocations that timed out.
    pub fn failures(&self) -> u64 {
        self.failures.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Collector for IpmiCollector {
    fn collect(&self, out: &mut dyn Sink) {
        use std::sync::atomic::Ordering;
        let n = self.attempts.fetch_add(1, Ordering::Relaxed);
        // Deterministic pseudo-random failure pattern.
        let h = (n.wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 / (1u64 << 24) as f64;
        let failed = self.failure_rate > 0.0 && h < self.failure_rate;
        let watts = if failed {
            self.failures.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            Some(self.node.lock().ipmi_power_reading(self.clock.now_ms()))
        };
        out.family(
            "ceems_ipmi_dcmi_power_current_watts",
            "Whole-node power reported by IPMI-DCMI",
            MetricType::Gauge,
        );
        if let Some(watts) = watts {
            out.sample("", &[], watts as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn failure_injection_drops_the_family() {
        let clock = SimClock::new();
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "n".into(),
                profile: HardwareProfile::IntelCpu,
            },
            4,
        );
        n.step(1000, 1.0);
        let node = Arc::new(Mutex::new(n));
        let always = IpmiCollector::with_failure_rate(node.clone(), clock.clone(), 1.0);
        let fams = always.families();
        assert!(fams[0].metrics.is_empty());
        assert_eq!(always.failures(), 1);

        let never = IpmiCollector::with_failure_rate(node.clone(), clock.clone(), 0.0);
        assert_eq!(never.families()[0].metrics.len(), 1);

        // A partial rate fails some but not all of 100 scrapes.
        let flaky = IpmiCollector::with_failure_rate(node, clock, 0.3);
        let mut ok = 0;
        for _ in 0..100 {
            if !flaky.families()[0].metrics.is_empty() {
                ok += 1;
            }
        }
        assert!(ok > 40 && ok < 95, "ok={ok}");
    }

    #[test]
    fn reports_node_power() {
        let clock = SimClock::new();
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "n".into(),
                profile: HardwareProfile::IntelCpu,
            },
            4,
        );
        n.step(1000, 1.0);
        let c = IpmiCollector::new(Arc::new(Mutex::new(n)), clock.clone());
        clock.advance_ms(1000);
        let fams = c.families();
        assert_eq!(fams.len(), 1);
        let watts = fams[0].metrics[0].sample.value;
        // Idle dual-socket Intel node: 100-300 W.
        assert!(watts > 100.0 && watts < 400.0, "watts={watts}");
    }
}
