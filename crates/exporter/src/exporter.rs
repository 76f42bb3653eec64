//! The exporter: registry wiring, text rendering and the `/metrics`
//! HTTP endpoint.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ceems_emissions::EmissionProvider;
use ceems_http::auth::BasicAuth;
use ceems_http::{HttpServer, Response, Router, ServerConfig};
use ceems_metrics::registry::Registry;
use ceems_simnode::clock::SimClock;
use ceems_simnode::cluster::NodeHandle;

use crate::collectors::cgroup::CgroupCollector;
use crate::collectors::emissions::EmissionsCollector;
use crate::collectors::gpu::{DcgmCollector, GpuMapCollector};
use crate::collectors::ipmi::IpmiCollector;
use crate::collectors::node::NodeCollector;
use crate::collectors::perf::{NetCollector, PerfCollector};
use crate::collectors::rapl::RaplCollector;
use crate::collectors::selfstats::{RenderMode, SelfCollector, SelfStats};

/// Exporter configuration (mirrors the real exporter's CLI flags).
#[derive(Clone)]
pub struct ExporterConfig {
    /// Collectors to disable, by name (`cgroup`, `rapl`, `ipmi`, `node`,
    /// `gpu`, `gpu_map`, `emissions`, `self`).
    pub disabled_collectors: Vec<String>,
    /// Emission providers to expose (with the zone).
    pub emission_providers: Vec<Arc<dyn EmissionProvider>>,
    /// Country/zone code for emission factors.
    pub zone: String,
    /// Basic auth for the HTTP endpoint (the paper's DoS guard).
    pub basic_auth: Option<BasicAuth>,
    /// Failure-injection: fraction of IPMI invocations that time out
    /// (0 disables; used by resilience tests).
    pub ipmi_failure_rate: f64,
}

impl Default for ExporterConfig {
    fn default() -> Self {
        ExporterConfig {
            disabled_collectors: Vec::new(),
            emission_providers: Vec::new(),
            zone: "FR".to_string(),
            basic_auth: None,
            ipmi_failure_rate: 0.0,
        }
    }
}

/// A per-node CEEMS exporter.
pub struct CeemsExporter {
    registry: Registry,
    stats: Arc<SelfStats>,
    config: ExporterConfig,
}

impl CeemsExporter {
    /// Builds the exporter for a node, registering all collectors and then
    /// disabling the configured ones.
    pub fn new(node: NodeHandle, clock: SimClock, config: ExporterConfig) -> CeemsExporter {
        let registry = Registry::new();
        let stats = Arc::new(SelfStats::default());

        registry.register("cgroup", Arc::new(CgroupCollector::new(node.clone())));
        registry.register("rapl", Arc::new(RaplCollector::new(node.clone())));
        registry.register(
            "ipmi",
            Arc::new(IpmiCollector::with_failure_rate(
                node.clone(),
                clock.clone(),
                config.ipmi_failure_rate,
            )),
        );
        registry.register("node", Arc::new(NodeCollector::new(node.clone())));
        registry.register("gpu", Arc::new(DcgmCollector::new(node.clone())));
        registry.register("gpu_map", Arc::new(GpuMapCollector::new(node.clone())));
        registry.register("perf", Arc::new(PerfCollector::new(node.clone())));
        registry.register("ebpf_net", Arc::new(NetCollector::new(node)));
        registry.register(
            "emissions",
            Arc::new(EmissionsCollector::new(
                config.emission_providers.clone(),
                config.zone.clone(),
                clock,
            )),
        );
        registry.register("self", Arc::new(SelfCollector::new(stats.clone())));

        for name in &config.disabled_collectors {
            registry.set_enabled(name, false);
        }

        CeemsExporter {
            registry,
            stats,
            config,
        }
    }

    /// The collector registry (to toggle collectors at runtime).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Scrape statistics.
    pub fn stats(&self) -> &Arc<SelfStats> {
        &self.stats
    }

    /// Renders the `/metrics` payload (the scrape hot path).
    pub fn render(&self) -> String {
        self.render_as(RenderMode::Scrape)
    }

    /// Renders a payload for the streaming push path; counted separately in
    /// `ceems_exporter_samples_total{mode="push"}`.
    pub fn render_for_push(&self) -> String {
        self.render_as(RenderMode::Push)
    }

    fn render_as(&self, mode: RenderMode) -> String {
        let started = std::time::Instant::now();
        // Sized from the last payload plus room for counters gaining digits.
        let last = self.stats.last_payload_bytes.load(Ordering::Relaxed) as usize;
        let mut out = String::with_capacity((last + 256).max(4096));
        let samples = self.registry.render_into(&mut out);
        self.stats
            .record(started.elapsed().as_nanos() as u64, out.len());
        self.stats.record_samples(mode, samples as u64);
        out
    }

    /// A closure suitable for in-process scraping.
    pub fn render_fn(self: &Arc<Self>) -> Arc<dyn Fn() -> String + Send + Sync> {
        let me = self.clone();
        Arc::new(move || me.render())
    }

    /// Serves `/metrics` over HTTP on an ephemeral port.
    pub fn serve(self: Arc<Self>) -> std::io::Result<HttpServer> {
        self.serve_with(ServerConfig::ephemeral())
    }

    /// Serves `/metrics` with explicit server tuning (connection caps, idle
    /// timeout, backlog — e.g. from the `http:` config section).
    /// Basic auth from the exporter's own config still takes precedence.
    pub fn serve_with(self: Arc<Self>, mut cfg: ServerConfig) -> std::io::Result<HttpServer> {
        cfg.basic_auth = self.config.basic_auth.clone();
        let mut router = Router::new();
        let me = self.clone();
        router.get("/metrics", move |_req| Response::text(me.render()));
        router.get("/", |_req| {
            Response::text("CEEMS exporter. Metrics at /metrics\n")
        });
        HttpServer::serve(cfg, router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_emissions::owid::OwidStatic;
    use ceems_http::Client;
    use ceems_metrics::parse::parse_text;
    use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
    use ceems_simnode::power::{GpuModel, IpmiCoverage};
    use ceems_simnode::workload::WorkloadProfile;
    use parking_lot::Mutex;

    fn busy_gpu_node() -> NodeHandle {
        let mut n = SimNode::new(
            NodeSpec {
                hostname: "jz-a100-0001".into(),
                profile: HardwareProfile::Gpu {
                    model: GpuModel::A100,
                    count: 4,
                    coverage: IpmiCoverage::ExcludesGpus,
                },
            },
            11,
        );
        n.add_task(
            TaskSpec {
                id: 4242,
                cores: 16,
                memory_bytes: 128 << 30,
                gpus: 4,
                workload: WorkloadProfile::GpuTraining {
                    intensity: 0.9,
                    period_s: 600.0,
                },
            },
            0,
        )
        .unwrap();
        for i in 1..=10 {
            n.step(i * 1000, 1.0);
        }
        Arc::new(Mutex::new(n))
    }

    fn exporter(node: NodeHandle) -> Arc<CeemsExporter> {
        let clock = SimClock::starting_at(10_000);
        Arc::new(CeemsExporter::new(
            node,
            clock,
            ExporterConfig {
                emission_providers: vec![Arc::new(OwidStatic)],
                ..Default::default()
            },
        ))
    }

    #[test]
    fn render_is_parseable_and_complete() {
        let exp = exporter(busy_gpu_node());
        let text = exp.render();
        let parsed = parse_text(&text).unwrap();
        let names: std::collections::BTreeSet<_> =
            parsed.samples.iter().map(|s| s.name.clone()).collect();
        for expected in [
            "ceems_compute_unit_cpu_user_seconds_total",
            "ceems_compute_unit_memory_used_bytes",
            "ceems_rapl_package_joules_total",
            "ceems_rapl_dram_joules_total",
            "ceems_ipmi_dcmi_power_current_watts",
            "ceems_cpu_seconds_total",
            "DCGM_FI_DEV_GPU_UTIL",
            "ceems_compute_unit_gpu_index_flag",
            "ceems_emissions_gCo2_kWh",
            "ceems_exporter_scrapes_total",
        ] {
            assert!(names.contains(expected), "missing {expected} in:\n{names:?}");
        }
        // The job's uuid label flows through.
        assert!(text.contains("uuid=\"slurm-4242\""));
    }

    #[test]
    fn disabled_collectors_are_skipped() {
        let node = busy_gpu_node();
        let clock = SimClock::new();
        let exp = CeemsExporter::new(
            node,
            clock,
            ExporterConfig {
                disabled_collectors: vec!["gpu".into(), "emissions".into()],
                ..Default::default()
            },
        );
        let text = exp.render();
        assert!(!text.contains("DCGM_FI_DEV_GPU_UTIL"));
        assert!(!text.contains("ceems_emissions"));
        assert!(text.contains("ceems_rapl_package_joules_total"));
    }

    #[test]
    fn self_stats_advance_per_render() {
        let exp = exporter(busy_gpu_node());
        exp.render();
        exp.render();
        let text = exp.render();
        // The self collector reports scrapes from *before* this render.
        assert!(text.contains("ceems_exporter_scrapes_total 2"));
        assert!(exp.stats().mean_render_ns() > 0.0);
    }

    #[test]
    fn http_endpoint_with_auth() {
        let node = busy_gpu_node();
        let auth = BasicAuth::new("prom", "pw");
        let exp = Arc::new(CeemsExporter::new(
            node,
            SimClock::new(),
            ExporterConfig {
                basic_auth: Some(auth.clone()),
                ..Default::default()
            },
        ));
        let server = exp.serve().unwrap();
        let unauth = Client::new()
            .get(&format!("{}/metrics", server.base_url()))
            .unwrap();
        assert_eq!(unauth.status.0, 401);
        let ok = Client::new()
            .with_basic_auth(auth)
            .get(&format!("{}/metrics", server.base_url()))
            .unwrap();
        assert_eq!(ok.status.0, 200);
        assert!(ok.body_string().contains("ceems_rapl_package_joules_total"));
        server.shutdown();
    }
}
