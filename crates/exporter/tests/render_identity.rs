//! The exporter's direct text path against the typed one: for real nodes,
//! `Registry::render` must be `encode_families(&gather())` byte for byte.

use std::sync::Arc;

use ceems_emissions::owid::OwidStatic;
use ceems_emissions::rte::RteSimulated;
use ceems_exporter::{CeemsExporter, ExporterConfig};
use ceems_metrics::{encode_families, parse_text};
use ceems_simnode::node::{HardwareProfile, NodeSpec, SimNode, TaskSpec};
use ceems_simnode::power::{GpuModel, IpmiCoverage};
use ceems_simnode::{SimClock, WorkloadProfile};
use parking_lot::Mutex;

fn node(profile: HardwareProfile, jobs: u64, gpus_per_job: usize) -> SimNode {
    let mut n = SimNode::new(
        NodeSpec {
            hostname: "n".into(),
            profile,
        },
        13,
    );
    let cores = (n.total_cores() / jobs.max(1) as usize).max(1);
    for id in 1..=jobs {
        n.add_task(
            TaskSpec {
                id,
                cores,
                memory_bytes: 2 << 30,
                gpus: gpus_per_job,
                workload: WorkloadProfile::CpuBound { intensity: 0.8 },
            },
            0,
        )
        .expect("task fits");
    }
    for i in 1..=4 {
        n.step(i * 15_000, 15.0);
    }
    n
}

fn exporter(node: SimNode, config: ExporterConfig) -> CeemsExporter {
    CeemsExporter::new(
        Arc::new(Mutex::new(node)),
        SimClock::starting_at(60_000),
        ExporterConfig {
            emission_providers: vec![Arc::new(RteSimulated::default()), Arc::new(OwidStatic)],
            ..config
        },
    )
}

/// Renders twice (the self collector then has a latency histogram to show)
/// and checks the registry's text against the typed reference.
fn assert_identity(exp: &CeemsExporter) -> String {
    exp.render();
    exp.render_for_push();
    let direct = exp.registry().render();
    assert_eq!(direct, encode_families(&exp.registry().gather()));
    let parsed = parse_text(&direct).expect("payload parses");
    let mut counted = String::new();
    assert_eq!(exp.registry().render_into(&mut counted), parsed.samples.len());
    direct
}

#[test]
fn idle_cpu_node() {
    let text = assert_identity(&exporter(
        node(HardwareProfile::AmdCpu, 0, 0),
        ExporterConfig::default(),
    ));
    // No job and no DRAM domain: those families are headers only.
    assert!(text.contains("# TYPE ceems_compute_unit_cpu_user_seconds_total counter\n# HELP"));
    assert!(text.contains("# TYPE ceems_rapl_dram_joules_total counter\n# HELP"));
    assert!(text.contains("ceems_exporter_render_duration_seconds_count 2\n"));
}

#[test]
fn thirty_two_job_cpu_node() {
    let text = assert_identity(&exporter(
        node(HardwareProfile::IntelCpu, 32, 0),
        ExporterConfig::default(),
    ));
    assert_eq!(text.matches("ceems_compute_unit_memory_used_bytes{uuid=").count(), 32);
    assert!(text.contains("ceems_compute_unit_perf_cycles_total{uuid=\"slurm-32\"}"));
}

#[test]
fn gpu_node_with_ipmi_failing() {
    let profile = HardwareProfile::Gpu {
        model: GpuModel::A100,
        count: 4,
        coverage: IpmiCoverage::ExcludesGpus,
    };
    let text = assert_identity(&exporter(
        node(profile, 2, 2),
        ExporterConfig {
            ipmi_failure_rate: 1.0,
            ..Default::default()
        },
    ));
    // The BMC timed out: the family keeps its header and has no sample.
    assert!(text.contains("# TYPE ceems_ipmi_dcmi_power_current_watts gauge\n# HELP"));
    assert!(!text.contains("\nceems_ipmi_dcmi_power_current_watts "));
    assert_eq!(text.matches("DCGM_FI_DEV_POWER_USAGE{UUID=").count(), 4);
    assert!(text.contains("ceems_compute_unit_gpu_index_flag{gpu=\"0\",index=\"0\",uuid=\"slurm-1\"} 1\n"));
}

#[test]
fn disabled_collectors() {
    let exp = exporter(
        node(HardwareProfile::IntelCpu, 8, 0),
        ExporterConfig {
            disabled_collectors: vec!["perf".into(), "self".into(), "emissions".into()],
            ..Default::default()
        },
    );
    let text = assert_identity(&exp);
    assert!(!text.contains("ceems_exporter_") && !text.contains("_perf_"));
    exp.registry().set_enabled("cgroup", false);
    exp.registry().set_enabled("self", true);
    let text = assert_identity(&exp);
    assert!(text.contains("ceems_exporter_scrapes_total 4\n") && !text.contains("compute_unit_cpu"));
}
