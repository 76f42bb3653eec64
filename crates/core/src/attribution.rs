//! Eq. (1): per-workload power attribution.
//!
//! §III of the paper estimates job power by splitting the IPMI node power:
//! 90 % goes to CPU+DRAM (split by the ratio of RAPL CPU and DRAM watts,
//! then shared by CPU-time and memory shares respectively) and 10 % to the
//! network, shared equally among running jobs. Different node groups get
//! different rules — Intel nodes have DRAM counters, AMD nodes do not, and
//! GPU servers come in two IPMI wirings (§III) — which is exactly how this
//! module is organised: [`rules_for_group`] emits the recording rules for
//! one scrape-target group, and [`attribute`] is the closed-form reference
//! the experiments validate the rule pipeline against.

use ceems_simnode::node::HardwareProfile;
use ceems_simnode::power::IpmiCoverage;
use ceems_tsdb::rules::{RecordingRule, RuleGroup};

/// Scrape-target node groups (the `nodegroup` label stamped by the scrape
/// config).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeGroup {
    /// Intel CPUs with package + DRAM RAPL domains.
    IntelDram,
    /// AMD CPUs with package RAPL only.
    AmdNoDram,
    /// GPU servers whose IPMI reading includes GPU power (type A).
    GpuIpmiInclusive,
    /// GPU servers whose IPMI reading excludes GPU power (type B).
    GpuIpmiExclusive,
}

impl NodeGroup {
    /// The `nodegroup` label value.
    pub fn label(self) -> &'static str {
        match self {
            NodeGroup::IntelDram => "intel-dram",
            NodeGroup::AmdNoDram => "amd-nodram",
            NodeGroup::GpuIpmiInclusive => "gpu-typea",
            NodeGroup::GpuIpmiExclusive => "gpu-typeb",
        }
    }

    /// All groups.
    pub fn all() -> [NodeGroup; 4] {
        [
            NodeGroup::IntelDram,
            NodeGroup::AmdNoDram,
            NodeGroup::GpuIpmiInclusive,
            NodeGroup::GpuIpmiExclusive,
        ]
    }

    /// Classifies a hardware profile into its scrape group.
    pub fn for_profile(profile: &HardwareProfile) -> NodeGroup {
        match profile {
            HardwareProfile::IntelCpu => NodeGroup::IntelDram,
            HardwareProfile::AmdCpu => NodeGroup::AmdNoDram,
            HardwareProfile::Gpu { coverage, .. } => match coverage {
                IpmiCoverage::IncludesGpus => NodeGroup::GpuIpmiInclusive,
                IpmiCoverage::ExcludesGpus => NodeGroup::GpuIpmiExclusive,
            },
        }
    }

    fn has_dram_counters(self) -> bool {
        // GPU nodes are Intel-based in the Jean-Zay fleet.
        !matches!(self, NodeGroup::AmdNoDram)
    }

    fn has_gpus(self) -> bool {
        matches!(self, NodeGroup::GpuIpmiInclusive | NodeGroup::GpuIpmiExclusive)
    }

    fn ipmi_includes_gpus(self) -> bool {
        matches!(self, NodeGroup::GpuIpmiInclusive)
    }
}

/// Fraction of node power attributed to the network (the paper cites a
/// data-centre survey for the 10 % figure).
pub const NETWORK_FRACTION: f64 = 0.1;

/// Builds the recording rules for one node group.
///
/// `window` is the `rate()` window (e.g. `"2m"`). The rules are ordered so
/// intermediates are recorded before the rules that read them; the engine
/// evaluates a group's rules sequentially at the same timestamp, so chains
/// resolve within one evaluation. Every rule carries the static label
/// `nodegroup=<group>`, which its output already has through
/// `by (…, nodegroup)`: it changes no series, and it tells the engine that
/// no other group reads this group's records, so the groups run side by
/// side.
pub fn rules_for_group(group: NodeGroup, window: &str) -> Vec<RecordingRule> {
    let g = group.label();
    let w = window;
    let mut rules: Vec<RecordingRule> = Vec::new();
    let mut rule = |record: &str, expr: String, statics: &[(&str, &str)]| {
        let statics = [statics, &[("nodegroup", g)]].concat();
        rules.push(
            RecordingRule::new(record, &expr, &statics)
                .unwrap_or_else(|e| panic!("rule {record} for {g} failed to parse: {e}\n{expr}")),
        );
    };

    // --- Intermediates -------------------------------------------------
    rule(
        "instance:ceems_cpu_busy:rate",
        format!(
            "sum by (instance, nodegroup) (rate(ceems_cpu_seconds_total{{mode!=\"idle\",nodegroup=\"{g}\"}}[{w}]))"
        ),
        &[],
    );
    rule(
        "uuid:ceems_cpu_time:rate",
        format!(
            "sum by (uuid, instance, nodegroup) (rate(ceems_compute_unit_cpu_user_seconds_total{{nodegroup=\"{g}\"}}[{w}])) + sum by (uuid, instance, nodegroup) (rate(ceems_compute_unit_cpu_system_seconds_total{{nodegroup=\"{g}\"}}[{w}]))"
        ),
        &[],
    );
    rule(
        "instance:ceems_njobs:count",
        format!("count by (instance, nodegroup) (uuid:ceems_cpu_time:rate{{nodegroup=\"{g}\"}})"),
        &[],
    );
    if group.has_dram_counters() {
        rule(
            "instance:ceems_rapl_cpu:watts",
            format!(
                "sum by (instance, nodegroup) (rate(ceems_rapl_package_joules_total{{nodegroup=\"{g}\"}}[{w}]))"
            ),
            &[],
        );
        rule(
            "instance:ceems_rapl_dram:watts",
            format!(
                "sum by (instance, nodegroup) (rate(ceems_rapl_dram_joules_total{{nodegroup=\"{g}\"}}[{w}]))"
            ),
            &[],
        );
        rule(
            "instance:ceems_cpufrac:ratio",
            format!(
                "instance:ceems_rapl_cpu:watts{{nodegroup=\"{g}\"}} / (instance:ceems_rapl_cpu:watts{{nodegroup=\"{g}\"}} + instance:ceems_rapl_dram:watts{{nodegroup=\"{g}\"}})"
            ),
            &[],
        );
        rule(
            "instance:ceems_dramfrac:ratio",
            format!(
                "instance:ceems_rapl_dram:watts{{nodegroup=\"{g}\"}} / (instance:ceems_rapl_cpu:watts{{nodegroup=\"{g}\"}} + instance:ceems_rapl_dram:watts{{nodegroup=\"{g}\"}})"
            ),
            &[],
        );
    }
    if group.has_gpus() {
        rule(
            "instance:ceems_gpu_total:watts",
            format!("sum by (instance, nodegroup) (DCGM_FI_DEV_POWER_USAGE{{nodegroup=\"{g}\"}})"),
            &[],
        );
    }

    // Non-GPU (CPU+DRAM+misc) wall power per node.
    let ipmi = format!(
        "sum by (instance, nodegroup) (ceems_ipmi_dcmi_power_current_watts{{nodegroup=\"{g}\"}})"
    );
    if group.ipmi_includes_gpus() && group.has_gpus() {
        // IPMI carries sensor noise while DCGM is exact, so the difference
        // can dip below zero on GPU-dominated nodes; clamp to keep the
        // attribution physical.
        rule(
            "instance:ceems_nongpu:watts",
            format!(
                "clamp_min({ipmi} - instance:ceems_gpu_total:watts{{nodegroup=\"{g}\"}}, 0)"
            ),
            &[],
        );
    } else {
        rule("instance:ceems_nongpu:watts", ipmi, &[]);
    }
    if group.has_gpus() {
        rule(
            "instance:ceems_total:watts",
            format!(
                "instance:ceems_nongpu:watts{{nodegroup=\"{g}\"}} + instance:ceems_gpu_total:watts{{nodegroup=\"{g}\"}}"
            ),
            &[],
        );
    } else {
        rule(
            "instance:ceems_total:watts",
            format!("instance:ceems_nongpu:watts{{nodegroup=\"{g}\"}} + 0"),
            &[],
        );
    }

    // --- Per-job components --------------------------------------------
    let cpu_share =
        format!("(uuid:ceems_cpu_time:rate{{nodegroup=\"{g}\"}} / on (instance) instance:ceems_cpu_busy:rate{{nodegroup=\"{g}\"}})");
    if group.has_dram_counters() {
        rule(
            "uuid:ceems_power_component:watts",
            format!(
                "{cpu_share} * on (instance) (0.9 * instance:ceems_nongpu:watts{{nodegroup=\"{g}\"}} * instance:ceems_cpufrac:ratio{{nodegroup=\"{g}\"}})"
            ),
            &[("component", "cpu")],
        );
        rule(
            "uuid:ceems_power_component:watts",
            format!(
                "(sum by (uuid, instance, nodegroup) (avg_over_time(ceems_compute_unit_memory_used_bytes{{nodegroup=\"{g}\"}}[{w}])) / on (instance) sum by (instance, nodegroup) (avg_over_time(ceems_memory_used_bytes{{nodegroup=\"{g}\"}}[{w}]))) * on (instance) (0.9 * instance:ceems_nongpu:watts{{nodegroup=\"{g}\"}} * instance:ceems_dramfrac:ratio{{nodegroup=\"{g}\"}})"
            ),
            &[("component", "dram")],
        );
    } else {
        // AMD: no DRAM domain — all of the 0.9 share follows CPU time.
        rule(
            "uuid:ceems_power_component:watts",
            format!(
                "{cpu_share} * on (instance) (0.9 * instance:ceems_nongpu:watts{{nodegroup=\"{g}\"}})"
            ),
            &[("component", "cpu")],
        );
    }
    if group.has_gpus() {
        rule(
            "uuid:ceems_power_component:watts",
            format!(
                "sum by (uuid, instance, nodegroup) (ceems_compute_unit_gpu_index_flag{{nodegroup=\"{g}\"}} * on (gpu, instance) DCGM_FI_DEV_POWER_USAGE{{nodegroup=\"{g}\"}})"
            ),
            &[("component", "gpu")],
        );
        rule(
            "uuid:ceems_gpu_util:pct",
            format!(
                "sum by (uuid, instance, nodegroup) (ceems_compute_unit_gpu_index_flag{{nodegroup=\"{g}\"}} * on (gpu, instance) DCGM_FI_DEV_GPU_UTIL{{nodegroup=\"{g}\"}}) / sum by (uuid, instance, nodegroup) (ceems_compute_unit_gpu_index_flag{{nodegroup=\"{g}\"}})"
            ),
            &[],
        );
    }
    // Network share: 10% of the *non-GPU* node power, split equally. GPU
    // draw is measured directly by DCGM and passed through 1:1, so taking
    // the network share from the total would double-count 10% of it.
    rule(
        "uuid:ceems_power_component:watts",
        format!(
            "(uuid:ceems_cpu_time:rate{{nodegroup=\"{g}\"}} * 0 + 1) * on (instance) ({NETWORK_FRACTION} * instance:ceems_nongpu:watts{{nodegroup=\"{g}\"}} / instance:ceems_njobs:count{{nodegroup=\"{g}\"}})"
        ),
        &[("component", "network")],
    );

    // --- Total ----------------------------------------------------------
    rule(
        "uuid:ceems_power:watts",
        format!(
            "sum by (uuid, instance, nodegroup) (uuid:ceems_power_component:watts{{nodegroup=\"{g}\"}})"
        ),
        &[],
    );
    rules
}

/// The full rule set: one group per node group, all on one interval.
pub fn all_rule_groups(window: &str, interval_ms: i64) -> Vec<RuleGroup> {
    NodeGroup::all()
        .into_iter()
        .map(|g| RuleGroup {
            name: format!("ceems-attribution-{}", g.label()),
            interval_ms,
            rules: rules_for_group(g, window),
        })
        .collect()
}

/// One job's observables on a node, for the closed-form reference.
#[derive(Clone, Debug)]
pub struct JobObservables {
    /// Unit uuid.
    pub uuid: String,
    /// CPU time rate (busy cores).
    pub cpu_rate: f64,
    /// Resident memory (bytes).
    pub mem_bytes: f64,
    /// Sum of the job's GPUs' board power (W); 0 for non-GPU jobs.
    pub gpu_w: f64,
}

/// One node's observables at an instant.
#[derive(Clone, Debug)]
pub struct NodeObservables {
    /// Node group.
    pub group: NodeGroup,
    /// IPMI reading (W).
    pub ipmi_w: f64,
    /// RAPL package power (W).
    pub rapl_cpu_w: f64,
    /// RAPL DRAM power (W; ignored for AMD).
    pub rapl_dram_w: f64,
    /// Node busy-CPU rate (busy cores, incl. OS).
    pub node_cpu_rate: f64,
    /// Node memory used (bytes).
    pub node_mem_bytes: f64,
    /// Sum of all GPU board powers on the node (W).
    pub gpu_total_w: f64,
    /// Per-job observables.
    pub jobs: Vec<JobObservables>,
}

/// Closed-form Eq. (1) (with the GPU extension described in `DESIGN.md`):
/// returns `(uuid, watts)` per job. This is what the recording-rule
/// pipeline must reproduce.
pub fn attribute(node: &NodeObservables) -> Vec<(String, f64)> {
    let njobs = node.jobs.len();
    if njobs == 0 {
        return Vec::new();
    }
    let nongpu_w = if node.group.ipmi_includes_gpus() {
        node.ipmi_w - node.gpu_total_w
    } else {
        node.ipmi_w
    };
    let (cpu_frac, dram_frac) = if node.group.has_dram_counters() {
        let denom = node.rapl_cpu_w + node.rapl_dram_w;
        if denom > 0.0 {
            (node.rapl_cpu_w / denom, node.rapl_dram_w / denom)
        } else {
            (1.0, 0.0)
        }
    } else {
        (1.0, 0.0)
    };
    // 10% of the non-GPU power (GPU draw is exact, not estimated — sharing
    // a fraction of it to the network would double-count).
    let net_per_job = NETWORK_FRACTION * nongpu_w / njobs as f64;

    node.jobs
        .iter()
        .map(|j| {
            let cpu_share = if node.node_cpu_rate > 0.0 {
                j.cpu_rate / node.node_cpu_rate
            } else {
                0.0
            };
            let mem_share = if node.node_mem_bytes > 0.0 {
                j.mem_bytes / node.node_mem_bytes
            } else {
                0.0
            };
            let cpu_w = 0.9 * nongpu_w * cpu_frac * cpu_share;
            let dram_w = if node.group.has_dram_counters() {
                0.9 * nongpu_w * dram_frac * mem_share
            } else {
                0.0
            };
            (j.uuid.clone(), cpu_w + dram_w + j.gpu_w + net_per_job)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use ceems_metrics::matcher::LabelMatcher;
    use ceems_tsdb::rules::RuleEngine;
    use ceems_tsdb::Tsdb;

    #[test]
    fn groups_classify_profiles() {
        use ceems_simnode::power::GpuModel;
        assert_eq!(
            NodeGroup::for_profile(&HardwareProfile::IntelCpu),
            NodeGroup::IntelDram
        );
        assert_eq!(
            NodeGroup::for_profile(&HardwareProfile::AmdCpu),
            NodeGroup::AmdNoDram
        );
        assert_eq!(
            NodeGroup::for_profile(&HardwareProfile::Gpu {
                model: GpuModel::V100,
                count: 4,
                coverage: IpmiCoverage::IncludesGpus
            }),
            NodeGroup::GpuIpmiInclusive
        );
        let labels: std::collections::BTreeSet<_> =
            NodeGroup::all().iter().map(|g| g.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn all_rules_parse() {
        for g in NodeGroup::all() {
            let rules = rules_for_group(g, "2m");
            assert!(rules.len() >= 7, "{g:?} has {} rules", rules.len());
        }
        let groups = all_rule_groups("2m", 30_000);
        assert_eq!(groups.len(), 4);
        for (group, g) in groups.iter().zip(NodeGroup::all()) {
            for rule in &group.rules {
                let nodegroup = ("nodegroup".to_string(), g.label().to_string());
                assert!(rule.static_labels.contains(&nodegroup), "{}", rule.record);
            }
        }
        // No group reads another's records: one level, side by side.
        let engine = RuleEngine::new(groups);
        assert_eq!(engine.group_levels(), [vec![0, 1, 2, 3]]);
    }

    #[test]
    fn closed_form_conserves_power() {
        let node = NodeObservables {
            group: NodeGroup::IntelDram,
            ipmi_w: 500.0,
            rapl_cpu_w: 240.0,
            rapl_dram_w: 60.0,
            node_cpu_rate: 10.0,
            node_mem_bytes: 100e9,
            gpu_total_w: 0.0,
            jobs: vec![
                JobObservables {
                    uuid: "a".into(),
                    cpu_rate: 7.0,
                    mem_bytes: 60e9,
                    gpu_w: 0.0,
                },
                JobObservables {
                    uuid: "b".into(),
                    cpu_rate: 3.0,
                    mem_bytes: 40e9,
                    gpu_w: 0.0,
                },
            ],
        };
        let out = attribute(&node);
        let total: f64 = out.iter().map(|(_, w)| w).sum();
        // Shares sum to exactly 1 here, so jobs get 0.9+0.1 of the node.
        assert!((total - 500.0).abs() < 1e-9, "total={total}");
        // Job a: cpu 0.9*500*0.8*0.7=252, dram 0.9*500*0.2*0.6=54, net 25.
        let a = out.iter().find(|(u, _)| u == "a").unwrap().1;
        assert!((a - 331.0).abs() < 1e-9, "a={a}");
    }

    #[test]
    fn closed_form_gpu_wirings_differ() {
        let jobs = vec![JobObservables {
            uuid: "g".into(),
            cpu_rate: 4.0,
            mem_bytes: 50e9,
            gpu_w: 800.0,
        }];
        let base = NodeObservables {
            group: NodeGroup::GpuIpmiInclusive,
            ipmi_w: 1400.0,
            rapl_cpu_w: 200.0,
            rapl_dram_w: 50.0,
            node_cpu_rate: 4.0,
            node_mem_bytes: 50e9,
            gpu_total_w: 800.0,
            jobs: jobs.clone(),
        };
        let inclusive = attribute(&base)[0].1;
        // Type A: nongpu = 1400-800 = 600; the lone job gets the whole node
        // back: 0.9*600 + 800 + 0.1*600 = 1400 = IPMI. Conservation exact.
        assert!((inclusive - 1400.0).abs() < 1e-9, "inclusive={inclusive}");

        let exclusive = attribute(&NodeObservables {
            group: NodeGroup::GpuIpmiExclusive,
            ..base
        })[0]
            .1;
        // Type B: ipmi (1400) is already non-GPU; total = 1400 + 800.
        assert!((exclusive - 2200.0).abs() < 1e-9, "exclusive={exclusive}");
        assert!(exclusive > inclusive);
    }

    #[test]
    fn empty_node_attributes_nothing() {
        let node = NodeObservables {
            group: NodeGroup::AmdNoDram,
            ipmi_w: 300.0,
            rapl_cpu_w: 100.0,
            rapl_dram_w: 0.0,
            node_cpu_rate: 0.5,
            node_mem_bytes: 8e9,
            gpu_total_w: 0.0,
            jobs: vec![],
        };
        assert!(attribute(&node).is_empty());
    }

    /// The E5 experiment in miniature: feed a TSDB with raw exporter-shaped
    /// series, run the recording rules, and check the derived per-job power
    /// matches the closed form.
    #[test]
    fn rule_pipeline_matches_closed_form() {
        let db = Tsdb::default();
        let g = NodeGroup::IntelDram.label();
        let inst = "jz-intel-0001:9100";
        // 10 minutes of 15 s samples. Node: busy 10 cores (7 job-a, 3
        // job-b... plus 0 overhead to keep closed form exact), RAPL 240/60 W,
        // IPMI 500 W, memory 60/40 of 100 GB.
        for i in 0..41i64 {
            let t = i * 15_000;
            let secs = (i * 15) as f64;
            db.append(&labels! {"__name__" => "ceems_ipmi_dcmi_power_current_watts", "instance" => inst, "nodegroup" => g}, t, 500.0);
            db.append(&labels! {"__name__" => "ceems_rapl_package_joules_total", "instance" => inst, "nodegroup" => g, "path" => "intel-rapl:0"}, t, 240.0 * secs);
            db.append(&labels! {"__name__" => "ceems_rapl_dram_joules_total", "instance" => inst, "nodegroup" => g, "path" => "intel-rapl:0:0"}, t, 60.0 * secs);
            db.append(&labels! {"__name__" => "ceems_cpu_seconds_total", "mode" => "user", "instance" => inst, "nodegroup" => g}, t, 9.0 * secs);
            db.append(&labels! {"__name__" => "ceems_cpu_seconds_total", "mode" => "system", "instance" => inst, "nodegroup" => g}, t, 1.0 * secs);
            db.append(&labels! {"__name__" => "ceems_cpu_seconds_total", "mode" => "idle", "instance" => inst, "nodegroup" => g}, t, 30.0 * secs);
            for (uuid, cores, mem) in [("slurm-1", 7.0, 60e9), ("slurm-2", 3.0, 40e9)] {
                db.append(&labels! {"__name__" => "ceems_compute_unit_cpu_user_seconds_total", "uuid" => uuid, "instance" => inst, "nodegroup" => g}, t, cores * 0.92 * secs);
                db.append(&labels! {"__name__" => "ceems_compute_unit_cpu_system_seconds_total", "uuid" => uuid, "instance" => inst, "nodegroup" => g}, t, cores * 0.08 * secs);
                db.append(&labels! {"__name__" => "ceems_compute_unit_memory_used_bytes", "uuid" => uuid, "instance" => inst, "nodegroup" => g}, t, mem);
            }
            db.append(&labels! {"__name__" => "ceems_memory_used_bytes", "instance" => inst, "nodegroup" => g}, t, 100e9);
        }

        let mut engine = RuleEngine::new(all_rule_groups("2m", 30_000));
        let written = engine.force_eval(&db, 600_000);
        assert!(written > 0, "rules wrote nothing");
        assert_eq!(engine.stats().failures, 0);

        let got = db.select(
            &[LabelMatcher::eq("__name__", "uuid:ceems_power:watts")],
            599_000,
            601_000,
        );
        assert_eq!(got.len(), 2, "expected 2 per-job power series");

        let expected = attribute(&NodeObservables {
            group: NodeGroup::IntelDram,
            ipmi_w: 500.0,
            rapl_cpu_w: 240.0,
            rapl_dram_w: 60.0,
            node_cpu_rate: 10.0,
            node_mem_bytes: 100e9,
            gpu_total_w: 0.0,
            jobs: vec![
                JobObservables {
                    uuid: "slurm-1".into(),
                    cpu_rate: 7.0,
                    mem_bytes: 60e9,
                    gpu_w: 0.0,
                },
                JobObservables {
                    uuid: "slurm-2".into(),
                    cpu_rate: 3.0,
                    mem_bytes: 40e9,
                    gpu_w: 0.0,
                },
            ],
        });
        for (uuid, want_w) in expected {
            let series = got
                .iter()
                .find(|s| s.labels.get("uuid") == Some(uuid.as_str()))
                .unwrap_or_else(|| panic!("missing series for {uuid}"));
            let got_w = series.samples.last().unwrap().v;
            assert!(
                (got_w - want_w).abs() / want_w < 0.02,
                "{uuid}: rule={got_w:.2} closed-form={want_w:.2}"
            );
        }
        // Conservation: per-job powers sum to the whole node.
        let total: f64 = got.iter().map(|s| s.samples.last().unwrap().v).sum();
        assert!((total - 500.0).abs() / 500.0 < 0.02, "total={total}");
    }
}
