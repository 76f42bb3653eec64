#![warn(missing_docs)]
//! # CEEMS — Compute Energy & Emissions Monitoring Stack (Rust reproduction)
//!
//! A from-scratch reproduction of *"CEEMS: A Resource Manager Agnostic
//! Energy and Emissions Monitoring Stack"* (Paipuri, SC-W 2024): real-time
//! per-workload energy and CO₂e reporting for HPC/cloud platforms, plus
//! the substrates the original delegates to Prometheus, SQLite, Litestream,
//! SLURM and the node hardware. Thanos's long-term role is played by the
//! API server's per-unit aggregates (§II.B.b).
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`ceems_metrics`] | metric model, text exposition format, label matching |
//! | [`ceems_http`] | threaded HTTP/1.1 server/client, basic auth |
//! | [`ceems_obs`] | self-monitoring: process registries, query tracing, slow-query log |
//! | [`ceems_relstore`] | embedded relational store + WAL + Litestream-style backup |
//! | [`ceems_simnode`] | simulated nodes: RAPL, IPMI-DCMI, cgroups, GPUs |
//! | [`ceems_slurm`] | batch scheduler + accounting (slurmdbd) simulation |
//! | [`ceems_emissions`] | OWID / RTE / Electricity Maps emission factors |
//! | [`ceems_tsdb`] | Gorilla-compressed TSDB, PromQL subset, recording rules (no cold tier: long-term answers come from the API server) |
//! | [`ceems_exporter`] | the per-node CEEMS exporter and its collectors |
//! | [`ceems_apiserver`] | the CEEMS API server: unit DB, rollups, ownership |
//! | [`ceems_lb`] | the access-controlled load balancer |
//! | [`ceems_qfe`] | query frontend: range splitting, results cache, tenant QoS |
//! | [`ceems_alertsrv`] | alerting: PromQL rules, alert DAGs, dedup/silence/routing, durable state |
//! | [`ceems_stream`] | streaming ingest bus: push frames, per-publisher ack/dedup and resume |
//! | [`ceems_core`] | Eq. (1) attribution rules, YAML config, stack wiring, dashboards |
//!
//! ## Quickstart
//!
//! ```
//! use ceems::prelude::*;
//!
//! let mut stack = CeemsStack::build_default();
//! stack.submit(JobRequest {
//!     user: "alice".into(),
//!     account: "proj".into(),
//!     partition: "cpu-intel".into(),
//!     nodes: 1,
//!     cores_per_node: 8,
//!     memory_per_node: 16 << 30,
//!     gpus_per_node: 0,
//!     walltime_s: 3600,
//!     workload: WorkloadProfile::CpuBound { intensity: 0.9 },
//! }).unwrap();
//! stack.run_for(300.0, 15.0);
//! assert!(stack.total_attributed_power() > 0.0);
//! ```

pub use ceems_alertsrv as alertsrv;
pub use ceems_apiserver as apiserver;
pub use ceems_core as core;
pub use ceems_emissions as emissions;
pub use ceems_exporter as exporter;
pub use ceems_http as http;
pub use ceems_lb as lb;
pub use ceems_metrics as metrics;
pub use ceems_obs as obs;
pub use ceems_qfe as qfe;
pub use ceems_relstore as relstore;
pub use ceems_simnode as simnode;
pub use ceems_slurm as slurm;
pub use ceems_stream as stream;
pub use ceems_tsdb as tsdb;

/// The common imports for building and driving a stack.
pub mod prelude {
    pub use ceems_core::config::{CeemsConfig, ChurnSettings};
    pub use ceems_core::dashboards;
    pub use ceems_core::{CeemsStack, NodeGroup};
    pub use ceems_simnode::{ClusterSpec, SimClock, SimCluster, WorkloadProfile};
    pub use ceems_slurm::{JobRequest, JobState, Partition, Scheduler};
    pub use ceems_tsdb::{Tsdb, TsdbConfig};
}
