#![warn(missing_docs)]
//! CEEMS API server (S12 in `DESIGN.md`).
//!
//! §II.B.b: Prometheus is wrong for "total energy of a user over the last
//! year" queries, so CEEMS keeps per-unit aggregates in a relational DB and
//! serves them over an HTTP API. This crate reproduces that component:
//!
//! * [`schema`] — the unified compute-unit schema that abstracts resource
//!   managers (SLURM jobs, Openstack VMs and k8s pods all map onto it).
//! * [`rm`] — the resource-manager client trait + the SLURM implementation
//!   over the simulated `slurmdbd`.
//! * [`openstack`] — a Nova-backed client (the paper's §IV future work),
//!   proving the unified schema is genuinely resource-manager agnostic.
//! * [`metrics_source`] — the updater's HTTP path to the TSDB; in process
//!   or through the failover write route it reads the database itself,
//!   both through [`ceems_tsdb::QuerySource`].
//! * [`updater`] — the single-writer poll loop: fetch changed units, ask
//!   the TSDB once per aggregate what every unit did since the previous
//!   poll and fold that into the stored rows, roll up usage, and run the
//!   §II.C cardinality cleanup of short units.
//! * [`api`] — the HTTP API (`/api/v1/units`, `/usage`, `/verify` for the
//!   load balancer's ownership checks).

pub mod api;
pub mod metrics_source;
pub mod openstack;
pub mod rm;
pub mod schema;
pub mod updater;

pub use api::ApiServer;
pub use metrics_source::{http_source, TsdbLocalSource};
pub use rm::{ResourceManagerClient, SlurmRmClient, UnitInfo};
pub use updater::{Updater, UpdaterConfig};
