#![warn(missing_docs)]
//! `e2e`: one seeded end-to-end benchmark of the CEEMS pipeline.
//!
//! A Jean-Zay-shaped `CeemsStack` runs a fixed, seeded schedule of ingest
//! cycles, dashboard renders and fleet queries; the outputs are checked and
//! every metric is printed by name with its unit. `README.md` defines the
//! workloads and metrics; `../BENCHMARK.json` is the contract with the
//! driver.

pub mod aa;
pub mod fixture;
pub mod pipeline;
pub mod run;
pub mod schedule;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod traced;
pub mod window;
