//! # ceems-qfe — the CEEMS query frontend
//!
//! Sits between the load balancer and the TSDB replicas and makes
//! dashboard-scale range queries cheap without changing a byte of their
//! results:
//!
//! * **Range splitting** ([`split`]): long `query_range` requests are
//!   decomposed into `split_interval`-aligned sub-ranges executed in
//!   parallel. Because the engine evaluates each grid step independently,
//!   partitioning the step grid reproduces the unsplit evaluation exactly —
//!   including `rate`/`increase` lookback, which each sub-query re-reads
//!   from storage.
//! * **Step-aligned results cache** ([`cache`]): immutable past extents are
//!   cached per (tenant, normalized expression, step, grid phase); repeat
//!   renders fetch only the uncovered remainder. A `recent_window` guard
//!   keeps still-settling data out of the cache.
//! * **Per-tenant fair scheduling** ([`sched`]): bounded per-tenant queues,
//!   round-robin dispatch and concurrency caps; overflow is shed with
//!   `429` + `Retry-After`.
//!
//! Split-unsafe expressions (`topk`, `offset`, …) and non-range traffic
//! pass through verbatim. See [`frontend::QueryFrontend`] for the wiring.

pub mod cache;
pub mod downstream;
pub mod frontend;
pub mod sched;
pub mod split;

pub use cache::{ExtentKey, ResultsCache};
pub use downstream::{Downstream, HttpDownstream, RouterDownstream};
pub use frontend::{system_now, NowFn, QfeConfig, QueryFrontend};
pub use sched::{FairScheduler, Permit, SchedulerConfig, Shed};
pub use split::{merge_extents, split_grid, Extent, ExtentData, StepGrid};
