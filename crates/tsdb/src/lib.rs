#![warn(missing_docs)]
//! Time series database (S2–S3 in `DESIGN.md`).
//!
//! CEEMS stores every metric in Prometheus and derives per-job power with
//! recording rules. This crate is the from-scratch stand-in. It has no
//! cold tier: answers over long durations come from the API server's
//! per-unit aggregates (S4).
//!
//!
//! * [`chunk`] — Gorilla-style compressed chunks (delta-of-delta
//!   timestamps, XOR values), the storage hot path.
//! * [`index`] — inverted label index with posting-list intersection.
//! * [`head`] — the in-memory write head (striped for concurrent appends).
//! * [`storage`] — [`storage::Tsdb`]: appends, selects on the calling
//!   thread, tombstone deletes (the cardinality cleanup of §II.C), retention.
//! * [`promql`] — a PromQL-subset engine: selectors, `rate`/`increase` with
//!   counter-reset handling, arithmetic, aggregations — enough to express
//!   Eq. (1) exactly as the paper's recording rules do.
//! * [`rules`] — recording-rule groups that materialise derived series.
//! * [`scrape`] — the scrape manager pulling exporters (HTTP or in-process)
//!   into the TSDB.
//! * [`httpapi`] — the Prometheus HTTP API subset Grafana / the LB speak.
//! * [`promapi`] — that API's query parameters, envelopes, typed answers
//!   and trace hops: the one codec every hop that speaks it shares.
//! * [`client`] — that API from the caller's side: the one [`TsdbClient`]
//!   every TSDB-over-HTTP hop in the stack goes through, and the one
//!   [`QuerySource`] trait alert rules and the API-server updater read a
//!   TSDB they do not own through (in process, the write route, HTTP).
//! * [`wal`] — segmented write-ahead log + checkpoints: crash recovery via
//!   [`storage::Tsdb::open`] (S16).
//! * [`replica`] — follower catch-up: stream a leader's WAL over HTTP into
//!   a local (optionally itself durable) TSDB.
//! * [`election`] — leader failover (S24): epoch-fenced deterministic
//!   election, write re-routing via [`election::WriteRouter`], and
//!   divergence-safe rejoin of a deposed leader.
//! * [`fan_out`] — the scoped workers an ingest pass and a rule tick spread
//!   their sources and groups over, one shared cursor between them.

pub mod chunk;
pub mod client;
pub mod election;
pub mod head;
pub mod httpapi;
pub mod index;
mod par;
pub mod promapi;
pub mod promql;
pub mod replica;
pub mod rules;
pub mod scrape;
pub mod selfmon;
pub mod storage;
pub mod types;
pub mod wal;

pub use client::{QuerySource, TsdbClient};
pub use election::{FailoverConfig, NodeRole, ReplicationGroup, WriteRouter};
pub use par::fan_out;
pub use storage::{RefError, RefToken, SeriesRef, StaleEpoch, Tsdb, TsdbConfig, TsdbInstruments};
pub use types::{Sample, SeriesData};
pub use wal::{DiskFaults, FsyncMode, ScriptedDiskFaults, WalOptions, WalPosition};
