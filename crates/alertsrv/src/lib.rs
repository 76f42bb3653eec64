#![warn(missing_docs)]
//! Alerting service (S21 in `DESIGN.md`).
//!
//! CEEMS turns its attributed power/energy series into operator alerts:
//! "project over its energy budget", "emission-factor feed down", "node
//! drawing anomalous power", "replica falling behind on WAL replay". This
//! crate reproduces that last mile as a self-contained service in the
//! Prometheus Alertmanager mold, adapted to the simulated stack:
//!
//! * [`rules`] — alert rules are PromQL expressions over the TSDB
//!   (comparisons like `sum by(uuid)(uuid:ceems_power:watts) > 900` yield
//!   the violating series) with `for:` hold durations, static labels and
//!   annotation templates. Rules run in the order they are written, as
//!   one Prometheus rule group: a meta-alert over the synthetic `ALERTS`
//!   series sees what earlier rules wrote in this evaluation.
//! * [`query`] — rule expressions evaluate through a [`QuerySource`]: in
//!   process, through the failover write route, or over HTTP against the
//!   qfe/replica read path behind the S19 retry/circuit-breaker discipline.
//! * [`state`] — alert lifecycle (pending → firing → resolved) persisted
//!   in `ceems-relstore`, so a restart mid-incident neither re-fires nor
//!   forgets active alerts.
//! * [`pipeline`] — label-fingerprint dedup, `group_by` grouping with
//!   `group_wait`/`group_interval`/`repeat_interval`, matcher-based
//!   silences with expiry, and a routing tree mapping alerts to sinks.
//! * [`sink`] — webhook and structured-log notification sinks; webhook
//!   deliveries retry with backoff and honor `Retry-After`.
//! * [`service`] — ties it together: [`service::AlertService::tick`]
//!   drives evaluation off the simulated clock, `/metrics` exposes S17
//!   instruments, and a small HTTP API lists alerts and manages silences.

pub mod packs;
pub mod pipeline;
pub mod query;
pub mod rules;
pub mod service;
pub mod sink;
pub mod state;

pub use pipeline::{Route, RoutingTree};
pub use query::{LocalQuerySource, QuerySource};
pub use rules::{AlertRule, RuleSet, ALERTS_METRIC};
pub use service::{AlertConfig, AlertService, TickStats};
pub use sink::{LogSink, Notification, NotificationSink, SinkError, WebhookSink};
pub use state::{AlertInstance, AlertState, Silence};
